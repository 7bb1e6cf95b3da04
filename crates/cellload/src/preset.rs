//! Named, seeded workload presets.
//!
//! Every preset is a pure function of `(universe(s), seed, queries)` —
//! and, for `churn`, the epoch count. Generation is deterministic at
//! any rayon thread count: parallel presets derive one RNG stream per
//! **fixed 4096-query chunk** from the trace seed and the chunk's
//! position (never from the worker that happens to run it), the same
//! counter-based discipline the batch pipeline and the query engine
//! use. `steady` is generated sequentially because it must reproduce,
//! byte for byte, the historical `bench::query_mix` stream — the trace
//! `cellbench serve-tcp` replays (pinned by `crates/bench/tests/steady_mix.rs`).
//!
//! The presets (full definitions in `DESIGN.md`):
//!
//! - **steady** — the legacy uniform mix: 55% IPv4 hits, 15% IPv6
//!   hits, 15% TEST-NET-1 misses, 15% random IPv4.
//! - **diurnal** — 24 "hours" with sinusoidal intensity (peak at hour
//!   14), Zipf(1.1)-skewed block popularity behind a seeded rank
//!   permutation, and a hit fraction that sags off-peak.
//! - **flashcrowd** — a Zipf(1.1) baseline; in the middle fifth of the
//!   trace, 85% of queries pile onto ≤8 "crowd" blocks.
//! - **scan** — adversarial cache-buster: a strided sweep over the
//!   served universe (defeating the 256-slot hot-block cache), a
//!   linear IPv4 space sweep, and unserved IPv6 probes. Mostly misses,
//!   no locality.
//! - **churn** — one segment per CELLDELT epoch; each segment mixes
//!   Zipf hits on that epoch's universe with revisits of the previous
//!   epoch's blocks (probing churned-away prefixes), TEST-NET misses,
//!   and random noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use cellserve::IpKey;

use crate::trace::{Trace, TraceSegment};
use crate::universe::Universe;
use crate::zipf::ZipfTable;

/// Queries per generation chunk; one RNG stream per chunk.
const GEN_CHUNK: usize = 4096;

/// Hours in the diurnal cycle.
const HOURS: usize = 24;

/// Blocks in the flash-crowd hot set (capped by the universe size).
const CROWD_BLOCKS: usize = 8;

/// A named workload preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The legacy `bench::query_mix` uniform mix.
    Steady,
    /// Sinusoidal intensity with Zipf-skewed popularity.
    Diurnal,
    /// A Zipf baseline with a mid-trace crowd spike.
    FlashCrowd,
    /// Cache-busting adversarial scan, mostly misses.
    Scan,
    /// Per-epoch segments tracking CELLDELT churn.
    Churn,
}

impl Preset {
    /// Every preset, in canonical order.
    pub const ALL: [Preset; 5] = [
        Preset::Steady,
        Preset::Diurnal,
        Preset::FlashCrowd,
        Preset::Scan,
        Preset::Churn,
    ];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Steady => "steady",
            Preset::Diurnal => "diurnal",
            Preset::FlashCrowd => "flashcrowd",
            Preset::Scan => "scan",
            Preset::Churn => "churn",
        }
    }

    /// Parse a CLI-facing name.
    pub fn parse(name: &str) -> Option<Preset> {
        Preset::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Seed-domain separator so two presets never share an RNG stream.
    fn tag(self) -> u64 {
        match self {
            Preset::Steady => 0x5EAD,
            Preset::Diurnal => 0xD1D1,
            Preset::FlashCrowd => 0xF1A5,
            Preset::Scan => 0x5CA0,
            Preset::Churn => 0xC4A7,
        }
    }
}

/// What to generate: a preset plus its seed and size knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Which workload shape.
    pub preset: Preset,
    /// Generator seed; same seed ⇒ bit-identical trace.
    pub seed: u64,
    /// Total queries across all segments.
    pub queries: usize,
    /// Segment count for `churn` (clamped to ≥ 2); ignored by the
    /// single-segment presets.
    pub epochs: u64,
}

impl TraceSpec {
    /// Generate the trace over the given per-epoch universes.
    ///
    /// Single-segment presets use `universes[0]`; `churn` maps segment
    /// `e` to `universes[min(e, last)]`. The result is bit-identical
    /// for the same spec and universes at any rayon thread count.
    ///
    /// # Panics
    /// When `universes` is empty — pass at least one (possibly empty)
    /// [`Universe`].
    pub fn generate(&self, universes: &[Universe]) -> Trace {
        assert!(!universes.is_empty(), "at least one universe required");
        let u0 = &universes[0];
        let segments = match self.preset {
            Preset::Steady => vec![TraceSegment {
                epoch: 0,
                queries: steady_queries(u0, self.queries, self.seed),
            }],
            Preset::Diurnal => vec![TraceSegment {
                epoch: 0,
                queries: diurnal_queries(u0, self.queries, self.seed),
            }],
            Preset::FlashCrowd => vec![TraceSegment {
                epoch: 0,
                queries: flashcrowd_queries(u0, self.queries, self.seed),
            }],
            Preset::Scan => vec![TraceSegment {
                epoch: 0,
                queries: scan_queries(u0, self.queries, self.seed),
            }],
            Preset::Churn => churn_segments(universes, self.queries, self.seed, self.epochs),
        };
        Trace {
            preset: self.preset.name().to_string(),
            seed: self.seed,
            segments,
        }
    }
}

/// SplitMix64 finalizer: the chunk-seed mixer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of one generation chunk: a pure function of the trace
/// seed, the preset, the segment, and the chunk index — never of the
/// worker thread.
fn chunk_seed(seed: u64, preset: Preset, segment: u64, chunk: u64) -> u64 {
    splitmix(seed ^ splitmix(preset.tag() ^ splitmix(segment ^ splitmix(chunk))))
}

/// Generate `total` queries in fixed chunks, in parallel, order
/// preserved: `f(chunk_index, start_position, len)` must be pure.
fn gen_chunked<F>(total: usize, f: F) -> Vec<IpKey>
where
    F: Fn(u64, usize, usize) -> Vec<IpKey> + Sync,
{
    let chunks = total.div_ceil(GEN_CHUNK);
    let parts: Vec<Vec<IpKey>> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let start = c * GEN_CHUNK;
            let len = GEN_CHUNK.min(total - start);
            f(c as u64, start, len)
        })
        .collect();
    parts.concat()
}

/// A seeded Fisher–Yates permutation of `0..n`: the popularity-rank →
/// block-index mapping, so "rank 0" is a different block per seed.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// A query inside combined block `idx` (v4 blocks first, then v6),
/// host bits drawn from `rng`.
fn block_query(u: &Universe, idx: usize, rng: &mut StdRng) -> IpKey {
    if idx < u.v4.len() {
        IpKey::V4(u.v4[idx].addr(rng.gen()))
    } else {
        let b = u.v6[idx - u.v4.len()];
        IpKey::V6(b.addr(rng.gen(), rng.gen()))
    }
}

/// A guaranteed-miss query: TEST-NET-1 or random IPv4 noise.
fn miss_query(rng: &mut StdRng) -> IpKey {
    if rng.gen::<f64>() < 0.5 {
        IpKey::V4(0xC000_0200 | rng.gen_range(0u32..256))
    } else {
        IpKey::V4(rng.gen())
    }
}

/// The `steady` preset: a byte-exact port of the historical
/// `bench::query_mix` — same seed mixing constant, same draw order,
/// same branch thresholds — so every pre-existing BENCH trajectory
/// point stays comparable. Sequential by construction (a single RNG
/// stream), hence trivially thread-count invariant.
pub fn steady_queries(u: &Universe, lookups: usize, seed: u64) -> Vec<IpKey> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB37C_5E11);
    let mut queries = Vec::with_capacity(lookups);
    for _ in 0..lookups {
        let roll: f64 = rng.gen();
        if roll < 0.55 && !u.v4.is_empty() {
            let b = u.v4[rng.gen_range(0..u.v4.len())];
            queries.push(IpKey::V4(b.addr(rng.gen())));
        } else if roll < 0.70 && !u.v6.is_empty() {
            let b = u.v6[rng.gen_range(0..u.v6.len())];
            queries.push(IpKey::V6(b.addr(rng.gen(), rng.gen())));
        } else if roll < 0.85 {
            // TEST-NET-1: always a miss.
            queries.push(IpKey::V4(0xC000_0200 | rng.gen_range(0u32..256)));
        } else {
            queries.push(IpKey::V4(rng.gen()));
        }
    }
    queries
}

/// Diurnal intensity weight of hour `h`: sinusoidal, peak at hour 14,
/// trough at hour 2.
fn hour_weight(h: usize) -> f64 {
    1.0 + 0.8 * (std::f64::consts::TAU * (h as f64 - 8.0) / HOURS as f64).sin()
}

/// Hit fraction of hour `h`: busier hours are more cacheable traffic,
/// off-peak hours carry proportionally more scanner noise.
fn hour_hit_fraction(h: usize) -> f64 {
    0.70 + 0.15 * hour_weight(h)
}

/// Largest-remainder apportionment of `total` over `weights`,
/// deterministic (ties broken by index).
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let wsum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / wsum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut used: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - counts[a] as f64;
        let fb = exact[b] - counts[b] as f64;
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut k = 0;
    while used < total {
        counts[order[k % order.len()]] += 1;
        used += 1;
        k += 1;
    }
    counts
}

/// The `diurnal` preset: hour-apportioned counts, Zipf(1.1) popularity
/// behind a seeded permutation, hour-dependent hit fraction.
fn diurnal_queries(u: &Universe, lookups: usize, seed: u64) -> Vec<IpKey> {
    let weights: Vec<f64> = (0..HOURS).map(hour_weight).collect();
    let counts = apportion(lookups, &weights);
    let n = u.len();
    let zipf = (n > 0).then(|| ZipfTable::new(n, 1.1));
    let perm = permutation(n, splitmix(seed ^ 0xD1_0000));
    let mut out = Vec::with_capacity(lookups);
    for (h, &count) in counts.iter().enumerate() {
        let hit = hour_hit_fraction(h);
        let hour_queries = gen_chunked(count, |c, _start, len| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, Preset::Diurnal, h as u64, c));
            let mut q = Vec::with_capacity(len);
            for _ in 0..len {
                match &zipf {
                    Some(z) if rng.gen::<f64>() < hit => {
                        let rank = z.sample(rng.gen());
                        q.push(block_query(u, perm[rank] as usize, &mut rng));
                    }
                    _ => q.push(miss_query(&mut rng)),
                }
            }
            q
        });
        out.extend(hour_queries);
    }
    out
}

/// The `flashcrowd` preset: Zipf baseline, with the middle fifth of
/// the trace stampeding onto a tiny crowd set.
fn flashcrowd_queries(u: &Universe, lookups: usize, seed: u64) -> Vec<IpKey> {
    let n = u.len();
    let zipf = (n > 0).then(|| ZipfTable::new(n, 1.1));
    let perm = permutation(n, splitmix(seed ^ 0xF1_0000));
    let crowd: Vec<u32> = perm.iter().copied().take(CROWD_BLOCKS).collect();
    let window = (lookups * 2 / 5)..(lookups * 3 / 5);
    gen_chunked(lookups, |c, start, len| {
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, Preset::FlashCrowd, 0, c));
        let mut q = Vec::with_capacity(len);
        for j in 0..len {
            let pos = start + j;
            if window.contains(&pos) && !crowd.is_empty() && rng.gen::<f64>() < 0.85 {
                let b = crowd[rng.gen_range(0..crowd.len())];
                q.push(block_query(u, b as usize, &mut rng));
            } else {
                match &zipf {
                    Some(z) if rng.gen::<f64>() < 0.90 => {
                        let rank = z.sample(rng.gen());
                        q.push(block_query(u, perm[rank] as usize, &mut rng));
                    }
                    _ => q.push(miss_query(&mut rng)),
                }
            }
        }
        q
    })
}

/// The `scan` preset: a pure function of position — a strided sweep
/// over the served universe that touches a different block every
/// query (defeating the direct-mapped hot-block cache), interleaved
/// with a linear IPv4 space sweep and unserved IPv6 probes.
fn scan_queries(u: &Universe, lookups: usize, seed: u64) -> Vec<IpKey> {
    let n = u.len() as u64;
    let v4_base = splitmix(seed ^ 0x5C_0001) as u32;
    gen_chunked(lookups, |_c, start, len| {
        let mut q = Vec::with_capacity(len);
        for j in 0..len {
            let p = (start + j) as u64;
            let lane = p % 16;
            if lane < 11 && n > 0 {
                // Strided universe sweep: consecutive queries land in
                // different blocks, so the 256-slot cache never helps.
                let idx = (p.wrapping_mul(0x9E37_79B1) % n) as usize;
                if idx < u.v4.len() {
                    q.push(IpKey::V4(u.v4[idx].addr(p as u8)));
                } else {
                    let b = u.v6[idx - u.v4.len()];
                    q.push(IpKey::V6(b.addr(p as u16, p)));
                }
            } else if lane < 14 {
                // Linear IPv4 sweep: almost entirely unserved space.
                q.push(IpKey::V4(
                    v4_base.wrapping_add((p as u32).wrapping_mul(0x0101_0101)),
                ));
            } else {
                // Unserved IPv6 probes.
                let hi = splitmix(seed ^ p) as u128;
                let lo = splitmix(p ^ 0x6666) as u128;
                q.push(IpKey::V6(hi << 64 | lo));
            }
        }
        q
    })
}

/// The `churn` preset: one segment per epoch; each segment mixes Zipf
/// hits on its own universe with revisits of the previous epoch's
/// blocks, probing prefixes the delta may have changed or removed.
fn churn_segments(
    universes: &[Universe],
    lookups: usize,
    seed: u64,
    epochs: u64,
) -> Vec<TraceSegment> {
    let segments = epochs.max(2) as usize;
    let base = lookups / segments;
    let rem = lookups % segments;
    let last = universes.len() - 1;
    (0..segments)
        .map(|e| {
            let count = base + usize::from(e < rem);
            let cur = &universes[e.min(last)];
            let prev = &universes[e.saturating_sub(1).min(last)];
            let n = cur.len();
            let zipf = (n > 0).then(|| ZipfTable::new(n, 1.0));
            let perm = permutation(n, chunk_seed(seed, Preset::Churn, e as u64, u64::MAX));
            let queries = gen_chunked(count, |c, _start, len| {
                let mut rng = StdRng::seed_from_u64(chunk_seed(seed, Preset::Churn, e as u64, c));
                let mut q = Vec::with_capacity(len);
                for _ in 0..len {
                    let roll: f64 = rng.gen();
                    if roll < 0.60 && !cur.is_empty() {
                        let z = zipf.as_ref().expect("non-empty universe");
                        let rank = z.sample(rng.gen());
                        q.push(block_query(cur, perm[rank] as usize, &mut rng));
                    } else if roll < 0.80 && !prev.is_empty() {
                        let idx = rng.gen_range(0..prev.len());
                        q.push(block_query(prev, idx, &mut rng));
                    } else {
                        q.push(miss_query(&mut rng));
                    }
                }
                q
            });
            TraceSegment {
                epoch: e as u64,
                queries,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaddr::{Block24, Block48};

    fn tiny_universe() -> Universe {
        Universe {
            v4: (0..32).map(Block24::from_index).collect(),
            v6: (0..8).map(Block48::from_index).collect(),
        }
    }

    #[test]
    fn every_preset_generates_the_requested_query_count() {
        let u = tiny_universe();
        for preset in Preset::ALL {
            let spec = TraceSpec {
                preset,
                seed: 9,
                queries: 10_000,
                epochs: 3,
            };
            let t = spec.generate(std::slice::from_ref(&u));
            assert_eq!(t.total_queries(), 10_000, "{}", preset.name());
            assert_eq!(t.preset, preset.name());
            let expected_segments = if preset == Preset::Churn { 3 } else { 1 };
            assert_eq!(t.segments.len(), expected_segments, "{}", preset.name());
        }
    }

    #[test]
    fn empty_universe_degrades_to_miss_traffic_without_panicking() {
        let empty = Universe::default();
        for preset in Preset::ALL {
            let spec = TraceSpec {
                preset,
                seed: 3,
                queries: 500,
                epochs: 2,
            };
            let t = spec.generate(std::slice::from_ref(&empty));
            assert_eq!(t.total_queries(), 500, "{}", preset.name());
        }
    }

    #[test]
    fn preset_names_roundtrip() {
        for preset in Preset::ALL {
            assert_eq!(Preset::parse(preset.name()), Some(preset));
        }
        assert_eq!(Preset::parse("nope"), None);
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let counts = apportion(1000, &(0..HOURS).map(hour_weight).collect::<Vec<_>>());
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts[14] > counts[2], "peak hour outweighs trough");
    }
}
