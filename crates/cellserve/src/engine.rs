//! The batch query engine: rayon fan-out over an IP list with
//! per-chunk hot-block caches and `cellobs` instrumentation.
//!
//! ## Determinism contract
//!
//! The batch is split into fixed-size chunks ([`QUERY_CHUNK`]) that
//! rayon distributes over worker threads; every chunk starts with a
//! *fresh* direct-mapped hot-block cache and owns a window of the one
//! result vector, which it writes once; a batch that fits one chunk
//! runs on the calling thread and never enters the pool. Because chunk
//! boundaries depend only on the query list — never on the thread
//! count — the result vector and every counter ([`BatchStats`], and the
//! `serve.lookups` / `serve.matched` / `serve.cache.hits` /
//! `serve.cache.misses` / `serve.cache.uncached` observer counters) are
//! identical at any pool width. Only the `serve.lookup.ns` latency
//! histogram reads the wall clock and sits outside the contract, like
//! every other duration in the workspace's observability layer — but its
//! *sample count* is deterministic: exactly one sample per lookup, so
//! exported percentiles are distributions of real per-lookup latencies,
//! never of per-chunk means.
//!
//! The cache key is the queried address masked to the family's
//! *longest* served prefix length: two addresses equal under that mask
//! are equal under every shorter served mask too, so caching the full
//! longest-prefix-match result under it is sound.

use std::mem::MaybeUninit;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::Instant;

use cellobs::Observer;
use netaddr::{fmt_ipv4, fmt_ipv6, Ipv4Net, Ipv6Net};
use rayon::prelude::*;

use crate::error::ServeError;
use crate::frozen::{PrefixKey, ServeLabel};
use crate::view::IndexView;

/// Queries per work unit. Fixed — never derived from the thread count —
/// so cache resets, and with them the hit/miss counters, depend only on
/// the data (same rationale as `cellspot`'s aggregation chunking).
pub const QUERY_CHUNK: usize = 1024;

/// Slots in the per-chunk direct-mapped hot-block cache.
const CACHE_SLOTS: usize = 256;

/// A parsed query address, one of the two families.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum IpKey {
    /// IPv4 address in host byte order.
    V4(u32),
    /// IPv6 address in host byte order.
    V6(u128),
}

impl IpKey {
    /// Parse a textual IPv4 (`203.0.113.5`) or IPv6 (`2001:db8::1`)
    /// address.
    ///
    /// # Errors
    /// [`ServeError::BadAddress`] when the text parses as neither.
    pub fn parse(s: &str) -> Result<IpKey, ServeError> {
        if s.contains(':') {
            std::net::Ipv6Addr::from_str(s)
                .map(|a| IpKey::V6(u128::from(a)))
                .map_err(|_| ServeError::BadAddress(s.to_string()))
        } else {
            std::net::Ipv4Addr::from_str(s)
                .map(|a| IpKey::V4(u32::from(a)))
                .map_err(|_| ServeError::BadAddress(s.to_string()))
        }
    }
}

impl std::fmt::Display for IpKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpKey::V4(a) => f.write_str(&fmt_ipv4(*a)),
            IpKey::V6(a) => f.write_str(&fmt_ipv6(*a)),
        }
    }
}

/// The prefix a lookup matched, tagged by family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchedPrefix {
    /// An IPv4 served prefix.
    V4(Ipv4Net),
    /// An IPv6 served prefix.
    V6(Ipv6Net),
}

impl std::fmt::Display for MatchedPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchedPrefix::V4(net) => write!(f, "{net}"),
            MatchedPrefix::V6(net) => write!(f, "{net}"),
        }
    }
}

/// One successful lookup: the most specific served prefix covering the
/// queried address, and its label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupMatch {
    /// The matched prefix.
    pub prefix: MatchedPrefix,
    /// Its AS + class label.
    pub label: ServeLabel,
}

const _: () = assert!(std::mem::size_of::<Option<LookupMatch>>() <= 64); // bytes per answer

/// Deterministic batch counters (see the module docs for the
/// contract). `cache_hits + cache_misses + uncached == lookups` always
/// holds: every lookup either consulted a chunk cache (hit or miss) or
/// targeted a family with no served prefixes at all (`uncached`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Addresses looked up.
    pub lookups: u64,
    /// Lookups that matched a served prefix.
    pub matched: u64,
    /// Lookups answered from a chunk's hot-block cache.
    pub cache_hits: u64,
    /// Lookups that consulted the cache, missed, and walked the index
    /// (populating the cache).
    pub cache_misses: u64,
    /// Lookups against a family with no served prefixes: a guaranteed
    /// non-match that never consults the cache, accounted separately so
    /// miss counters measure real cache behaviour.
    pub uncached: u64,
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, other: BatchStats) {
        self.lookups += other.lookups;
        self.matched += other.matched;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.uncached += other.uncached;
    }
}

/// One cache slot: the longest-mask key it answers for, and the cached
/// result (`None` result = cached miss).
type CacheSlot<K> = Option<(K, Option<(u8, u32)>)>;

/// High-throughput lookups over any [`IndexView`] — a loaded
/// [`ArtifactHandle`](crate::ArtifactHandle), a borrowed
/// [`MappedIndex`](crate::MappedIndex), or either behind `Arc`/`Box`.
pub struct QueryEngine<'a, V: IndexView + ?Sized> {
    index: &'a V,
    obs: Observer,
}

impl<'a, V: IndexView + ?Sized> QueryEngine<'a, V> {
    /// An engine over a loaded index, with a disabled observer.
    pub fn new(index: &'a V) -> Self {
        QueryEngine {
            index,
            obs: Observer::disabled(),
        }
    }

    /// Attach an observer; batches report `serve.*` counters and the
    /// `serve.lookup.ns` latency histogram into it.
    pub fn with_observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Look up a single address (no cache, no instrumentation).
    pub fn lookup(&self, ip: IpKey) -> Option<LookupMatch> {
        match ip {
            IpKey::V4(a) => self.index.lookup_v4(a).map(|(net, label)| LookupMatch {
                prefix: MatchedPrefix::V4(net),
                label,
            }),
            IpKey::V6(a) => self.index.lookup_v6(a).map(|(net, label)| LookupMatch {
                prefix: MatchedPrefix::V6(net),
                label,
            }),
        }
    }

    /// Run a batch: results in query order, plus the deterministic
    /// counters. More than one chunk runs on the current rayon pool —
    /// wrap the call in [`rayon::ThreadPool::install`] to pin the width.
    pub fn run(&self, queries: &[IpKey]) -> (Vec<Option<LookupMatch>>, BatchStats) {
        let n = queries.len();
        let mut results = Vec::with_capacity(n);
        let out = &mut results.spare_capacity_mut()[..n];
        let mut stats = BatchStats::default();
        if n <= QUERY_CHUNK {
            stats = self.run_chunk(queries, out);
        } else {
            // Window `c` has one writer, chunk `c`: no lock is ever contended.
            let windows: Vec<_> = out.chunks_mut(QUERY_CHUNK).map(Mutex::new).collect();
            let per_chunk: Vec<BatchStats> = queries
                .par_chunks(QUERY_CHUNK)
                .enumerate()
                .map(|(c, q)| self.run_chunk(q, &mut windows[c].lock().expect("locked once")))
                .collect();
            per_chunk.into_iter().for_each(|s| stats += s);
        }
        // SAFETY: windows tile `results[..n]` as chunks tile `queries`, and
        // every chunk writes every slot of its window (`run_chunk` asserts
        // the lengths equal) before returning: all `n` slots are initialised.
        unsafe { results.set_len(n) };
        self.obs.counter("serve.lookups").add(stats.lookups);
        self.obs.counter("serve.matched").add(stats.matched);
        self.obs.counter("serve.cache.hits").add(stats.cache_hits);
        self.obs
            .counter("serve.cache.misses")
            .add(stats.cache_misses);
        self.obs.counter("serve.cache.uncached").add(stats.uncached);
        (results, stats)
    }

    fn run_chunk(
        &self,
        chunk: &[IpKey],
        out: &mut [MaybeUninit<Option<LookupMatch>>],
    ) -> BatchStats {
        assert_eq!(chunk.len(), out.len(), "a window is as long as its chunk");
        // Per-lookup latency sampling: one histogram sample per lookup,
        // so percentiles describe lookups, not chunk means. The clock is
        // only read when an observer is attached, keeping the
        // unobserved hot path branch-predictable and clock-free.
        let timed = self.obs.is_enabled();
        let latency = self.obs.histogram("serve.lookup.ns");
        // The family masks are chunk-invariant: read them once, not per
        // lookup, so the hot loop never re-walks the level directory.
        let top_v4 = self.index.longest_len_v4();
        let top_v6 = self.index.longest_len_v6();
        let mut stats = BatchStats::default();
        let mut v4_cache: [CacheSlot<u32>; CACHE_SLOTS] = [None; CACHE_SLOTS];
        let mut v6_cache: [CacheSlot<u128>; CACHE_SLOTS] = [None; CACHE_SLOTS];
        for (i, (&ip, slot)) in chunk.iter().zip(out).enumerate() {
            // Overlap the next query's first probe with this lookup:
            // zero-copy views issue software prefetches, owned views
            // no-op.
            match chunk.get(i + 1) {
                Some(IpKey::V4(a)) => self.index.prefetch_v4(*a),
                Some(IpKey::V6(a)) => self.index.prefetch_v6(*a),
                None => {}
            }
            stats.lookups += 1;
            let start = timed.then(Instant::now);
            let hit = match ip {
                IpKey::V4(a) => cached_lookup(
                    top_v4,
                    |addr| self.index.lpm_v4(addr),
                    &mut v4_cache,
                    a,
                    &mut stats,
                )
                .map(|(len, idx)| LookupMatch {
                    prefix: MatchedPrefix::V4(
                        Ipv4Net::new(a, len).expect("level length ≤ 32 by construction"),
                    ),
                    label: self.index.label_at(idx),
                }),
                IpKey::V6(a) => cached_lookup(
                    top_v6,
                    |addr| self.index.lpm_v6(addr),
                    &mut v6_cache,
                    a,
                    &mut stats,
                )
                .map(|(len, idx)| LookupMatch {
                    prefix: MatchedPrefix::V6(
                        Ipv6Net::new(a, len).expect("level length ≤ 128 by construction"),
                    ),
                    label: self.index.label_at(idx),
                }),
            };
            if let Some(t0) = start {
                latency.record(t0.elapsed().as_nanos() as u64);
            }
            stats.matched += hit.is_some() as u64;
            slot.write(hit);
        }
        stats
    }
}

/// Cache-fronted family lookup. Returns `(prefix_len, label_idx)`;
/// callers rebuild the matched net by re-masking the address, so the
/// cache never stores per-address data.
fn cached_lookup<K: PrefixKey>(
    top_len: Option<u8>,
    lpm: impl Fn(K) -> Option<(u8, u32)>,
    cache: &mut [CacheSlot<K>],
    addr: K,
    stats: &mut BatchStats,
) -> Option<(u8, u32)> {
    let Some(top_len) = top_len else {
        // No served prefixes in this family: the cache is never
        // consulted (there is nothing it could answer), so account the
        // lookup as `uncached` rather than inflating the miss counter
        // with lookups the cache never saw.
        stats.uncached += 1;
        return None;
    };
    let key = addr.and(K::mask(top_len));
    let slot = (key.cache_hash() >> 56) as usize % CACHE_SLOTS;
    if let Some((cached_key, result)) = cache[slot] {
        if cached_key == key {
            stats.cache_hits += 1;
            return result;
        }
    }
    stats.cache_misses += 1;
    let result = lpm(addr);
    cache[slot] = Some((key, result));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{AsClass, FrozenIndex};
    use crate::handle::{served, ArtifactHandle};
    use netaddr::Asn;

    fn engine_index() -> ArtifactHandle {
        let mut b = FrozenIndex::builder();
        let label = |asn: u32| ServeLabel {
            asn: Asn(asn),
            class: AsClass::Dedicated,
        };
        b.insert_v4("10.0.0.0/8".parse().expect("cidr"), label(1));
        b.insert_v4("10.1.0.0/16".parse().expect("cidr"), label(2));
        b.insert_v4("203.0.113.0/24".parse().expect("cidr"), label(3));
        b.insert_v6("2001:db8::/48".parse().expect("cidr"), label(4));
        served(&b.build())
    }

    #[test]
    fn ip_parsing_and_display_roundtrip() {
        assert_eq!(
            IpKey::parse("203.0.113.5").expect("v4"),
            IpKey::V4(0xCB007105)
        );
        assert_eq!(
            IpKey::parse("2001:db8::1").expect("v6"),
            IpKey::V6(0x2001_0db8_0000_0000_0000_0000_0000_0001)
        );
        assert_eq!(
            IpKey::parse("203.0.113.5").expect("v4").to_string(),
            "203.0.113.5"
        );
        for bad in ["", "notanip", "10.0.0.256", "2001:zz::1", "10.0.0.1/24"] {
            assert!(IpKey::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Both families, served and unserved space, repeats within a chunk.
    fn mixed_queries(n: usize) -> Vec<IpKey> {
        (0..n as u32)
            .map(|i| match i % 7 {
                0 => IpKey::V6(0x2001_0db8_0000_0000_0000_0000_0000_0000 + i as u128),
                1 | 2 => IpKey::V4(0x0A00_0000 + (i % 50) * 0x1001),
                _ => IpKey::V4(i.wrapping_mul(0x9E37_79B9)),
            })
            .collect()
    }

    /// Every batch length around the window boundaries, at every pool
    /// width: each chunk's window of the result vector holds exactly its
    /// own answers, and nothing depends on the width.
    #[test]
    fn batch_equals_per_item_lookups() {
        let index = engine_index();
        for n in [
            0,
            1,
            QUERY_CHUNK - 1,
            QUERY_CHUNK,
            QUERY_CHUNK + 1,
            3 * QUERY_CHUNK + 17,
        ] {
            let queries = mixed_queries(n);
            let mut at_width_1 = None;
            for threads in [1usize, 2, 4] {
                let obs = Observer::enabled();
                let engine = QueryEngine::new(&index).with_observer(obs.clone());
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("build rayon pool");
                let (results, stats) = pool.install(|| engine.run(&queries));
                assert_eq!(results.len(), n);
                for (q, r) in queries.iter().zip(&results) {
                    assert_eq!(*r, engine.lookup(*q), "batch of {n} diverges on {q}");
                }
                assert_eq!(stats.lookups, n as u64);
                assert_eq!(
                    stats.cache_hits + stats.cache_misses + stats.uncached,
                    stats.lookups
                );
                assert_eq!(stats.uncached, 0, "both families serve prefixes here");
                assert_eq!(
                    *at_width_1.get_or_insert(stats),
                    stats,
                    "counters of a {n}-query batch moved at {threads} thread(s)"
                );
                let samples = obs
                    .snapshot()
                    .histograms
                    .get("serve.lookup.ns")
                    .map_or(0, |h| h.count);
                assert_eq!(samples, stats.lookups, "one latency sample per lookup");
            }
            let stats = at_width_1.expect("width 1 ran");
            if n > 1 {
                assert!(0 < stats.matched && stats.matched < stats.lookups);
                assert!(stats.cache_hits > 0, "the 10/8 addresses repeat");
            }
        }
    }

    #[test]
    fn repeated_addresses_hit_the_cache() {
        let index = engine_index();
        let engine = QueryEngine::new(&index);
        let queries = vec![IpKey::V4(0xCB007105); 100];
        let (results, stats) = engine.run(&queries);
        assert!(results.iter().all(|r| r.is_some()));
        // One cold miss, 99 hits: all queries share one cache key and
        // fit in a single chunk.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 99);
    }

    #[test]
    fn stats_are_reproducible_and_observed() {
        let index = engine_index();
        let queries: Vec<IpKey> = (0..5000u32).map(|i| IpKey::V4(i * 77777)).collect();
        let (r1, s1) = QueryEngine::new(&index).run(&queries);
        let (r2, s2) = QueryEngine::new(&index).run(&queries);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2, "counters must not depend on scheduling");

        let obs = Observer::enabled();
        let engine = QueryEngine::new(&index).with_observer(obs.clone());
        let (_, stats) = engine.run(&queries);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["serve.lookups"], stats.lookups);
        assert_eq!(snap.counters["serve.matched"], stats.matched);
        assert_eq!(snap.counters["serve.cache.hits"], stats.cache_hits);
        assert_eq!(snap.counters["serve.cache.misses"], stats.cache_misses);
        assert_eq!(snap.counters["serve.cache.uncached"], stats.uncached);
        assert!(snap.histograms.contains_key("serve.lookup.ns"));
    }

    /// Regression test for the per-chunk-mean bug: `serve.lookup.ns`
    /// used to record `elapsed / chunk.len()` once per chunk, so the
    /// histogram held one truncated mean per 1024 lookups and its tail
    /// percentiles were meaningless. The contract is now one sample per
    /// lookup, at any thread count.
    #[test]
    fn latency_histogram_has_one_sample_per_lookup() {
        let index = engine_index();
        // Span several chunks, mix hits/misses and both families.
        let queries = mixed_queries(3 * QUERY_CHUNK + 17);
        for threads in [1usize, 4] {
            let obs = Observer::enabled();
            let engine = QueryEngine::new(&index).with_observer(obs.clone());
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build rayon pool");
            let (results, stats) = pool.install(|| engine.run(&queries));
            assert_eq!(results.len(), queries.len());
            let snap = obs.snapshot();
            let hist = &snap.histograms["serve.lookup.ns"];
            assert_eq!(
                hist.count,
                queries.len() as u64,
                "one latency sample per lookup at {threads} thread(s)"
            );
            assert_eq!(hist.count, stats.lookups);
        }
    }

    #[test]
    fn empty_batch_and_empty_index_are_fine() {
        let index = engine_index();
        let (results, stats) = QueryEngine::new(&index).run(&[]);
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());

        let empty = served(&FrozenIndex::builder().build());
        let queries = [IpKey::V4(1), IpKey::V6(2)];
        let (results, stats) = QueryEngine::new(&empty).run(&queries);
        assert!(results.iter().all(|r| r.is_none()));
        // Empty families never consult the cache: these are uncached
        // lookups, not cache misses.
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.uncached, 2);
        assert_eq!(stats.lookups, 2);
    }
}
