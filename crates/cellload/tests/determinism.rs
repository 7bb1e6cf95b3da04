//! The generator's three standing contracts, checked from outside the
//! crate: thread-count invariance of every preset, the Zipf table's
//! rank-frequency shape, and canonical (corruption-rejecting) trace
//! serialization.

use celldelta::ChurnWorld;
use cellload::{Preset, Trace, TraceSegment, TraceSpec, Universe, ZipfTable};
use cellserve::IpKey;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A realistic mixed v4/v6 prefix universe without building a full
/// world: classify one epoch of the built-in churn world.
fn universe_for_epoch(world: &ChurnWorld, epoch: u64) -> Universe {
    let frozen =
        celldelta::classify_epoch(&world.epoch_counters(epoch), cellspot::DEFAULT_THRESHOLD);
    let sealed = cellserve::Artifact::encode(&frozen, cellserve::ArtifactFormat::V2);
    Universe::from_view(&cellserve::Artifact::from_bytes(&sealed).expect("sealed artifact loads"))
}

fn generate_in_pool(spec: &TraceSpec, universes: &[Universe], threads: usize) -> Trace {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool")
        .install(|| spec.generate(universes))
}

#[test]
fn every_preset_is_bit_identical_across_thread_counts() {
    let world = ChurnWorld::demo(3);
    let universes: Vec<Universe> = (0..3).map(|e| universe_for_epoch(&world, e)).collect();
    assert!(!universes[0].is_empty(), "epoch 0 classifies some blocks");
    for preset in Preset::ALL {
        let spec = TraceSpec {
            preset,
            seed: 0x5EED,
            queries: 30_000,
            epochs: 3,
        };
        let one = generate_in_pool(&spec, &universes, 1);
        let eight = generate_in_pool(&spec, &universes, 8);
        assert_eq!(
            one.to_bytes(),
            eight.to_bytes(),
            "preset {} diverges across thread counts",
            preset.name()
        );
        assert_eq!(one.total_queries(), 30_000, "preset {}", preset.name());
    }
}

#[test]
fn distinct_seeds_yield_distinct_traces() {
    let world = ChurnWorld::demo(3);
    let universe = universe_for_epoch(&world, 0);
    for preset in Preset::ALL {
        let spec = |seed| TraceSpec {
            preset,
            seed,
            queries: 5_000,
            epochs: 2,
        };
        let a = spec(1).generate(std::slice::from_ref(&universe));
        let b = spec(2).generate(std::slice::from_ref(&universe));
        assert_ne!(
            a.digest(),
            b.digest(),
            "preset {} ignores its seed",
            preset.name()
        );
    }
}

#[test]
fn zipf_rank_frequencies_track_expected_shares() {
    let n = 50;
    let table = ZipfTable::new(n, 1.1);
    let samples = 400_000u64;
    let mut counts = vec![0u64; n];
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..samples {
        counts[table.sample(rng.gen())] += 1;
    }
    // Head ranks carry enough mass for a tight relative tolerance; the
    // additive floor keeps deep-tail ranks from flaking.
    for rank in [0usize, 1, 4, 9, 24] {
        let observed = counts[rank] as f64 / samples as f64;
        let expected = table.expected_share(rank);
        assert!(
            (observed - expected).abs() < expected * 0.10 + 1e-3,
            "rank {rank}: observed {observed:.4} vs expected {expected:.4}"
        );
    }
    assert!(
        counts[0] > counts[9] && counts[9] > counts[n - 1],
        "popularity must fall with rank: {counts:?}"
    );
}

fn arb_ipkey() -> impl Strategy<Value = IpKey> {
    prop_oneof![
        any::<u32>().prop_map(IpKey::V4),
        any::<u128>().prop_map(IpKey::V6),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Encoding is canonical: decode(encode(t)) == t and re-encoding
    /// reproduces the same bytes, for arbitrary trace shapes.
    #[test]
    fn traces_roundtrip_canonically(
        seed in any::<u64>(),
        preset in "[a-z]{1,12}",
        segs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(arb_ipkey(), 0..64)),
            0..4,
        ),
    ) {
        let trace = Trace {
            preset,
            seed,
            segments: segs
                .into_iter()
                .map(|(epoch, queries)| TraceSegment { epoch, queries })
                .collect(),
        };
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("sealed trace decodes");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Any single-bit flip anywhere in a sealed trace is rejected (the
    /// CRC-32 trailer catches all single-bit errors by construction).
    #[test]
    fn corrupted_traces_are_rejected(
        seed in any::<u64>(),
        flip in any::<usize>(),
        segs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(arb_ipkey(), 1..32)),
            1..3,
        ),
    ) {
        let trace = Trace {
            preset: "steady".into(),
            seed,
            segments: segs
                .into_iter()
                .map(|(epoch, queries)| TraceSegment { epoch, queries })
                .collect(),
        };
        let mut bytes = trace.to_bytes();
        let i = flip % bytes.len();
        bytes[i] ^= 0x01;
        prop_assert!(Trace::from_bytes(&bytes).is_err(), "flip at byte {} accepted", i);
    }
}
