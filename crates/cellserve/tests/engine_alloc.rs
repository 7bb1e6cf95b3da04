//! Pins what `QueryEngine::run` asks of the allocator, as counts: the
//! result vector and nothing of its order beside it. A timing cannot
//! hold this in CI; a byte count can.
//!
//! One `#[test]` only: the counting allocator is process-wide, so a
//! second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cellserve::{
    Artifact, ArtifactFormat, AsClass, FrozenIndex, IpKey, LookupMatch, QueryEngine, ServeLabel,
    QUERY_CHUNK,
};
use netaddr::Asn;

struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is passed to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocator calls, bytes requested)` while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let result = f();
    (
        result,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn run_requests_the_result_vector_and_little_else() {
    let mut b = FrozenIndex::builder();
    let label = |asn: u32| ServeLabel {
        asn: Asn(asn),
        class: AsClass::Dedicated,
    };
    b.insert_v4("10.0.0.0/8".parse().expect("cidr"), label(1));
    b.insert_v6("2001:db8::/48".parse().expect("cidr"), label(2));
    let index = Artifact::from_bytes(&Artifact::encode(&b.build(), ArtifactFormat::V2))
        .expect("a built index seals to a valid artifact");
    let engine = QueryEngine::new(&index);
    let n = 8 * QUERY_CHUNK + 17;
    let queries: Vec<IpKey> = (0..n as u32)
        .map(|i| match i % 5 {
            0 => IpKey::V6(0x2001_0db8_0000_0000_0000_0000_0000_0000 + i as u128),
            _ => IpKey::V4(i.wrapping_mul(0x9E37_79B9)),
        })
        .collect();
    let answer = std::mem::size_of::<Option<LookupMatch>>();

    // Counted inside `install`, on the thread the chunks run on: what
    // entering the pool costs is the pool's, not the engine's.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build rayon pool");
    let ((results, stats), _, bytes) = pool.install(|| counted(|| engine.run(&queries)));
    assert_eq!(results.len(), n);
    assert_eq!(stats.lookups, n as u64);
    assert!(
        bytes <= n * answer + 16 * 1024,
        "a {n}-query run requested {bytes} bytes for {} bytes of answers: \
         every answer should be written once, into the vector returned",
        n * answer
    );

    // A batch that fits one chunk: the result vector, no cache vectors,
    // no per-chunk bookkeeping.
    let ((results, _), calls, _) = counted(|| engine.run(&queries[..64]));
    assert_eq!(results.len(), 64);
    assert!(
        calls <= 2,
        "a 64-query run made {calls} allocations; it needs one"
    );
}
