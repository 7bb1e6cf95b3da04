//! Offline stand-in for the published `rayon` crate.
//!
//! The benchmark builds against the published crate wherever cargo can
//! resolve it. Where it cannot (a sandbox with no crate registry),
//! `standins/offline.toml` patches `rayon` to this package. It
//! covers the shapes the repository's library crates use — a slice,
//! chunked slice or integer range, adapted with `enumerate` / `map` /
//! `filter_map`, collected in order into a `Vec` — plus
//! `ThreadPoolBuilder` / `ThreadPool::install` / `current_num_threads`.
//!
//! How it differs from the real crate, and why that is acceptable for
//! the benchmark: there is no work-stealing deque and no persistent
//! worker set. A parallel call splits its index range into pieces and
//! hands them out from an atomic counter to scoped `std` threads (one
//! per pool thread, the caller included), then concatenates the pieces
//! in order. With one thread — the width every timed engine pass is
//! pinned to — the call runs inline with no thread and no allocation
//! beyond the output, as the real crate's does. A "pool" is only a
//! thread count: `install` runs its closure on the calling thread with
//! that count in force. Nested parallel calls run inline on the worker
//! that reaches them.

use std::cell::Cell;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The traits, for `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice,
    };
}

// Thread count set by `build_global` (0 = not set).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Thread count of the innermost `install` on this thread (0 = none).
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
    // Set on worker threads while they run pieces: nested calls go inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// One thread per available core, asked of the OS once: the query
/// reads cgroup files, far too slow to repeat on every parallel call.
fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Threads a parallel call made here would use.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Error from building a pool.
#[derive(Debug)]
pub struct ThreadPoolBuildError(&'static str);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the thread count; zero means one per available core.
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn resolved(&self) -> usize {
        match self.threads {
            0 => default_threads(),
            n => n,
        }
    }

    /// Build a pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.resolved(),
        })
    }

    /// Fix the global thread count; fails if it was fixed before.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS
            .compare_exchange(0, self.resolved(), Ordering::Relaxed, Ordering::Relaxed)
            .map(|_| ())
            .map_err(|_| {
                ThreadPoolBuildError("the global thread pool has already been initialized")
            })
    }
}

/// A thread count that parallel calls inside [`ThreadPool::install`] use.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count in force.
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|c| c.replace(self.threads)));
        op()
    }
}

/// A parallel iterator: a base index space `0..base_len()` and a way to
/// produce the items of any sub-range of it, in order.
pub trait ParallelIterator: Sized + Sync {
    /// The item type.
    type Item: Send;

    /// Size of the base index space (before any filtering).
    fn base_len(&self) -> usize;

    /// Push the items of base indices `range` onto `out`, in order.
    fn produce(&self, range: Range<usize>, out: &mut Vec<Self::Item>);

    /// Transform every item.
    fn map<T: Send, F: Fn(Self::Item) -> T + Sync>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Transform every item, dropping `None`s.
    fn filter_map<T: Send, F: Fn(Self::Item) -> Option<T> + Sync>(
        self,
        f: F,
    ) -> FilterMap<Self, F> {
        FilterMap { inner: self, f }
    }

    /// Collect every item, in order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_ordered_vec(run(&self))
    }
}

/// A parallel iterator whose items correspond one to one to its base
/// indices, so positions are meaningful.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Pair every item with its position.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }
}

/// Collections [`ParallelIterator::collect`] can build.
pub trait FromParallelIterator<T> {
    /// Build from the items in iteration order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

// Pieces per thread: small enough that uneven items balance, large
// enough that the counter is not contended.
const PIECES_PER_THREAD: usize = 8;

fn run<P: ParallelIterator>(iter: &P) -> Vec<P::Item> {
    let len = iter.base_len();
    let threads = if IN_WORKER.with(Cell::get) {
        1
    } else {
        current_num_threads().min(len)
    };
    let mut out = Vec::new();
    if threads <= 1 {
        iter.produce(0..len, &mut out);
        return out;
    }
    let pieces = (threads * PIECES_PER_THREAD).min(len);
    let bounds = |p: usize| p * len / pieces;
    let next = AtomicUsize::new(0);
    let work = || {
        let was_worker = IN_WORKER.with(|c| c.replace(true));
        let mut done: Vec<(usize, Vec<P::Item>)> = Vec::new();
        loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= pieces {
                break;
            }
            let mut items = Vec::new();
            iter.produce(bounds(p)..bounds(p + 1), &mut items);
            done.push((p, items));
        }
        IN_WORKER.with(|c| c.set(was_worker));
        done
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(p, _)| *p);
    out.reserve(done.iter().map(|(_, items)| items.len()).sum());
    for (_, items) in done {
        out.extend(items);
    }
    out
}

/// `map` adaptor.
pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P: ParallelIterator, T: Send, F: Fn(P::Item) -> T + Sync> ParallelIterator for Map<P, F> {
    type Item = T;
    fn base_len(&self) -> usize {
        self.inner.base_len()
    }
    fn produce(&self, range: Range<usize>, out: &mut Vec<T>) {
        let mut items = Vec::with_capacity(range.len());
        self.inner.produce(range, &mut items);
        out.extend(items.into_iter().map(&self.f));
    }
}

impl<P: IndexedParallelIterator, T: Send, F: Fn(P::Item) -> T + Sync> IndexedParallelIterator
    for Map<P, F>
{
}

/// `filter_map` adaptor.
pub struct FilterMap<P, F> {
    inner: P,
    f: F,
}

impl<P: ParallelIterator, T: Send, F: Fn(P::Item) -> Option<T> + Sync> ParallelIterator
    for FilterMap<P, F>
{
    type Item = T;
    fn base_len(&self) -> usize {
        self.inner.base_len()
    }
    fn produce(&self, range: Range<usize>, out: &mut Vec<T>) {
        let mut items = Vec::with_capacity(range.len());
        self.inner.produce(range, &mut items);
        out.extend(items.into_iter().filter_map(&self.f));
    }
}

/// `enumerate` adaptor.
pub struct Enumerate<P> {
    inner: P,
}

impl<P: IndexedParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    fn base_len(&self) -> usize {
        self.inner.base_len()
    }
    fn produce(&self, range: Range<usize>, out: &mut Vec<Self::Item>) {
        let start = range.start;
        let mut items = Vec::with_capacity(range.len());
        self.inner.produce(range, &mut items);
        out.extend(
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| (start + i, item)),
        );
    }
}

impl<P: IndexedParallelIterator> IndexedParallelIterator for Enumerate<P> {}

/// Parallel iterator over `&T` of a slice.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn base_len(&self) -> usize {
        self.slice.len()
    }
    fn produce(&self, range: Range<usize>, out: &mut Vec<&'a T>) {
        out.extend(self.slice[range].iter());
    }
}

impl<T: Sync> IndexedParallelIterator for SliceIter<'_, T> {}

/// Parallel iterator over fixed-size chunks of a slice.
pub struct ChunksIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksIter<'a, T> {
    type Item = &'a [T];
    fn base_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn produce(&self, range: Range<usize>, out: &mut Vec<&'a [T]>) {
        let start = (range.start * self.size).min(self.slice.len());
        let end = (range.end * self.size).min(self.slice.len());
        out.extend(self.slice[start..end].chunks(self.size));
    }
}

impl<T: Sync> IndexedParallelIterator for ChunksIter<'_, T> {}

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_iter {
    ($($ty:ty),*) => {$(
        impl ParallelIterator for RangeIter<$ty> {
            type Item = $ty;
            fn base_len(&self) -> usize {
                self.len
            }
            fn produce(&self, range: Range<usize>, out: &mut Vec<$ty>) {
                out.extend(range.map(|i| self.start + i as $ty));
            }
        }

        impl IndexedParallelIterator for RangeIter<$ty> {}

        impl IntoParallelIterator for Range<$ty> {
            type Iter = RangeIter<$ty>;
            fn into_par_iter(self) -> RangeIter<$ty> {
                RangeIter { start: self.start, len: self.end.saturating_sub(self.start) as usize }
            }
        }

        impl IntoParallelIterator for RangeInclusive<$ty> {
            type Iter = RangeIter<$ty>;
            fn into_par_iter(self) -> RangeIter<$ty> {
                let len = if self.is_empty() { 0 } else { (*self.end() - *self.start()) as usize + 1 };
                RangeIter { start: *self.start(), len }
            }
        }
    )*};
}

range_iter!(usize);

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The iterator produced.
    type Iter: ParallelIterator;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` on anything that derefs to a slice.
pub trait IntoParallelRefIterator<'a> {
    /// The iterator produced.
    type Iter: ParallelIterator;
    /// Iterate over references in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

/// `par_chunks()` on slices.
pub trait ParallelSlice<T: Sync> {
    /// The slice.
    fn as_parallel_slice(&self) -> &[T];

    /// Iterate over `size`-element chunks in parallel.
    fn par_chunks(&self, size: usize) -> ChunksIter<'_, T> {
        assert!(size > 0, "par_chunks: chunk size must be positive");
        ChunksIter {
            slice: self.as_parallel_slice(),
            size,
        }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;

    #[test]
    fn results_keep_order_at_any_width() {
        let data: Vec<u32> = (0..10_007).collect();
        let expected_sq: Vec<u64> = data.iter().map(|&x| u64::from(x) * u64::from(x)).collect();
        let expected_chunks: Vec<u32> = data.chunks(97).map(|c| c.iter().sum()).collect();
        for threads in [1usize, 2, 5] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                assert_eq!(super::current_num_threads(), threads);
                let sq: Vec<u64> = data
                    .par_iter()
                    .map(|&x| u64::from(x) * u64::from(x))
                    .collect();
                assert_eq!(sq, expected_sq);
                let sums: Vec<u32> = data.par_chunks(97).map(|c| c.iter().sum()).collect();
                assert_eq!(sums, expected_chunks);
                let odd: Vec<(usize, u32)> = data
                    .par_iter()
                    .enumerate()
                    .filter_map(|(i, &x)| (x % 2 == 1).then_some((i, x)))
                    .collect();
                assert_eq!(odd.len(), 5003);
                assert!(odd.iter().all(|&(i, x)| i as u32 == x));
                let nested: Vec<usize> = (0..40usize)
                    .into_par_iter()
                    .map(|i| (1..=i).into_par_iter().map(|j| j).collect::<Vec<_>>().len())
                    .collect();
                assert_eq!(nested, (0..40).collect::<Vec<_>>());
            });
        }
    }
}
