//! Offline stand-in for the crates.io `rayon` crate.
//!
//! The build container has no network access, so this shim provides the
//! parallel-iterator shapes the workspace uses — `slice.par_iter().map(f)
//! .collect()` and `slice.par_iter_mut().map(f).collect()` — plus
//! [`current_num_threads`], [`ThreadPoolBuilder`] and
//! [`ThreadPool::install`]. A collect runs on `std::thread::scope` over
//! chunks of the input. Unlike rayon there is no work-stealing pool: each
//! call spawns up to `available_parallelism` fresh scoped threads, which is
//! the right trade-off for the sweep's coarse (topology, algorithm, seed)
//! jobs. Because the threads are fresh, memory a worker frees can stay in
//! its allocator arena; callers allocate large buffers on the calling
//! thread and lend them through `par_iter_mut`. Result order is the input
//! order, and worker panics propagate to the caller, both matching rayon's
//! semantics.

#![warn(missing_docs)]

use std::cell::Cell;

/// The one-stop import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`] on the
    /// calling thread (the shim decides parallelism at the call site, so a
    /// thread-local is the right scope).
    static POOL_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolve the worker count for a parallel collect: an installed
/// [`ThreadPool`] wins, then the `RAYON_NUM_THREADS` environment variable
/// (as in upstream rayon's global pool), then the machine's parallelism.
fn configured_workers() -> usize {
    if let Some(n) = POOL_WORKERS.with(|w| w.get()) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The number of workers a parallel iterator started here would use, as
/// upstream rayon's `current_num_threads`: the width of the installed
/// [`ThreadPool`], else the default.
pub fn current_num_threads() -> usize {
    configured_workers()
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool with the default (automatic) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the number of worker threads (`0` keeps the automatic default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool. The shim has no dedicated worker threads, so this
    /// only records the requested width; it cannot fail, but keeps
    /// upstream's fallible signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A configured worker-thread width, mirroring `rayon::ThreadPool`. The
/// shim applies the width to every `par_iter().collect()` executed inside
/// [`ThreadPool::install`] on the calling thread.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count governing all parallel
    /// iterators it executes (on this thread). Nested installs restore the
    /// previous width on exit, panic or not.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_WORKERS.with(|w| w.set(self.0));
            }
        }
        let width = if self.num_threads == 0 {
            None
        } else {
            Some(self.num_threads)
        };
        let _restore = Restore(POOL_WORKERS.with(|w| w.replace(width)));
        op()
    }
}

/// Error building a [`ThreadPool`] (never produced by the shim; kept for
/// upstream signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "could not build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Types whose elements can be iterated in parallel by reference.
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Sync + 'a;

    /// A parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowing parallel iterator (the result of [`par_iter`]).
///
/// [`par_iter`]: IntoParallelRefIterator::par_iter
#[derive(Debug)]
pub struct ParIter<'a, T: Sync> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f`, to be evaluated in parallel at
    /// `collect` time.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator awaiting collection.
#[derive(Debug)]
pub struct ParMap<'a, T: Sync, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Evaluates the map over all elements — in parallel when the input is
    /// large enough — and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let workers = configured_workers().min(n.max(1));
        if workers <= 1 {
            return self.items.iter().map(&self.f).collect();
        }
        let f = &self.f;
        run_chunks(self.items.chunks(n.div_ceil(workers)), |chunk| {
            chunk.iter().map(f).collect()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Types whose elements can be iterated in parallel by mutable reference.
pub trait IntoParallelRefMutIterator<'a> {
    /// The element type.
    type Item: Send + 'a;

    /// A parallel iterator over `&mut Self::Item`.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

/// A mutably borrowing parallel iterator (the result of [`par_iter_mut`]).
///
/// [`par_iter_mut`]: IntoParallelRefMutIterator::par_iter_mut
#[derive(Debug)]
pub struct ParIterMut<'a, T: Send> {
    items: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Maps every element through `f`, to be evaluated in parallel at
    /// `collect` time.
    pub fn map<R, F>(self, f: F) -> ParMapMut<'a, T, F>
    where
        F: Fn(&mut T) -> R + Sync,
        R: Send,
    {
        ParMapMut {
            items: self.items,
            f,
        }
    }
}

/// A mapped mutable parallel iterator awaiting collection.
#[derive(Debug)]
pub struct ParMapMut<'a, T: Send, F> {
    items: &'a mut [T],
    f: F,
}

impl<T: Send, R: Send, F: Fn(&mut T) -> R + Sync> ParMapMut<'_, T, F> {
    /// Evaluates the map over all elements — in parallel when the input is
    /// large enough — and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let workers = configured_workers().min(n.max(1));
        if workers <= 1 {
            return self.items.iter_mut().map(&self.f).collect();
        }
        let f = &self.f;
        run_chunks(self.items.chunks_mut(n.div_ceil(workers)), |chunk| {
            chunk.iter_mut().map(f).collect()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Run `work` on every chunk, one scoped thread per chunk, and return the
/// per-chunk results in chunk order. A worker's panic resumes on the
/// caller.
fn run_chunks<C: Send, R: Send>(
    chunks: impl Iterator<Item = C>,
    work: impl Fn(C) -> Vec<R> + Sync,
) -> Vec<Vec<R>> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7usize];
        let out: Vec<usize> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn install_overrides_and_restores_worker_count() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let items: Vec<usize> = (0..64).collect();
        let single: Vec<usize> = pool.install(|| items.par_iter().map(|&x| x * 3).collect());
        assert_eq!(single, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        // Nested installs stack and results stay order-preserving.
        let wide = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let nested: Vec<usize> =
            pool.install(|| wide.install(|| items.par_iter().map(|&x| x + 1).collect()));
        assert_eq!(nested, (1..=64).collect::<Vec<_>>());
        // After install returns the default applies again.
        let after: Vec<usize> = items.par_iter().map(|&x| x).collect();
        assert_eq!(after, items);
    }

    #[test]
    fn map_mut_collect_preserves_order_and_writes_through() {
        let mut items: Vec<usize> = (0..1000).collect();
        for workers in [1, 3] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap();
            let before: Vec<usize> = pool.install(|| {
                items
                    .par_iter_mut()
                    .map(|x| {
                        let old = *x;
                        *x += 1;
                        old
                    })
                    .collect()
            });
            assert_eq!(before.len(), 1000);
            assert!(before.iter().zip(&items).all(|(b, a)| a - b == 1));
        }
        assert_eq!(items, (2..1002).collect::<Vec<_>>());
    }

    #[test]
    fn current_num_threads_follows_the_installed_pool() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.install(crate::current_num_threads), 3);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&x| if x == 63 { panic!("boom") } else { x })
                .collect();
        });
        assert!(result.is_err());
    }
}
