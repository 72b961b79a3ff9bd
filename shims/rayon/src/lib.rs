//! Offline API-compatible shim for the subset of `rayon` this workspace
//! uses: `par_iter` / `into_par_iter` over slices, vectors and ranges, with
//! `map`, `filter`, `enumerate`, `reduce_with`, `for_each` and `collect`.
//!
//! Work really is parallel. The first parallel stage of a process starts a
//! pool of [`current_num_threads`] long-lived worker threads, and every
//! later `map`/`for_each` stage is handed to that pool:
//!
//! * **Self-scheduling.** Workers claim item indices one at a time from an
//!   atomic counter and write each result into its index's slot, so a few
//!   expensive items never leave the other workers idle, and results come
//!   back in input order exactly as with rayon's indexed iterators
//!   (reductions with order-stable tie-breaking behave identically).
//! * **The caller runs no items.** It blocks until the stage is done, so
//!   its thread-local state (counter scopes, borrowed per-thread scratch)
//!   is never re-entered by an item.
//! * **Nested stages run inline.** A stage started from an item already on
//!   a pool worker runs sequentially on that worker: a worker never waits
//!   for the pool it belongs to, so nesting cannot deadlock.
//! * **Panics keep their cause.** An item that panics is caught, the other
//!   items still finish, and the payload of the lowest-index panic is
//!   re-raised on the caller. No worker dies.
//!
//! The env var `RAYON_NUM_THREADS` (also honored by real rayon) sets the
//! worker count; `RAYON_NUM_THREADS=1` runs every stage sequentially on the
//! calling thread and starts no pool.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

pub mod prelude {
    //! The traits you `use rayon::prelude::*` for.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads used for parallel stages.
pub fn current_num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Locks `m`, ignoring poisoning: nothing panics while holding the pool's
/// locks (items run outside them, under `catch_unwind`).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One parallel stage as the pool sees it: `len` indices, each claimed by
/// exactly one worker.
struct Job {
    /// Runs one index. A lifetime-erased pointer to a closure on the
    /// caller's stack, which outlives every call: the caller waits until
    /// all `len` indices have finished, and an index is only run after a
    /// successful claim.
    run: *const (dyn Fn(usize) + Sync),
    len: usize,
    /// The next unclaimed index (may run past `len`).
    next: AtomicUsize,
    /// Number of finished indices.
    finished: AtomicUsize,
    /// Held by the caller while it checks `finished` and waits; the worker
    /// that finishes the last index takes it to notify, so the wake-up
    /// cannot be lost.
    wait: Mutex<()>,
    all_finished: Condvar,
}

// SAFETY: `run` points to a `Sync` closure that stays alive until every
// claimed index has finished (see the field's docs), so any thread may call
// it through a shared `Job`; `len` is plain data, and the atomics, mutex and
// condvar are `Send + Sync` themselves.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs indices until none are left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: index `i < len` was claimed, so the caller is still
            // waiting and the closure is alive. The closure catches its
            // item's panic, so this call returns normally.
            unsafe { (*self.run)(i) };
            // AcqRel: the caller's acquiring load of the final count
            // happens after every item's writes.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                let _wait = lock(&self.wait);
                self.all_finished.notify_all();
            }
        }
    }
}

/// The process-wide worker pool: a FIFO of stages that still have
/// unclaimed indices. Workers share the front stage until it runs dry.
struct Pool {
    jobs: Mutex<VecDeque<Arc<Job>>>,
    job_ready: Condvar,
}

static POOL: Pool = Pool {
    jobs: Mutex::new(VecDeque::new()),
    job_ready: Condvar::new(),
};

thread_local! {
    /// `true` on pool worker threads: stages started there run inline.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Starts the workers on first use; returns how many are running (0 if
/// none could be spawned, in which case stages run on the caller). The
/// workers live as long as the process and are never joined: nothing they
/// run can unwind out of [`worker_loop`].
fn pool_workers() -> usize {
    static STARTED: OnceLock<usize> = OnceLock::new();
    *STARTED.get_or_init(|| {
        (0..current_num_threads())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(worker_loop)
                    .is_ok()
            })
            .count()
    })
}

fn worker_loop() {
    ON_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut jobs = lock(&POOL.jobs);
            loop {
                if let Some(job) = jobs.front() {
                    break Arc::clone(job);
                }
                jobs = POOL.job_ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work();
        // Every index is claimed: retire the stage (other workers may have
        // done so already).
        lock(&POOL.jobs).retain(|queued| !Arc::ptr_eq(queued, &job));
    }
}

/// Runs `run(i)` for every `i < len` on the pool and returns once all have
/// finished. `run` must not unwind.
fn run_on_pool(run: &(dyn Fn(usize) + Sync), len: usize) {
    // SAFETY: only the lifetime is erased; this function does not return
    // before every claimed index has finished, and no index is run after
    // that (see `Job::work`).
    let run: *const (dyn Fn(usize) + Sync + '_) = run;
    let run: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(run) };
    let job = Arc::new(Job {
        run,
        len,
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        wait: Mutex::new(()),
        all_finished: Condvar::new(),
    });
    lock(&POOL.jobs).push_back(Arc::clone(&job));
    POOL.job_ready.notify_all();
    let mut wait = lock(&job.wait);
    while job.finished.load(Ordering::Acquire) < len {
        wait = job
            .all_finished
            .wait(wait)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// A value written and taken by exactly one thread at a time: slot `i` of a
/// stage is touched only by the worker that claimed index `i`, then by the
/// caller after the stage has finished.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: accesses never overlap (see the type docs); the stage's
// `finished` counter orders the workers' writes before the caller's reads.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new(value: Option<T>) -> Self {
        Slot(UnsafeCell::new(value))
    }

    /// # Safety
    /// No other thread may access the slot concurrently.
    unsafe fn replace(&self, value: Option<T>) -> Option<T> {
        std::mem::replace(&mut *self.0.get(), value)
    }
}

/// Applies `f` to every element of `items` on the worker pool, returning
/// outputs in input order. Runs sequentially on the calling thread for
/// one-thread pools, fewer than two items, or when called from a worker.
fn parallel_map_vec<T: Send, U: Send>(items: Vec<T>, f: &(impl Fn(T) -> U + Sync)) -> Vec<U> {
    let len = items.len();
    if current_num_threads() <= 1 || len < 2 || ON_WORKER.with(Cell::get) || pool_workers() == 0 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Slot<T>> = items
        .into_iter()
        .map(|item| Slot::new(Some(item)))
        .collect();
    let outputs: Vec<Slot<std::thread::Result<U>>> = (0..len).map(|_| Slot::new(None)).collect();
    let run = |i: usize| {
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: index `i` is claimed by exactly one worker.
            let item = unsafe { inputs[i].replace(None) };
            f(item.expect("each index is claimed once"))
        }));
        // SAFETY: as above.
        unsafe { outputs[i].replace(Some(out)) };
    };
    run_on_pool(&run, len);
    let mut results = Vec::with_capacity(len);
    let mut first_panic = None;
    for slot in outputs {
        match slot.0.into_inner().expect("every index has finished") {
            Ok(out) => results.push(out),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    results
}

/// A parallel iterator: a pipeline stage that can materialize its items.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Materializes all items, running pending `map` stages in parallel.
    fn drive(self) -> Vec<Self::Item>;

    /// Maps every item through `f` in parallel.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Keeps only items satisfying `pred`.
    fn filter<F: Fn(&Self::Item) -> bool + Sync>(self, pred: F) -> Filter<Self, F> {
        Filter { base: self, pred }
    }

    /// Pairs every item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Reduces the items with `f`; `None` when empty. Reduction order is the
    /// sequential left fold over the (input-ordered) items, so tie-breaking
    /// closures behave deterministically.
    fn reduce_with<F: Fn(Self::Item, Self::Item) -> Self::Item + Sync>(
        self,
        f: F,
    ) -> Option<Self::Item> {
        self.drive().into_iter().reduce(f)
    }

    /// Runs `f` on every item in parallel.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        let _ = parallel_map_vec(self.drive(), &|item| f(item));
    }

    /// Collects the items in input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Sums the items.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.drive().into_iter().sum()
    }

    /// Number of items.
    fn count(self) -> usize {
        self.drive().len()
    }

    /// Minimum by a comparison function (`None` when empty).
    fn min_by<F: Fn(&Self::Item, &Self::Item) -> std::cmp::Ordering + Sync>(
        self,
        cmp: F,
    ) -> Option<Self::Item> {
        self.drive().into_iter().min_by(|a, b| cmp(a, b))
    }

    /// Maximum by a comparison function (`None` when empty).
    fn max_by<F: Fn(&Self::Item, &Self::Item) -> std::cmp::Ordering + Sync>(
        self,
        cmp: F,
    ) -> Option<Self::Item> {
        self.drive().into_iter().max_by(|a, b| cmp(a, b))
    }
}

/// Base parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// Parallel `map` adapter.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> U + Sync,
{
    type Item = U;
    fn drive(self) -> Vec<U> {
        parallel_map_vec(self.base.drive(), &self.f)
    }
}

/// Parallel `filter` adapter (filtering itself is sequential; the upstream
/// stages still run in parallel).
pub struct Filter<P, F> {
    base: P,
    pred: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Sync,
{
    type Item = P::Item;
    fn drive(self) -> Vec<P::Item> {
        let pred = self.pred;
        self.base.drive().into_iter().filter(|x| pred(x)).collect()
    }
}

/// Parallel `enumerate` adapter.
pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    fn drive(self) -> Vec<(usize, P::Item)> {
        self.base.drive().into_iter().enumerate().collect()
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type.
    type Item: Send;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParIter<T>;
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = ParIter<&'a T>;
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = ParIter<&'a T>;
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

macro_rules! impl_into_par_iter_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = ParIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range!(usize, u32, u64, i32, i64);

/// `par_iter()` by reference (mirrors rayon's blanket impl).
pub trait IntoParallelRefIterator<'data> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type (a reference).
    type Item: Send + 'data;
    /// Borrowing conversion.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let squared: Vec<usize> = v.into_par_iter().map(|x| x * x).collect();
        assert_eq!(squared[999], 999 * 999);
    }

    #[test]
    fn enumerate_filter_reduce() {
        let v: Vec<f64> = vec![3.0, 1.0, f64::NAN, 2.0];
        let min = v
            .par_iter()
            .enumerate()
            .map(|(i, &x)| (i, x))
            .filter(|(_, x)| !x.is_nan())
            .reduce_with(|a, b| if b.1 < a.1 { b } else { a });
        assert_eq!(min.map(|(i, _)| i), Some(1));
    }

    #[test]
    fn range_into_par_iter() {
        let total: usize = (0usize..100).into_par_iter().map(|x| x).sum();
        assert_eq!(total, 4950);
    }

    #[test]
    fn reduce_with_empty_is_none() {
        let v: Vec<usize> = Vec::new();
        assert!(v.into_par_iter().reduce_with(|a, _| a).is_none());
    }

    #[test]
    fn a_panicking_item_keeps_its_message_and_no_worker_dies() {
        let caught = std::panic::catch_unwind(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    if i == 17 || i == 40 {
                        panic!("item {i} failed");
                    }
                    i
                })
                .collect::<Vec<_>>()
        })
        .unwrap_err();
        // the lowest-index panic wins, whatever order the items ran in
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("item 17 failed")
        );

        // The next stage still runs on every worker: each item waits until
        // all `threads` items are running at once, which only happens if
        // every worker is alive and took one.
        let threads = super::current_num_threads();
        let arrived = AtomicUsize::new(0);
        let names: Vec<Option<String>> = (0..threads)
            .into_par_iter()
            .map(|_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let start = std::time::Instant::now();
                while arrived.load(Ordering::SeqCst) < threads {
                    assert!(
                        start.elapsed() < std::time::Duration::from_secs(30),
                        "only {} of {threads} workers took an item",
                        arrived.load(Ordering::SeqCst)
                    );
                    std::thread::yield_now();
                }
                std::thread::current().name().map(str::to_string)
            })
            .collect();
        if threads > 1 {
            let mut distinct = names.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), threads, "{names:?}");
        }
    }

    #[test]
    fn skewed_item_costs_keep_input_order() {
        // the first items are slow: with one contiguous chunk per thread
        // they would all land on one worker; claimed one at a time they
        // spread out, and the output order must not care either way
        let out: Vec<usize> = (0..200usize)
            .into_par_iter()
            .map(|i| {
                if i < 8 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                i * 3
            })
            .collect();
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_stages_run_inline_on_workers() {
        let sums: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| (0..i).into_par_iter().map(|j| j + 1).sum())
            .collect();
        assert_eq!(sums, (0..16).map(|i| i * (i + 1) / 2).collect::<Vec<_>>());
    }
}
