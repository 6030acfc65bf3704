use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker panic caught by [`try_parallel_map_with`].
///
/// Campaign code converts it into a typed error via
/// [`message`](WorkerPanic::message).
pub struct WorkerPanic {
    payload: Box<dyn Any + Send + 'static>,
}

impl WorkerPanic {
    /// A human-readable rendering of the panic payload (`&str`/`String`
    /// payloads verbatim, anything else a placeholder).
    #[must_use]
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_string()
        }
    }
}

impl fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkerPanic({:?})", self.message())
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked: {}", self.message())
    }
}

/// Applies `f` to every index in `0..n` on up to `threads` scoped worker
/// threads and returns the results in index order. Every worker carries a
/// private mutable state created once by `init`, the hook for reusable
/// scratch buffers.
///
/// # Scheduling
///
/// Workers claim runs of consecutive indices from one shared cursor, each
/// claim taking `max(1, remaining / (8 × workers))` items (guided
/// self-scheduling): early claims are long, so neighbouring items (which
/// share inputs) stay on one worker, and the shrinking tail rebalances
/// uneven item costs. Each worker keeps its `(index, result)` pairs to
/// itself; after the threads join they are put back in index order, so
/// the result is independent of `threads` and of scheduling. With
/// `threads <= 1`, or at most one item, the map runs on the calling
/// thread.
///
/// # Panics and failpoints
///
/// `init` and every item run under `catch_unwind`: after the first panic
/// the other workers stop claiming and drain, and the panic comes back as
/// a [`WorkerPanic`], never unwinding into the caller. Each item consults
/// the `parallel_worker` failpoint (`fastmon_obs::failpoints`) first;
/// items have no error channel, so both failpoint actions surface as a
/// contained panic.
///
/// # Errors
///
/// Returns a caught worker panic; results of items already finished are
/// discarded.
///
/// # Example
///
/// ```
/// let squares = fastmon_sim::try_parallel_map_with(5, 4, || (), |(), i| i * i);
/// assert_eq!(squares.unwrap(), vec![0, 1, 4, 9, 16]);
/// ```
pub fn try_parallel_map_with<T, S, I, F>(
    n: usize,
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut state = contain(&init)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(run_item(&f, &mut state, i)?);
        }
        return Ok(out);
    }
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    // Set on the first contained panic, so the other workers stop claiming.
    let abort = AtomicBool::new(false);
    let worker = || {
        let result = contain(&init).and_then(|mut state| {
            let mut done = Vec::new();
            while !abort.load(Ordering::Relaxed) {
                let Some(run) = claim(&cursor, n, workers) else {
                    break;
                };
                for i in run {
                    done.push((i, run_item(&f, &mut state, i)?));
                }
            }
            Ok(done)
        });
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        result
    };
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Err(WorkerPanic { payload }))
            })
            .collect()
    });
    let mut pairs = Vec::with_capacity(n);
    for run in runs {
        pairs.extend(run?);
    }
    // one ascending run per worker, merged by the stable sort
    pairs.sort_by_key(|&(i, _)| i);
    Ok(pairs.into_iter().map(|(_, value)| value).collect())
}

/// A worker state checked out of a pool that outlives a series of
/// [`try_parallel_map_with`] calls, and returned to it on drop: used as
/// the map's per-worker state, it keeps scratch buffers across the calls'
/// thread spawns instead of rebuilding them per call. A contained panic
/// drops the lease too, returning its state to a pool that the caller
/// then drops with the error, so a half-updated state is never reused.
///
/// # Example
///
/// ```
/// use std::sync::Mutex;
/// use fastmon_sim::{try_parallel_map_with, Lease};
///
/// let pool: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
/// for _ in 0..3 {
///     try_parallel_map_with(8, 2, || Lease::take(&pool, Vec::new), |buf, i| {
///         buf.get().push(i as u8);
///     })
///     .unwrap();
/// }
/// assert!(!pool.lock().unwrap().is_empty());
/// ```
pub struct Lease<'p, T> {
    pool: &'p Mutex<Vec<T>>,
    state: Option<T>,
}

impl<'p, T> Lease<'p, T> {
    /// Takes a state from `pool`, or makes one with `make` when the pool
    /// is empty.
    pub fn take(pool: &'p Mutex<Vec<T>>, make: impl FnOnce() -> T) -> Self {
        let state = pool
            .lock()
            .ok()
            .and_then(|mut p| p.pop())
            .unwrap_or_else(make);
        Lease {
            pool,
            state: Some(state),
        }
    }

    /// The leased state.
    pub fn get(&mut self) -> &mut T {
        match self.state.as_mut() {
            Some(state) => state,
            None => unreachable!("a lease holds its state until dropped"),
        }
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(state);
            }
        }
    }
}

/// Claims the next run of consecutive indices below `n`, or `None` once
/// the cursor has passed `n`.
fn claim(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    let len = |start: usize| ((n - start) / (8 * workers)).max(1);
    // Relaxed: the cursor only hands out indices; the results reach the
    // caller through the thread joins.
    cursor
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |start| {
            (start < n).then(|| start + len(start))
        })
        .ok()
        .map(|start| start..start + len(start))
}

/// Runs item `i` under `catch_unwind`, consulting the `parallel_worker`
/// failpoint first.
fn run_item<T, S, F>(f: &F, state: &mut S, i: usize) -> Result<T, WorkerPanic>
where
    F: Fn(&mut S, usize) -> T,
{
    contain(|| {
        if let Err(injected) = fastmon_obs::failpoints::fire("parallel_worker") {
            panic!("{injected}");
        }
        f(state, i)
    })
}

/// Runs `body`, returning its panic as a [`WorkerPanic`].
fn contain<R>(body: impl FnOnce() -> R) -> Result<R, WorkerPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(body)).map_err(|payload| WorkerPanic { payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        try_parallel_map_with(n, threads, || (), |(), i| f(i)).expect("no item panics")
    }

    #[test]
    fn sequential_fallback() {
        assert_eq!(map(4, 1, |i| i + 1), vec![1, 2, 3, 4]);
        assert_eq!(map(0, 8, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(seq, map(1000, 8, |i| i * 3));
    }

    #[test]
    fn uneven_work_is_completed() {
        let par = map(64, 4, |i| {
            // simulate uneven cost
            let mut acc = 0usize;
            for k in 0..(i % 7) * 1000 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, item) in par.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        map(500, 8, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // each worker's state counts its items: the per-item value is the
        // worker-local running count, so one item per state reads 1, and
        // `init` runs once per worker, not once per claim
        let n = 300;
        let counts = try_parallel_map_with(
            n,
            4,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        )
        .expect("no item panics");
        assert_eq!(counts.len(), n);
        assert!(counts.iter().all(|&c| c >= 1));
        let states = counts.iter().filter(|&&c| c == 1).count();
        assert!((1..=4).contains(&states), "{states} states for 4 workers");
    }

    #[test]
    fn leased_states_outlive_each_map() {
        // every state counts the items it served: after three maps the
        // pool holds at most one state per worker, and together they
        // served every item of every map
        let pool: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        for _ in 0..3 {
            try_parallel_map_with(
                100,
                4,
                || Lease::take(&pool, || 0),
                |seen, _| *seen.get() += 1,
            )
            .expect("no item panics");
        }
        let states = pool.into_inner().expect("no lease panicked");
        assert!((1..=4).contains(&states.len()), "{} states", states.len());
        assert_eq!(states.iter().sum::<usize>(), 300);
    }

    #[test]
    fn worker_panic_is_contained_and_typed() {
        let res = try_parallel_map_with(
            200,
            4,
            || (),
            |(), i| {
                assert!(i != 137, "boom at {i}");
                i * 2
            },
        );
        let panic = res.expect_err("the panicking item must surface as Err");
        assert!(panic.message().contains("boom at 137"), "{panic}");
    }

    #[test]
    fn sequential_panic_is_contained_too() {
        let res =
            try_parallel_map_with(8, 1, || (), |(), i| if i == 3 { panic!("seq") } else { i });
        assert!(res.expect_err("sequential path must contain too").message() == "seq");
    }

    #[test]
    fn init_panic_is_contained() {
        for threads in [1, 4] {
            let res = try_parallel_map_with(
                16,
                threads,
                || -> usize { panic!("init boom") },
                |offset, i| i + *offset,
            );
            let panic = res.expect_err("a panicking init must surface as Err");
            assert_eq!(panic.message(), "init boom", "threads={threads}");
        }
    }

    #[test]
    fn skewed_single_heavy_tail_balances() {
        // one block of indices is 100× heavier; the pool must still finish
        // and return correct results
        let par = map(256, 8, |i| {
            let rounds = if i < 32 { 20_000 } else { 200 };
            let mut acc = 0u64;
            for k in 0..rounds {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        for (i, item) in par.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }
}
