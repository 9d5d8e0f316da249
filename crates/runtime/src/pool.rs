//! The process-wide worker pool behind the [`crate::ParallelEngine`].
//!
//! `rayon` is not available in this build environment, so this module plays
//! its role: a batch of independent tasks is drained from a shared atomic
//! cursor (dynamic self-scheduling — every idle thread takes the next undone
//! task, so long tasks never serialise behind short ones).
//!
//! # Why a persistent pool with an inline cutoff
//!
//! OCBA spends its budget one small increment at a time, so an optimisation
//! run issues thousands of small Monte-Carlo batches. Spawning and joining
//! threads per batch costs more than such a batch on closed-form models
//! (measured: engine dispatch took most of the wall time, and the parallel
//! engine ran at a third of the serial one's speed). This pool avoids both
//! costs:
//!
//! * **Persistent, parked helpers.** One process-wide pool of
//!   [`default_workers`]` − 1` helper threads, started lazily by the first
//!   batch that needs it — a process that only ever runs the serial engine
//!   starts no thread. Idle helpers park on a `Mutex` + `Condvar`; they
//!   never spin, so an idle pool costs no CPU time.
//! * **Inline cutoff.** The caller runs the batch's first tasks itself and
//!   times them. Helpers are woken only when the estimated remaining work
//!   exceeds [`INLINE_CUTOFF_NS`], a fixed multiple of a helper's wake-up
//!   cost; smaller batches finish inline with no synchronisation at all.
//!   When the calling thread's last two batches already predict a heavy
//!   one (circuit blocks cost about a millisecond each), the whole batch is
//!   posted at once, so its first task does not run alone.
//! * **The caller always drains its own batch.** A posted batch is helped,
//!   never handed off, so two concurrent callers and a `run_tasks` nested
//!   inside a task always make progress even when every helper is busy.
//!
//! Task closures borrow the engine's model, cache and requests. Helpers are
//! `'static` threads, so posting a batch erases the borrow's lifetime; the
//! one `unsafe` block (in the private `Pool::run`) carries the argument why
//! that is sound. Results never depend on which thread ran a task (the
//! engine's per-`(design, block)` RNG streams), so parallel output is
//! bit-identical to serial output.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Estimated remaining work (nanoseconds) above which a batch wakes the
/// pool's helpers. A parked helper starts its first task 20–40 µs after the
/// wake-up (median; 60 µs at the 90th percentile, on a 2-vCPU virtual
/// machine), and the wake-up costs a few µs of CPU on each side. Below
/// about five to ten wake-ups' worth of work the caller finishes about as
/// soon alone, and spends less CPU doing so.
pub const INLINE_CUTOFF_NS: u64 = 200_000;

/// Executes `run` over every task, using up to `workers` threads.
///
/// With `workers <= 1` (or at most one task) the tasks run inline on the
/// caller's thread, which keeps the serial path completely thread-free.
/// Otherwise the caller runs tasks inline until the work left looks large
/// enough to pay for waking helpers (see [`INLINE_CUTOFF_NS`]), then posts
/// the rest to the process-wide pool and drains it alongside at most
/// `workers − 1` helpers. A batch that the thread's recent batches predict
/// to clear the cutoff is posted whole.
///
/// # Panics
///
/// Propagates the first task panic to the caller, after every other task of
/// the batch has run. The pool stays usable.
pub fn run_tasks<T, F>(tasks: &[T], workers: usize, run: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    if workers <= 1 || tasks.len() <= 1 {
        tasks.iter().for_each(run);
        return;
    }
    let start = Instant::now();
    let len = tasks.len() as u64;
    // A batch that this thread's recent batches predict to be heavy goes to
    // the pool whole, so its first task already runs beside the helpers (a
    // two-block circuit batch would otherwise run serially).
    if predicted_task_ns().saturating_mul(len) > INLINE_CUTOFF_NS {
        pool().run(tasks, workers - 1, &run);
        // Wall time per task understates a task's cost by up to the thread
        // count, which only biases the next prediction towards inline.
        record_task_ns(nanos_since(start) / len);
        return;
    }
    // Inline prefix: time the tasks run so far and re-estimate the remaining
    // work after 1, 4, 16, … tasks, so a cheap first task (a cache hit)
    // cannot keep a heavy batch serial. A clock read costs about 50 ns, so
    // the geometric schedule keeps it to a few reads per batch.
    let mut checkpoint = 1;
    for (done, task) in (1..=len).zip(tasks) {
        run(task);
        if done == checkpoint && done < len {
            checkpoint *= 4;
            let elapsed = nanos_since(start);
            if elapsed.saturating_mul(len - done) > INLINE_CUTOFF_NS.saturating_mul(done) {
                record_task_ns(elapsed / done);
                pool().run(&tasks[done as usize..], workers - 1, &run);
                return;
            }
            if checkpoint >= len {
                // The last checkpoint of this batch.
                record_task_ns(elapsed / done);
            }
        }
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    /// Mean nanoseconds per task of this thread's last two timed batches.
    /// Per thread, because one thread drives one model at a time, while
    /// concurrent callers may drive different ones.
    static TASK_NS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// The smaller of the last two batches' means: a model whose batches are
/// all heavy (circuits) is predicted heavy, while one heavy batch among
/// cheap ones (a cold block, then re-reads of it) is not.
fn predicted_task_ns() -> u64 {
    let [a, b] = TASK_NS.get();
    a.min(b)
}

fn record_task_ns(ns: u64) {
    let [_, last] = TASK_NS.get();
    TASK_NS.set([last, ns]);
}

/// The default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Helper threads the process-wide pool has started: 0 until the first
/// batch large enough to need them, [`default_workers`]` − 1` afterwards.
pub fn helper_threads() -> usize {
    POOL.get().map_or(0, |pool| pool.helpers)
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let helpers = default_workers().saturating_sub(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            helpers,
            state: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            left: Condvar::new(),
        }));
        // The helpers are detached: they serve the whole process and park
        // between batches. Nothing they run can unwind out of `help` (task
        // panics are caught in `Batch::drain`), so there is no panic for a
        // join to surface.
        for i in 0..helpers {
            std::thread::Builder::new()
                .name(format!("moheco-pool-{i}"))
                .spawn(move || pool.help())
                .expect("spawn pool helper thread");
        }
        pool
    })
}

/// One batch being drained: lives on its caller's stack for the duration of
/// [`Pool::run`].
struct Batch<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    len: usize,
    /// Next task index to claim. `Relaxed` suffices: a claim publishes no
    /// data. The tasks reach helpers through the pool lock that posted the
    /// batch, and their effects reach the caller through the pool lock each
    /// helper takes to leave.
    next: AtomicUsize,
    /// Helpers currently inside [`Batch::drain`]. Read and changed only
    /// under the pool lock, which orders it (hence `Relaxed`).
    helpers: AtomicUsize,
    /// The first task panic, re-raised on the caller once the batch is done.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch<'_> {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs tasks until the cursor is exhausted. A panicking task
    /// is caught and recorded so the batch still finishes.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                let mut first = lock(&self.panic);
                if first.is_none() {
                    *first = Some(payload);
                } else {
                    // Leaked, not dropped: a payload's `Drop` may panic, and
                    // nothing may unwind out of a posted batch.
                    std::mem::forget(payload);
                }
            }
        }
    }
}

/// A batch open to helpers, with the helper seats it has left (its
/// `workers − 1` cap).
struct Posted {
    batch: &'static Batch<'static>,
    seats: usize,
}

struct Pool {
    helpers: usize,
    /// Batches open to helpers.
    state: Mutex<Vec<Posted>>,
    /// Parked helpers wait here for a posted batch.
    wake: Condvar,
    /// Callers wait here for their batch's last helper to leave.
    left: Condvar,
}

impl Pool {
    /// Drains `tasks` on the calling thread, helped by up to `seats` helpers.
    fn run<T, F>(&self, tasks: &[T], seats: usize, run: &F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        let body = |i: usize| run(&tasks[i]);
        let batch = Batch {
            run: &body,
            len: tasks.len(),
            next: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let seats = seats.min(self.helpers).min(tasks.len() - 1);
        if seats > 0 {
            // SAFETY: helpers see the batch only through this `'static`
            // reference, and only between joining it (under the pool lock,
            // while it is posted) and leaving it (decrementing `helpers`
            // under the pool lock, after which they never touch it again).
            // Below, this function unposts the batch under the pool lock —
            // so no helper can join afterwards — and waits, under the same
            // lock, until `helpers` is zero before returning. Nothing in
            // between can unwind: task panics are caught in `drain`, and the
            // locks ignore poisoning. So every use of the erased reference
            // (and of `body`, `tasks` and `run` through it) happens before
            // `batch` and the borrows it holds go out of scope.
            let posted: &'static Batch<'static> = unsafe { std::mem::transmute(&batch) };
            lock(&self.state).push(Posted {
                batch: posted,
                seats,
            });
            for _ in 0..seats {
                self.wake.notify_one();
            }
        }
        batch.drain();
        if seats > 0 {
            let mut state = lock(&self.state);
            let this = (&batch as *const Batch<'_>).cast::<()>();
            state.retain(|p| (p.batch as *const Batch<'static>).cast::<()>() != this);
            while batch.helpers.load(Ordering::Relaxed) > 0 {
                state = wait(&self.left, state);
            }
        }
        let panic = lock(&batch.panic).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// A helper thread's loop: join a posted batch with a free seat and work
    /// left, drain it, leave; park when there is none.
    fn help(&self) {
        let mut state = lock(&self.state);
        loop {
            let joined = state
                .iter_mut()
                .find(|p| p.seats > 0 && p.batch.has_work())
                .map(|p| {
                    p.seats -= 1;
                    p.batch
                });
            match joined {
                Some(batch) => {
                    batch.helpers.fetch_add(1, Ordering::Relaxed);
                    drop(state);
                    batch.drain();
                    state = lock(&self.state);
                    // Leaving: after this decrement the caller may return,
                    // so `batch` is not touched again.
                    if batch.helpers.fetch_sub(1, Ordering::Relaxed) == 1 {
                        self.left.notify_all();
                    }
                }
                None => state = wait(&self.wake, state),
            }
        }
    }
}

/// Locks `mutex`, ignoring poisoning: every critical section in this module
/// leaves its data consistent, and task panics never unwind through one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, ignoring poisoning like [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Spins for `micros` µs, so a batch of these tasks clears the inline
    /// cutoff and reaches the helpers.
    fn busy(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    fn assert_each_ran_once(hits: &[AtomicU64]) {
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let tasks: Vec<usize> = (0..257).collect();
        let hits: Vec<AtomicU64> = (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
        run_tasks(&tasks, 8, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_each_ran_once(&hits);
    }

    #[test]
    fn heavy_batches_run_every_task_exactly_once() {
        // 64 × 20 µs clears the cutoff, so this goes through the pool.
        let tasks: Vec<usize> = (0..64).collect();
        let hits: Vec<AtomicU64> = (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
        run_tasks(&tasks, 4, |&i| {
            busy(20);
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_each_ran_once(&hits);
    }

    #[test]
    fn single_worker_runs_inline() {
        let tasks = vec![1, 2, 3];
        let sum = AtomicU64::new(0);
        run_tasks(&tasks, 1, |&v| {
            sum.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let tasks: Vec<u8> = Vec::new();
        run_tasks(&tasks, 4, |_| panic!("no tasks to run"));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_survives() {
        let tasks: Vec<usize> = (0..48).collect();
        // Panics in an inline-prefix task and in a pooled task both surface.
        for bad in [0, 40] {
            let ran = AtomicU64::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_tasks(&tasks, 4, |&i| {
                    busy(20);
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == bad {
                        panic!("task {i} failed");
                    }
                });
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("panic message")
                .clone();
            assert_eq!(message, format!("task {bad} failed"));
            if bad > 0 {
                // A pooled panic still lets the rest of its batch finish.
                assert_eq!(ran.load(Ordering::Relaxed), tasks.len() as u64);
            }
        }
        // The pool is still usable.
        let hits: Vec<AtomicU64> = (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
        run_tasks(&tasks, 4, |&i| {
            busy(20);
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_each_ran_once(&hits);
    }

    #[test]
    fn concurrent_callers_each_run_their_own_tasks_exactly_once() {
        let tasks: Vec<usize> = (0..96).collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let hits: Vec<AtomicU64> =
                            (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
                        run_tasks(&tasks, 4, |&i| {
                            busy(10);
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        assert_each_ran_once(&hits);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_run_tasks_completes() {
        let outer: Vec<usize> = (0..16).collect();
        let inner: Vec<usize> = (0..16).collect();
        let total = AtomicU64::new(0);
        run_tasks(&outer, 4, |_| {
            busy(50);
            run_tasks(&inner, 4, |_| {
                busy(20);
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            (outer.len() * inner.len()) as u64
        );
    }
}
