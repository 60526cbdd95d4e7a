//! The bounded work-queue executor.
//!
//! A [`Pool`] of `threads` is `threads − 1` long-lived workers plus the
//! thread that calls [`Pool::map`]: the caller pushes its batch onto the
//! shared queue, then *helps* — it pops and runs tasks from its own
//! batch until every slot is filled. Nested maps (a task calling
//! [`Pool::map`] again) therefore cost zero extra threads: the nested
//! caller just becomes a helper for its own sub-batch, and the total
//! thread count stays at the configured bound at any nesting depth.
//!
//! Helpers only run tasks from their *own* batch. This keeps a blocked
//! computation from re-entering itself: if a helper could steal
//! arbitrary work, a task that initializes a [`Memo`](crate::Memo) key
//! could steal another task that waits on that same key — on the same
//! stack — and deadlock. Idle *workers* take any task from any batch,
//! so cross-batch parallelism is still fully exploited.
//!
//! ## Fault tolerance
//!
//! Two map flavors share the queue:
//!
//! * [`Pool::map`] — results in input order, panics re-raised on the
//!   caller with their **original payload** (worker id and payload text
//!   are additionally recorded, see [`Pool::last_panic`]). The caller
//!   always joins its whole batch, so task closures may borrow from the
//!   caller's stack.
//! * [`Pool::try_map`] — per-task `Result`s instead of propagation:
//!   panics are contained as [`TaskError::Panicked`], and when the
//!   caller passes a watchdog deadline, a task that runs past it is
//!   *abandoned* — its typed [`TaskError::TimedOut`] returns immediately
//!   while the straggler finishes (or hangs) harmlessly on its worker,
//!   keeping only its own heap state alive. A failed task is reported,
//!   never re-run: every task here is a deterministic computation that
//!   would fail the same way again.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vlpp_metrics::{Counter, Gauge};

use crate::lock;

/// A type-erased unit of work. Tasks are only `'static` from the queue's
/// point of view; [`Pool::map`] guarantees every task it pushes has run
/// to completion before it returns, so the borrows erased in
/// [`Pool::map`] never dangle. [`Pool::try_map`] tasks own their data
/// outright and need no such guarantee.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One queued task, tagged with the batch that owns it so helping
/// callers can pick out their own work.
struct QueuedTask {
    batch: usize,
    task: Task,
}

/// State shared between the workers and every mapping caller.
struct Shared {
    queue: Mutex<VecDeque<QueuedTask>>,
    /// Signalled when tasks are pushed or the pool shuts down.
    task_ready: Condvar,
    /// Monotonic batch-id source.
    next_batch: AtomicUsize,
    shutdown: AtomicBool,
}

thread_local! {
    /// Pool worker index of the current thread; `None` on caller threads.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pool worker index of the calling thread, if it is a pool worker.
fn current_worker() -> Option<usize> {
    WORKER_ID.with(|cell| cell.get())
}

/// A [`Pool::map`] task that panicked: the original payload, kept to be
/// re-raised on the caller, and the worker that ran it.
struct Panicked {
    payload: Box<dyn Any + Send>,
    worker: Option<usize>,
}

/// Why a [`Pool::try_map`] task failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked; the panic was contained at the task boundary.
    Panicked {
        /// The panic payload rendered as text.
        payload: String,
        /// The pool worker that ran the task (`None` = the caller).
        worker: Option<usize>,
    },
    /// The task exceeded the watchdog deadline and was cancelled.
    TimedOut {
        /// Measured run time when the task was given up on.
        elapsed_ms: u64,
        /// The configured deadline.
        limit_ms: u64,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { payload, worker: Some(id) } => {
                write!(f, "task panicked on worker {id}: {payload}")
            }
            TaskError::Panicked { payload, worker: None } => {
                write!(f, "task panicked: {payload}")
            }
            TaskError::TimedOut { elapsed_ms, limit_ms } => {
                write!(f, "task exceeded the {limit_ms} ms deadline (ran {elapsed_ms} ms)")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// Context for the most recent panic a [`Pool::map`] re-raised — the
/// original payload crosses the unwind untouched, and this report
/// preserves the scheduling context (which item, which worker) that the
/// unwind cannot carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicReport {
    /// Input index of the panicking item.
    pub index: usize,
    /// Worker that ran it (`None` = the mapping caller's own thread).
    pub worker: Option<usize>,
    /// The payload rendered as text.
    pub payload: String,
}

/// Completion tracking for one borrowed (`map`) batch of `n` tasks.
struct BatchState<R> {
    /// `slots[i]` receives item `i`'s result (or its panic).
    slots: Vec<Option<Result<R, Panicked>>>,
    remaining: usize,
}

struct Batch<R> {
    state: Mutex<BatchState<R>>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

/// One slot of an owned (`try_map`) batch.
enum Slot<R> {
    /// Queued, not yet picked up.
    Pending,
    /// Executing since `started`.
    Running { started: Instant },
    /// Finished, or given up on by the watchdog (terminal). A straggler
    /// whose slot the watchdog already filled discards its result.
    Done(Result<R, TaskError>),
}

/// Completion tracking for one owned (`try_map`) batch. Heap-allocated
/// and `Arc`-shared with every task, so an abandoned straggler keeps
/// only this state alive rather than borrowing the caller's stack.
struct OwnedBatch<R> {
    state: Mutex<OwnedBatchState<R>>,
    done: Condvar,
}

struct OwnedBatchState<R> {
    slots: Vec<Slot<R>>,
    /// Slots not yet `Done`.
    remaining: usize,
}

/// The pool's process-wide instruments (see `OBSERVABILITY.md`). All
/// pools in the process share them — the registry hands out one
/// instrument per name — so they read as whole-process totals.
struct PoolMetrics {
    /// `pool.queue_depth`: queue length sampled after each batch is
    /// enqueued; its high-water mark is how full the queue ever ran.
    queue_depth: Arc<Gauge>,
    /// `pool.tasks.helped`: tasks a mapping caller ran from its own
    /// batch while waiting for it to drain.
    helped: Arc<Counter>,
    /// `pool.tasks.stolen`: tasks claimed and run by pool workers.
    stolen: Arc<Counter>,
    /// `pool.tasks.inline`: items run sequentially on the caller when a
    /// map does not distribute (single item or single-threaded pool).
    inline: Arc<Counter>,
    /// `pool.tasks.timed_out`: tasks that exceeded the watchdog
    /// deadline (abandoned mid-run or rejected post-completion).
    timed_out: Arc<Counter>,
}

/// A bounded work-queue executor with order-preserving parallel map,
/// panic propagation, and thread-free nesting.
///
/// # Example
///
/// ```
/// use vlpp_pool::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.map(vec![1u64, 2, 3], |n| n * n);
/// assert_eq!(squares, vec![1, 4, 9]);
/// // Nested maps reuse the same four threads.
/// let nested = pool.map(vec![10u64, 20], |base| {
///     pool.map(vec![1u64, 2], |off| base + off)
/// });
/// assert_eq!(nested, vec![vec![11, 12], vec![21, 22]]);
/// ```
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    metrics: PoolMetrics,
    last_panic: Mutex<Option<PanicReport>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

/// Renders a panic payload as text (String and &str payloads verbatim,
/// anything else a placeholder).
fn payload_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one `try_map` task on the current thread: panic containment and
/// a post-completion deadline check (the only kind possible on the
/// thread that runs the task).
fn run_checked<T, R>(
    work: impl FnOnce(T) -> R,
    item: T,
    started: Instant,
    timeout_ms: Option<u64>,
    timed_out: &Counter,
) -> Result<R, TaskError> {
    let value = catch_unwind(AssertUnwindSafe(|| work(item))).map_err(|payload| {
        TaskError::Panicked { payload: payload_text(payload.as_ref()), worker: current_worker() }
    })?;
    if let Some(limit_ms) = timeout_ms {
        let elapsed_ms = started.elapsed().as_millis() as u64;
        if elapsed_ms > limit_ms {
            timed_out.incr();
            return Err(TaskError::TimedOut { elapsed_ms, limit_ms });
        }
    }
    Ok(value)
}

impl Pool {
    /// Creates a pool that runs at most `threads` tasks concurrently
    /// (`threads − 1` worker threads plus the mapping caller).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            task_ready: Condvar::new(),
            next_batch: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let metrics = PoolMetrics {
            queue_depth: vlpp_metrics::gauge("pool.queue_depth"),
            helped: vlpp_metrics::counter("pool.tasks.helped"),
            stolen: vlpp_metrics::counter("pool.tasks.stolen"),
            inline: vlpp_metrics::counter("pool.tasks.inline"),
            timed_out: vlpp_metrics::counter("pool.tasks.timed_out"),
        };
        let workers = (0..threads - 1)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let tasks = vlpp_metrics::counter(&format!("pool.worker.{worker:02}.tasks"));
                let stolen = Arc::clone(&metrics.stolen);
                std::thread::spawn(move || {
                    WORKER_ID.with(|cell| cell.set(Some(worker)));
                    worker_loop(&shared, &tasks, &stolen)
                })
            })
            .collect();
        Pool { shared, workers, threads, metrics, last_panic: Mutex::new(None) }
    }

    /// The process-wide pool, sized by `VLPP_THREADS` (default: the
    /// machine's available parallelism). An unparseable or zero value
    /// warns on stderr and falls back to the default.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(threads_from_env()))
    }

    /// The configured concurrency bound (workers + mapping caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Context for the most recent panic [`Pool::map`] re-raised on a
    /// caller: which input index failed, on which worker, with what
    /// payload text. The unwound payload itself crosses [`Pool::map`]
    /// unmodified; this is the side channel for the context it cannot
    /// carry.
    pub fn last_panic(&self) -> Option<PanicReport> {
        lock(&self.last_panic).clone()
    }

    /// Applies `work` to every item, in parallel, returning results in
    /// input order.
    ///
    /// The calling thread participates: it runs tasks from this batch
    /// while waiting, so a single-threaded pool degrades to an ordinary
    /// sequential map and nested calls never spawn or deadlock.
    ///
    /// ```
    /// use vlpp_pool::Pool;
    ///
    /// let squares = Pool::global().map(vec![1u64, 2, 3, 4], |n| n * n);
    /// assert_eq!(squares, vec![1, 4, 9, 16]); // input order, any thread count
    /// ```
    ///
    /// # Panics
    ///
    /// If one or more tasks panic, the panic of the lowest-indexed
    /// failing item is re-raised on the caller with its **original
    /// payload** (after the whole batch has finished, so no result slot
    /// is ever abandoned mid-write). The item index, worker id, and
    /// payload text are recorded first — see [`Pool::last_panic`].
    pub fn map<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }

        if n == 1 || self.threads == 1 {
            // Nothing to distribute: run inline. Panics are caught only
            // to record their context, then re-raised untouched.
            self.metrics.inline.add(n as u64);
            let mut results = Vec::with_capacity(n);
            for (index, item) in items.into_iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| work(item))) {
                    Ok(value) => results.push(value),
                    Err(payload) => {
                        self.record_panic(index, current_worker(), &payload);
                        resume_unwind(payload);
                    }
                }
            }
            return results;
        }

        let batch_id = self.shared.next_batch.fetch_add(1, Ordering::Relaxed);
        let batch: Batch<R> = Batch {
            state: Mutex::new(BatchState { slots: (0..n).map(|_| None).collect(), remaining: n }),
            done: Condvar::new(),
        };

        {
            let work = &work;
            let batch = &batch;
            let mut queue = lock(&self.shared.queue);
            for (i, item) in items.into_iter().enumerate() {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| work(item)))
                        .map_err(|payload| Panicked { payload, worker: current_worker() });
                    let mut state = lock(&batch.state);
                    state.slots[i] = Some(result);
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        batch.done.notify_all();
                    }
                });
                // SAFETY: erases the borrows of `work`, `batch`, and the
                // moved `item` to 'static so the task can sit in the
                // shared queue. The help loop below does not return
                // until `remaining == 0`, i.e. until every one of these
                // tasks has finished running, so no borrow outlives this
                // call frame. Panics inside `work` are caught above and
                // still decrement `remaining`.
                let task: Task = unsafe { std::mem::transmute(task) };
                queue.push_back(QueuedTask { batch: batch_id, task });
            }
            self.metrics.queue_depth.record(queue.len() as u64);
            self.shared.task_ready.notify_all();
        }

        // Help: run this batch's tasks until all slots are filled. Tasks
        // already claimed by workers finish over there; `done` wakes us.
        loop {
            match self.pop_own(batch_id) {
                Some(task) => {
                    task();
                    self.metrics.helped.incr();
                }
                None => {
                    let state = lock(&batch.state);
                    if state.remaining == 0 {
                        break;
                    }
                    drop(batch.done.wait(state).unwrap_or_else(|e| e.into_inner()));
                }
            }
        }

        let state = batch.state.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for (index, slot) in state.slots.into_iter().enumerate() {
            match slot.expect("a completed batch has every slot filled") {
                Ok(result) => results.push(result),
                Err(Panicked { payload, worker }) => {
                    if first_panic.is_none() {
                        self.record_panic(index, worker, &payload);
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }

    fn record_panic(&self, index: usize, worker: Option<usize>, payload: &Box<dyn Any + Send>) {
        *lock(&self.last_panic) =
            Some(PanicReport { index, worker, payload: payload_text(payload.as_ref()) });
    }

    /// Removes and returns the first queued task of batch `batch_id`.
    fn pop_own(&self, batch_id: usize) -> Option<Task> {
        let mut queue = lock(&self.shared.queue);
        let at = queue.iter().position(|qt| qt.batch == batch_id)?;
        queue.remove(at).map(|qt| qt.task)
    }

    /// Applies `work` to every item, in parallel, returning one
    /// `Result` per item in input order — the fault-isolating flavor of
    /// [`Pool::map`]:
    ///
    /// * a panicking task becomes [`TaskError::Panicked`] (payload
    ///   text and worker id) without unwinding into the caller or
    ///   poisoning the batch;
    /// * with `timeout_ms` set, a task running past it is
    ///   **abandoned**: its [`TaskError::TimedOut`] is reported while
    ///   the straggler finishes (or hangs) on its worker thread, keeping
    ///   only its own `Arc`-shared state alive. A task the *caller*
    ///   happens to run cannot be preempted — it is deadline-checked on
    ///   completion instead, so every over-limit task yields `TimedOut`
    ///   either way.
    ///
    /// A failed task is not re-run. `'static` bounds (unlike
    /// [`Pool::map`]): abandonment means a straggler can outlive this
    /// call, so tasks must own their data — share context via `Arc`,
    /// not borrows.
    ///
    /// ```
    /// use vlpp_pool::{Pool, TaskError};
    ///
    /// let results = Pool::new(2).try_map(vec![1u32, 0], None, |n| 10 / n);
    /// assert_eq!(results[0], Ok(10));
    /// assert!(matches!(results[1], Err(TaskError::Panicked { .. })));
    /// ```
    pub fn try_map<T, R, F>(
        &self,
        items: Vec<T>,
        timeout_ms: Option<u64>,
        work: F,
    ) -> Vec<Result<R, TaskError>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n <= 1 || self.threads == 1 {
            self.metrics.inline.add(n as u64);
            return items
                .into_iter()
                .map(|item| {
                    run_checked(&work, item, Instant::now(), timeout_ms, &self.metrics.timed_out)
                })
                .collect();
        }

        let work = Arc::new(work);
        let batch_id = self.shared.next_batch.fetch_add(1, Ordering::Relaxed);
        let batch: Arc<OwnedBatch<R>> = Arc::new(OwnedBatch {
            state: Mutex::new(OwnedBatchState {
                slots: (0..n).map(|_| Slot::Pending).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        });

        {
            let mut queue = lock(&self.shared.queue);
            for (i, item) in items.into_iter().enumerate() {
                let work = Arc::clone(&work);
                let batch = Arc::clone(&batch);
                let timed_out = Arc::clone(&self.metrics.timed_out);
                // Fully owned — no lifetime erasure needed: if the
                // watchdog abandons this task, the closure's `Arc`s keep
                // the batch state and `work` alive until it finishes.
                let task: Task = Box::new(move || {
                    let started = Instant::now();
                    lock(&batch.state).slots[i] = Slot::Running { started };
                    let outcome = run_checked(&*work, item, started, timeout_ms, &timed_out);
                    let mut state = lock(&batch.state);
                    // A `Done` slot here means the watchdog already
                    // reported this task; the straggler's result is
                    // discarded.
                    if let Slot::Running { .. } = state.slots[i] {
                        state.slots[i] = Slot::Done(outcome);
                        state.remaining -= 1;
                        if state.remaining == 0 {
                            batch.done.notify_all();
                        }
                    }
                });
                queue.push_back(QueuedTask { batch: batch_id, task });
            }
            self.metrics.queue_depth.record(queue.len() as u64);
            self.shared.task_ready.notify_all();
        }

        // Help with our own batch; between tasks, reap overdue stragglers.
        loop {
            if let Some(task) = self.pop_own(batch_id) {
                task();
                self.metrics.helped.incr();
                continue;
            }
            let mut state = lock(&batch.state);
            if state.remaining == 0 {
                break;
            }
            let Some(limit_ms) = timeout_ms else {
                drop(batch.done.wait(state).unwrap_or_else(|e| e.into_inner()));
                continue;
            };
            let poll = Duration::from_millis((limit_ms / 4).clamp(5, 50));
            state = batch.done.wait_timeout(state, poll).unwrap_or_else(|e| e.into_inner()).0;
            let mut reaped = 0;
            for slot in state.slots.iter_mut() {
                if let Slot::Running { started } = slot {
                    let elapsed_ms = started.elapsed().as_millis() as u64;
                    if elapsed_ms > limit_ms {
                        self.metrics.timed_out.incr();
                        *slot = Slot::Done(Err(TaskError::TimedOut { elapsed_ms, limit_ms }));
                        reaped += 1;
                    }
                }
            }
            state.remaining -= reaped;
            if state.remaining == 0 {
                break;
            }
        }

        let mut state = lock(&batch.state);
        state
            .slots
            .iter_mut()
            .map(|slot| match std::mem::replace(slot, Slot::Pending) {
                Slot::Done(result) => result,
                Slot::Pending | Slot::Running { .. } => {
                    unreachable!("batch completed with a non-terminal slot")
                }
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.task_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, tasks: &Counter, stolen: &Counter) {
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(qt) = queue.pop_front() {
                    break Some(qt.task);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.task_ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(task) => {
                task();
                tasks.incr();
                stolen.incr();
            }
            None => return,
        }
    }
}

/// Parses a `VLPP_THREADS`-style value: a positive integer, or `None`
/// for anything unusable.
pub(crate) fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|&n| n >= 1)
}

fn threads_from_env() -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("VLPP_THREADS") {
        Err(_) => default,
        Ok(raw) => parse_threads(&raw).unwrap_or_else(|| {
            eprintln!(
                "warning: ignoring invalid VLPP_THREADS=`{raw}` \
                 (expected an integer >= 1); using {default}"
            );
            default
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let doubled = pool.map((0u64..100).collect(), |n| n * 2);
        assert_eq!(doubled, (0u64..100).map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let pool = Pool::new(3);
        let counter = AtomicU32::new(0);
        let results =
            pool.map((0..57).collect::<Vec<u32>>(), |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(results.len(), 57);
        assert_eq!(counter.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn single_threaded_pool_is_a_sequential_map() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = std::sync::Mutex::new(Vec::new());
        pool.map(vec![1, 2, 3], |n| order.lock().unwrap().push(n));
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3], "threads=1 runs in input order");
    }

    #[test]
    fn empty_and_singleton_maps_work() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |n| n), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7], |n| n + 1), vec![8]);
    }

    #[test]
    fn nested_maps_complete_without_extra_threads() {
        let pool = Pool::new(2);
        let grids = pool.map(vec![0u64, 10, 20, 30], |base| {
            pool.map(vec![1u64, 2, 3], |off| pool.map(vec![100u64], |deep| base + off + deep)[0])
        });
        assert_eq!(grids[3], vec![131, 132, 133]);
        assert_eq!(grids.len(), 4);
    }

    #[test]
    fn panic_propagates_with_lowest_index_payload() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..16).collect::<Vec<u32>>(), |n| {
                if n % 2 == 1 {
                    panic!("boom at {n}");
                }
                n
            })
        }));
        let payload = result.expect_err("a panicking task must fail the map");
        let message = payload.downcast_ref::<String>().expect("panic message");
        assert_eq!(message, "boom at 1", "the lowest failing index wins");
        let report = pool.last_panic().expect("panic context is recorded");
        assert_eq!(report.index, 1);
        assert_eq!(report.payload, "boom at 1");
    }

    #[test]
    fn map_preserves_non_string_panic_payloads() {
        // Regression test: the unwinding path must hand the caller the
        // *original* payload object, not a rendering of it.
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u32, 1, 2, 3], |n| {
                if n == 2 {
                    std::panic::panic_any(Box::new(0xdead_beefu64));
                }
                n
            })
        }));
        let payload = result.expect_err("panicking task fails the map");
        let boxed = payload
            .downcast_ref::<Box<u64>>()
            .expect("original typed payload survives propagation");
        assert_eq!(**boxed, 0xdead_beef);
        let report = pool.last_panic().expect("context recorded");
        assert_eq!(report.index, 2);
        assert_eq!(report.payload, "<non-string panic payload>");
        // Distributed batches run on workers 0..=2 or the caller.
        if let Some(worker) = report.worker {
            assert!(worker < 3, "worker id {worker} out of range");
        }
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = Pool::new(2);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0], |_| panic!("first batch dies"))
        }));
        assert_eq!(pool.map(vec![1, 2], |n| n * 3), vec![3, 6]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = |n: u64| -> u64 {
            // Deterministic but order-sensitive-looking work.
            (0..n % 997).fold(n, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let items: Vec<u64> = (0..200).map(|i| i * 7919).collect();
        let one = Pool::new(1).map(items.clone(), work);
        let eight = Pool::new(8).map(items, work);
        assert_eq!(one, eight);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("eight"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_pool_is_rejected() {
        Pool::new(0);
    }

    #[test]
    fn try_map_contains_panics_per_task() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let results = pool.try_map((0..8).collect::<Vec<u32>>(), None, |n| {
                if n == 3 {
                    panic!("isolated boom {n}");
                }
                n * 10
            });
            assert_eq!(results.len(), 8);
            for (i, result) in results.iter().enumerate() {
                if i == 3 {
                    match result {
                        Err(TaskError::Panicked { payload, .. }) => {
                            assert_eq!(payload, "isolated boom 3")
                        }
                        other => panic!("expected a contained panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(*result.as_ref().unwrap(), (i as u32) * 10);
                }
            }
        }
    }

    #[test]
    fn try_map_reports_every_failure_after_one_attempt() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let attempts: Arc<Vec<AtomicU32>> =
                Arc::new((0..6).map(|_| AtomicU32::new(0)).collect());
            let counted = Arc::clone(&attempts);
            let results = pool.try_map((0..6).collect::<Vec<usize>>(), None, move |i| -> u32 {
                counted[i].fetch_add(1, Ordering::Relaxed);
                panic!("always fails {i}")
            });
            for (i, result) in results.iter().enumerate() {
                assert!(
                    matches!(result, Err(TaskError::Panicked { payload, .. })
                        if *payload == format!("always fails {i}")),
                    "threads={threads}: task {i} gave {result:?}"
                );
                let ran = attempts[i].load(Ordering::Relaxed);
                assert_eq!(ran, 1, "threads={threads}: task {i} ran {ran} times, not retried");
            }
        }
    }

    #[test]
    fn try_map_times_out_overdue_tasks_and_keeps_the_rest() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let results = pool.try_map(vec![0u64, 250, 0, 0], Some(40), |sleep_ms| {
                std::thread::sleep(Duration::from_millis(sleep_ms));
                sleep_ms
            });
            assert_eq!(results.len(), 4);
            for (i, result) in results.iter().enumerate() {
                if i == 1 {
                    match result {
                        Err(TaskError::TimedOut { limit_ms: 40, elapsed_ms }) => {
                            assert!(*elapsed_ms > 40, "threads={threads}: ran {elapsed_ms} ms")
                        }
                        other => panic!("threads={threads}: expected timeout, got {other:?}"),
                    }
                } else {
                    assert_eq!(*result.as_ref().unwrap(), 0, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_preserves_order_and_matches_map() {
        let pool = Pool::new(4);
        let via_try: Vec<u64> = pool
            .try_map((0u64..100).collect(), None, |n| n * 3)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(via_try, pool.map((0u64..100).collect(), |n| n * 3));
        assert!(pool.try_map(Vec::<u64>::new(), None, |n| n).is_empty());
    }
}
