//! Compute-once-per-key concurrent memoization.
//!
//! The experiment engine's caches (traces, profile reports, Table-2
//! fixed lengths) used to be check-then-insert maps: two workers that
//! missed on the same key both ran the computation and the loser's
//! result was thrown away. [`Memo`] closes that race — each key gets a
//! [`OnceLock`] cell, so exactly one caller computes while concurrent
//! callers for the *same* key block and share the winner's `Arc`, and
//! callers for *different* keys compute in parallel.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use vlpp_metrics::Counter;

use crate::lock;

/// Instruments for a [`Memo`] created with [`Memo::named`].
struct MemoMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    waits: Arc<Counter>,
    evicted: Arc<Counter>,
}

/// A concurrent, compute-once-per-key memo table.
///
/// Values are returned as [`Arc`]s so large artifacts (multi-million
/// branch traces, profile reports) are shared rather than cloned.
///
/// The map lock is held only to look up the key's cell, never during
/// computation, so distinct keys never serialize each other. A
/// computation must not recursively request its own key (the same
/// constraint as [`OnceLock::get_or_init`]).
///
/// A computation that panics is **evicted, not cached**: the poisoned
/// cell is removed from the table before the panic is re-raised, so no
/// later caller can inherit a half-initialized entry, and the next
/// request for that key computes from scratch. Named memos count these
/// as `pool.memo.<name>.evicted`.
///
/// # Example
///
/// ```
/// use vlpp_pool::Memo;
///
/// let memo: Memo<u32, String> = Memo::new();
/// let a = memo.get_or_compute(7, || "seven".to_string());
/// let b = memo.get_or_compute(7, || unreachable!("computed once"));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
pub struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    metrics: Option<MemoMetrics>,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo").field("keys", &lock(&self.cells).len()).finish()
    }
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// Creates an empty memo table.
    pub fn new() -> Self {
        Memo { cells: Mutex::new(HashMap::new()), metrics: None }
    }

    /// Creates an empty memo table that counts its lookups as the
    /// process-wide metrics `pool.memo.<name>.hits`,
    /// `pool.memo.<name>.misses` and `pool.memo.<name>.waits` (see
    /// `OBSERVABILITY.md`).
    ///
    /// A *hit* is a request whose value had already finished computing;
    /// a *miss* is a request whose own `compute` ran; a *wait* found
    /// another caller's computation in flight and blocked on it. Misses
    /// therefore count computations and do not depend on the thread
    /// count; only the split of the other requests between hits and
    /// waits does.
    ///
    /// # Example
    ///
    /// ```
    /// use vlpp_pool::Memo;
    ///
    /// let memo: Memo<u32, u32> = Memo::named("doctest_squares");
    /// memo.get_or_compute(3, || 9); // miss
    /// memo.get_or_compute(3, || unreachable!()); // hit
    /// let hits = vlpp_metrics::counter("pool.memo.doctest_squares.hits");
    /// assert_eq!(hits.get(), 1);
    /// ```
    pub fn named(name: &str) -> Self {
        Memo {
            cells: Mutex::new(HashMap::new()),
            metrics: Some(MemoMetrics {
                hits: vlpp_metrics::counter(&format!("pool.memo.{name}.hits")),
                misses: vlpp_metrics::counter(&format!("pool.memo.{name}.misses")),
                waits: vlpp_metrics::counter(&format!("pool.memo.{name}.waits")),
                evicted: vlpp_metrics::counter(&format!("pool.memo.{name}.evicted")),
            }),
        }
    }

    /// Returns the memoized value for `key`, computing it with `compute`
    /// on the first request. Concurrent requests for the same key block
    /// until the one computation finishes and then share its result.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        // Read `finished` under the map lock, so a caller that holds the
        // cell has already classified its lookup.
        let (cell, finished) = {
            let mut cells = lock(&self.cells);
            let cell = Arc::clone(cells.entry(key.clone()).or_default());
            let finished = cell.get().is_some();
            (cell, finished)
        };
        let mut computed = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(cell.get_or_init(|| {
                computed = true;
                Arc::new(compute())
            }))
        }));
        if let Some(metrics) = &self.metrics {
            match (finished, computed) {
                (true, _) => metrics.hits.incr(),
                (false, true) => metrics.misses.incr(),
                (false, false) => metrics.waits.incr(),
            }
        }
        match outcome {
            Ok(value) => value,
            Err(payload) => {
                // Evict the poisoned cell so no later caller inherits it.
                // Guard on pointer identity and emptiness: a concurrent
                // caller may have replaced the entry or finished its own
                // successful computation in the meantime.
                let mut cells = lock(&self.cells);
                let stale = cells
                    .get(&key)
                    .is_some_and(|current| Arc::ptr_eq(current, &cell) && cell.get().is_none());
                if stale {
                    cells.remove(&key);
                    if let Some(metrics) = &self.metrics {
                        metrics.evicted.incr();
                    }
                }
                resume_unwind(payload)
            }
        }
    }

    /// The memoized value for `key`, if it has finished computing.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let cell = Arc::clone(lock(&self.cells).get(key)?);
        cell.get().map(Arc::clone)
    }

    /// Number of keys with a finished value.
    pub fn len(&self) -> usize {
        lock(&self.cells).values().filter(|cell| cell.get().is_some()).count()
    }

    /// Whether no value has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Clone, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{mpsc, Barrier};

    #[test]
    fn computes_each_key_exactly_once_under_contention() {
        let memo: Memo<u32, u32> = Memo::named("unit_test_contention");
        let computations = AtomicU32::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    for key in 0..16 {
                        let value = memo.get_or_compute(key, || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            key * 10
                        });
                        assert_eq!(*value, key * 10);
                    }
                });
            }
        });
        assert_eq!(
            computations.load(Ordering::Relaxed),
            16,
            "every concurrent miss on a key must share one computation"
        );
        assert_eq!(memo.len(), 16);
        let count = |stat: &str| {
            vlpp_metrics::counter(&format!("pool.memo.unit_test_contention.{stat}")).get()
        };
        assert_eq!(count("misses"), 16, "one miss per computation, however many callers raced");
        assert_eq!(count("hits") + count("waits"), 8 * 16 - 16);
    }

    #[test]
    fn a_lookup_blocked_on_another_computation_counts_as_a_wait() {
        let memo: Memo<u8, u8> = Memo::named("unit_test_waits");
        let memo = &memo;
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                memo.get_or_compute(1, || {
                    started_tx.send(()).expect("test thread listens");
                    release_rx.recv().expect("test thread releases");
                    10
                })
            });
            started_rx.recv().expect("computation starts");
            let waiter = scope.spawn(move || *memo.get_or_compute(1, || unreachable!("in flight")));
            // The waiter has classified its lookup once it holds the
            // cell: a third reference beside the map's and the builder's.
            while lock(&memo.cells).get(&1).map(Arc::strong_count) != Some(3) {
                std::thread::yield_now();
            }
            release_tx.send(()).expect("builder waits for release");
            assert_eq!(waiter.join().expect("waiter returns"), 10);
        });
        let count =
            |stat: &str| vlpp_metrics::counter(&format!("pool.memo.unit_test_waits.{stat}")).get();
        assert_eq!([count("hits"), count("misses"), count("waits")], [0, 1, 1]);
    }

    #[test]
    fn same_key_returns_the_same_arc() {
        let memo: Memo<&'static str, Vec<u8>> = Memo::new();
        let first = memo.get_or_compute("k", || vec![1, 2, 3]);
        let second = memo.get_or_compute("k", || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn panicked_computation_leaves_the_key_retryable() {
        let memo: Memo<u8, u8> = Memo::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(1, || panic!("first try dies"))
        }));
        assert!(attempt.is_err());
        assert_eq!(memo.get(&1), None);
        assert_eq!(*memo.get_or_compute(1, || 42), 42);
    }

    #[test]
    fn panicked_computation_is_evicted_and_counted() {
        let memo: Memo<u8, u8> = Memo::named("unit_test_evict");
        let evicted = vlpp_metrics::counter("pool.memo.unit_test_evict.evicted");
        let before = evicted.get();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(9, || panic!("poisoned"))
        }));
        assert!(attempt.is_err());
        assert_eq!(evicted.get(), before + 1, "the poisoned cell is evicted");
        // The key recomputes from scratch and caches normally afterwards.
        assert_eq!(*memo.get_or_compute(9, || 81), 81);
        assert_eq!(*memo.get_or_compute(9, || unreachable!("cached")), 81);
        assert_eq!(evicted.get(), before + 1, "successful recompute evicts nothing");
    }

    #[test]
    fn named_memo_counts_hits_and_misses() {
        let memo: Memo<u8, u8> = Memo::named("unit_test_memo");
        let hits = vlpp_metrics::counter("pool.memo.unit_test_memo.hits");
        let misses = vlpp_metrics::counter("pool.memo.unit_test_memo.misses");
        memo.get_or_compute(1, || 10);
        memo.get_or_compute(2, || 20);
        memo.get_or_compute(1, || unreachable!("memoized"));
        assert_eq!(hits.get(), 1);
        assert_eq!(misses.get(), 2);
        assert_eq!(vlpp_metrics::counter("pool.memo.unit_test_memo.waits").get(), 0);
    }

    #[test]
    fn get_reports_only_finished_values() {
        let memo: Memo<u8, u8> = Memo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.get(&3), None);
        memo.get_or_compute(3, || 9);
        assert_eq!(memo.get(&3).as_deref(), Some(&9));
        assert!(!memo.is_empty());
    }
}
