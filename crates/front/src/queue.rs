//! The bounded admission queue: the single point where backpressure is
//! decided.
//!
//! A front end that buffers without bound converts overload into
//! unbounded memory growth and unbounded tail latency; this queue instead
//! **rejects at the door**. [`Bounded::try_push`] either admits a request
//! (depth strictly below the cap, so depth never exceeds it — the
//! invariant the backpressure property test pins) or returns it to the
//! caller for an immediate `Rejected { retry_after_ms }` response. The
//! batcher side drains with [`Bounded::pop_batch`]: it blocks while the
//! queue is empty, then takes *everything buffered* up to the batch cap in
//! one mutex acquisition — under load, coalescing happens for free,
//! without a batching delay that would tax the unloaded latency.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Largest depth ever observed right after an admit — the queue's own
    /// ledger, maintained under the same lock as the depth itself, so the
    /// bound proof does not depend on racy external sampling.
    high_water: usize,
}

/// A bounded MPMC queue with admission-or-reject semantics. Hand-rolled on
/// a mutex + condvar because a channel offers neither half of what a lane
/// needs: admission control wants the bound enforced atomically with the
/// push (full means *reject now*, not block), and `pop_batch` drains a
/// whole run of queued items under one lock acquisition.
pub(crate) struct Bounded<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    pub(crate) fn new(cap: usize) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Recovers the guard even if a holder panicked: the state is a plain
    /// FIFO whose invariants hold between every push/pop, so poisoning
    /// carries no information — and the serve path must stay panic-free.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `item` unless the queue is at capacity or closed; on
    /// rejection the item comes straight back so the caller can answer
    /// `Rejected` without ever cloning a request.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        if s.closed || s.items.len() >= self.cap {
            return Err(item);
        }
        s.items.push_back(item);
        s.high_water = s.high_water.max(s.items.len());
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is queued (or the queue is closed),
    /// then drains up to `max` items in arrival order. `None` means closed
    /// *and* fully drained — the batcher's exit condition, which by
    /// construction leaves no admitted request unanswered.
    pub(crate) fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut s = self.lock();
        loop {
            if !s.items.is_empty() {
                let take = s.items.len().min(max.max(1));
                return Some(s.items.drain(..take).collect());
            }
            if s.closed {
                return None;
            }
            s = self
                .ready
                .wait_timeout(s, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Closes the queue: future pushes are rejected, and `pop_batch`
    /// returns `None` once the backlog is drained.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current depth (diagnostic; the authoritative bound lives in
    /// `try_push`).
    pub(crate) fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Largest depth ever reached, maintained under the queue lock.
    pub(crate) fn high_water(&self) -> usize {
        self.lock().high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_beyond_cap_and_drains_in_order() {
        let q = Bounded::new(3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.pop_batch(2), Some(vec![1, 2]));
        assert!(q.try_push(5).is_ok());
        assert_eq!(q.pop_batch(16), Some(vec![3, 5]));
    }

    #[test]
    fn close_drains_backlog_then_signals_exit() {
        let q = Bounded::new(8);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue must not admit");
        assert_eq!(q.pop_batch(4), Some(vec![7]), "backlog survives close");
        assert_eq!(q.pop_batch(4), None, "drained + closed = exit");
    }

    #[test]
    fn pop_batch_wakes_on_push_across_threads() {
        let q = Arc::new(Bounded::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(42).unwrap();
        assert_eq!(popper.join().unwrap(), Some(vec![42]));
    }

    #[test]
    fn queue_survives_a_panicking_holder() {
        let q = Arc::new(Bounded::new(4));
        let q2 = Arc::clone(&q);
        // poison the mutex by panicking mid-push (the guard is held inside
        // try_push; panic in a thread that owns the lock via depth())
        let h = std::thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("holder dies");
        });
        assert!(h.join().is_err());
        // the queue still admits, drains, and reports — no poison panic
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.depth(), 1);
        assert_eq!(q.pop_batch(1), Some(vec![1]));
    }
}
