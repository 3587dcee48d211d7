//! The bounded per-shard ingest queue.
//!
//! One queue sits between the submitters (any number of reporter
//! threads) and a shard's single worker thread. It is
//! deliberately *bounded* and *non-blocking on the submit side*: when a
//! shard falls behind, [`Sender::try_send`] fails fast with a typed
//! backpressure error instead of stalling the reporter or buffering
//! without limit — the service's overload behaviour is an explicit,
//! testable contract, not an out-of-memory surprise.
//!
//! The receive side batches: [`Receiver::recv_batch`] blocks for the
//! first item, then gathers more until the batch bound or the group
//! commit delay bound is hit — the queue shapes traffic into exactly
//! the batches one fsync will cover. Dropping the [`Receiver`] — a
//! worker stopping, for whatever reason — closes the queue, so
//! submitters learn of it as [`SubmitError::Closed`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use traj_model::Fix;

/// One queued report: a mover's fix plus its submit timestamp, so the
/// worker can measure full submit→fsync ack latency.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// The reporting mover.
    pub mover: u64,
    /// The reported fix.
    pub fix: Fix,
    /// When the report entered the service (or, for open-loop load
    /// generation, when it was *scheduled* to — which charges queueing
    /// delay honestly instead of hiding coordinated omission).
    pub submitted: Instant,
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard's queue is full: the service is ingesting faster than
    /// the shard can make durable. Callers may retry later, shed the
    /// fix, or slow down — the service never blocks them.
    Backpressure {
        /// The shard whose queue is full.
        shard: usize,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The service is shutting down, or the shard stopped on a storage
    /// failure; no further fix will be accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { shard, capacity } => write!(
                f,
                "shard {shard} ingest queue full ({capacity} fixes buffered): backpressure"
            ),
            SubmitError::Closed => write!(f, "ingest service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct State {
    items: VecDeque<Item>,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    capacity: usize,
    shard: usize,
}

/// Recovers the guard from a poisoned lock: the queue's state (a deque
/// and a flag) has no invariant a panicking holder could have broken
/// half-way.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The submit half; clone one per submitter thread.
#[derive(Clone)]
pub struct Sender {
    shared: Arc<Shared>,
}

/// The worker half; exactly one per shard. Dropping it closes the
/// queue.
pub struct Receiver {
    shared: Arc<Shared>,
}

/// Creates a bounded queue for `shard` holding at most `capacity`
/// in-flight fixes (clamped to at least 1). The buffer grows by use, so
/// a huge bound costs nothing until the fixes are really there.
pub fn bounded(shard: usize, capacity: usize) -> (Sender, Receiver) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State { items: VecDeque::new(), closed: false }),
        available: Condvar::new(),
        capacity,
        shard,
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

impl Sender {
    /// Enqueues without blocking.
    ///
    /// # Errors
    /// [`SubmitError::Backpressure`] when the queue is at capacity,
    /// [`SubmitError::Closed`] after [`Sender::close`].
    pub fn try_send(&self, item: Item) -> Result<(), SubmitError> {
        let mut st = lock(&self.shared);
        if st.closed {
            return Err(SubmitError::Closed);
        }
        if st.items.len() >= self.shared.capacity {
            return Err(SubmitError::Backpressure {
                shard: self.shared.shard,
                capacity: self.shared.capacity,
            });
        }
        st.items.push_back(item);
        drop(st);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Marks the queue closed. Buffered items still drain; further
    /// sends fail with [`SubmitError::Closed`].
    pub fn close(&self) {
        lock(&self.shared).closed = true;
        self.shared.available.notify_all();
    }

    /// Current queue depth (racy by nature; for gauges and tests).
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.shared).items.len()
    }
}

impl Receiver {
    /// Blocks for the first available item, then keeps gathering into
    /// `out` until `max` items are collected or `max_delay` has passed
    /// since the first one — the group-commit batching discipline.
    /// Returns `false` once the queue is closed *and* fully drained;
    /// `out` may still hold a final batch when that happens.
    pub fn recv_batch(&self, out: &mut Vec<Item>, max: usize, max_delay: Duration) -> bool {
        let max = max.max(1);
        let mut st = lock(&self.shared);
        loop {
            if !st.items.is_empty() {
                break;
            }
            if st.closed {
                return false;
            }
            st = self
                .shared
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let deadline = Instant::now() + max_delay;
        loop {
            while out.len() < max {
                match st.items.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
            if out.len() >= max || st.closed {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            let (guard, timeout) = self
                .shared
                .available
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() && st.items.is_empty() {
                return true;
            }
        }
    }

    /// Current queue depth (for the per-shard gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.shared).items.len()
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        lock(&self.shared).closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(mover: u64, t: f64) -> Item {
        Item { mover, fix: Fix::from_parts(t, 0.0, 0.0), submitted: Instant::now() }
    }

    #[test]
    fn full_queue_surfaces_typed_backpressure() {
        let (tx, _rx) = bounded(3, 2);
        tx.try_send(item(1, 0.0)).unwrap();
        tx.try_send(item(1, 1.0)).unwrap();
        let err = tx.try_send(item(1, 2.0)).unwrap_err();
        assert_eq!(err, SubmitError::Backpressure { shard: 3, capacity: 2 });
        assert!(err.to_string().contains("backpressure"), "{err}");
        assert_eq!(tx.depth(), 2);
    }

    #[test]
    fn close_rejects_new_but_drains_old() {
        let (tx, rx) = bounded(0, 8);
        tx.try_send(item(1, 0.0)).unwrap();
        tx.try_send(item(2, 0.0)).unwrap();
        tx.close();
        assert_eq!(tx.try_send(item(3, 0.0)), Err(SubmitError::Closed));
        let mut batch = Vec::new();
        assert!(rx.recv_batch(&mut batch, 16, Duration::from_millis(1)));
        assert_eq!(batch.len(), 2);
        batch.clear();
        assert!(!rx.recv_batch(&mut batch, 16, Duration::from_millis(1)));
        assert!(batch.is_empty());
    }

    #[test]
    fn dropping_the_receiver_closes_the_queue() {
        let (tx, rx) = bounded(0, 1);
        tx.try_send(item(1, 0.0)).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(item(1, 1.0)), Err(SubmitError::Closed), "not backpressure");
    }

    #[test]
    fn recv_batch_caps_at_max() {
        let (tx, rx) = bounded(0, 64);
        for i in 0..10 {
            tx.try_send(item(1, i as f64)).unwrap();
        }
        let mut batch = Vec::new();
        assert!(rx.recv_batch(&mut batch, 4, Duration::from_millis(1)));
        assert_eq!(batch.len(), 4);
        assert_eq!(rx.depth(), 6);
    }

    #[test]
    fn recv_batch_blocks_until_an_item_arrives() {
        let (tx, rx) = bounded(0, 8);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.try_send(item(9, 1.0)).unwrap();
            tx.close();
        });
        let mut batch = Vec::new();
        assert!(rx.recv_batch(&mut batch, 8, Duration::from_millis(1)));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].mover, 9);
        handle.join().unwrap();
    }
}
