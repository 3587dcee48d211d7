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
//! The receive side batches without waiting for a batch to fill:
//! [`Receiver::recv_batch`] sleeps only while the queue is empty, then
//! takes up to the batch bound of what is queued, so a batch is what
//! arrived while the worker ingested and committed the previous one —
//! exactly what one fsync will cover. A submit wakes the worker only
//! when it makes the queue non-empty; while the worker is busy, submits
//! cost a lock and a push. Dropping the [`Receiver`] — a worker
//! stopping, for whatever reason — closes the queue, so submitters
//! learn of it as [`SubmitError::Closed`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

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
    /// Enqueues without blocking. Only the push that makes the queue
    /// non-empty wakes the worker: the worker sleeps only on an empty
    /// queue, so no later push can find it asleep.
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
        let was_empty = st.items.len() == 1;
        drop(st);
        if was_empty {
            self.shared.available.notify_one();
        }
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
    /// Blocks while the queue is empty, then moves at most `max` queued
    /// items into `out` and returns at once — the group-commit batching
    /// discipline: nothing waits for a batch to fill. Returns `false`,
    /// with nothing moved, once the queue is closed *and* fully drained.
    pub fn recv_batch(&self, out: &mut Vec<Item>, max: usize) -> bool {
        let mut st = lock(&self.shared);
        while st.items.is_empty() {
            if st.closed {
                return false;
            }
            st = self.shared.available.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let n = st.items.len().min(max.max(1));
        out.extend(st.items.drain(..n));
        true
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
    use std::sync::mpsc;
    use std::time::Duration;

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
        assert!(rx.recv_batch(&mut batch, 16));
        assert_eq!(batch.len(), 2);
        batch.clear();
        assert!(!rx.recv_batch(&mut batch, 16));
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
        assert!(rx.recv_batch(&mut batch, 4));
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
        assert!(rx.recv_batch(&mut batch, 8));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].mover, 9);
        handle.join().unwrap();
    }

    /// One send into an empty queue wakes the sleeping worker by
    /// itself, with no second send and no close to rescue it: 1,000
    /// single items, each acknowledged over a channel before the next
    /// is sent, so the worker is usually asleep when an item arrives.
    #[test]
    fn a_single_send_wakes_an_idle_worker() {
        let (tx, rx) = bounded(0, 4);
        let (ack_tx, ack_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut batch = Vec::new();
            while rx.recv_batch(&mut batch, 4) {
                for it in batch.drain(..) {
                    let _ = ack_tx.send(it.mover);
                }
            }
        });
        let mut lost = None;
        for k in 0..1_000u64 {
            tx.try_send(item(k, 0.0)).unwrap();
            match ack_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(mover) => assert_eq!(mover, k),
                Err(_) => {
                    lost = Some(k);
                    break;
                }
            }
        }
        tx.close();
        worker.join().unwrap();
        assert_eq!(lost, None, "lost wake-up: a send never reached the idle worker");
    }

    /// Lost wake-up stress: 4 submitters × 20,000 sends with yield
    /// jitter through a small queue into one `recv_batch` loop. Only
    /// the empty → non-empty push wakes the worker, so a missed wake
    /// leaves it asleep on a non-empty queue: on a full one every
    /// submitter spins on backpressure, and after the last send nothing
    /// else would wake it. Every item must therefore arrive, once and
    /// in order per submitter, before the queue is closed (a close
    /// wakes the worker and would hide the lost wake); the watchdog
    /// turns the hang into a failure.
    #[test]
    fn no_wake_up_is_lost_under_concurrent_submitters() {
        const SUBMITTERS: u64 = 4;
        const SENDS: u64 = 20_000;
        let (tx, rx) = bounded(0, 16);
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let mut next = [0u64; SUBMITTERS as usize];
            let mut received = 0;
            let mut batch = Vec::new();
            while rx.recv_batch(&mut batch, 8) {
                for it in batch.drain(..) {
                    let expected = &mut next[it.mover as usize];
                    assert_eq!(it.fix.t.as_secs(), *expected as f64, "submitter {}", it.mover);
                    *expected += 1;
                    received += 1;
                }
                if received == SUBMITTERS * SENDS {
                    let _ = done_tx.send(next);
                }
            }
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|mover| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut jitter = mover.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for k in 0..SENDS {
                        jitter ^= jitter << 13;
                        jitter ^= jitter >> 7;
                        jitter ^= jitter << 17;
                        if jitter % 4 == 0 {
                            std::thread::yield_now();
                        }
                        while let Err(SubmitError::Backpressure { .. }) =
                            tx.try_send(item(mover, k as f64))
                        {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let arrived = done_rx.recv_timeout(Duration::from_secs(60));
        // Closing lets every thread finish, whatever happened.
        tx.close();
        let consumer = consumer.join();
        for h in submitters {
            h.join().expect("submitter finished");
        }
        consumer.expect("every item arrived once, in order per submitter");
        match arrived {
            Ok(next) => assert_eq!(next, [SENDS; SUBMITTERS as usize]),
            Err(_) => panic!("lost wake-up: the worker slept on a non-empty queue"),
        }
    }
}
