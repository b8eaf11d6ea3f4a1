//! A bounded multi-producer multi-consumer queue with backpressure.
//!
//! Built on `Mutex` + two `Condvar`s (std-only; no async runtime in this
//! workspace). Producers either block until space frees up
//! ([`JobQueue::push`]) or get the item handed back immediately
//! ([`JobQueue::try_push`]) so the caller can count a rejection. Consumers
//! block until an item arrives or the queue is closed and drained.
//!
//! A push or pop notifies the other side's condvar whether or not anyone
//! waits on it. Counting waiters to skip the waiterless notifies was
//! measured level on `stack-bound` (DESIGN §9), so the queue keeps no
//! count.
//!
//! The queue is generic so it can be exercised in isolation; the serving
//! engine instantiates it with its internal job envelope type.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push did not enqueue; carries the item back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue was at capacity (only returned by [`JobQueue::try_push`]).
    Full(T),
    /// The queue has been closed and accepts no new items.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. See the [module docs](self).
pub(crate) struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    /// Signalled when an item is pushed or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item is popped or the queue closes.
    not_full: Condvar,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue could never
    /// transfer an item under this (non-rendezvous) design.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The current number of queued items.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Enqueues an item, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] with the item if the queue was closed
    /// before space became available.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap();
        }
    }

    /// Enqueues an item without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] or [`PushError::Closed`] with the item.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed *and* drained, so consumers
    /// can use `while let Some(item) = q.pop()` as their run loop.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the queue: pending and future pushes fail, pops drain what
    /// remains and then return `None`. Wakes every blocked thread.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`JobQueue::close`] has been called. Only the engine's
    /// shutdown test asks; serving code learns it from `push` and `pop`.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = JobQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_full_returns_item() {
        let q = JobQueue::new(1);
        q.push("a").unwrap();
        assert_eq!(q.try_push("b"), Err(PushError::Full("b")));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn push_after_close_returns_item() {
        let q = JobQueue::new(1);
        q.close();
        assert_eq!(q.push(9), Err(PushError::Closed(9)));
        assert_eq!(q.try_push(9), Err(PushError::Closed(9)));
    }

    #[test]
    fn pop_drains_then_none_after_close() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_push_unblocks_on_pop() {
        let q = Arc::new(JobQueue::new(1));
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(1));
        // Give the producer time to block on the full queue.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_pop_unblocks_on_push() {
        let q = Arc::new(JobQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || (q2.pop(), q2.pop()));
        // Give the consumer time to block on the empty queue before each
        // push from this thread: once blocking, once not.
        thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        thread::sleep(Duration::from_millis(20));
        q.try_push(8).unwrap();
        assert_eq!(consumer.join().unwrap(), (Some(7), Some(8)));
    }

    #[test]
    fn blocked_pop_unblocks_on_close() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_transfer_everything() {
        let q = Arc::new(JobQueue::new(4));
        let total: usize = 200;
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..total / 2 {
                        q.push(p * total + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(v) = q.pop() {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = JobQueue::<u8>::new(0);
    }
}
