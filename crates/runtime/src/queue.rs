//! Bounded per-tenant queues with round-robin dequeue.
//!
//! The serving daemon admits work into one lane per tenant (dataset). Two
//! properties matter and both are enforced *structurally* here rather than
//! by policy downstream:
//!
//! * **Bounded**: each lane holds at most `capacity` items. A push into a
//!   full lane fails immediately with the lane's depth, so the daemon can
//!   answer `overloaded` with a backpressure hint instead of queuing
//!   unboundedly — memory stays flat under any flood.
//! * **Fair**: the consumer side dequeues lanes in round-robin order, one
//!   item per lane per turn; a noisy tenant with a thousand queued requests
//!   cannot starve a quiet one whose single request is always at most one
//!   full rotation away.
//!
//! Lanes rotate in sorted tenant-name order and the cursor state is
//! internal, so with a single consumer the dequeue order is a pure
//! function of the push sequence — storms replay deterministically.
//!
//! The queue is also the drain rendezvous: [`BoundedTenantQueue::close`]
//! rejects further pushes and wakes blocked consumers, which then drain
//! the remaining items and observe `None` once the queue is empty.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a [`BoundedTenantQueue::push`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The tenant's lane is at capacity. `depth` is the lane's current
    /// length — the caller can turn it into a `retry_after` hint.
    Full {
        /// Queued items in the refused tenant's lane.
        depth: usize,
        /// The per-lane bound the push ran into.
        capacity: usize,
    },
    /// The queue was closed (drain began); no new work is admitted.
    Closed,
}

struct Inner<T> {
    lanes: BTreeMap<String, VecDeque<T>>,
    len: usize,
    closed: bool,
    /// Tenant that took the last dequeue, if any.
    cursor: Option<String>,
}

/// A bounded multi-tenant MPMC queue with round-robin dequeue.
pub struct BoundedTenantQueue<T> {
    inner: Mutex<Inner<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> BoundedTenantQueue<T> {
    /// A queue whose every tenant lane holds at most `capacity` items.
    /// A zero capacity is promoted to 1 so the queue can make progress.
    pub fn new(capacity: usize) -> Self {
        BoundedTenantQueue {
            inner: Mutex::new(Inner {
                lanes: BTreeMap::new(),
                len: 0,
                closed: false,
                cursor: None,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The per-lane capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item` on `tenant`'s lane. On success returns the lane's
    /// new depth; a full lane or a closed queue refuses immediately.
    pub fn push(&self, tenant: &str, item: T) -> Result<usize, PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        let capacity = self.capacity;
        let lane = inner.lanes.entry(tenant.to_string()).or_default();
        if lane.len() >= capacity {
            return Err(PushError::Full {
                depth: lane.len(),
                capacity,
            });
        }
        lane.push_back(item);
        let depth = lane.len();
        inner.len += 1;
        drop(inner);
        self.readable.notify_one();
        Ok(depth)
    }

    /// Dequeues the next item in round-robin order, or `None` when
    /// every lane is empty. Never blocks.
    pub fn pop(&self) -> Option<(String, T)> {
        let mut inner = self.lock();
        Self::pop_locked(&mut inner)
    }

    /// Dequeues the next item, blocking while the queue is empty and open.
    /// Returns `None` only once the queue is closed *and* fully drained.
    pub fn pop_wait(&self) -> Option<(String, T)> {
        let mut inner = self.lock();
        loop {
            if let Some(popped) = Self::pop_locked(&mut inner) {
                return Some(popped);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .readable
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn pop_locked(inner: &mut Inner<T>) -> Option<(String, T)> {
        if inner.len == 0 {
            return None;
        }
        // Advance the cursor: next non-empty lane in sorted order, wrapping.
        let after = match inner.cursor.as_deref() {
            Some(cursor) => (Bound::Excluded(cursor), Bound::Unbounded),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        let next = inner
            .lanes
            .range::<str, _>(after)
            .chain(&inner.lanes)
            .find(|(_, lane)| !lane.is_empty())
            .map(|(name, _)| name.clone())?;
        let item = inner.lanes.get_mut(&next)?.pop_front()?;
        inner.len -= 1;
        inner.cursor = Some(next.clone());
        Some((next, item))
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`] and
    /// blocked consumers wake to drain the remainder. Idempotent.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.readable.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued items in one tenant's lane (0 for unknown tenants).
    pub fn depth(&self, tenant: &str) -> usize {
        self.lock().lanes.get(tenant).map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_round_trips_one_tenant() {
        let queue = BoundedTenantQueue::new(8);
        assert_eq!(queue.push("a", 1).unwrap(), 1);
        assert_eq!(queue.push("a", 2).unwrap(), 2);
        assert_eq!(queue.pop(), Some(("a".to_string(), 1)));
        assert_eq!(queue.pop(), Some(("a".to_string(), 2)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn full_lane_rejects_with_depth_but_other_lanes_stay_open() {
        let queue = BoundedTenantQueue::new(2);
        queue.push("noisy", 1).unwrap();
        queue.push("noisy", 2).unwrap();
        assert_eq!(
            queue.push("noisy", 3),
            Err(PushError::Full {
                depth: 2,
                capacity: 2
            })
        );
        // The bound is per-lane: a quiet tenant is unaffected.
        assert_eq!(queue.push("quiet", 10).unwrap(), 1);
        assert_eq!(queue.depth("noisy"), 2);
        assert_eq!(queue.depth("quiet"), 1);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn round_robin_interleaves_lanes_despite_push_order() {
        let queue = BoundedTenantQueue::new(16);
        for i in 0..6 {
            queue.push("noisy", i).unwrap();
        }
        queue.push("quiet", 100).unwrap();
        queue.push("quiet", 101).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|(tenant, _)| tenant)
            .collect();
        // The quiet tenant is served once per rotation, not after the noisy
        // backlog.
        assert_eq!(
            order,
            vec!["noisy", "quiet", "noisy", "quiet", "noisy", "noisy", "noisy", "noisy"]
        );
    }

    #[test]
    fn close_rejects_pushes_and_drains_then_ends() {
        let queue = BoundedTenantQueue::new(4);
        queue.push("a", 1).unwrap();
        queue.close();
        assert_eq!(queue.push("a", 2), Err(PushError::Closed));
        assert!(queue.is_closed());
        // Remaining work drains; then the closed queue reports the end.
        assert_eq!(queue.pop_wait(), Some(("a".to_string(), 1)));
        assert_eq!(queue.pop_wait(), None);
    }

    #[test]
    fn pop_wait_blocks_until_a_push_arrives() {
        let queue = Arc::new(BoundedTenantQueue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop_wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.push("late", 7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(("late".to_string(), 7)));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let queue: Arc<BoundedTenantQueue<u32>> = Arc::new(BoundedTenantQueue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop_wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn single_consumer_order_is_deterministic_for_a_fixed_push_sequence() {
        let run = || {
            let queue = BoundedTenantQueue::new(32);
            for i in 0..5 {
                queue.push("c", i).unwrap();
                queue.push("a", i + 10).unwrap();
                queue.push("b", i + 20).unwrap();
            }
            std::iter::from_fn(|| queue.pop()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
