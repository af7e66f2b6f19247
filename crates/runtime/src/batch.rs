//! Leader/follower batching: amortize an expensive commit over queued items.
//!
//! A serving ledger that paid one `fsync` per grant would serialize those
//! fsyncs under contention and let them dominate the hot path. The classic
//! database fix is **group commit**: the first writer to arrive becomes the
//! *leader*, commits the whole queue with one durable write, and hands each
//! follower its own result. The leader waits for no one: a batch is
//! whatever queued while the previous commit was in flight, so a lone
//! writer commits at once and batches form only under load. Every submitter
//! still blocks until *its* item is committed — batching changes the cost,
//! never the contract.
//!
//! [`Batcher`] is that protocol, generic over the item and result types so
//! the DP crate can use it for grant records without this crate knowing what
//! a grant is:
//!
//! * [`Batcher::submit`] enqueues an item and blocks until the item's result
//!   is posted. The first submitter to find no active leader **becomes** the
//!   leader: it drains up to `max_batch` items from the queue head in
//!   submission order, runs the caller's `process` closure on the drained
//!   batch *outside* all locks, posts the per-item results, and wakes the
//!   followers.
//! * Submission order is preserved: the leader drains from the queue head,
//!   and `process` receives items exactly in submission order — a WAL-backed
//!   `process` therefore appends in admission order, keeping replay exact.
//! * A submitter whose [`CancelToken`] fires while its item is **still
//!   queued** withdraws the item and gets it back via
//!   [`Submit::Cancelled`] — nothing was committed for it. Once the leader
//!   has drained the item, cancellation can no longer withdraw it: the
//!   submitter keeps waiting and receives the commit result (the caller
//!   decides what a post-commit cancellation means).
//! * A `process` that panics does not wedge the queue: leadership is
//!   released, followers of the doomed batch observe the poisoned slot and
//!   propagate a panic of their own, and later submitters elect a new leader.
//!
//! The `process` closure is `FnMut` because one submitter may lead more than
//! one batch: a leader whose own item did not fit in the drained batch loops
//! and leads again.

use crate::cancel::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The outcome of [`Batcher::submit`].
#[derive(Debug)]
pub enum Submit<T, R> {
    /// The item was processed; this is its result.
    Done(R),
    /// The submitter's token cancelled while the item was still queued: the
    /// item is returned unprocessed, with the cancellation reason.
    Cancelled {
        /// The withdrawn, unprocessed item.
        item: T,
        /// Why the submitter's token cancelled.
        reason: String,
    },
}

/// Granularity of the follower condvar polls when a cancellable wait
/// must also watch a [`CancelToken`] (whose deadline is not exposed as an
/// `Instant`). One millisecond keeps deadline overshoot far below any
/// meaningful `deadline_ms` while costing nothing measurable per request.
const CANCEL_POLL: Duration = Duration::from_millis(1);

#[derive(Debug)]
struct State<T, R> {
    queue: VecDeque<(u64, T)>,
    /// Posted results by sequence number. `None` marks a slot whose batch
    /// leader panicked: the item is gone, the submitter must propagate.
    results: HashMap<u64, Option<R>>,
    next_seq: u64,
    leader_active: bool,
}

/// A leader-elected group-commit queue. See the module docs for the protocol.
#[derive(Debug)]
pub struct Batcher<T, R> {
    state: Mutex<State<T, R>>,
    /// Wakes followers when results are posted or leadership is released.
    follower_cv: Condvar,
}

impl<T, R> Default for Batcher<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

/// Releases leadership (and poisons unresolved result slots) even if the
/// leader's `process` closure panics, so followers never wedge.
struct LeaderGuard<'a, T, R> {
    batcher: &'a Batcher<T, R>,
    /// Sequence numbers drained into the in-flight batch, not yet resolved.
    pending: Vec<u64>,
}

impl<T, R> Drop for LeaderGuard<'_, T, R> {
    fn drop(&mut self) {
        let mut state = self.batcher.lock();
        for seq in self.pending.drain(..) {
            state.results.insert(seq, None);
        }
        state.leader_active = false;
        drop(state);
        self.batcher.follower_cv.notify_all();
    }
}

impl<T, R> Batcher<T, R> {
    /// An empty batcher with no active leader.
    pub fn new() -> Self {
        Batcher {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: HashMap::new(),
                next_seq: 0,
                leader_active: false,
            }),
            follower_cv: Condvar::new(),
        }
    }

    /// The protocol state is a queue and a result map, both only ever
    /// observed whole, so recovering a poisoned lock is safe.
    fn lock(&self) -> MutexGuard<'_, State<T, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Items currently queued.
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Enqueues `item` and blocks until it is processed (or withdrawn by
    /// cancellation). The first submitter to find no active leader leads:
    /// without waiting, it drains up to `max_batch` (at least 1) items from
    /// the queue head and calls `process` on them — `process` must return
    /// exactly one result per item, in order.
    ///
    /// # Panics
    ///
    /// Panics if `process` returns the wrong number of results, or if this
    /// item was drained into a batch whose leader panicked (the panic is
    /// propagated to every submitter the doomed batch contained).
    pub fn submit<F>(
        &self,
        item: T,
        max_batch: usize,
        cancel: Option<&CancelToken>,
        mut process: F,
    ) -> Submit<T, R>
    where
        F: FnMut(Vec<T>) -> Vec<R>,
    {
        let max_batch = max_batch.max(1);
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push_back((seq, item));
        loop {
            if let Some(slot) = state.results.remove(&seq) {
                return match slot {
                    Some(result) => Submit::Done(result),
                    None => panic!("batch leader panicked while processing this item's batch"),
                };
            }
            if !state.leader_active {
                state.leader_active = true;
                let mut guard = LeaderGuard {
                    batcher: self,
                    pending: Vec::new(),
                };
                let take = state.queue.len().min(max_batch);
                let (seqs, items): (Vec<u64>, Vec<T>) = state.queue.drain(..take).unzip();
                guard.pending = seqs;
                drop(state);
                // Outside every lock: followers can keep enqueueing, and a
                // panic here is caught by the guard, not the mutex.
                let results = process(items);
                state = self.lock();
                assert_eq!(
                    results.len(),
                    guard.pending.len(),
                    "process must return exactly one result per drained item"
                );
                for (s, r) in guard.pending.drain(..).zip(results) {
                    state.results.insert(s, Some(r));
                }
                drop(state);
                drop(guard); // releases leadership, wakes followers
                state = self.lock();
                continue;
            }
            match cancel {
                Some(token) => {
                    if let Some(reason) = token.cancel_reason() {
                        if let Some(pos) = state.queue.iter().position(|(s, _)| *s == seq) {
                            let (_, item) = state.queue.remove(pos).expect("position just found");
                            return Submit::Cancelled { item, reason };
                        }
                        // Drained: the commit is in flight, the item can no
                        // longer be withdrawn — wait for its result.
                    }
                    let (next, _) = self
                        .follower_cv
                        .wait_timeout(state, CANCEL_POLL)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                }
                None => {
                    state = self
                        .follower_cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    /// Runs `n` barrier-aligned submitters of items `0..n` under
    /// `max_batch` and returns the size of each commit, in order. The first
    /// commit keeps its leadership until every other item is queued behind
    /// it, so later leaders are sure to find a pile-up.
    fn piled_up_commit_sizes(n: usize, max_batch: usize) -> Vec<usize> {
        let batcher: Arc<Batcher<usize, usize>> = Arc::new(Batcher::new());
        let sizes: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                let sizes = Arc::clone(&sizes);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let out = batcher.submit(i, max_batch, None, |items| {
                        let mut sizes = sizes.lock().unwrap();
                        if sizes.is_empty() {
                            while items.len() + batcher.queued() < n {
                                thread::yield_now();
                            }
                        }
                        sizes.push(items.len());
                        items.iter().map(|x| x * 10).collect()
                    });
                    match out {
                        Submit::Done(v) => assert_eq!(v, i * 10, "result routed to submitter"),
                        other => panic!("expected Done, got {other:?}"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(batcher.queued(), 0);
        let sizes = sizes.lock().unwrap().clone();
        assert_eq!(sizes.iter().sum::<usize>(), n, "every item exactly once");
        sizes
    }

    #[test]
    fn single_item_commits_alone() {
        let batcher: Batcher<u32, u32> = Batcher::new();
        let out = batcher.submit(7, 8, None, |items| {
            assert_eq!(items, vec![7]);
            items.iter().map(|x| x * 2).collect()
        });
        match out {
            Submit::Done(v) => assert_eq!(v, 14),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(batcher.queued(), 0);
    }

    #[test]
    fn concurrent_submitters_share_batches_and_get_own_results() {
        // All 8 items are committed in fewer than 8 commits: the items that
        // queued behind the first commit went out together.
        let sizes = piled_up_commit_sizes(8, 8);
        assert!(sizes.len() < 8, "at least one batch > 1: {sizes:?}");
    }

    #[test]
    fn items_are_processed_in_submission_order() {
        let batcher: Arc<Batcher<usize, usize>> = Arc::new(Batcher::new());
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        // Sequential submits with max_batch 1: order is trivially submission
        // order; the assertion is that `process` observes it.
        for i in 0..5 {
            let seen = Arc::clone(&seen);
            let out = batcher.submit(i, 1, None, move |items| {
                seen.lock().unwrap().extend(items.iter().copied());
                items
            });
            assert!(matches!(out, Submit::Done(v) if v == i));
        }
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn max_batch_splits_oversize_queues() {
        // 4 items pile up behind one leader; max_batch 2 forces at least two
        // separate commits for them.
        let sizes = piled_up_commit_sizes(4, 2);
        assert!(
            sizes.iter().all(|&n| (1..=2).contains(&n)),
            "sizes: {sizes:?}"
        );
    }

    #[test]
    fn cancelled_while_queued_withdraws_item_without_processing() {
        let batcher: Arc<Batcher<&'static str, ()>> = Arc::new(Batcher::new());
        // Occupy leadership with a slow process so the second submit stays
        // queued long enough for its token to fire.
        let leader = {
            let batcher = Arc::clone(&batcher);
            thread::spawn(move || {
                batcher.submit("leader", 1, None, |items| {
                    thread::sleep(Duration::from_millis(60));
                    items.iter().map(|_| ()).collect()
                })
            })
        };
        thread::sleep(Duration::from_millis(10));
        let token = CancelToken::with_deadline(Duration::from_millis(5));
        let out = batcher.submit("late", 1, Some(&token), |items| {
            items.iter().map(|_| ()).collect()
        });
        match out {
            Submit::Cancelled { item, reason } => {
                assert_eq!(item, "late");
                assert_eq!(reason, crate::cancel::REASON_DEADLINE);
            }
            // Timing-dependent escape hatch: if the slow leader finished
            // before our token fired we may have led our own commit. The
            // invariant under test is "no wedge, no lost item", which Done
            // also satisfies — but with these sleeps Cancelled is the
            // overwhelmingly likely outcome.
            Submit::Done(()) => {}
        }
        leader.join().unwrap();
        assert_eq!(batcher.queued(), 0);
    }

    #[test]
    fn panicking_process_releases_leadership_and_poisons_its_batch() {
        let batcher: Arc<Batcher<usize, usize>> = Arc::new(Batcher::new());
        let doomed = {
            let batcher = Arc::clone(&batcher);
            thread::spawn(move || batcher.submit(0, 1, None, |_| panic!("boom")))
        };
        assert!(doomed.join().is_err(), "leader's panic propagates");
        // The queue is usable again: a later submitter elects itself leader.
        let out = batcher.submit(1, 1, None, |items| items);
        assert!(matches!(out, Submit::Done(1)));
    }
}
