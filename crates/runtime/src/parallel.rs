//! Ordered parallel map and the counts kernel's chunked reduction.
//!
//! The map started life in the bench crate as a sweep helper and now lives
//! here — below `dpx-data` — beside the contingency-counting kernel's
//! chunked reduction. The contract that makes parallelism safe for DP
//! pipelines is *determinism by construction*: `work` must be a pure
//! function of its item (callers split per-task RNG seeds up front), and
//! results come back in input order regardless of which thread ran what — so
//! `threads = 1` and `threads = N` are bit-identical.
//!
//! A panic inside `work` is propagated to the caller (re-raised after all
//! workers drain) instead of poisoning a slot mutex and surfacing as an
//! unrelated `expect` failure.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `work` to every item on up to `threads` worker threads, returning
/// the results in input order.
///
/// `work` must be deterministic per item for outputs to be reproducible
/// (engine stages seed a private RNG per task; bench cells derive their own
/// seeds). Empty input returns an empty vector without spawning anything,
/// and `threads` is clamped to `1..=items.len()`.
///
/// # Panics
///
/// If `work` panics for any item, the panic is re-raised on the calling
/// thread once all workers have stopped; no result vector is returned.
pub fn ordered_parallel_map<T, R, F>(items: Vec<T>, threads: usize, work: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads <= 1 || n <= 1 {
        return items.iter().map(&work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| work(&items[i]))) {
                    Ok(result) => {
                        if let Ok(mut slot) = slots[i].lock() {
                            *slot = Some(result);
                        }
                    }
                    Err(payload) => {
                        if let Ok(mut first) = panic_payload.lock() {
                            first.get_or_insert(payload);
                        }
                        // Stop claiming further items; other workers will
                        // drain the counter and exit on their own.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panic_payload.into_inner().ok().flatten() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned slots")
                .expect("every slot filled by the work loop")
        })
        .collect()
}

/// Merges `parts` with a deterministic balanced **pairwise tree**: each
/// round merges adjacent pairs `(0,1), (2,3), …` (an odd tail element is
/// carried up unmerged), halving the list until one result remains.
///
/// Returns `None` for empty input. Every part enters exactly one merge path
/// — no part is dropped or merged twice (unit-tested for odd counts). The
/// tree *shape* is a function of `parts.len()` alone, so for a fixed input
/// the merge sequence is deterministic; and for merges that are associative
/// and commutative — element-wise integer addition, as in contingency
/// counting — the result is bit-identical to any fold order.
///
/// Compared to a serial left fold, the tree touches each accumulator
/// `O(log n)` times instead of keeping one accumulator hot for all `n`
/// merges — on large partials this halves the traffic on the single
/// accumulator that the fold would otherwise stream every part through.
pub fn pairwise_merge<T, F>(mut parts: Vec<T>, mut merge: F) -> Option<T>
where
    F: FnMut(&mut T, T),
{
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                merge(&mut left, right);
            }
            next.push(left);
        }
        parts = next;
    }
    parts.pop()
}

/// Worker-claimed chunked reduction with **per-worker accumulator reuse**:
/// `0..len` is split into fixed-size chunks of up to `granule` indices, up
/// to `threads` workers claim chunks off a shared atomic counter, and every
/// worker folds each claimed range into **one accumulator of its own**
/// (created by `init`) — so per-chunk setup costs (table allocation, scratch
/// buffers) are paid once per *worker*, not once per *chunk*. The surviving
/// worker accumulators (at most `threads`) are then combined with a
/// [`pairwise_merge`] tree.
///
/// Returns `None` when `len == 0`. With `threads <= 1` the fold runs on the
/// calling thread over the same chunk sequence, so the single-threaded path
/// exercises identical fold boundaries.
///
/// Determinism: which worker claims which chunk is a race, so the *partition*
/// of chunks into accumulators is scheduling-dependent — the result is
/// deterministic exactly when `fold`/`merge` are associative and commutative
/// over ranges (element-wise integer addition is; see the contingency
/// kernel's bit-identity property tests).
///
/// # Panics
///
/// Propagates the first panic raised by `init` or `fold` on any worker (the
/// other workers drain and stop first), like [`ordered_parallel_map`].
pub fn chunk_worker_reduce<T, I, F, M>(
    len: usize,
    granule: usize,
    threads: usize,
    init: I,
    fold: F,
    merge: M,
) -> Option<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, Range<usize>) + Sync,
    M: FnMut(&mut T, T),
{
    if len == 0 {
        return None;
    }
    let granule = granule.max(1);
    let chunks = len.div_ceil(granule);
    let range_of = |i: usize| i * granule..((i + 1) * granule).min(len);
    let threads = threads.clamp(1, chunks);
    if threads == 1 {
        let mut acc = init();
        for i in 0..chunks {
            fold(&mut acc, range_of(i));
        }
        return Some(acc);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for slot in &slots {
            scope.spawn(|| {
                let worked = catch_unwind(AssertUnwindSafe(|| {
                    // The accumulator is created lazily: a worker that never
                    // claims a chunk contributes nothing to the merge.
                    let mut acc: Option<T> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= chunks {
                            break;
                        }
                        fold(acc.get_or_insert_with(&init), range_of(i));
                    }
                    acc
                }));
                match worked {
                    Ok(acc) => {
                        if let Ok(mut slot) = slot.lock() {
                            *slot = acc;
                        }
                    }
                    Err(payload) => {
                        if let Ok(mut first) = panic_payload.lock() {
                            first.get_or_insert(payload);
                        }
                        next.store(chunks, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if let Some(payload) = panic_payload.into_inner().ok().flatten() {
        resume_unwind(payload);
    }
    let partials: Vec<T> = slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().expect("no poisoned slots"))
        .collect();
    pairwise_merge(partials, merge)
}

/// Default worker count: the machine's parallelism, capped at the task count.
pub fn default_threads(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        let out = ordered_parallel_map(items.clone(), 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = ordered_parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = ordered_parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let out = ordered_parallel_map(vec![5, 6], 0, |&x| x - 1);
        assert_eq!(out, vec![4, 5]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = ordered_parallel_map(vec![10], 32, |&x| x);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 7).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = ordered_parallel_map(items.clone(), threads, |&x| x * x + 7);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            ordered_parallel_map((0..64).collect::<Vec<i32>>(), 4, |&x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at 13"), "got payload: {msg:?}");
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(4) <= 4);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn pairwise_merge_empty_and_single() {
        assert_eq!(pairwise_merge(Vec::<u32>::new(), |a, b| *a += b), None);
        assert_eq!(pairwise_merge(vec![41u32], |a, b| *a += b), Some(41));
    }

    /// The satellite guarantee for the merge tree: every part enters the
    /// final result exactly once, for odd and even part counts alike — an
    /// odd tail must be carried up, never dropped or merged twice.
    #[test]
    fn pairwise_merge_visits_every_chunk_exactly_once() {
        for n in [1usize, 2, 3, 5, 7, 9, 15, 16, 17, 101] {
            let parts: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            let mut merged = pairwise_merge(parts, |a, b| a.extend(b)).unwrap();
            merged.sort_unstable();
            assert_eq!(
                merged,
                (0..n).collect::<Vec<_>>(),
                "n={n}: some part missed or doubled"
            );
        }
    }

    /// Tree shape sanity: 5 parts merge as ((0+1)+(2+3))+4 — the odd element
    /// joins at the last round, and each round pairs adjacent survivors.
    #[test]
    fn pairwise_merge_tree_shape_is_balanced() {
        let parts: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let merged = pairwise_merge(parts, |a, b| {
            *a = format!("({a}+{b})");
        })
        .unwrap();
        assert_eq!(merged, "(((0+1)+(2+3))+4)");
    }

    #[test]
    fn chunk_worker_reduce_empty_input() {
        let out: Option<u64> = chunk_worker_reduce(0, 8, 4, || 0u64, |_, _| {}, |a, b| *a += b);
        assert!(out.is_none());
    }

    #[test]
    fn chunk_worker_reduce_covers_every_index_once() {
        for (granule, threads) in [(1, 1), (1, 4), (7, 3), (13, 2), (50, 4), (101, 4), (200, 8)] {
            let seen = chunk_worker_reduce(
                101,
                granule,
                threads,
                || vec![0u32; 101],
                |acc, r| {
                    for i in r {
                        acc[i] += 1;
                    }
                },
                |acc, part| {
                    for (a, b) in acc.iter_mut().zip(part) {
                        *a += b;
                    }
                },
            )
            .unwrap();
            assert!(
                seen.iter().all(|&c| c == 1),
                "granule={granule} threads={threads}: some index missed or doubled"
            );
        }
    }

    #[test]
    fn chunk_worker_reduce_matches_sequential_sum() {
        let expect: u64 = (0..9999u64).map(|x| x * 3 + 1).sum();
        for (granule, threads) in [(9999, 1), (512, 1), (512, 4), (100, 7), (1, 3)] {
            let got = chunk_worker_reduce(
                9999,
                granule,
                threads,
                || 0u64,
                |acc, r| *acc += r.map(|i| i as u64 * 3 + 1).sum::<u64>(),
                |a, b| *a += b,
            )
            .unwrap();
            assert_eq!(got, expect, "granule={granule} threads={threads}");
        }
    }

    #[test]
    fn chunk_worker_reduce_reuses_accumulators_per_worker() {
        // With more chunks than workers, the number of `init` calls is
        // bounded by the worker count, not the chunk count — that is the
        // per-thread reuse contract.
        let inits = AtomicUsize::new(0);
        let threads = 3;
        let got = chunk_worker_reduce(
            1000,
            10, // 100 chunks
            threads,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, r| *acc += r.len() as u64,
            |a, b| *a += b,
        )
        .unwrap();
        assert_eq!(got, 1000);
        let created = inits.load(Ordering::Relaxed);
        assert!(
            (1..=threads).contains(&created),
            "expected at most {threads} accumulators, got {created}"
        );
    }

    #[test]
    fn chunk_worker_reduce_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            chunk_worker_reduce(
                64,
                4,
                4,
                || 0u64,
                |_, r| {
                    if r.contains(&13) {
                        panic!("boom in chunk at 13");
                    }
                },
                |a, b| *a += b,
            )
        }));
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .unwrap_or_default();
        assert!(msg.contains("boom in chunk at 13"), "got payload: {msg:?}");
    }
}
