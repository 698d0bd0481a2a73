//! Deterministic data-parallel primitives shared across the workspace.
//!
//! Both the platform simulator (`crowdkit-sim`) and the truth-inference
//! kernels (`crowdkit-truth`) parallelize with the same scoped pattern:
//! the input is split into **contiguous, position-determined chunks**
//! (never work-stealing), the calling thread works chunk 0 while one
//! `std::thread::scope` thread works each other chunk (so a region `w`
//! wide spawns `w − 1` threads), and outputs are reassembled in chunk
//! order. Because chunking depends only on input length — and every
//! per-item computation is a pure function of its item — results are
//! byte-identical at any thread count. Thread count is a perf knob, not a
//! semantics knob, and a cap: a region runs on at most the threads it is
//! given, and on the caller alone when it has too little work to split. A
//! panic in any chunk reaches the caller with its own payload.
//!
//! The rule the helpers enforce (the *deterministic-reduction rule*): a
//! parallel region may only write disjoint, position-assigned outputs.
//! Cross-item floating-point reductions (priors, convergence deltas, RMS
//! norms) stay sequential in a fixed order, or are folded from per-shard
//! partials in shard order with shard boundaries independent of the thread
//! count.

use std::cell::Cell;

/// Fewest items worth a thread of their own in [`parallel_map`]. Measured
/// on a 2-vCPU host with the platform's execution step (~55 ns an item),
/// when a 2-wide region still spawned two threads and left the caller
/// idle: spawning them cost ~55 µs, so two threads first beat one at about
/// 2,048 items each.
const MIN_ITEMS_PER_THREAD: usize = 2048;

thread_local! {
    static FORKS: Cell<u64> = const { Cell::new(0) };
}

/// How many parallel regions the calling thread has forked, i.e. run on
/// more than one thread. Widths are caps, so a test comparing widths
/// reads this around its wide run to prove the run really forked.
pub fn forks() -> u64 {
    FORKS.get()
}

/// Runs `work` on every chunk and returns the results in chunk order:
/// chunk 0 on the calling thread, each other chunk on a scoped thread of
/// its own. A panic in the caller's chunk propagates once the helpers have
/// finished; otherwise the first helper (in chunk order) that panicked
/// re-raises its payload on the caller.
fn fork<C, R>(chunks: impl IntoIterator<Item = C>, work: impl Fn(C) -> R + Sync) -> Vec<R>
where
    C: Send,
    R: Send,
{
    let mut chunks = chunks.into_iter();
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    FORKS.set(FORKS.get() + 1);
    let work = &work;
    std::thread::scope(|s| {
        let helpers: Vec<_> = chunks.map(|c| s.spawn(move || work(c))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.push(work(first));
        for h in helpers {
            out.push(
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

/// Applies `f` to every item, fanning out across at most `threads`
/// threads (the caller's included), and returns the results **in input
/// order**.
///
/// Items are split into contiguous chunks (one per thread) so the output
/// permutation — and therefore every determinism property downstream — is
/// independent of scheduling. Every thread gets at least 2,048 items, so
/// small inputs run as a plain sequential map on the calling thread.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len() / MIN_ITEMS_PER_THREAD).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let chunk_len = items.len().div_ceil(threads);
    let runs = fork(items.chunks(chunk_len).enumerate(), |(c, chunk)| {
        let base = c * chunk_len;
        chunk
            .iter()
            .enumerate()
            .map(|(i, t)| f(base + i, t))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for run in runs {
        out.extend(run);
    }
    out
}

/// Splits `data` — a flat buffer of consecutive fixed-size items, each
/// `item_len` elements — into at most `threads` contiguous runs of whole
/// items and applies `f(first_item_index, run)` to each run on a thread of
/// its own, the first run on the calling thread.
///
/// This is the mutable counterpart of [`parallel_map`] for kernels that
/// fill a preallocated flat output (posterior tables, confusion matrices)
/// without per-call allocation. The runs partition `data`, so writes are
/// disjoint by construction; as long as `f` computes each item purely from
/// shared read-only state, the buffer contents are byte-identical at any
/// thread count.
///
/// With `threads <= 1` (or a single item) `f` is invoked once on the whole
/// buffer, making the sequential path zero-overhead.
///
/// # Panics
/// Panics if `item_len == 0` or `data.len()` is not a multiple of
/// `item_len`.
pub fn parallel_items_mut<T, F>(data: &mut [T], item_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(item_len > 0, "item_len must be positive");
    assert!(
        data.len().is_multiple_of(item_len),
        "buffer length {} is not a multiple of item length {}",
        data.len(),
        item_len
    );
    let n_items = data.len() / item_len;
    if n_items == 0 {
        return;
    }
    let threads = threads.max(1).min(n_items);
    if threads == 1 {
        f(0, data);
        return;
    }

    let chunk_items = n_items.div_ceil(threads);
    fork(
        data.chunks_mut(chunk_items * item_len).enumerate(),
        |(c, chunk)| f(c * chunk_items, chunk),
    );
}

/// The active-set counterpart of [`parallel_items_mut`]: processes one
/// item per entry of `active` (a worklist of entity indices), sharding the
/// **worklist** — not the full entity range — into contiguous chunks.
///
/// `scratch` is a compact output buffer with one `item_len`-wide slot per
/// active entry (extra trailing capacity is ignored, so a full-size arena
/// can be reused as the worklist shrinks). `f(slot, entity, item)` fills
/// slot `slot` — which corresponds to entity `active[slot]` — from shared
/// read-only state. Because chunk boundaries depend only on
/// `active.len()`, and each slot is written exactly once, the buffer is
/// byte-identical at any thread count; callers scatter the compact slots
/// back to their full tables in a sequential pass, preserving the
/// deterministic-reduction rule.
///
/// This is the sharding primitive behind the sparse incremental E-steps:
/// late EM iterations hand in a worklist holding only the unconverged
/// frontier, so both the compute *and* the spawn fan-out scale with the
/// active set instead of the full task count.
///
/// # Panics
/// Panics if `item_len == 0` or `scratch` is shorter than
/// `active.len() * item_len`.
pub fn parallel_active_items_mut<T, F>(
    scratch: &mut [T],
    item_len: usize,
    active: &[u32],
    threads: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(item_len > 0, "item_len must be positive");
    let used = active
        .len()
        .checked_mul(item_len)
        .expect("active worklist size overflow"); // crowdkit-lint: allow(PANIC001) — a worklist this size cannot be allocated anyway; overflow here is a caller bug
    assert!(
        scratch.len() >= used,
        "scratch holds {} elements but the worklist needs {used}",
        scratch.len()
    );
    parallel_items_mut(&mut scratch[..used], item_len, threads, |slot0, run| {
        for (i, item) in run.chunks_mut(item_len).enumerate() {
            let slot = slot0 + i;
            f(slot, active[slot] as usize, item);
        }
    });
}

/// Default worker-pool width: the machine's available parallelism, capped
/// to keep spawn overhead negligible for the workloads in this repo.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        // Enough items for every width to get all its threads, with a
        // ragged last chunk.
        let items: Vec<u64> = (0..(64 * MIN_ITEMS_PER_THREAD + 3) as u64).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |_, &x| {
                (x * x, std::thread::current().id())
            });
            let ids: std::collections::HashSet<_> = got.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids.len(), threads, "ran on {} threads", ids.len());
            let got: Vec<u64> = got.into_iter().map(|(x, _)| x).collect();
            assert_eq!(got, expect, "order broken at {threads} threads");
        }
    }

    #[test]
    fn parallel_map_uses_one_thread_per_full_share_the_caller_first() {
        let caller = std::thread::current().id();
        let threads_used = |n: usize, threads: usize| {
            let before = forks();
            let ids = parallel_map(&vec![0u8; n], threads, |_, _| std::thread::current().id());
            assert_eq!(ids[0], caller, "the caller works chunk 0");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            (distinct.len(), forks() - before)
        };
        assert_eq!(threads_used(2 * MIN_ITEMS_PER_THREAD - 1, 8), (1, 0));
        assert_eq!(threads_used(2 * MIN_ITEMS_PER_THREAD, 8), (2, 1));
        assert_eq!(threads_used(5 * MIN_ITEMS_PER_THREAD + 7, 4), (4, 1));
    }

    /// Runs `run`, which must panic, and returns the payload that reached
    /// this thread: the index of the chunk that panicked.
    fn panicking_chunk(run: impl FnOnce()) -> usize {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("a chunk panicked");
        *payload
            .downcast::<usize>()
            .expect("the chunk's own payload")
    }

    #[test]
    fn chunk_panics_reach_the_caller_with_their_payload() {
        // Four chunks at width 4; chunk 0 is the caller's, chunk 2 a
        // helper's.
        let items = vec![0u8; 4 * MIN_ITEMS_PER_THREAD];
        let mut buf = vec![0u8; 4 * 3];
        for bad in [0, 2] {
            let got = panicking_chunk(|| {
                parallel_map(&items, 4, |i, _| {
                    if i / MIN_ITEMS_PER_THREAD == bad {
                        std::panic::panic_any(bad);
                    }
                });
            });
            assert_eq!(got, bad, "parallel_map");
            let got = panicking_chunk(|| {
                parallel_items_mut(&mut buf, 3, 4, |first, _| {
                    if first == bad {
                        std::panic::panic_any(bad);
                    }
                });
            });
            assert_eq!(got, bad, "parallel_items_mut");
        }
    }

    #[test]
    fn parallel_map_passes_global_indices() {
        let n = 4 * MIN_ITEMS_PER_THREAD + 37;
        let got = parallel_map(&vec!["a"; n], 4, |i, _| i);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u8], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn items_mut_fills_every_item_exactly_once() {
        // 41 items of width 3, processed at several widths: each item is
        // stamped with its global index, so any overlap or gap would show.
        let expect: Vec<usize> = (0..41).flat_map(|i| [i, i, i]).collect();
        for threads in [1, 2, 5, 8, 64] {
            let mut buf = vec![usize::MAX; 41 * 3];
            parallel_items_mut(&mut buf, 3, threads, |first, run| {
                for (j, item) in run.chunks_mut(3).enumerate() {
                    item.fill(first + j);
                }
            });
            assert_eq!(buf, expect, "bad fill at {threads} threads");
        }
    }

    #[test]
    fn items_mut_handles_empty_and_single_item() {
        let mut empty: Vec<u8> = vec![];
        parallel_items_mut(&mut empty, 4, 8, |_, _| panic!("no items to visit"));
        let mut one = vec![0u8; 4];
        parallel_items_mut(&mut one, 4, 8, |first, run| {
            assert_eq!(first, 0);
            run.fill(7);
        });
        assert_eq!(one, vec![7; 4]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn items_mut_rejects_ragged_buffers() {
        let mut buf = vec![0u8; 7];
        parallel_items_mut(&mut buf, 3, 2, |_, _| {});
    }

    #[test]
    fn active_items_fill_only_worklist_slots_at_any_width() {
        // Worklist picks every third entity out of 30; each slot must be
        // stamped (slot, entity) with entity = active[slot], identically
        // at every thread count, and trailing arena capacity untouched.
        let active: Vec<u32> = (0..30).step_by(3).map(|e| e as u32).collect();
        let expect: Vec<usize> = active
            .iter()
            .enumerate()
            .flat_map(|(s, &e)| [s, e as usize])
            .collect();
        for threads in [1, 2, 5, 64] {
            let mut scratch = vec![usize::MAX; 30 * 2]; // full-size arena
            parallel_active_items_mut(&mut scratch, 2, &active, threads, |slot, entity, item| {
                item[0] = slot;
                item[1] = entity;
            });
            assert_eq!(
                &scratch[..expect.len()],
                &expect[..],
                "bad fill at {threads} threads"
            );
            assert!(scratch[expect.len()..].iter().all(|&x| x == usize::MAX));
        }
    }

    #[test]
    fn active_items_handle_an_empty_worklist() {
        let mut scratch = vec![0u8; 8];
        parallel_active_items_mut(&mut scratch, 4, &[], 8, |_, _, _| {
            panic!("no active entities to visit")
        });
        assert_eq!(scratch, vec![0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "scratch holds")]
    fn active_items_reject_undersized_scratch() {
        let mut scratch = vec![0u8; 3];
        parallel_active_items_mut(&mut scratch, 2, &[0, 1], 1, |_, _, _| {});
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let n = default_threads();
        assert!((1..=16).contains(&n));
    }
}
