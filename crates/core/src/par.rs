//! Deterministic data-parallel primitives shared across the workspace.
//!
//! Both the platform simulator (`crowdkit-sim`) and the truth-inference
//! kernels (`crowdkit-truth`) parallelize with the same scoped-pool
//! pattern: the input is split into **contiguous, position-determined
//! chunks** (never work-stealing), each chunk is processed by one scoped
//! thread, and outputs are reassembled in chunk order. Because chunking
//! depends only on input length — and every per-item computation is a pure
//! function of its item — results are byte-identical at any thread count.
//! Thread count is a perf knob, not a semantics knob.
//!
//! The rule the helpers enforce (the *deterministic-reduction rule*): a
//! parallel region may only write disjoint, position-assigned outputs.
//! Cross-item floating-point reductions (priors, convergence deltas, RMS
//! norms) stay sequential in a fixed order, or are folded from per-shard
//! partials in shard order with shard boundaries independent of the thread
//! count.

/// Fewest items worth a thread of their own in [`parallel_map`]. Measured
/// on a 2-vCPU host with the platform's execution step (~55 ns an item):
/// spawning two scoped threads cost ~55 µs, so two threads first beat one
/// at about 2,048 items each.
const MIN_ITEMS_PER_THREAD: usize = 2048;

/// Applies `f` to every item, fanning out across up to `threads` scoped
/// workers, and returns the results **in input order**.
///
/// Items are split into contiguous chunks (one per worker) so the output
/// permutation — and therefore every determinism property downstream — is
/// independent of scheduling. At most one thread is spawned per 2,048
/// items, so small inputs run as a plain sequential map on the calling
/// thread.
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
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_len)
        .enumerate()
        .map(|(c, chunk)| (c * chunk_len, chunk))
        .collect();

    let results: Vec<Vec<R>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&(base, chunk)| {
                let f = &f;
                s.spawn(move |_| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(base + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_map worker panicked")) // crowdkit-lint: allow(PANIC001) — re-raises a child-thread panic; join fails only when the child panicked
            .collect()
    })
    .expect("parallel_map scope panicked"); // crowdkit-lint: allow(PANIC001) — scope errors only report child panics, which must propagate

    let mut out = Vec::with_capacity(items.len());
    for chunk in results {
        out.extend(chunk);
    }
    out
}

/// Splits `data` — a flat buffer of consecutive fixed-size items, each
/// `item_len` elements — into contiguous runs of whole items and applies
/// `f(first_item_index, run)` to each run on its own scoped thread.
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
    crossbeam::thread::scope(|s| {
        for (c, chunk) in data.chunks_mut(chunk_items * item_len).enumerate() {
            let f = &f;
            s.spawn(move |_| f(c * chunk_items, chunk));
        }
    })
    .expect("parallel_items_mut scope panicked"); // crowdkit-lint: allow(PANIC001) — scope errors only report child panics, which must propagate
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
    fn parallel_map_spawns_one_thread_per_full_share() {
        let caller = std::thread::current().id();
        let threads_used = |n: usize, threads: usize| {
            let ids = parallel_map(&vec![0u8; n], threads, |_, _| std::thread::current().id());
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            (distinct.len(), distinct.contains(&caller))
        };
        assert_eq!(threads_used(2 * MIN_ITEMS_PER_THREAD - 1, 8), (1, true));
        assert_eq!(threads_used(2 * MIN_ITEMS_PER_THREAD, 8), (2, false));
        assert_eq!(threads_used(5 * MIN_ITEMS_PER_THREAD + 7, 4), (4, false));
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
            assert_eq!(&scratch[..expect.len()], &expect[..], "bad fill at {threads} threads");
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
