//! Dense interning of sparse external ids.
//!
//! Real crowd platforms hand out sparse, non-contiguous ids (database row
//! keys, UUID-derived integers, per-tenant offsets). The EM kernels, by
//! contrast, want to index flat arrays — posteriors, confusion matrices,
//! CSR offsets — by a *dense* `0..n` integer. [`IdInterner`] is the single
//! sanctioned bridge between the two worlds: it assigns each distinct
//! external id the next dense `u32` slot in first-seen order and keeps the
//! bidirectional mapping.
//!
//! Dense indices are deliberately `u32`, not `usize`: at million-scale the
//! response CSR stores one index per observation, and halving the index
//! width roughly halves the hot working set (see `DESIGN.md` §11). An
//! interner refuses to hand out more than `u32::MAX` slots.
//!
//! The historical footgun this replaces: `TaskId::index()` casts the *raw*
//! id to `usize`, which silently corrupts CSR indexing the moment ids are
//! not dense-from-zero. Kernel-facing code should obtain dense indices
//! from an interner (or a [`crate::response::ResponseMatrix`], which embeds
//! two) and use [`IdInterner::expect_dense`] where density is assumed —
//! that path debug-asserts instead of corrupting.

use std::hash::Hash;

use crate::hash::IdMap;

/// Maps sparse external ids to dense `u32` indices in first-seen order.
///
/// Works for any id type that round-trips through `u64` — in this
/// workspace that is [`crate::ids::TaskId`], [`crate::ids::WorkerId`] and
/// [`crate::ids::ItemId`]. The map hashes with the unkeyed
/// [`crate::hash::IdHasher`]: fast on ids the program makes, but ids
/// picked to collide would slow every lookup toward a scan.
///
/// ```
/// use crowdkit_core::ids::TaskId;
/// use crowdkit_core::intern::IdInterner;
///
/// let mut it = IdInterner::new();
/// assert_eq!(it.intern(TaskId::new(900)), 0);
/// assert_eq!(it.intern(TaskId::new(3)), 1);
/// assert_eq!(it.intern(TaskId::new(900)), 0); // idempotent
/// assert_eq!(it.dense(TaskId::new(3)), Some(1));
/// assert_eq!(it.id(1), TaskId::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct IdInterner<I> {
    ids: Vec<I>,
    /// Looked up, never iterated, so its hasher cannot change an output.
    dense: IdMap<I, u32>,
}

impl<I> Default for IdInterner<I> {
    fn default() -> Self {
        Self {
            ids: Vec::new(),
            dense: IdMap::default(),
        }
    }
}

impl<I: Copy + Eq + Hash> IdInterner<I> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner preallocated for roughly `capacity` distinct ids.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ids: Vec::with_capacity(capacity),
            dense: IdMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Returns the dense index of `id`, assigning the next free slot on
    /// first sight.
    ///
    /// # Panics
    /// Panics if the interner already holds `u32::MAX` distinct ids — the
    /// flat-array layouts this feeds are all `u32`-indexed by design.
    pub fn intern(&mut self, id: I) -> u32 {
        if let Some(&d) = self.dense.get(&id) {
            return d;
        }
        let d = u32::try_from(self.ids.len()).expect("IdInterner exceeded u32::MAX dense slots"); // crowdkit-lint: allow(PANIC001) — a 4-billion-entity workload has outgrown u32 CSR indexing; failing loudly beats silent truncation
        self.ids.push(id);
        self.dense.insert(id, d);
        d
    }

    /// The dense index of `id`, if it has been interned.
    #[inline]
    pub fn dense(&self, id: I) -> Option<u32> {
        self.dense.get(&id).copied()
    }

    /// The dense index of an id the caller believes is interned.
    ///
    /// In debug builds an unknown id panics with a pointed message — this
    /// is the guard rail for code that used to assume raw ids were dense
    /// and index arrays with `id.index()` directly. In release builds the
    /// lookup failure still surfaces (as `u32::MAX`, which blows the
    /// downstream bounds check) rather than silently aliasing slot 0.
    #[inline]
    #[track_caller]
    pub fn expect_dense(&self, id: I) -> u32 {
        match self.dense(id) {
            Some(d) => d,
            None => {
                debug_assert!(
                    false,
                    "id was never interned: dense indexing through raw ids is the \
                     TaskId::index() footgun this interner exists to prevent"
                );
                u32::MAX
            }
        }
    }

    /// The external id stored at dense index `d`.
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[inline]
    pub fn id(&self, d: u32) -> I {
        self.ids[d as usize]
    }

    /// Number of distinct ids interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// All interned ids, dense-index order.
    #[inline]
    pub fn ids(&self) -> &[I] {
        &self.ids
    }

    /// Reserves space for `additional` more distinct ids.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.dense.reserve(additional);
    }
}

impl<I: Copy + Eq + Hash + Into<u64>> IdInterner<I> {
    /// True when every interned id equals its dense index — i.e. the
    /// external ids happen to be dense-from-zero, so `id.index()`-style
    /// direct indexing *would* have been safe. Diagnostics only; code
    /// should not branch semantics on this.
    pub fn is_identity(&self) -> bool {
        self.ids
            .iter()
            .enumerate()
            .all(|(i, &id)| id.into() == i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TaskId, WorkerId};

    #[test]
    fn interns_in_first_seen_order() {
        let mut it = IdInterner::new();
        assert_eq!(it.intern(WorkerId::new(40)), 0);
        assert_eq!(it.intern(WorkerId::new(7)), 1);
        assert_eq!(it.intern(WorkerId::new(40)), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.ids(), &[WorkerId::new(40), WorkerId::new(7)]);
        assert_eq!(it.id(1), WorkerId::new(7));
        assert_eq!(it.dense(WorkerId::new(99)), None);
    }

    #[test]
    fn expect_dense_returns_known_ids() {
        let mut it = IdInterner::new();
        it.intern(TaskId::new(123));
        assert_eq!(it.expect_dense(TaskId::new(123)), 0);
    }

    #[test]
    #[should_panic(expected = "never interned")]
    #[cfg(debug_assertions)]
    fn expect_dense_debug_asserts_on_unknown_ids() {
        let it: IdInterner<TaskId> = IdInterner::new();
        let _ = it.expect_dense(TaskId::new(5));
    }

    #[test]
    fn identity_detection() {
        let mut it = IdInterner::new();
        it.intern(TaskId::new(0));
        it.intern(TaskId::new(1));
        assert!(it.is_identity());
        it.intern(TaskId::new(9));
        assert!(!it.is_identity());
    }

    #[test]
    fn strided_ids_intern_in_first_seen_order() {
        // The sparse ids `bench_scale` makes, against a SipHash map
        // filled alongside: every lookup agrees, and dense indices follow
        // first sight whatever the hasher.
        let task = |t: u64| TaskId::new(t.wrapping_mul(2_654_435_761).wrapping_add(17));
        let worker = |w: u64| WorkerId::new(w.wrapping_mul(40_503).wrapping_add(101));
        let mut tasks = IdInterner::new();
        let mut workers = IdInterner::with_capacity(16);
        let mut sip = std::collections::HashMap::new();
        for i in 0..5_000u64 {
            let t = task(i % 3_001);
            let w = worker(i * 7 % 1_009);
            let d = tasks.intern(t);
            assert_eq!(d, *sip.entry(t).or_insert(tasks.len() as u32 - 1));
            assert_eq!(workers.intern(w), workers.dense(w).unwrap());
        }
        assert_eq!(tasks.len(), 3_001);
        assert_eq!(workers.len(), 1_009);
        for i in 0..3_001u64 {
            assert_eq!(tasks.dense(task(i)), Some(i as u32));
            assert_eq!(tasks.id(i as u32), task(i));
            assert_eq!(tasks.dense(TaskId::new(task(i).raw() + 1)), None);
        }
        for (d, &w) in workers.ids().iter().enumerate() {
            assert_eq!(workers.expect_dense(w), d as u32);
        }
        assert_eq!(workers.id(1), worker(7));
    }

    #[test]
    fn with_capacity_and_reserve_do_not_change_semantics() {
        let mut it = IdInterner::with_capacity(8);
        it.reserve(16);
        assert!(it.is_empty());
        assert_eq!(it.intern(TaskId::new(2)), 0);
        assert!(!it.is_empty());
    }
}
