//! Suppression-audit fixture: one allow excuses an `unwrap`, the other
//! outlived the code it excused.

pub fn used(xs: &[u64]) -> u64 {
    *xs.first().unwrap() // crowdkit-lint: allow(PANIC001) — fixture: callers pass a non-empty slice
}

// crowdkit-lint: allow(PANIC001) — fixture: this fn used to unwrap, and no longer does
pub fn idle(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap_or(0)
}
