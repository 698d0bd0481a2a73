//! Per-assignment RNG streams for batched crowd asks.
//!
//! The batch engine in [`crate::platform`] is split into two phases:
//!
//! 1. **Plan** (sequential): budget funding, worker assignment and RNG-seed
//!    derivation happen in request order under the platform's state lock.
//!    Every planned assignment gets its own [`derive_seed`]-derived RNG
//!    stream.
//! 2. **Execute** (parallel): answer values and latency draws are computed
//!    from the per-assignment streams with
//!    [`crowdkit_core::par::parallel_map`], which chunks the plan across
//!    scoped threads (the caller working the first chunk) and reassembles
//!    results in input order.
//!
//! Because the only cross-assignment coupling (budget, worker reservation)
//! is resolved in phase 1 and every phase-2 computation is a pure function
//! of its planned seed, the combined result is byte-identical at any thread
//! count — the property the concurrency proptests pin.

use crowdkit_core::hash::mix64;

/// Derives an independent 64-bit RNG seed for one assignment from the
/// platform seed, the task id, and the per-task attempt ordinal.
///
/// SplitMix64-style finalization ([`mix64`]): consecutive
/// `(task, attempt)` pairs land far apart in seed space, so per-assignment
/// `StdRng` streams are statistically independent even though they are
/// planned sequentially.
pub fn derive_seed(platform_seed: u64, task_raw: u64, attempt: u64) -> u64 {
    mix64(
        platform_seed
            .wrapping_add(task_raw.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(attempt.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_separates_tasks_and_attempts() {
        let a = derive_seed(7, 0, 0);
        let b = derive_seed(7, 0, 1);
        let c = derive_seed(7, 1, 0);
        let d = derive_seed(8, 0, 0);
        let all = [a, b, c, d];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "seeds {i} and {j} collide");
            }
        }
        assert_eq!(derive_seed(7, 0, 0), a, "derivation is pure");
    }
}
