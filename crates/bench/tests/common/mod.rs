//! Helpers shared by the determinism property tests.

use crowdkit_core::par;
use proptest::prelude::*;

/// The widths every thread-count property compares.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `stream(threads)` at every width in [`THREAD_COUNTS`], demands
/// the streams equal the 1-thread one, and returns that one. Each wider
/// run must have forked: widths are caps, and one that did not would
/// compare one thread with itself.
pub fn assert_thread_count_invariant(
    what: &str,
    stream: impl Fn(usize) -> Vec<u8>,
) -> Result<Vec<u8>, TestCaseError> {
    let reference = stream(THREAD_COUNTS[0]);
    prop_assert!(!reference.is_empty(), "instrumentation must emit events");
    for &threads in &THREAD_COUNTS[1..] {
        let forks = par::forks();
        let s = stream(threads);
        prop_assert!(
            par::forks() > forks,
            "the {}-thread {} run never forked",
            threads,
            what
        );
        prop_assert!(
            reference == s,
            "{} stream diverged at {} threads",
            what,
            threads
        );
    }
    Ok(reference)
}
