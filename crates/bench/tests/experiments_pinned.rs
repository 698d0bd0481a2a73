//! Pins the experiment suite: `experiments all` must print exactly the
//! verbatim block under "Full measured output" in EXPERIMENTS.md, so a
//! change that moves any experiment number fails here. Re-record the block
//! from the suite's output only for a deliberate change, and say which
//! tables moved.

/// The fenced block that follows the "Full measured output" heading.
fn documented_output(doc: &str) -> &str {
    let (_, section) = doc
        .split_once("\n## Full measured output\n")
        .expect("EXPERIMENTS.md has a \"Full measured output\" section");
    let (_, block) = section
        .split_once("\n```\n")
        .expect("the section opens a ``` block");
    let (block, _) = block
        .split_once("\n```\n")
        .expect("the ``` block is closed");
    block
}

#[test]
fn experiment_suite_prints_experiments_md() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let want = documented_output(doc);
    let got = crowdkit_bench::experiments::run_all();
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "line {} of the suite's output differs from EXPERIMENTS.md",
            i + 1
        );
    }
    // Every experiment's text ends in a blank line; the block drops the
    // last one.
    assert!(
        got.strip_suffix("\n\n") == Some(want),
        "the suite's output and EXPERIMENTS.md differ in length"
    );
}
