//! The `experiments` binary's output files: `--log` alone writes the event
//! log and leaves `RUNREPORT.json` to `--report`.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowdkit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a temp dir");
    dir
}

#[test]
fn log_alone_writes_no_report() {
    let dir = scratch_dir("experiments-log");
    let log = dir.join("e.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e10", "--log"])
        .arg(&log)
        .current_dir(&dir)
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = std::fs::read_to_string(&log).expect("the log was written");
    assert!(events.lines().count() > 1, "the log holds events");
    assert!(
        !dir.join("RUNREPORT.json").exists(),
        "--log without --report wrote RUNREPORT.json"
    );
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}
