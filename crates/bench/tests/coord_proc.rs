//! The coordinator/worker protocol across *real* OS processes: `repro
//! fleet coordinate` spawns `repro fleet work` children against a shared
//! state directory, and its stdout must be byte-identical to the
//! in-process `--fleet` run. The thread-based protocol tests live in
//! `tests/integration_coord.rs`; this one pins the process plumbing —
//! argv round-trip, exit codes, stdout discipline.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csprov-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drops blank lines, as the CI diff does: the in-process run prints a
/// leading blank separator before the banner.
fn meaningful(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn coordinate_over_two_processes_matches_the_in_process_fleet() {
    let dir = temp_dir("two");
    let baseline = repro()
        .args(["--seed", "7", "--fleet", "3", "--fleet-minutes", "2"])
        .output()
        .expect("in-process fleet runs");
    assert!(baseline.status.success(), "baseline --fleet must succeed");

    let coordinated = repro()
        .args(["fleet", "coordinate", "--seed", "7", "--fleet", "3"])
        .args(["--fleet-minutes", "2", "--workers", "2"])
        .arg("--fleet-state-dir")
        .arg(&dir)
        .output()
        .expect("coordinate runs");
    assert!(
        coordinated.status.success(),
        "coordinate must succeed: {}",
        String::from_utf8_lossy(&coordinated.stderr)
    );
    assert_eq!(
        meaningful(&coordinated.stdout),
        meaningful(&baseline.stdout),
        "coordinated report must be byte-identical to --fleet"
    );
    let stderr = String::from_utf8_lossy(&coordinated.stderr);
    assert!(
        stderr.contains("worker 0 launched") && stderr.contains("worker 1 launched"),
        "two workers must actually have been spawned:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_process_runs_its_range_and_exits_cleanly() {
    let dir = temp_dir("worker");
    let out = repro()
        .args(["fleet", "work", "--shards", "0:1", "--seed", "7"])
        .args(["--fleet", "2", "--fleet-minutes", "1"])
        .arg("--fleet-state-dir")
        .arg(&dir)
        .output()
        .expect("worker runs");
    assert!(out.status.success(), "worker exits 0");
    assert!(
        out.stdout.is_empty(),
        "worker stdout belongs to the coordinator"
    );
    assert!(dir.join("shard-00000.state").exists(), "checkpoint written");
    assert!(dir.join("shard-00000.hb").exists(), "heartbeat written");
    assert!(
        !dir.join("shard-00001.state").exists(),
        "out-of-range shard untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_subcommands_fail_without_touching_disk() {
    let dir = temp_dir("bad");
    let state = dir.to_str().expect("utf-8 temp path");
    let worker = ["fleet", "work", "--shards", "0:1", "--fleet", "2"];
    let coord = ["fleet", "coordinate", "--fleet", "2"];
    let fleet = ["--fleet-minutes", "1", "--fleet-state-dir", state];
    for args in [
        vec!["fleet", "work", "--fleet", "2"], // no --shards, no state dir
        vec!["fleet", "coordinate"],           // no fleet size, no state dir
        vec!["fleet", "work", "--shards", "3:1", "--fleet", "4"],
        // Flags that belong to other commands are rejected, not ignored.
        [&worker[..], &fleet, &["--serve", "127.0.0.1:1"]].concat(),
        [&worker[..], &fleet, &["--workers", "9"]].concat(),
        [&worker[..], &fleet, &["--fan-in", "3"]].concat(),
        // The coordinator holds --serve-linger to the main run's rule.
        [&coord[..], &fleet, &["--serve-linger", "5"]].concat(),
    ] {
        let out = repro().args(&args).output().expect("repro runs");
        assert!(!out.status.success(), "{args:?} must fail");
    }
    assert!(!dir.exists());
}
