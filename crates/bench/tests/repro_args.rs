//! The main `repro` command's argument rules, pinned through the real
//! binary: every malformed argv exits non-zero with a stable error and
//! leaves the working directory untouched — no report, checkpoint, trace
//! or metrics file is written before the arguments are known to be good.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long one malformed invocation may take before it counts as hung
/// (a rejected argv exits at once; an accepted one may simulate forever).
const DEADLINE: Duration = Duration::from_secs(30);

fn scratch_dir(case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csprov-args-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` in `cwd`, killing it at the deadline. Returns whether it
/// exited successfully (a hang counts as success: the argv was accepted)
/// and its stderr.
fn run_repro(args: &[&str], cwd: &PathBuf) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro spawns");
    let t0 = Instant::now();
    loop {
        if child.try_wait().expect("poll repro").is_some() {
            break;
        }
        if t0.elapsed() > DEADLINE {
            let _ = child.kill();
            let out = child.wait_with_output().expect("reap repro");
            return (true, format!("hung past {DEADLINE:?}: {}", stderr(&out)));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect repro");
    (out.status.success(), stderr(&out))
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_main_runs_fail_without_touching_disk() {
    const HOURS: &str = "--hours must be finite and > 0";
    let cases: &[(&[&str], &str)] = &[
        (&["--bogus", "table1"], "unknown option: --bogus"),
        (&["--fleet", "0"], "--fleet must be > 0"),
        (
            &["--fleet", "2", "--fleet-minutes", "1", "--resume"],
            "--resume requires --fleet-state-dir",
        ),
        (
            &[
                "--fleet-retries",
                "2",
                "--fleet-state-dir",
                "state",
                "table1",
            ],
            "require --fleet",
        ),
        (
            &["--serve-linger", "5", "--trace-out", "t.json", "table1"],
            "--serve-linger requires --serve",
        ),
        (
            &["--metrics-format", "prom", "table1"],
            "--metrics-format requires --metrics-out",
        ),
        (
            &["--series-interval", "0", "--series-out", "series", "table1"],
            "--series-interval must be > 0",
        ),
        (&[], "no artifacts requested"),
        (&["--seed", "7", "--csv", "csv"], "no artifacts requested"),
        (&["--hours", "-1", "table1"], HOURS),
        (&["--hours", "nan", "table1"], HOURS),
        (&["--hours", "0", "table2"], HOURS),
        (&["--hours", "inf", "table1"], HOURS),
    ];
    for (i, (args, expected)) in cases.iter().enumerate() {
        let dir = scratch_dir(i);
        let (ok, err) = run_repro(args, &dir);
        assert!(!ok, "{args:?} must fail; stderr:\n{err}");
        assert!(
            err.contains(expected),
            "{args:?} must report {expected:?}; stderr:\n{err}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch dir readable")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every option `--help` lists for a command is one the command
/// understands: a junk value is rejected by that flag's own check or by
/// the command's cross-flag rules, never as unknown — and never after
/// anything has run.
#[test]
fn every_listed_option_is_understood() {
    let commands: [&[&str]; 3] = [&[], &["fleet", "work"], &["fleet", "coordinate"]];
    for (i, command) in commands.into_iter().enumerate() {
        let dir = scratch_dir(100 + i);
        let (_, help) = run_repro(&[command, &["--help"]].concat(), &dir);
        let flags: Vec<&str> = help
            .lines()
            .skip_while(|l| *l != "options:")
            .skip(1)
            .take_while(|l| l.starts_with("  --"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(
            flags.len() > 5,
            "{command:?} --help lists its options:\n{help}"
        );
        for flag in flags {
            let args = [command, &[flag, "x"]].concat();
            let (ok, err) = run_repro(&args, &dir);
            assert!(!ok, "{args:?} must fail; stderr:\n{err}");
            for wrong in ["unknown option", "does not accept", "has no meaning"] {
                assert!(!err.contains(wrong), "{args:?}: {err}");
            }
        }
        let left = std::fs::read_dir(&dir)
            .expect("scratch dir readable")
            .count();
        assert_eq!(left, 0, "{command:?}: options wrote files");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
