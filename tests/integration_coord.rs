//! Coordinator/worker execution, end to end (threads stand in for
//! processes): a fleet coordinated over worker ranges must render the
//! same report byte for byte as the in-process fleet — with one worker
//! (the anchor), with several, and after a worker "dies" mid-range and
//! its shards are re-dispatched. The worker side of the protocol is the
//! real one; only the process boundary is simulated, so these tests pin
//! the protocol while `crates/bench/tests/coord_proc.rs` pins the OS
//! plumbing.

use csprov::fleet::coord::{
    coordinate, plan_ranges, run_worker_range, CoordOptions, ShardRange, WorkerHandle,
};
use csprov::fleet::{run_fleet, FleetConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csprov-coord-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rendered(report: &csprov::fleet::ProvisioningReport) -> String {
    format!("{}\n{}", report.render().render(), report.sizing_line())
}

/// A worker thread as a pollable handle — the test stand-in for a child
/// process. `Err` from the thread plays the role of a non-zero exit or
/// signal death.
struct ThreadWorker {
    handle: Option<JoinHandle<Result<(), String>>>,
}

impl ThreadWorker {
    fn spawn(f: impl FnOnce() -> Result<(), String> + Send + 'static) -> Self {
        ThreadWorker {
            handle: Some(std::thread::spawn(f)),
        }
    }
}

impl WorkerHandle for ThreadWorker {
    fn try_status(&mut self) -> Option<Result<(), String>> {
        if !self.handle.as_ref().is_some_and(JoinHandle::is_finished) {
            return None;
        }
        let handle = self.handle.take()?;
        Some(
            handle
                .join()
                .unwrap_or_else(|_| Err("worker thread panicked".to_string())),
        )
    }
}

/// A launcher that runs the real worker protocol over the whole range —
/// what `repro fleet work` does, minus the process.
fn honest_launcher(
    config: &FleetConfig,
    state_dir: &Path,
) -> impl FnMut(usize, ShardRange) -> Result<ThreadWorker, String> {
    let config = config.clone();
    let state_dir = state_dir.to_path_buf();
    move |_worker, range| {
        let config = config.clone();
        let state_dir = state_dir.clone();
        Ok(ThreadWorker::spawn(move || {
            run_worker_range(&config, range, &state_dir, None)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }))
    }
}

/// The anchor: a fleet of one worker is the in-process fleet, byte for
/// byte — report, sizing line, and full coverage block included.
#[test]
fn coordinating_one_worker_matches_the_in_process_fleet() {
    let dir = temp_dir("one");
    let config = FleetConfig::new("fleet", 4242, 3, 2);
    let baseline = run_fleet(&config).expect("in-process fleet");

    let opts = CoordOptions {
        workers: 1,
        ..CoordOptions::default()
    };
    let run = coordinate(&config, &dir, &opts, honest_launcher(&config, &dir), None)
        .expect("coordinated fleet");

    assert_eq!(rendered(&run.report), rendered(&baseline.report));
    assert_eq!(run.report.coverage.merged, 3);
    assert!(run.report.coverage.lost.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Several workers and an awkward shard/worker ratio still converge to the
/// same bytes.
#[test]
fn coordinating_many_workers_matches_the_in_process_fleet() {
    let dir = temp_dir("many");
    let config = FleetConfig::new("fleet", 77, 5, 2);
    let baseline = run_fleet(&config).expect("in-process fleet");

    let opts = CoordOptions {
        workers: 3,
        ..CoordOptions::default()
    };
    let run = coordinate(&config, &dir, &opts, honest_launcher(&config, &dir), None)
        .expect("coordinated fleet");

    assert_eq!(rendered(&run.report), rendered(&baseline.report));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies mid-range (some shards checkpointed, some not) is
/// re-dispatched; the replacement resume-scans, recomputes only the
/// missing shards, and the final report is still byte-identical — the
/// crash is invisible in the answer, visible only in the events.
#[test]
fn killed_worker_range_is_redispatched_to_the_same_bytes() {
    let dir = temp_dir("kill");
    let config = FleetConfig::new("fleet", 909, 4, 2);
    let baseline = run_fleet(&config).expect("in-process fleet");

    // First launch of worker 0: complete only the first shard of the
    // range, then "die" (Err status = unclean exit). Every other launch
    // runs the honest protocol.
    let mut honest = honest_launcher(&config, &dir);
    let mut launches_of_zero = 0;
    let crash_config = config.clone();
    let crash_dir = dir.clone();
    let launch = move |worker: usize, range: ShardRange| {
        if worker == 0 {
            launches_of_zero += 1;
            if launches_of_zero == 1 {
                let config = crash_config.clone();
                let state_dir = crash_dir.clone();
                let partial = ShardRange {
                    start: range.start,
                    end: range.start + 1,
                };
                return Ok(ThreadWorker::spawn(move || {
                    run_worker_range(&config, partial, &state_dir, None)
                        .map_err(|e| e.to_string())?;
                    Err("killed by test".to_string())
                }));
            }
        }
        honest(worker, range)
    };

    let opts = CoordOptions {
        workers: 2,
        ..CoordOptions::default()
    };
    let redispatched = std::sync::atomic::AtomicU32::new(0);
    let on_event = |ev: &csprov::fleet::coord::CoordEvent<'_>| {
        if matches!(
            ev,
            csprov::fleet::coord::CoordEvent::RangeRedispatched { .. }
        ) {
            redispatched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    };
    let run = coordinate(&config, &dir, &opts, launch, Some(&on_event)).expect("coordinated fleet");

    assert_eq!(
        redispatched.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the dead worker's range must be re-dispatched exactly once"
    );
    assert_eq!(rendered(&run.report), rendered(&baseline.report));
    assert_eq!(run.report.coverage.merged, 4);
    assert!(run.report.coverage.lost.is_empty());
    // Coordinator-plane recovery is not a shard-plane retry: the report
    // must not grow a retries row the in-process run does not have.
    assert_eq!(
        run.report.coverage.retries,
        baseline.report.coverage.retries
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker whose range is out of attempts degrades coverage instead of
/// failing the run: the report carries the surviving shards and names the
/// lost ones.
#[test]
fn worker_that_keeps_dying_degrades_coverage() {
    let dir = temp_dir("degrade");
    let mut config = FleetConfig::new("fleet", 31, 3, 1);
    config.retry.attempts = 2;

    let mut honest = honest_launcher(&config, &dir);
    let launch = move |worker: usize, range: ShardRange| {
        if worker == 1 {
            // Dies instantly on every attempt, completing nothing.
            return Ok(ThreadWorker::spawn(|| Err("crashed".to_string())));
        }
        honest(worker, range)
    };
    let opts = CoordOptions {
        workers: 2,
        ..CoordOptions::default()
    };
    let run = coordinate(&config, &dir, &opts, launch, None).expect("degraded fleet");

    let ranges = plan_ranges(3, 2);
    let lost: Vec<usize> = ranges[1].shards().collect();
    assert_eq!(run.report.coverage.lost, lost);
    assert_eq!(run.report.coverage.merged, 3 - lost.len());
    assert!(run.report.coverage.is_degraded());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state dir that already holds an invalid checkpoint for a shard: the
/// worker ignores it, recomputes the shard and renames a valid file over
/// it. The coordinator must collect that file instead of remembering the
/// shard as rejected and reporting it lost.
#[test]
fn recomputed_shard_over_an_invalid_checkpoint_is_collected_not_lost() {
    let dir = temp_dir("garbage");
    let config = FleetConfig::new("fleet", 7, 2, 1);
    let baseline = run_fleet(&config).expect("in-process fleet");

    std::fs::create_dir_all(&dir).expect("state dir");
    std::fs::write(dir.join("shard-00001.state"), b"garbage\n").expect("plant garbage");
    let opts = CoordOptions {
        workers: 1,
        ..CoordOptions::default()
    };
    let run = coordinate(&config, &dir, &opts, honest_launcher(&config, &dir), None)
        .expect("coordinated fleet");

    assert!(
        run.report.coverage.lost.is_empty(),
        "{:?}",
        run.report.coverage
    );
    assert_eq!(rendered(&run.report), rendered(&baseline.report));
    let _ = std::fs::remove_dir_all(&dir);
}
