//! Regenerates every table and figure of "Provisioning On-line Games".
//!
//! ```text
//! repro [OPTIONS] <ARTIFACT|all|main|nat>...
//! repro fleet merge OUT_REPORT STATE_FILE...
//! repro fleet work --fleet N --fleet-state-dir DIR --shards LO:HI [OPTIONS]
//! repro fleet coordinate --fleet N --fleet-state-dir DIR [OPTIONS]
//! ```
//!
//! An ARTIFACT is one table, figure or ablation (`repro --help` lists
//! them); `main` selects tables I-III and figures 1-13, `nat` table IV and
//! figures 14-15, and `all` every artifact.
//!
//! Every option is one row of [`FLAGS`]: its name, its value placeholder,
//! one help line, and the commands that accept it. All three commands
//! parse against that table into one [`Plan`], and `repro --help` renders
//! it.
//!
//! Instrumentation is observe-only: a seeded run's artifact output is
//! byte-identical with and without `--progress`/`--metrics-out`/
//! `--trace-out`/`--series-out`/`--serve`/`--speed`. Chaos campaigns are
//! replayable: the same `--chaos`/`--chaos-seed` pair impairs the same
//! packets, and `--chaos none` is byte-identical to no `--chaos` at all.

use csprov::chaos::{self, ChaosReport, ChaosSpec};
use csprov::experiments::{
    ablations, aggregate, figures, nat, nat::NatRun, tables, web, ExperimentId,
};
use csprov::fleet::coord::{CoordEvent, ShardRange};
use csprov::fleet::{self, FleetConfig, FleetEvent, FleetRun, ProvisioningReport, ShardState};
use csprov::pipeline::MainRun;
use csprov_analysis::report::to_csv;
use csprov_bench::harness::{render_bench_json, BenchResult};
use csprov_game::{GameMetrics, ScenarioConfig, WorldInstruments, PAPER_TRACE_SECS};
use csprov_net::LinkMetrics;
use csprov_obs::{
    BroadcastBus, BusEvent, Journal, MetricsRegistry, Profile, ProfileSnapshot, ProgressReporter,
    SeriesSampler, ShardHealthBoard, TraceEvent,
};
use csprov_router::EngineConfig;
use csprov_serve::{ServeHandle, ServeShared};
use csprov_sim::{Pacer, PacerStats, SimDuration, Simulator, Speed};
use std::cell::{Cell, RefCell};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many kernel events pass between progress-observer callbacks.
const OBSERVER_STRIDE: u64 = 8192;

/// Wall interval between snapshot refreshes pushed to the serving plane.
const SERVE_REFRESH: Duration = Duration::from_millis(200);

/// `fleet merge` takes positional arguments only, so it has no flag rows.
const MERGE_USAGE: &str = "repro fleet merge OUT_REPORT STATE_FILE...";

/// Rendering for `--metrics-out`. The default keeps the legacy combined
/// dump (per-artifact commented text + JSON lines).
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Combined,
    Text,
    Json,
    Prom,
}

/// The commands that take flags: the main run, `fleet work` and `fleet
/// coordinate`. Each is one bit of [`Flag::scope`].
#[derive(Clone, Copy, PartialEq)]
enum Command {
    Run = 1,
    Work = 2,
    Coordinate = 4,
}

const RUN: u8 = Command::Run as u8;
const WORK: u8 = Command::Work as u8;
const COORD: u8 = Command::Coordinate as u8;
/// Flags that describe the fleet itself. Every command accepts them, so a
/// worker, its coordinator and an in-process `--fleet` run derive the same
/// shard seeds.
const FLEET: u8 = RUN | WORK | COORD;

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Value placeholder; empty for a switch.
    value: &'static str,
    /// The commands that accept the flag.
    scope: u8,
    /// The commands that cannot run without it.
    required: u8,
    help: &'static str,
}

/// Every flag of every command. [`Plan::set`] gives each its meaning.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--seed",           value: "N",              scope: FLEET,       required: 0,            help: "RNG seed (default 2002)" },
    Flag { name: "--hours",          value: "H",              scope: RUN,         required: 0,            help: "main-trace length in hours, finite and > 0 (default 24)" },
    Flag { name: "--full-week",      value: "",               scope: RUN,         required: 0,            help: "use the paper's full 626,477 s trace (~7.25 days)" },
    Flag { name: "--csv",            value: "DIR",            scope: RUN,         required: 0,            help: "also write key figures' data series as CSV into DIR" },
    Flag { name: "--progress",       value: "",               scope: RUN,         required: 0,            help: "heartbeat on stderr (sim/wall ratio, ev/s, ETA)" },
    Flag { name: "--metrics-out",    value: "FILE",           scope: RUN,         required: 0,            help: "metrics snapshot per artifact" },
    Flag { name: "--metrics-format", value: "text|json|prom", scope: RUN,         required: 0,            help: "--metrics-out format (default: commented text + JSON lines)" },
    Flag { name: "--trace-out",      value: "FILE",           scope: RUN,         required: 0,            help: "event journal per world run as <stem>.<run>.<ext>; .json selects Chrome trace-event format, anything else JSONL" },
    Flag { name: "--series-out",     value: "DIR",            scope: RUN,         required: 0,            help: "sim-time metric series per world run (DIR/<run>.csv)" },
    Flag { name: "--series-interval", value: "MS",             scope: RUN,         required: 0,            help: "series sampling period in sim-ms (default 1000)" },
    Flag { name: "--profile-out",    value: "DIR",            scope: RUN,         required: 0,            help: "wall-time profile per world run: DIR/<run>.folded, DIR/<run>.trace.json and a ranked self-time table on stderr" },
    Flag { name: "--chaos",          value: "PROFILE",        scope: RUN,         required: 0,            help: "run under a fault-injection campaign (profiles below)" },
    Flag { name: "--chaos-seed",     value: "N",              scope: RUN,         required: 0,            help: "impairment seed (default: same as --seed)" },
    Flag { name: "--fleet",          value: "N",              scope: FLEET,       required: WORK | COORD, help: "simulate a facility of N servers, merge their analysis state and print the provisioning report" },
    Flag { name: "--fleet-minutes",  value: "M",              scope: FLEET,       required: 0,            help: "simulated minutes per fleet server (default 30)" },
    Flag { name: "--fleet-state-dir", value: "DIR",            scope: FLEET,       required: WORK | COORD, help: "checkpoint every finished shard into DIR" },
    Flag { name: "--resume",         value: "",               scope: RUN,         required: 0,            help: "load valid checkpoints from --fleet-state-dir instead of recomputing" },
    Flag { name: "--fleet-retries",  value: "N",              scope: FLEET,       required: 0,            help: "attempts per shard before it is lost (default 3)" },
    Flag { name: "--fleet-fail",     value: "SPEC",           scope: FLEET,       required: 0,            help: "fault plan SHARD:COUNT|SHARD:forever|SHARD:stall=MS,..." },
    Flag { name: "--shards",         value: "LO:HI",          scope: WORK,        required: WORK,         help: "the shard range this worker runs" },
    Flag { name: "--workers",        value: "W",              scope: COORD,       required: 0,            help: "worker processes to spawn (default 2)" },
    Flag { name: "--serve",          value: "ADDR",           scope: RUN | COORD, required: 0,            help: "stream the run live over HTTP (/metrics /events /series /status /report /healthz /shards /profile)" },
    Flag { name: "--serve-linger",   value: "S",              scope: RUN | COORD, required: 0,            help: "keep serving S seconds after the run finishes" },
    Flag { name: "--speed",          value: "N|max",          scope: RUN,         required: 0,            help: "replay speed multiplier (1 = wall clock) or max (default: unpaced)" },
];

impl Command {
    fn name(self) -> &'static str {
        match self {
            Command::Run => "repro",
            Command::Work => "repro fleet work",
            Command::Coordinate => "repro fleet coordinate",
        }
    }

    /// The command, its required flags, and its operands.
    fn synopsis(self) -> String {
        let mut line = self.name().to_string();
        for flag in FLAGS.iter().filter(|f| f.required & self as u8 != 0) {
            line += &format!(" {} {}", flag.name, flag.value);
        }
        line += " [OPTIONS]";
        if self == Command::Run {
            line += " <ARTIFACT|all|main|nat>...";
        }
        line
    }
}

/// `command`'s usage, rendered from [`FLAGS`].
fn usage(command: Command) -> String {
    let mut out = format!("usage: {}\n", command.synopsis());
    if command == Command::Run {
        out += &format!("       {MERGE_USAGE}\n");
        for sub in [Command::Work, Command::Coordinate] {
            out += &format!("       {}\n", sub.synopsis());
        }
    }
    out += "options:\n";
    for flag in FLAGS.iter().filter(|f| f.scope & command as u8 != 0) {
        let head = format!("{} {}", flag.name, flag.value);
        out += &format!("  {:<32}{}\n", head.trim_end(), flag.help);
    }
    if command == Command::Run {
        let artifacts: Vec<String> = ExperimentId::all().iter().map(|a| a.to_string()).collect();
        out += &format!("artifacts: {}\n", artifacts.join(" "));
        out += &format!("chaos profiles: {}\n", chaos::names().join(", "));
    }
    out
}

/// What one invocation will do, parsed and checked before any of it runs.
/// The main run, `fleet work` and `fleet coordinate` all parse into it.
struct Plan {
    command: Command,
    /// Every flag given, in order, with its value.
    given: Vec<(&'static Flag, Option<String>)>,
    seed: u64,
    hours: f64,
    full_week: bool,
    csv_dir: Option<String>,
    progress: bool,
    metrics_out: Option<String>,
    metrics_format: MetricsFormat,
    trace_out: Option<String>,
    series_out: Option<String>,
    series_interval_ms: u64,
    profile_out: Option<String>,
    chaos: Option<ChaosSpec>,
    chaos_seed: Option<u64>,
    fleet: Option<usize>,
    fleet_minutes: u64,
    fleet_state_dir: Option<String>,
    resume: bool,
    fleet_retries: Option<u32>,
    fleet_fail: Vec<fleet::FailSpec>,
    shards: Option<ShardRange>,
    workers: usize,
    serve: Option<String>,
    serve_linger_secs: u64,
    speed: Speed,
    artifacts: Vec<ExperimentId>,
}

impl Plan {
    /// Walks `args` against [`FLAGS`] for `command`. An empty error asks
    /// for the usage alone (`-h`/`--help`).
    fn parse(command: Command, args: &[String]) -> Result<Plan, String> {
        let mut plan = Plan {
            command,
            given: Vec::new(),
            seed: 2002,
            hours: 24.0,
            full_week: false,
            csv_dir: None,
            progress: false,
            metrics_out: None,
            metrics_format: MetricsFormat::Combined,
            trace_out: None,
            series_out: None,
            series_interval_ms: 1000,
            profile_out: None,
            chaos: None,
            chaos_seed: None,
            fleet: None,
            fleet_minutes: 30,
            fleet_state_dir: None,
            resume: false,
            fleet_retries: None,
            fleet_fail: Vec::new(),
            shards: None,
            workers: 2,
            serve: None,
            serve_linger_secs: 0,
            speed: Speed::Max,
            artifacts: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "-h" || arg == "--help" {
                return Err(String::new());
            }
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                if arg.starts_with('-') {
                    return Err(format!("unknown option: {arg}"));
                }
                if command != Command::Run {
                    return Err(format!("unexpected argument: {arg}"));
                }
                plan.add_artifacts(arg)?;
                continue;
            };
            if flag.scope & command as u8 == 0 {
                return Err(format!("{} does not accept {}", command.name(), flag.name));
            }
            let value = match flag.value {
                "" => None,
                _ => Some(
                    args.next()
                        .ok_or_else(|| format!("{} needs {}", flag.name, flag.value))?,
                ),
            };
            plan.set(flag.name, value.map_or("", String::as_str))?;
            plan.given.push((flag, value.cloned()));
        }
        plan.validate()?;
        Ok(plan)
    }

    /// One artifact, or a group: `all`, `main` (tables I-III and figures
    /// 1-13) or `nat` (table IV and figures 14-15).
    fn add_artifacts(&mut self, name: &str) -> Result<(), String> {
        let all = ExperimentId::all();
        match name {
            "all" => self.artifacts = all,
            "main" => self
                .artifacts
                .extend(all.into_iter().filter(|a| a.needs_main_run())),
            "nat" => self
                .artifacts
                .extend(all.into_iter().filter(|a| a.needs_nat_run())),
            other => self.artifacts.push(other.parse()?),
        }
        Ok(())
    }

    /// Gives one flag its meaning, checking its value on its own.
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        match flag {
            "--seed" => self.seed = number(flag, v)?,
            "--hours" => {
                self.hours = number(flag, v)?;
                if !(self.hours.is_finite() && self.hours > 0.0) {
                    return Err("--hours must be finite and > 0".into());
                }
            }
            "--full-week" => self.full_week = true,
            "--csv" => self.csv_dir = Some(v.into()),
            "--progress" => self.progress = true,
            "--metrics-out" => self.metrics_out = Some(v.into()),
            "--metrics-format" => {
                self.metrics_format = match v {
                    "text" => MetricsFormat::Text,
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    _ => {
                        return Err(format!(
                            "unknown metrics format '{v}' (known: text, json, prom)"
                        ))
                    }
                }
            }
            "--trace-out" => self.trace_out = Some(v.into()),
            "--series-out" => self.series_out = Some(v.into()),
            "--series-interval" => self.series_interval_ms = positive(flag, v)?,
            "--profile-out" => self.profile_out = Some(v.into()),
            "--chaos" => {
                self.chaos = Some(chaos::by_name(v).ok_or_else(|| {
                    format!(
                        "unknown chaos profile '{v}' (known: {})",
                        chaos::names().join(", ")
                    )
                })?)
            }
            "--chaos-seed" => self.chaos_seed = Some(number(flag, v)?),
            "--fleet" => self.fleet = Some(positive(flag, v)?),
            "--fleet-minutes" => self.fleet_minutes = positive(flag, v)?,
            "--fleet-state-dir" => self.fleet_state_dir = Some(v.into()),
            "--resume" => self.resume = true,
            "--fleet-retries" => self.fleet_retries = Some(positive(flag, v)?),
            "--fleet-fail" => self.fleet_fail = parse_fail_plan(v)?,
            "--shards" => {
                self.shards = Some(
                    ShardRange::parse(v)
                        .ok_or_else(|| format!("bad --shards '{v}' (want LO:HI, HI > LO)"))?,
                )
            }
            "--workers" => self.workers = positive(flag, v)?,
            "--serve" => self.serve = Some(v.into()),
            "--serve-linger" => self.serve_linger_secs = number(flag, v)?,
            "--speed" => self.speed = v.parse()?,
            _ => return Err(format!("{flag} has no meaning in Plan::set")),
        }
        Ok(())
    }

    /// The cross-flag rules, checked once every flag is known.
    fn validate(&self) -> Result<(), String> {
        if self.command == Command::Run && self.artifacts.is_empty() && self.fleet.is_none() {
            return Err("no artifacts requested".into());
        }
        let command = self.command;
        let required = FLAGS.iter().filter(|f| f.required & command as u8 != 0);
        if let Some(flag) = required.into_iter().find(|f| !self.has(f.name)) {
            return Err(format!("{} requires {}", command.name(), flag.name));
        }
        const FLEET_ONLY: [&str; 4] = [
            "--fleet-state-dir",
            "--resume",
            "--fleet-retries",
            "--fleet-fail",
        ];
        if self.fleet.is_none() && FLEET_ONLY.iter().any(|f| self.has(f)) {
            return Err(format!("{} require --fleet", FLEET_ONLY.join("/")));
        }
        for (flag, needs) in [
            ("--resume", "--fleet-state-dir"),
            ("--serve-linger", "--serve"),
            ("--metrics-format", "--metrics-out"),
        ] {
            if self.has(flag) && !self.has(needs) {
                return Err(format!("{flag} requires {needs}"));
            }
        }
        Ok(())
    }

    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == flag)
    }

    /// The one fleet description `--fleet`, `fleet work` and `fleet
    /// coordinate` all build. Shard traffic is a pure function of (seed,
    /// shard index), so processes that build it independently agree.
    fn fleet_config(&self) -> Option<FleetConfig> {
        let mut config = FleetConfig::new("fleet", self.seed, self.fleet?, self.fleet_minutes);
        config.speed = self.speed;
        if let Some(attempts) = self.fleet_retries {
            config.retry.attempts = attempts;
        }
        config.fail_plan = self.fleet_fail.clone();
        config.profile = self.profile_enabled();
        Some(config)
    }

    /// `fleet work` argv for one range. The coordinator forwards every
    /// fleet flag it was given, so the worker builds the same fleet.
    fn worker_args(&self, range: ShardRange) -> Vec<String> {
        let mut args = vec!["fleet".into(), "work".into(), "--shards".into()];
        args.push(range.to_string());
        for (flag, value) in self.given.iter().filter(|(f, _)| f.scope & WORK != 0) {
            args.push(flag.name.into());
            args.extend(value.clone());
        }
        args
    }

    /// Profiling is on for `--profile-out` (files + table) and for
    /// `--serve` (the /profile endpoint); both are wall-domain-only
    /// consumers.
    fn profile_enabled(&self) -> bool {
        self.profile_out.is_some() || self.serve.is_some()
    }

    /// What this run reports, in order: its artifacts, then the fleet.
    fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.artifacts.iter().map(|id| id.to_string()).collect();
        if self.fleet.is_some() {
            labels.push("fleet".to_string());
        }
        labels
    }
}

fn number<T: FromStr<Err = E>, E: Display>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|e| format!("bad {flag} value '{v}': {e}"))
}

fn positive<T: FromStr<Err = E> + Default + PartialEq, E: Display>(
    flag: &str,
    v: &str,
) -> Result<T, String> {
    let n = number(flag, v)?;
    if n == T::default() {
        return Err(format!("{flag} must be > 0"));
    }
    Ok(n)
}

/// Parses `--fleet-fail SHARD:COUNT,...` — the deterministic fault plan
/// used by the crash-resume CI smoke and local resilience testing. A
/// COUNT of `forever` (or `u32::MAX`) makes the shard fail permanently;
/// `SHARD:stall=MS` instead makes the shard sleep MS wall-milliseconds
/// before each attempt (sim results unchanged), which is how the health
/// watchdog is exercised end to end.
fn parse_fail_plan(spec: &str) -> Result<Vec<fleet::FailSpec>, String> {
    let entry = |part: &str| -> Option<fleet::FailSpec> {
        let (shard, action) = part.split_once(':')?;
        let (failures, stall_ms) = match action.strip_prefix("stall=") {
            Some(ms) => (0, ms.parse().ok()?),
            None if action == "forever" => (u32::MAX, 0),
            None => (action.parse().ok()?, 0),
        };
        let shard = shard.parse().ok()?;
        Some(fleet::FailSpec {
            shard,
            failures,
            stall_ms,
        })
    };
    spec.split(',')
        .map(|part| {
            entry(part).ok_or_else(|| {
                format!(
                    "bad --fleet-fail entry '{part}' \
                     (want SHARD:COUNT, SHARD:forever or SHARD:stall=MS)"
                )
            })
        })
        .collect()
}

/// One world run's instruments, plus the progress reporter and series
/// sampler the caller finishes after the run.
type RunTelemetry = (
    WorldInstruments,
    Option<Rc<ProgressReporter>>,
    Option<Rc<RefCell<SeriesSampler>>>,
);

/// `base` with the run label spliced in before the extension:
/// `trace.json` + `main` -> `trace.main.json`.
fn per_run_path(base: &str, label: &str) -> String {
    let p = std::path::Path::new(base);
    match (
        p.file_stem().and_then(|s| s.to_str()),
        p.extension().and_then(|s| s.to_str()),
    ) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}.{label}.{ext}"))
            .display()
            .to_string(),
        _ => format!("{base}.{label}"),
    }
}

/// Writes one run's journal: Chrome trace-event JSON when the requested
/// file has a `.json` extension (open in Perfetto), JSONL otherwise.
fn write_journal(journal: &Journal, base: &str, label: &str) {
    let path = per_run_path(base, label);
    let data = if path.ends_with(".json") {
        journal.export_chrome_trace()
    } else {
        journal.export_jsonl()
    };
    let wrote = format!(
        "[trace] wrote {path} ({} events, {} dropped)",
        journal.len(),
        journal.dropped()
    );
    write_side_file(None, &path, data, wrote);
}

/// Flushes one run's series (adding the horizon row) and writes its CSV.
fn write_series(sampler: &RefCell<SeriesSampler>, dir: &str, label: &str, horizon_ns: u64) {
    let mut sampler = sampler.borrow_mut();
    sampler.finish(horizon_ns);
    let path = format!("{dir}/{label}.csv");
    let wrote = format!("[series] wrote {path} ({} samples)", sampler.len());
    write_side_file(Some(dir), &path, sampler.to_csv(), wrote);
}

/// Writes one side file, creating `dir` first when given, and says so on
/// stderr with `wrote`. A side file that cannot be written is a warning,
/// never a failed run.
fn write_side_file(dir: Option<&str>, path: &str, data: impl AsRef<[u8]>, wrote: String) {
    let created = dir.map_or(Ok(()), std::fs::create_dir_all);
    match created.and_then(|()| std::fs::write(path, data)) {
        Ok(()) => eprintln!("{wrote}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Exports one run's profiler self-observability as wall-flagged
/// `profile.*` instruments with HELP text. Counters accumulate across
/// runs (each run brings a fresh profile, so per-run totals add).
fn export_profile_metrics(registry: &MetricsRegistry, profile: &Profile) {
    registry
        .wall_gauge("profile.frames")
        .set(profile.frames() as i64);
    registry.describe("profile.frames", "distinct frames in the profile call tree");
    for (name, value, help) in [
        (
            "profile.enters",
            profile.enters(),
            "profiled span entries (wall domain)",
        ),
        (
            "profile.wall_ns",
            profile.total_wall_ns(),
            "wall time attributed to root profile frames",
        ),
        (
            "profile.dropped",
            profile.events_dropped(),
            "profile events dropped at the bounded ring capacity",
        ),
    ] {
        registry.wall_counter(name).add(value);
        registry.describe(name, help);
    }
}

/// One wall-clock phase row for `BENCH_repro.json` (single runs: median
/// == min).
fn phase(name: &str, secs: f64, rate_per_sec: Option<f64>) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        median_ns: secs * 1e9,
        min_ns: secs * 1e9,
        rate_per_sec,
    }
}

/// The serving plane for `--serve ADDR`: shared snapshot state plus the
/// broadcast bus every run's journal taps into. HTTP threads only ever
/// read rendered snapshots, so nothing a subscriber does can perturb the
/// simulation.
struct Serving {
    shared: Arc<ServeShared>,
    handle: ServeHandle,
}

/// Binds `--serve ADDR` (when given) and announces its endpoints.
fn bind_serve(addr: Option<&str>) -> Result<Option<Serving>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let shared = Arc::new(ServeShared::new(BroadcastBus::new()));
    let handle = csprov_serve::serve(addr, shared.clone())
        .map_err(|e| format!("could not bind --serve {addr}: {e}"))?;
    eprintln!(
        "[serve] listening on http://{} (/metrics /events /series /status /report \
         /healthz /shards /profile)",
        handle.addr()
    );
    Ok(Some(Serving { shared, handle }))
}

impl Serving {
    /// Winds the serving plane down: the terminal status, an optional
    /// linger window for late scrapers, then a clean shutdown that closes
    /// the bus so SSE streams end instead of hanging.
    fn close(mut self, linger_secs: u64) {
        self.shared.update_status(|s| s.state = "finished");
        if linger_secs > 0 {
            eprintln!("[serve] lingering {linger_secs} s before shutdown");
            std::thread::sleep(Duration::from_secs(linger_secs));
        }
        self.handle.shutdown();
    }
}

/// The health watchdog deadline behind `/shards`. It is wall-domain and
/// tunable because "stalled" is a property of the host, not the
/// simulation.
fn watchdog_ms() -> u64 {
    std::env::var("CSPROV_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(3000)
}

/// The provisioning report as every fleet path prints, serves and writes
/// it.
fn fleet_block(report: &ProvisioningReport) -> String {
    format!(
        "================ fleet ================\n{}\n{}\n",
        report.render().render(),
        report.sizing_line()
    )
}

fn fleet_horizon_ns(config: &FleetConfig) -> u64 {
    SimDuration::from_mins(config.minutes).as_nanos()
}

/// Narrates the fleet engine's execution-plane events on stderr under
/// `prefix`: `[fleet]` for the in-process run, `[worker]` for a `fleet
/// work` child. The canonical merge happens inside the engine, so none of
/// this affects the answer.
fn narrate_fleet(prefix: &str, ev: &FleetEvent<'_>) {
    match ev {
        FleetEvent::ShardDone {
            state,
            from_checkpoint: false,
            ..
        } => eprintln!("{prefix} shard {} done", state.shard),
        FleetEvent::ShardDone { .. } | FleetEvent::CheckpointWritten { .. } => {}
        FleetEvent::ShardRetry {
            shard,
            attempt,
            backoff_ns,
            message,
        } => eprintln!(
            "{prefix} shard {shard} attempt {attempt} failed ({message}); \
             retrying after {} ms simulated backoff",
            backoff_ns / 1_000_000
        ),
        FleetEvent::ShardLost {
            shard,
            attempts,
            message,
        } => eprintln!(
            "{prefix} shard {shard} LOST after {attempts} attempts ({message}); \
             report degrades to a lower bound"
        ),
        FleetEvent::CheckpointFailed { shard, message } => {
            eprintln!("{prefix} shard {shard} checkpoint write failed: {message}")
        }
        FleetEvent::ResumeLoaded { shard } => {
            eprintln!("{prefix} shard {shard} restored from checkpoint")
        }
        FleetEvent::ResumeInvalid { message } => {
            eprintln!("{prefix} ignoring invalid checkpoint: {message}")
        }
    }
}

/// Serving status and `RunStarted` for a run about to start; `shards` is
/// the fleet size, 0 for a world run.
fn serve_run_started(shared: &ServeShared, label: &str, horizon_ns: u64, shards: usize) {
    shared.update_status(|s| {
        s.state = "running";
        s.horizon_ns = horizon_ns;
        s.sim_ns = 0;
        s.shards_total = shards as u64;
        s.shards_done = 0;
    });
    shared.bus().publish(BusEvent::RunStarted {
        label: label.into(),
        horizon_ns,
    });
}

/// Final serving status and `RunFinished` for a run that executed
/// `events` (packets, for a fleet).
fn serve_run_finished(shared: &ServeShared, label: &str, horizon_ns: u64, events: u64) {
    shared.update_status(|s| {
        s.sim_ns = horizon_ns;
        s.events = events;
    });
    shared.bus().publish(BusEvent::RunFinished {
        label: label.into(),
        sim_ns: horizon_ns,
        events,
    });
}

/// Live serving update for one more finished shard — done in-process
/// (`--fleet`) or collected from a worker's checkpoint (`fleet
/// coordinate`): progress status, a bus trace event, and an interim report
/// over every shard finished so far.
fn serve_shard_done(
    shared: &ServeShared,
    config: &FleetConfig,
    done: &Mutex<Vec<ShardState>>,
    state: &ShardState,
) {
    let mut done = done.lock().unwrap_or_else(|e| e.into_inner());
    done.push(state.clone());
    let n = done.len() as u64;
    let sim_ns = fleet_horizon_ns(config) * n / config.servers as u64;
    shared.update_status(|s| {
        s.shards_done = n;
        s.sim_ns = sim_ns;
    });
    shared.bus().publish(BusEvent::Trace(TraceEvent {
        sim_ns,
        kind: "fleet.shard.done",
        key: state.shard as u64,
        value: n,
    }));
    if let Ok(report) = fleet::interim_report(config, &done) {
        shared.set_report(format!(
            "================ fleet (interim, {n}/{} shards) ================\n{}\n{}\n",
            config.servers,
            report.render().render(),
            report.sizing_line()
        ));
    }
}

/// Serving report, final status and `RunFinished` for a finished fleet.
fn serve_fleet_finished(shared: &ServeShared, config: &FleetConfig, run: &FleetRun) {
    shared.set_report(fleet_block(&run.report));
    shared.update_status(|s| s.shards_done = run.facility.shards as u64);
    let packets = run.facility.counts.total_packets();
    serve_run_finished(shared, "fleet", fleet_horizon_ns(config), packets);
}

/// The closing stderr lines of a fleet run: its size and wall time, and
/// the coverage warning when shards were lost.
fn narrate_fleet_done(prefix: &str, run: &FleetRun, secs: f64) {
    eprintln!(
        "{prefix} fleet done: {} packets across {} shards in {secs:.1} s wall",
        run.facility.counts.total_packets(),
        run.facility.shards,
    );
    let cov = &run.report.coverage;
    if cov.is_degraded() {
        eprintln!(
            "[fleet] DEGRADED: {}/{} shards merged; lost {:?}; \
             headline numbers are lower bounds",
            cov.merged, cov.configured, cov.lost
        );
    }
}

/// The state one main run shares across its world runs and its fleet: the
/// registry and serving plane they report into, and what accumulates.
struct Session<'a> {
    plan: &'a Plan,
    /// Backs the snapshot dump (`--metrics-out`), the sim-time series
    /// (`--series-out`), the live /metrics + /series endpoints, and
    /// span->profile framing (`--profile-out` needs spans to attribute
    /// tick/flush time, so it implies a registry).
    registry: Option<MetricsRegistry>,
    serve: Option<Arc<ServeShared>>,
    profile_total: Option<ProfileSnapshot>,
    /// Wall-clock phases, reported at exit in the same `[time]` format the
    /// per-artifact lines use and exported as `BENCH_repro.json` when
    /// `CSPROV_BENCH_OUT` is set.
    timings: Vec<BenchResult>,
    chaos_reports: Vec<ChaosReport>,
}

impl Session<'_> {
    /// Runs one world with every requested side channel attached, then
    /// finishes and writes them: journal (with the bus tap), profile,
    /// series, progress, serving status, and the timing row. `plain` runs
    /// the world with the instruments and registry; `chaotic` runs it
    /// under the `--chaos` campaign and seed instead. `events` reads the
    /// run's executed-event count. Also returns the wall seconds the whole
    /// run took.
    fn world<R>(
        &mut self,
        label: &'static str,
        horizon_ns: u64,
        events: fn(&R) -> u64,
        plain: impl FnOnce(WorldInstruments, Option<&MetricsRegistry>) -> R,
        chaotic: impl FnOnce(
            &ChaosSpec,
            u64,
            WorldInstruments,
            Option<&MetricsRegistry>,
        ) -> (R, ChaosReport),
    ) -> (R, f64) {
        let plan = self.plan;
        let t0 = Instant::now();
        let journal = self.journal();
        // A fresh profile per run (frame trees are per-run), attached to the
        // registry before the instruments are built: spans capture the
        // profile at creation time.
        let profile = plan.profile_enabled().then(Profile::new);
        if let (Some(profile), Some(registry)) = (&profile, &self.registry) {
            registry.attach_profile(Some(profile.clone()));
        }
        let (mut instruments, reporter, sampler) =
            self.instruments_for(label, horizon_ns, journal.clone());
        instruments.profile = profile.clone();
        if let Some(shared) = &self.serve {
            serve_run_started(shared, label, horizon_ns, 0);
        }
        let registry = self.registry.as_ref();
        let result = match &plan.chaos {
            Some(spec) => {
                let seed = plan.chaos_seed.unwrap_or(plan.seed);
                eprintln!("[run] chaos profile '{}' (chaos-seed {seed})", spec.name);
                let (result, report) = chaotic(spec, seed, instruments, registry);
                self.chaos_reports.push(report);
                result
            }
            None => plain(instruments, registry),
        };
        let events = events(&result);
        if let Some(reporter) = reporter {
            reporter.finish(horizon_ns, events);
        }
        if let (Some(journal), Some(base)) = (&journal, &plan.trace_out) {
            write_journal(journal, base, label);
        }
        if let (Some(sampler), Some(dir)) = (&sampler, &plan.series_out) {
            write_series(sampler, dir, label, horizon_ns);
        }
        if let Some(profile) = &profile {
            self.finish_profile(profile, label, journal.as_ref());
            self.absorb_profile(&profile.snapshot());
        }
        // End-of-run refresh for the serving plane: a closing series row
        // (unless `--series-out` already flushed one), fresh `/metrics` +
        // `/series` snapshots, the final status and the run-finished event.
        if let Some(shared) = &self.serve {
            shared.update_status(|s| s.lag_ns = 0);
            if let Some(sampler) = &sampler {
                if plan.series_out.is_none() {
                    sampler.borrow_mut().finish(horizon_ns);
                }
                shared.set_series(sampler.borrow().to_csv());
            }
            if let Some(registry) = &self.registry {
                shared.export_metrics(registry);
                shared.set_metrics(registry.render_prometheus());
            }
            serve_run_finished(shared, label, horizon_ns, events);
        }
        let secs = t0.elapsed().as_secs_f64();
        let rate = events as f64 / secs.max(1e-9);
        self.timings
            .push(phase(&format!("{label}_run"), secs, Some(rate)));
        (result, secs)
    }

    /// Builds the observe-only side channels for one world run: metric
    /// handles registered against the registry (when one exists), the
    /// run's event journal, a wall-clock pacer (`--speed`), and a kernel
    /// observer driving a [`ProgressReporter`] (`--progress`), a
    /// [`SeriesSampler`] (`--series-out`/`--serve`) and the live snapshot
    /// refresh (`--serve`) — all sharing the one observer slot and stride.
    fn instruments_for(
        &self,
        label: &'static str,
        horizon_ns: u64,
        journal: Option<Journal>,
    ) -> RunTelemetry {
        let plan = self.plan;
        let registry = self.registry.as_ref();
        let serve = self.serve.clone();
        let speed = plan.speed;
        let mut instruments = WorldInstruments::default();
        if let Some(registry) = registry {
            instruments.metrics = Some(GameMetrics::register(registry));
            instruments.link_metrics = Some(LinkMetrics::register(registry));
        }
        instruments.journal = journal.clone();
        let pacer_stats: Option<Arc<PacerStats>> = speed.is_paced().then(|| {
            let pacer = Pacer::new(speed);
            let stats = pacer.stats();
            instruments.pacer = Some(pacer);
            stats
        });
        let reporter = plan
            .progress
            .then(|| Rc::new(ProgressReporter::new(label, Some(horizon_ns))));
        let sampler = registry
            .filter(|_| plan.series_out.is_some() || serve.is_some())
            .map(|registry| {
                let interval_ns = plan.series_interval_ms * 1_000_000;
                Rc::new(RefCell::new(SeriesSampler::new(
                    registry.clone(),
                    interval_ns,
                )))
            });
        if reporter.is_some() || sampler.is_some() || serve.is_some() {
            let reporter_cb = reporter.clone();
            let sampler_cb = sampler.clone();
            let registry_cb = registry.cloned();
            let last_refresh = Cell::new(Instant::now());
            // The sampler needs to see the sim clock often enough to hit its
            // interval boundaries; the progress reporter rate-limits itself on
            // wall time, so the finer stride costs only the callback dispatch.
            let stride = if sampler.is_some() {
                OBSERVER_STRIDE / 8
            } else {
                OBSERVER_STRIDE
            };
            instruments.observer = Some((
                stride,
                Box::new(move |sim: &Simulator| {
                    if let Some(reporter) = &reporter_cb {
                        reporter.maybe_report(
                            sim.now().as_nanos(),
                            sim.events_executed(),
                            sim.pending_events(),
                        );
                    }
                    if let Some(sampler) = &sampler_cb {
                        sampler.borrow_mut().observe(sim.now().as_nanos());
                    }
                    // Live snapshot refresh: render the (single-threaded)
                    // registry and sampler here on the sim thread and swap the
                    // strings into the shared state. Wall-rate-limited so a
                    // max-speed run spends its time simulating, not rendering.
                    if let Some(serve) = &serve {
                        let now = Instant::now();
                        if now.duration_since(last_refresh.get()) >= SERVE_REFRESH {
                            last_refresh.set(now);
                            let sim_ns = sim.now().as_nanos();
                            let events = sim.events_executed();
                            let lag_ns = pacer_stats.as_ref().map_or(0, |s| s.lag_ns());
                            let journal_dropped = journal.as_ref().map_or(0, Journal::dropped);
                            serve.update_status(|s| {
                                s.sim_ns = sim_ns;
                                s.events = events;
                                s.lag_ns = lag_ns;
                                s.journal_dropped = journal_dropped;
                            });
                            if let Some(registry) = &registry_cb {
                                serve.export_metrics(registry);
                                serve.set_metrics(registry.render_prometheus());
                            }
                            if let Some(sampler) = &sampler_cb {
                                serve.set_series(sampler.borrow().to_csv());
                            }
                        }
                    }
                }),
            ));
        }
        (instruments, reporter, sampler)
    }

    /// Finishes one run's profile: detaches it from the registry, exports
    /// the `profile.*` wall counters, writes the collapsed-stack and merged
    /// Chrome-trace views (`--profile-out`); the caller folds the snapshot
    /// into the cross-run cumulative.
    /// Everything here is wall-domain — stderr and side files only, so the
    /// byte-identity of stdout and determinism artifacts is untouched.
    fn finish_profile(&self, profile: &Profile, label: &str, journal: Option<&Journal>) {
        if let Some(registry) = &self.registry {
            registry.attach_profile(None);
            export_profile_metrics(registry, profile);
        }
        if let Some(dir) = &self.plan.profile_out {
            let path = format!("{dir}/{label}.folded");
            let wrote = format!(
                "[profile] wrote {path} ({} frames, {} enters)",
                profile.frames(),
                profile.enters()
            );
            write_side_file(Some(dir), &path, profile.render_folded(), wrote);
            if let Some(journal) = journal {
                let path = format!("{dir}/{label}.trace.json");
                let data = journal.export_chrome_trace_with(&profile.chrome_rows(2));
                let wrote = format!("[profile] wrote {path} (journal + profile spans)");
                write_side_file(None, &path, data, wrote);
            }
        }
    }

    /// A journal for one run when `--trace-out` or `--serve` wants one,
    /// tapped into the serving bus.
    fn journal(&self) -> Option<Journal> {
        let journal = (self.plan.trace_out.is_some() || self.serve.is_some()).then(Journal::new);
        if let (Some(journal), Some(shared)) = (&journal, &self.serve) {
            journal.set_tap(shared.bus().clone());
        }
        journal
    }

    /// Folds a run's profile into the cross-run cumulative behind the
    /// ranked table and `/profile`.
    fn absorb_profile(&mut self, snap: &ProfileSnapshot) {
        match &mut self.profile_total {
            Some(total) => total.absorb(snap),
            None => self.profile_total = Some(snap.clone()),
        }
        if let (Some(shared), Some(total)) = (&self.serve, &self.profile_total) {
            shared.set_profile(total.render_table());
        }
    }

    /// `--fleet N`: the in-process facility on the work-stealing pool, its
    /// provisioning report on stdout, and its side channels.
    fn fleet(&mut self, mut config: FleetConfig) -> Result<(), String> {
        let plan = self.plan;
        eprintln!(
            "[run] fleet: {} servers x {} simulated min (seed {})...",
            config.servers, config.minutes, config.seed
        );
        let t0 = Instant::now();
        // The health board behind /shards: every shard runs in this
        // process and publishes its heartbeat records to it directly.
        let board = self.serve.as_ref().map(|shared| {
            let board = Arc::new(ShardHealthBoard::new(
                config.servers,
                Duration::from_millis(watchdog_ms()),
            ));
            shared.set_board(board.clone());
            board
        });
        config.health = board.clone();
        let persistence = match (&plan.fleet_state_dir, plan.resume) {
            (Some(dir), true) => fleet::FleetPersistence::resume_from(dir),
            (Some(dir), false) => fleet::FleetPersistence::checkpoint_to(dir),
            (None, _) => fleet::FleetPersistence::none(),
        };
        if let Some(shared) = &self.serve {
            serve_run_started(shared, "fleet", fleet_horizon_ns(&config), config.servers);
        }
        let partial = Mutex::new(Vec::new());
        let serve = &self.serve;
        let on_event = |ev: &FleetEvent<'_>| {
            narrate_fleet("[fleet]", ev);
            if let (FleetEvent::ShardDone { state, .. }, Some(shared)) = (ev, serve) {
                serve_shard_done(shared, &config, &partial, state);
            }
        };
        let result = fleet::run_fleet_full(&config, &persistence, Some(&on_event));
        let run = result.map_err(|e| format!("fleet run failed: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        print!("\n{}", fleet_block(&run.report));
        if let Some(registry) = &self.registry {
            run.export_metrics(registry);
            if let Some(board) = &board {
                board.export_metrics(registry);
            }
        }
        if let Some(snap) = &run.profile {
            if let Some(dir) = &plan.profile_out {
                let path = format!("{dir}/fleet.folded");
                let wrote = format!("[profile] wrote {path} ({} frames)", snap.entries().len());
                write_side_file(Some(dir), &path, snap.render_folded(), wrote);
            }
            self.absorb_profile(snap);
        }
        if let Some(journal) = self.journal() {
            run.emit_journal(&journal);
            if let Some(base) = &plan.trace_out {
                write_journal(&journal, base, "fleet");
            }
        }
        if let Some(shared) = &self.serve {
            serve_fleet_finished(shared, &config, &run);
        }
        narrate_fleet_done("[run]", &run, secs);
        let p = &run.persist;
        if p.checkpoints_written + p.resumed + p.invalid_checkpoints > 0 {
            eprintln!(
                "[fleet] persistence: {} checkpoints written, {} shards resumed, \
                 {} invalid checkpoints recomputed",
                p.checkpoints_written, p.resumed, p.invalid_checkpoints
            );
        }
        eprintln!("[time] fleet: {secs:.3} s wall");
        let rate = run.facility.counts.total_packets() as f64 / secs.max(1e-9);
        self.timings.push(phase("fleet", secs, Some(rate)));
        Ok(())
    }
}

/// Figures 1-13, in order; all render from the main run.
const MAIN_FIGURES: [fn(&MainRun) -> String; 13] = [
    figures::fig1,
    figures::fig2,
    figures::fig3,
    figures::fig4,
    figures::fig5,
    figures::fig6,
    figures::fig7,
    figures::fig8,
    figures::fig9,
    figures::fig10,
    figures::fig11,
    figures::fig12,
    figures::fig13,
];

/// The world runs one invocation performed. `run` performs every world
/// run its artifacts need, so an artifact always finds its run here.
struct Runs {
    main: Option<MainRun>,
    nat: Option<NatRun>,
}

impl Runs {
    fn main(&self) -> &MainRun {
        self.main
            .as_ref()
            .expect("main-run artifacts schedule the main run")
    }

    fn nat(&self) -> &NatRun {
        self.nat
            .as_ref()
            .expect("NAT artifacts schedule the NAT run")
    }
}

/// Renders one artifact from the world run it needs.
fn render_artifact(id: ExperimentId, runs: &Runs, seed: u64) -> String {
    match id {
        ExperimentId::Table1 => tables::table1(runs.main()).render(),
        ExperimentId::Table2 => tables::table2(runs.main()).render(),
        ExperimentId::Table3 => tables::table3(runs.main()).render(),
        ExperimentId::Table4 => tables::table4(runs.nat()).render(),
        ExperimentId::Fig(n) => MAIN_FIGURES[usize::from(n) - 1](runs.main()),
        ExperimentId::Fig14 => figures::fig14(runs.nat()),
        ExperimentId::Fig15 => figures::fig15(runs.nat()),
        ExperimentId::AblateTick => ablations::ablate_tick(seed, 20).render(),
        ExperimentId::AblatePopulation => ablations::ablate_population(seed, 240).render(),
        ExperimentId::AblateNatCapacity => ablations::ablate_nat_capacity(seed).render(),
        ExperimentId::AblateNatBuffer => ablations::ablate_nat_buffer(seed).render(),
        ExperimentId::RouteCache => ablations::route_cache_experiment(seed).render(),
        ExperimentId::SourceModel => ablations::source_model_experiment(seed, 30).render(),
        ExperimentId::WebVsGame => web::web_vs_game(seed).render(),
        ExperimentId::AblateLinkMix => ablations::ablate_link_mix(seed, 20).render(),
        ExperimentId::AggregateServers => aggregate::aggregate_servers(seed, 120).render(),
    }
}

/// `--csv DIR`: the data series behind the key figures, as
/// `DIR/<figure>.csv` (announced on stdout).
fn write_artifact_csv(dir: &str, id: ExperimentId, runs: &Runs) {
    let (headers, cols): (&[&str], Vec<Vec<f64>>) = match id {
        ExperimentId::Fig(1) | ExperimentId::Fig(2) => {
            let series = &runs.main().analysis.per_minute;
            let minutes = (0..series.bins().len()).map(|i| i as f64).collect();
            (
                &["minute", "kbps", "pps"],
                vec![minutes, series.kbps(), series.pps()],
            )
        }
        ExperimentId::Fig(5) => {
            let pts = runs.main().analysis.variance_time.points();
            let xs = pts.iter().map(|p| p.log_block()).collect();
            let ys = pts.iter().map(|p| p.log_variance()).collect();
            (&["log10_block", "log10_norm_var"], vec![xs, ys])
        }
        ExperimentId::Fig(6) => (&["pps"], vec![runs.main().analysis.ms10_total.pps()]),
        ExperimentId::Fig(9) => (&["pps"], vec![runs.main().analysis.sec1_total.pps()]),
        ExperimentId::Fig14 => {
            let r = runs.nat();
            let cols = vec![r.clients_to_nat.pps(), r.nat_to_server.pps()];
            (&["clients_to_nat_pps", "nat_to_server_pps"], cols)
        }
        ExperimentId::Fig15 => {
            let r = runs.nat();
            let cols = vec![r.server_to_nat.pps(), r.nat_to_clients.pps()];
            (&["server_to_nat_pps", "nat_to_clients_pps"], cols)
        }
        _ => return,
    };
    let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    let path = format!("{dir}/{id}.csv");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, to_csv(headers, &cols))) {
        Ok(()) => println!("[csv] wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// `--metrics-out` in the requested format.
fn render_metrics(registry: &MetricsRegistry, format: MetricsFormat, labels: &[String]) -> String {
    match format {
        MetricsFormat::Combined => {
            let mut out = String::new();
            for label in labels {
                out += &format!("# ==== {label} ====\n");
                for line in registry.render_deterministic().lines() {
                    out += &format!("# {line}\n");
                }
                out += &registry.render_jsonl(label);
            }
            out
        }
        MetricsFormat::Text => {
            // Deterministic section first (byte-stable per seed), then the
            // wall section (span wall histograms with p50/p95/p99,
            // profile.*, shard.*, serve.*) under a comment fence so
            // consumers can split them apart.
            let mut out = registry.render_deterministic();
            let wall = registry.render_wall();
            if !wall.is_empty() {
                out.push_str("# ---- wall (host-dependent) ----\n");
                out.push_str(&wall);
            }
            out
        }
        MetricsFormat::Json => labels.iter().map(|l| registry.render_jsonl(l)).collect(),
        MetricsFormat::Prom => registry.render_prometheus(),
    }
}

/// `repro fleet merge OUT_REPORT STATE_FILE...` — the multi-process
/// provisioning path: folds shard checkpoint files (written by
/// independent `--fleet-state-dir` runs or machines) through the same
/// typed merge layer the in-process fleet uses, and writes the rendered
/// provisioning report. Files stream through one accumulator in shard
/// order, so merging 10k+ states never holds more than one decoded
/// state at a time.
fn fleet_merge_command(args: &[String]) -> Result<(), String> {
    let [out, _, ..] = args else {
        return Err(format!(
            "fleet merge needs a report path and state files\nusage: {MERGE_USAGE}"
        ));
    };
    let paths: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
    // The report header's run length comes from the first shard's recorded
    // duration (every shard of one fleet runs the same horizon).
    let first = |path: &PathBuf| -> Result<SimDuration, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let state = fleet::persist::decode_shard_state(&bytes).map_err(|e| e.to_string())?;
        Ok(state.duration)
    };
    let duration = first(&paths[0]).map_err(|e| format!("{}: {e}", paths[0].display()))?;
    let minutes = duration.as_secs() / 60;
    let (facility, shards) = fleet::persist::merge_state_files(&paths)
        .map_err(|e| format!("fleet merge failed: {e}"))?;
    let config = FleetConfig::new("fleet", 0, facility.shards, minutes.max(1));
    let run = FleetRun::settle(&config, (facility, shards), Vec::new(), 0, 0)
        .map_err(|e| format!("fleet merge report failed: {e}"))?;
    let text = fleet_block(&run.report);
    std::fs::write(out, &text).map_err(|e| format!("could not write {out}: {e}"))?;
    eprintln!(
        "[merge] folded {} state files into {out} ({} packets)",
        paths.len(),
        run.facility.counts.total_packets()
    );
    print!("{text}");
    Ok(())
}

/// `repro fleet work --shards LO:HI ...` — the worker half of the
/// coordinator/worker protocol: executes one assigned shard range against
/// the shared state directory, writing checkpoints and heartbeat sidecars
/// the coordinator watches. Narrates to stderr only (stdout belongs to
/// the coordinator's report). Exits 0 even when shards were lost after
/// exhausting retries — loss is coverage accounting, not a worker crash.
fn fleet_work_command(plan: &Plan) -> Result<(), String> {
    let (Some(config), Some(range), Some(dir)) =
        (plan.fleet_config(), plan.shards, &plan.fleet_state_dir)
    else {
        unreachable!("validated: fleet work requires --fleet, --shards and --fleet-state-dir");
    };
    eprintln!(
        "[worker] shards {range} of a {}-shard fleet (seed {}, state dir {dir})",
        config.servers, config.seed,
    );
    let t0 = Instant::now();
    let on_event = |ev: &FleetEvent<'_>| narrate_fleet("[worker]", ev);
    let summary = fleet::coord::run_worker_range(&config, range, dir.as_ref(), Some(&on_event))
        .map_err(|e| format!("fleet work failed: {e}"))?;
    eprintln!(
        "[worker] range {range} finished in {:.1} s wall: {} done, {} resumed, \
         {} lost, {} retries",
        t0.elapsed().as_secs_f64(),
        summary.done.len(),
        summary.resumed.len(),
        summary.lost.len(),
        summary.retries
    );
    Ok(())
}

/// A spawned `repro fleet work` child as a pollable coordinator handle.
struct ProcessWorker {
    child: std::process::Child,
}

impl fleet::coord::WorkerHandle for ProcessWorker {
    fn try_status(&mut self) -> Option<Result<(), String>> {
        match self.child.try_wait() {
            Ok(None) => None,
            Ok(Some(status)) if status.success() => Some(Ok(())),
            Ok(Some(status)) => Some(Err(status.to_string())),
            Err(e) => Some(Err(e.to_string())),
        }
    }
}

/// `repro fleet coordinate ...` — plans shard ranges, spawns `repro fleet
/// work` children against the shared state directory, watches their
/// heartbeat sidecars and exits, re-dispatches ranges of killed workers,
/// folds the collected checkpoints as `fleet merge` does, and prints the
/// same byte-identical report as an in-process `--fleet` run. With
/// `--serve`, `/shards` and `/report` watch a fleet this process never
/// executes — the board is fed from the workers' sidecars plus the
/// coordinator's own records for the shards it collects or abandons.
fn fleet_coordinate_command(plan: &Plan) -> Result<(), String> {
    let (Some(mut config), Some(dir)) = (plan.fleet_config(), &plan.fleet_state_dir) else {
        unreachable!("validated: fleet coordinate requires --fleet and --fleet-state-dir");
    };
    let board = Arc::new(ShardHealthBoard::new(
        config.servers,
        Duration::from_millis(watchdog_ms()),
    ));
    config.health = Some(board.clone());

    // The optional serving plane: this process executes nothing, so every
    // document it serves is assembled from observation — `/shards` from
    // sidecar records aged by mtime, `/report` from checkpoints collected
    // so far.
    let serving = bind_serve(plan.serve.as_deref())?;
    let serve = serving.as_ref().map(|s| &s.shared);
    if let Some(shared) = serve {
        shared.set_board(board.clone());
        shared.update_status(|s| {
            s.mode = "coordinate";
            s.label = "fleet".to_string();
            s.seed = config.seed;
        });
        serve_run_started(shared, "fleet", fleet_horizon_ns(&config), config.servers);
    }

    eprintln!(
        "[coord] fleet: {} servers x {} simulated min (seed {}), {} workers, \
         state dir {dir}",
        config.servers, config.minutes, config.seed, plan.workers,
    );
    let t0 = Instant::now();
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable to spawn workers: {e}"))?;
    let launch = |worker: usize, range: ShardRange| {
        std::process::Command::new(&exe)
            .args(plan.worker_args(range))
            // Worker stdout is the coordinator's: only the coordinator may
            // print to it (the report must stay byte-identical to --fleet).
            .stdout(std::process::Stdio::null())
            .spawn()
            .map(|child| ProcessWorker { child })
            .map_err(|e| format!("spawn worker {worker}: {e}"))
    };
    let partial = Mutex::new(Vec::new());
    let on_event = |ev: &CoordEvent<'_>| match ev {
        CoordEvent::WorkerLaunched {
            worker,
            range,
            attempt,
        } => eprintln!("[coord] worker {worker} launched for shards {range} (attempt {attempt})"),
        CoordEvent::WorkerExited {
            worker,
            range,
            clean,
            detail,
        } => {
            if *clean {
                eprintln!("[coord] worker {worker} finished shards {range}");
            } else {
                eprintln!("[coord] worker {worker} died on shards {range} ({detail})");
            }
        }
        CoordEvent::RangeRedispatched {
            worker,
            range,
            attempt,
        } => eprintln!(
            "[coord] re-dispatching shards {range} of worker {worker} (attempt {attempt})"
        ),
        CoordEvent::RangeLost {
            worker,
            range,
            shards,
            message,
        } => eprintln!(
            "[coord] shards {shards:?} of worker {worker} (range {range}) LOST ({message}); \
             report degrades to a lower bound"
        ),
        CoordEvent::ShardCollected { shard, state } => {
            eprintln!("[coord] shard {shard} collected");
            if let Some(shared) = serve {
                serve_shard_done(shared, &config, &partial, state);
            }
        }
    };
    let coord_opts = fleet::coord::CoordOptions {
        workers: plan.workers,
        ..fleet::coord::CoordOptions::default()
    };
    let run = fleet::coord::coordinate(&config, dir.as_ref(), &coord_opts, launch, Some(&on_event))
        .map_err(|e| format!("fleet coordinate failed: {e}"))?;
    print!("\n{}", fleet_block(&run.report));
    narrate_fleet_done("[coord]", &run, t0.elapsed().as_secs_f64());
    if let Some(serving) = serving {
        serve_fleet_finished(&serving.shared, &config, &run);
        serving.close(plan.serve_linger_secs);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = match argv.iter().map(String::as_str).take(2).collect::<Vec<_>>()[..] {
        ["fleet", "merge"] => return exit(fleet_merge_command(&argv[2..])),
        ["fleet", "work"] => (Command::Work, &argv[2..]),
        ["fleet", "coordinate"] => (Command::Coordinate, &argv[2..]),
        _ => (Command::Run, &argv[..]),
    };
    let plan = match Plan::parse(command, args) {
        Ok(plan) => plan,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprint!("{}", usage(command));
            return ExitCode::FAILURE;
        }
    };
    exit(match command {
        Command::Run => run(&plan),
        Command::Work => fleet_work_command(&plan),
        Command::Coordinate => fleet_coordinate_command(&plan),
    })
}

fn exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The main run: the world runs its artifacts need, the artifacts
/// themselves, the fleet, and every requested side channel.
fn run(plan: &Plan) -> Result<(), String> {
    let duration = if plan.full_week {
        SimDuration::from_secs(PAPER_TRACE_SECS)
    } else {
        SimDuration::from_secs_f64(plan.hours * 3600.0)
    };
    let serving = bind_serve(plan.serve.as_deref())?;
    let mut session = Session {
        plan,
        registry: (plan.metrics_out.is_some()
            || plan.series_out.is_some()
            || plan.profile_enabled())
        .then(MetricsRegistry::new),
        serve: serving.as_ref().map(|s| s.shared.clone()),
        profile_total: None,
        timings: Vec::new(),
        chaos_reports: Vec::new(),
    };
    if let Some(shared) = &session.serve {
        shared.update_status(|s| {
            s.seed = plan.seed;
            s.speed = plan.speed.to_string();
            s.label = plan.labels().join(",");
        });
    }
    let total_t0 = Instant::now();

    let main = plan.artifacts.iter().any(|a| a.needs_main_run()).then(|| {
        eprintln!(
            "[run] simulating {:.1} h of server traffic (seed {})...",
            duration.as_secs_f64() / 3600.0,
            plan.seed
        );
        let scenario = || ScenarioConfig::scaled(plan.seed, duration);
        let (run, secs) = session.world(
            "main",
            duration.as_nanos(),
            |r: &MainRun| r.outcome.events_executed,
            |inst, reg| MainRun::execute_instrumented(scenario(), inst, reg),
            |spec, seed, inst, reg| chaos::run_chaos_main(spec, scenario(), seed, inst, reg),
        );
        eprintln!(
            "[run] done: {} packets in {:.1} s wall ({} events)",
            run.analysis.counts.total_packets(),
            secs,
            run.outcome.events_executed
        );
        run
    });
    let nat = plan.artifacts.iter().any(|a| a.needs_nat_run()).then(|| {
        eprintln!("[run] NAT experiment: one 30-minute map through the device...");
        let horizon_ns = SimDuration::from_mins(30).as_nanos();
        let engine = EngineConfig::default;
        let (run, _) = session.world(
            "nat",
            horizon_ns,
            |r: &NatRun| r.outcome.events_executed,
            |inst, reg| nat::run_nat_experiment_instrumented(plan.seed, engine(), inst, reg),
            |spec, seed, inst, reg| {
                nat::run_nat_experiment_chaos(plan.seed, engine(), spec, seed, inst, reg)
            },
        );
        run
    });

    let runs = Runs { main, nat };
    for &id in &plan.artifacts {
        let t0 = Instant::now();
        println!("\n================ {id} ================");
        let out = render_artifact(id, &runs, plan.seed);
        println!("{out}");
        if let Some(shared) = &session.serve {
            shared.append_report(&format!(
                "\n================ {id} ================\n{out}\n"
            ));
        }
        if let Some(dir) = &plan.csv_dir {
            write_artifact_csv(dir, id, &runs);
        }
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("[time] {id}: {secs:.3} s wall");
        session.timings.push(phase(&id.to_string(), secs, None));
    }

    if let Some(config) = plan.fleet_config() {
        session.fleet(config)?;
    }

    for report in &session.chaos_reports {
        println!("\n================ chaos ================");
        println!("{}", report.render());
    }

    // The cumulative wall-time attribution across every run this
    // invocation performed, ranked by self time. Stderr, not stdout —
    // wall timings must never contaminate the determinism artifacts.
    if let Some(total) = &session.profile_total {
        eprintln!("[profile] wall-time attribution (self-time ranked):");
        for line in total.render_table().lines() {
            eprintln!("  {line}");
        }
    }

    let total_secs = total_t0.elapsed().as_secs_f64();
    eprintln!("[time] total: {total_secs:.3} s wall");
    session.timings.push(phase("total", total_secs, None));
    if let Some(dir) = std::env::var("CSPROV_BENCH_OUT")
        .ok()
        .filter(|d| !d.is_empty())
    {
        let path = std::path::Path::new(&dir).join("BENCH_repro.json");
        let path = path.display().to_string();
        let json = render_bench_json("repro", &session.timings);
        write_side_file(None, &path, json, format!("[bench] wrote {path}"));
    }

    if let (Some(path), Some(registry)) = (&plan.metrics_out, &session.registry) {
        let out = render_metrics(registry, plan.metrics_format, &plan.labels());
        std::fs::write(path, out).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("[metrics] wrote {path} ({} instruments)", registry.len());
    }

    if let Some(serving) = serving {
        if let Some(registry) = &session.registry {
            serving.shared.export_metrics(registry);
            serving.shared.set_metrics(registry.render_prometheus());
        }
        serving.close(plan.serve_linger_secs);
    }
    Ok(())
}
