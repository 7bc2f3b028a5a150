//! The csprov benchmark: one command runs a named workload with a given
//! seed, checks the program's outputs and prints every metric by name and
//! unit, the last line being one JSON object. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

pub mod alloc;
pub mod oracle;
pub mod sha256;
pub mod span;
pub mod stats;
pub mod tap;
pub mod workloads;

use oracle::Checks;
use span::{Collected, Name};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Iteration, Workload};

/// The program's default seed, whose artifact digests are committed.
pub const CANONICAL_SEED: u64 = 2002;
/// A second committed seed, kept out of tuning.
pub const HELD_OUT_SEED: u64 = 8675309;
/// Where runs write their files, relative to the working directory.
const OUT_DIR: &str = ".csbench_out";

const USAGE: &str = "usage: csbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: main_trace nat_map fleet_facility main_observed";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Seed of iteration `i`: the given seed first, then a fixed sequence
/// derived from it, so a run's figures span many scenarios and the same
/// seed always yields the same inputs.
pub fn iteration_seed(seed: u64, i: u32) -> u64 {
    if i == 0 {
        return seed;
    }
    // splitmix64 of (seed, i)
    let mut z = seed ^ u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as printed.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the end-to-end metrics need from one untraced iteration.
struct Timing {
    wall_ns: u64,
    setup_ns: u64,
    packets: u64,
    tick_p50_ns: f64,
    tick_p99_ns: f64,
    tick_samples: u64,
    tick_beyond_p99: u64,
}

impl Timing {
    /// Summarises an iteration, using `ticks` as scratch.
    fn of(it: &Iteration, ticks: &mut stats::GapHistogram) -> Timing {
        ticks.clear();
        for &g in &it.tick_gaps_ns {
            ticks.record(g);
        }
        let (tick_p50_ns, _) = ticks.percentile(50.0);
        let (tick_p99_ns, tick_beyond_p99) = ticks.percentile(99.0);
        Timing {
            wall_ns: it.wall_ns,
            setup_ns: it.setup_ns,
            packets: it.stats.packets,
            tick_p50_ns,
            tick_p99_ns,
            tick_samples: ticks.len(),
            tick_beyond_p99,
        }
    }
}

/// The end-to-end metrics of a run.
///
/// The host's speed switches between a fast and a slow state in phases of
/// seconds (see README), so per-iteration times are bimodal. A median over
/// iterations jumps between the two modes as the share of slow phases
/// crosses one half, while a mean moves in proportion to it. So the
/// workload timings are run means: `wall_s` is the mean iteration wall,
/// `packets_per_s` is all packets over all wall time, and the tick
/// percentiles are each iteration's percentile, averaged. `setup_s`, a
/// few tens of microseconds, is a median over iterations.
fn end_to_end(timings: &[Timing], peak_rss: f64) -> Vec<Metric> {
    let n = timings.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Timing) -> f64| timings.iter().map(f).sum::<f64>() / n;
    let wall: u64 = timings.iter().map(|t| t.wall_ns).sum();
    let packets: u64 = timings.iter().map(|t| t.packets).sum();
    let setups: Vec<f64> = timings.iter().map(|t| secs(t.setup_ns)).collect();
    vec![
        m("setup_s", "s", stats::median(&setups)),
        m("wall_s", "s", mean(&|t| secs(t.wall_ns))),
        m(
            "packets_per_s",
            "packets/s",
            ratio(packets as f64, secs(wall)),
        ),
        m("tick_host_us.p50", "us", mean(&|t| t.tick_p50_ns) / 1e3),
        m("tick_host_us.p99", "us", mean(&|t| t.tick_p99_ns) / 1e3),
        m("peak_rss_mb", "MiB", peak_rss),
    ]
}

/// Per-layer metric names and units, in print order; `layer_values`
/// yields one value per entry except `trace.overhead`, added last.
const PER_LAYER: [(&str, &str); 28] = [
    ("world.self_s", "s"),
    ("world.ns_per_packet", "ns"),
    ("world.allocs_per_packet", "allocs/packet"),
    ("sim.events_per_packet", "events/packet"),
    ("sim.queue_high_water", "events"),
    ("analysis.ingest_packet.ns_per_record", "ns"),
    ("analysis.ingest_batch.ns_per_record", "ns"),
    ("analysis.ingest.self_s", "s"),
    ("analysis.ingest.uniform_share", "ratio"),
    ("analysis.ingest.allocs", "count"),
    ("analysis.fold_s", "s"),
    ("experiments.render_s", "s"),
    ("router.forward.self_s", "s"),
    ("router.forward.ns_per_packet", "ns"),
    ("router.forward.allocs_per_packet", "allocs/packet"),
    ("fleet.shard_s.p50", "s"),
    ("fleet.shard_s.max", "s"),
    ("fleet.idle_share", "ratio"),
    ("fleet.merge_s", "s"),
    ("fleet.report_s", "s"),
    ("persist.write_s", "s"),
    ("persist.read_s", "s"),
    ("persist.bytes_per_shard", "bytes"),
    ("obs.write_s", "s"),
    ("obs.bytes_written", "bytes"),
    ("obs.journal.dropped", "count"),
    ("tick_host_us.samples", "count"),
    ("trace.overhead", "ratio"),
];

/// One traced iteration's per-layer values, in `PER_LAYER` order (without
/// `trace.overhead`).
fn layer_values(it: &Iteration, spans: &Collected) -> Vec<f64> {
    let t = |n: Name| spans.get(n);
    let packets = it.stats.packets as f64;
    let l = &it.layer;
    let world_self = t(Name::WorldRun).self_ns + t(Name::RouterDeliver).self_ns;
    let world_allocs = t(Name::WorldRun).self_allocs + t(Name::RouterDeliver).self_allocs;
    let (ing_p, ing_b, fwd) = (
        t(Name::IngestPacket),
        t(Name::IngestBatch),
        t(Name::RouterForward),
    );
    let batch_records = it.stats.packets.saturating_sub(ing_p.count) as f64;
    let busy: Vec<f64> = l.shard_busy_ns.iter().map(|&b| secs(b)).collect();
    let shards = l.shard_busy_ns.len() as f64;
    vec![
        secs(world_self),
        ratio(world_self as f64, packets),
        ratio(world_allocs as f64, packets),
        ratio(it.stats.events as f64, packets),
        l.queue_high_water as f64,
        ratio(ing_p.self_ns as f64, ing_p.count as f64),
        ratio(ing_b.self_ns as f64, batch_records),
        secs(ing_p.self_ns + ing_b.self_ns),
        ratio(l.uniform_records as f64, packets),
        (ing_p.self_allocs + ing_b.self_allocs) as f64,
        secs(t(Name::Fold).total_ns),
        secs(t(Name::Render).total_ns),
        secs(fwd.self_ns),
        ratio(fwd.self_ns as f64, fwd.count as f64),
        ratio(fwd.self_allocs as f64, fwd.count as f64),
        stats::median(&busy),
        busy.iter().copied().fold(0.0, f64::max),
        if l.shard_busy_ns.is_empty() {
            0.0
        } else {
            stats::idle_share(&l.shard_busy_ns, l.threads, l.pool_wall_ns)
        },
        secs(t(Name::FleetMerge).total_ns),
        secs(t(Name::FleetReport).total_ns),
        secs(t(Name::PersistWrite).total_ns),
        secs(t(Name::PersistRead).total_ns),
        ratio(l.persist_bytes as f64, shards),
        secs(t(Name::ObsWrite).total_ns),
        l.obs_bytes as f64,
        l.journal_dropped as f64,
        it.tick_gaps_ns.len() as f64,
    ]
}

/// Checks that need the first iteration and, for some workloads, an
/// untimed reference run of the same seed.
fn reference_checks(w: Workload, first: &Iteration, checks: &mut Checks) {
    if oracle::has_golden(w.name(), first.seed) {
        for (artifact, digest) in &first.artifacts {
            let want = oracle::golden(w.name(), first.seed, artifact);
            checks.check(want == Some(digest.as_str()), || {
                format!("{artifact}: digest {digest} != committed {want:?}")
            });
        }
    }
    match w {
        Workload::MainObserved => {
            let plain = workloads::run(
                Workload::MainTrace,
                first.seed,
                Instant::now(),
                Path::new(OUT_DIR),
                false,
            );
            checks.check(plain.stdout == first.stdout, || {
                "observed artifacts differ from the plain run's".into()
            });
        }
        Workload::FleetFacility => {
            let config = workloads::fleet_config(first.seed);
            match csprov::run_fleet_full(&config, &csprov::FleetPersistence::none(), None) {
                Ok(run) => {
                    checks.check(workloads::fleet_stdout(&run.report) == first.stdout, || {
                        "report merged from files differs from the in-memory report".into()
                    });
                    let cov = &run.report.coverage;
                    checks.check(cov.merged == config.servers && cov.lost.is_empty(), || {
                        format!("coverage {}/{}", cov.merged, cov.configured)
                    });
                }
                Err(e) => checks.check(false, || format!("in-memory fleet failed: {e}")),
            }
        }
        Workload::MainTrace | Workload::NatMap => {}
    }
}

fn write_spans(path: &Path, spans: &[span::SpanRecord], totals: &Collected) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.run,
            s.name.as_str(),
            s.start_ns,
            s.end_ns
        );
    }
    for n in Name::ALL {
        let t = totals.get(n);
        let _ = writeln!(
            out,
            "{{\"totals\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"self_allocs\":{},\"self_bytes\":{}}}",
            n.as_str(),
            t.count,
            t.total_ns,
            t.self_ns,
            t.self_allocs,
            t.self_bytes
        );
    }
    std::fs::write(path, out)
}

fn json_result(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Runs the benchmark; `traced_binary` says whether the counting allocator
/// is installed (it must be exactly when `--trace 1`).
pub fn main(traced_binary: bool) -> ExitCode {
    let process_start = span::start_clock();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!("error: --trace 1 runs csbench-traced, --trace 0 runs csbench (use run.sh)");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let w = args.workload;
    let host = oracle::host();
    for diff in oracle::host_differences(&host) {
        eprintln!("warning: host differs from the one that set the bounds: {diff}");
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    let mut checks = Checks::default();
    let mut first: Option<Iteration> = None;
    let mut timings: Vec<Timing> = Vec::new();
    let mut ticks = stats::GapHistogram::default();
    let mut traced: Vec<(u64, Vec<f64>)> = Vec::new();
    let mut records: Vec<span::SpanRecord> = Vec::new();
    let mut totals = Collected::default();
    let mut i: u32 = 0;
    while i == 0 || loop_start.elapsed() < budget {
        let seed = iteration_seed(args.seed, i);
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut it = workloads::run(w, seed, started, &out_dir, i == 0 || args.trace);
        checks.absorb(std::mem::take(&mut it.checks));
        if args.trace {
            // The traced half of the pair: same seed, spans and counting on.
            span::set_run(i);
            span::set_tracing(true);
            let mut t = workloads::run(w, seed, Instant::now(), &out_dir, true);
            span::set_tracing(false);
            let spans = span::take_collected();
            checks.absorb(std::mem::take(&mut t.checks));
            checks.check(t.stats == it.stats, || {
                format!(
                    "traced run changed simulated statistics: {:?} vs {:?}",
                    t.stats, it.stats
                )
            });
            checks.check(t.artifacts == it.artifacts, || {
                "traced run changed artifact bytes".into()
            });
            let values = layer_values(&t, &spans);
            totals.absorb(&spans);
            records.extend(spans.records);
            traced.push((t.wall_ns, values));
        }
        timings.push(Timing::of(&it, &mut ticks));
        if first.is_none() {
            first = Some(it);
        }
        i += 1;
    }
    let peak_rss = peak_rss_mib();
    let first = first.expect("the loop runs at least once");
    reference_checks(w, &first, &mut checks);

    println!(
        "# csbench workload={} seed={} seconds={} trace={} iterations={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        timings.len()
    );
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("# host: {}", host_line.join(" "));
    println!(
        "# checks: attempted={} failed={} failed_share={}",
        checks.attempted,
        checks.failed,
        ratio(checks.failed as f64, checks.attempted as f64)
    );
    for (artifact, digest) in &first.artifacts {
        println!("# artifact seed={} {artifact} sha256={digest}", first.seed);
    }
    for f in &checks.failures {
        println!("# FAILED: {f}");
    }
    let walls: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.4}", secs(t.wall_ns)))
        .collect();
    println!("# wall_s by iteration: {}", walls.join(" "));
    let setups: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.1}", t.setup_ns as f64 / 1e3))
        .collect();
    println!("# setup_us by iteration: {}", setups.join(" "));
    let packets: Vec<String> = timings.iter().map(|t| t.packets.to_string()).collect();
    println!("# packets by iteration: {}", packets.join(" "));
    println!(
        "# tick_host_us samples={} (fewest beyond p99 in one iteration: {})",
        timings.iter().map(|t| t.tick_samples).sum::<u64>(),
        timings.iter().map(|t| t.tick_beyond_p99).min().unwrap_or(0)
    );
    if let Ok(sched) = std::fs::read_to_string("/proc/self/schedstat") {
        let f: Vec<f64> = sched
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        if f.len() >= 2 {
            println!(
                "# cpu: on_cpu_s={} runqueue_wait_s={} process_s={}",
                f[0] / 1e9,
                f[1] / 1e9,
                process_start.elapsed().as_secs_f64()
            );
        }
    }
    let e2e = end_to_end(&timings, peak_rss);
    let metrics = if args.trace {
        for e in &e2e {
            println!("# untraced {} {} {}", e.name, e.value, e.unit);
        }
        let mut out: Vec<Metric> = PER_LAYER[..PER_LAYER.len() - 1]
            .iter()
            .enumerate()
            .map(|(k, &(name, unit))| {
                let col: Vec<f64> = traced.iter().map(|(_, v)| v[k]).collect();
                m(name, unit, stats::median(&col))
            })
            .collect();
        let traced_wall: Vec<f64> = traced.iter().map(|(w, _)| secs(*w)).collect();
        let plain_wall: Vec<f64> = timings.iter().map(|t| secs(t.wall_ns)).collect();
        out.push(m(
            "trace.overhead",
            "ratio",
            ratio(stats::median(&traced_wall), stats::median(&plain_wall)) - 1.0,
        ));
        let path = out_dir.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        match write_spans(&path, &records, &totals) {
            Ok(()) => eprintln!(
                "[spans] wrote {} ({} kept spans)",
                path.display(),
                records.len()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        out
    } else {
        e2e
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_result(&checks, &metrics));
    ExitCode::SUCCESS
}
