//! The four workloads. Each drives the program only through public
//! functions and returns what one iteration measured, produced and checked.

use crate::oracle::Checks;
use crate::sha256::hex_digest;
use crate::span::{self, Name};
use crate::tap::Tap;
use csprov::analysis::RateSeries;
use csprov::experiments::nat::NatRun;
use csprov::experiments::{figures, tables};
use csprov::fleet::{persist, FleetConfig, FleetCoverage, FleetMerger, ProvisioningReport};
use csprov::game::{Deliver, GameMetrics, Middlebox, ScenarioConfig, World, WorldInstruments};
use csprov::net::{Direction, LinkMetrics, NullSink, Packet, TraceSink};
use csprov::router::{EngineConfig, NatDevice, NatTaps};
use csprov::sim::{SimDuration, SimTime, Simulator};
use csprov::{work_steal, FullAnalysis, MainRun};
use csprov_obs::{Journal, MetricsRegistry, Profile, SeriesSampler};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Simulated hours of `main_trace` and `main_observed` (`repro --hours 1`).
pub const MAIN_HOURS: f64 = 1.0;
/// Servers in `fleet_facility`.
pub const FLEET_SHARDS: usize = 8;
/// Simulated minutes per fleet server.
pub const FLEET_MINUTES: u64 = 15;
/// Series sampling period of `main_observed` (`--series-interval 1000`).
const SERIES_INTERVAL_NS: u64 = 1_000_000_000;
/// Kernel-observer stride with a series sampler attached, as the program's
/// CLI sets it.
const SAMPLER_STRIDE: u64 = 1024;
/// Kernel-observer stride the traced run samples the queue high water at.
const HWM_STRIDE: u64 = 4096;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `repro --hours 1 main`.
    MainTrace,
    /// `repro nat`: the §IV map through the NAT device.
    NatMap,
    /// `repro --fleet 8 --fleet-minutes 15 --fleet-state-dir D`, then
    /// `repro fleet merge`.
    FleetFacility,
    /// `main_trace` with `--trace-out --series-out --profile-out`.
    MainObserved,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::MainTrace,
        Workload::NatMap,
        Workload::FleetFacility,
        Workload::MainObserved,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MainTrace => "main_trace",
            Workload::NatMap => "nat_map",
            Workload::FleetFacility => "fleet_facility",
            Workload::MainObserved => "main_observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Simulated statistics: must not depend on whether the run was traced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Records at the server tap.
    pub packets: u64,
    /// Kernel events executed.
    pub events: u64,
    /// Connection attempts logged.
    pub sessions: u64,
    /// Packets the NAT dropped (queue overflow plus table refusals).
    pub nat_drops: u64,
}

/// Counts the per-layer metrics need besides the spans.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Tap records that arrived in single-timestamp bursts.
    pub uniform_records: u64,
    /// Highest kernel queue length seen (traced run only).
    pub queue_high_water: u64,
    /// Wall time each fleet shard kept its worker busy.
    pub shard_busy_ns: Vec<u64>,
    /// Wall time of the fleet's worker pool.
    pub pool_wall_ns: u64,
    /// Worker threads in the pool: `work_steal` spawns one per available
    /// core, at most one per item. A thread that claims no item still
    /// counts, as idle.
    pub threads: usize,
    /// Checkpoint bytes written.
    pub persist_bytes: u64,
    /// Journal, series and profile bytes written.
    pub obs_bytes: u64,
    /// Journal events dropped at capacity.
    pub journal_dropped: u64,
}

/// What one iteration measured, produced and checked.
pub struct Iteration {
    /// The iteration's seed.
    pub seed: u64,
    /// Wall time of the whole workload.
    pub wall_ns: u64,
    /// From `started` until the first record reached a tap.
    pub setup_ns: u64,
    /// Host time between successive one-tick-apart bursts at the tap.
    pub tick_gaps_ns: Vec<u64>,
    /// Simulated statistics.
    pub stats: SimStats,
    /// `(artifact, sha256)` of what the run rendered or wrote.
    pub artifacts: Vec<(&'static str, String)>,
    /// Output checks made.
    pub checks: Checks,
    /// Counts for the per-layer metrics.
    pub layer: LayerCounts,
    /// The rendered stdout text, kept for reference comparisons.
    pub stdout: String,
}

/// Runs one iteration. `started` is when set-up began (the process start
/// for the first iteration). `digest_files` also hashes the large observed
/// files, which is kept off iterations that no check compares.
pub fn run(
    workload: Workload,
    seed: u64,
    started: Instant,
    out_dir: &Path,
    digest_files: bool,
) -> Iteration {
    match workload {
        Workload::MainTrace => main_trace(seed, started),
        Workload::NatMap => nat_map(seed, started),
        Workload::FleetFacility => fleet_facility(seed, started, out_dir),
        Workload::MainObserved => main_observed(seed, started, out_dir, digest_files),
    }
}

/// The scenario `repro --hours 1` simulates.
pub fn main_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::scaled(seed, SimDuration::from_secs_f64(MAIN_HOURS * 3600.0))
}

/// The §IV scenario: one 30-minute map, 19 players held by churn.
pub fn nat_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SimDuration::from_mins(30));
    cfg.initial_players = 19;
    cfg.workload.arrival_rate = 0.035;
    cfg
}

/// The fleet `fleet_facility` runs.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig::new("fleet", seed, FLEET_SHARDS, FLEET_MINUTES)
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn setup_ns(started: Instant, first: Option<Instant>) -> u64 {
    first.map_or(0, |f| f.duration_since(started).as_nanos() as u64)
}

/// Appends one artifact the way `repro` prints it.
fn push_artifact(out: &mut String, id: &str, body: &str) {
    out.push_str("\n================ ");
    out.push_str(id);
    out.push_str(" ================\n");
    out.push_str(body);
    out.push('\n');
}

/// Tables I–III and Figures 1–13, byte for byte as `repro ... main` prints.
pub fn render_main(run: &MainRun) -> String {
    let _span = span::enter(Name::Render);
    let mut out = String::new();
    push_artifact(&mut out, "table1", &tables::table1(run).render());
    push_artifact(&mut out, "table2", &tables::table2(run).render());
    push_artifact(&mut out, "table3", &tables::table3(run).render());
    let figs: [fn(&MainRun) -> String; 13] = [
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
    for (i, fig) in figs.iter().enumerate() {
        push_artifact(&mut out, &format!("fig{}", i + 1), &fig(run));
    }
    out
}

/// Table IV and Figures 14–15, as `repro nat` prints them.
pub fn render_nat(run: &NatRun) -> String {
    let _span = span::enter(Name::Render);
    let mut out = String::new();
    push_artifact(&mut out, "table4", &tables::table4(run).render());
    push_artifact(&mut out, "fig14", &figures::fig14(run));
    push_artifact(&mut out, "fig15", &figures::fig15(run));
    out
}

/// Runs the world into a tap around `inner`. In the traced run a read-only
/// kernel observer samples the queue high water; `sampler` (the observed
/// run's series sampler) shares that observer slot as the CLI does.
fn simulate<S: TraceSink + 'static>(
    cfg: ScenarioConfig,
    inner: S,
    middlebox: Option<Rc<dyn Middlebox>>,
    mut instruments: WorldInstruments,
    profile: Option<Profile>,
    sampler: Option<Rc<RefCell<SeriesSampler>>>,
) -> (Rc<RefCell<Tap<S>>>, csprov::game::TraceOutcome, u64) {
    let tap = Rc::new(RefCell::new(Tap::new(
        inner,
        cfg.server.tick.as_nanos(),
        cfg.duration.as_nanos(),
        profile,
    )));
    let hwm = Rc::new(Cell::new(0usize));
    let traced = span::tracing();
    if traced || sampler.is_some() {
        let stride = if sampler.is_some() {
            SAMPLER_STRIDE
        } else {
            HWM_STRIDE
        };
        let hwm = hwm.clone();
        instruments.observer = Some((
            stride,
            Box::new(move |sim: &Simulator| {
                if let Some(s) = &sampler {
                    s.borrow_mut().observe(sim.now().as_nanos());
                }
                if traced {
                    hwm.set(sim.queue_high_water());
                }
            }),
        ));
    }
    let outcome = {
        let _span = span::enter(Name::WorldRun);
        World::run_instrumented(cfg, tap.clone(), middlebox, instruments)
    };
    (tap, outcome, hwm.get() as u64)
}

fn take<T>(rc: Rc<RefCell<T>>) -> T {
    match Rc::try_unwrap(rc) {
        Ok(cell) => cell.into_inner(),
        Err(_) => panic!("the world releases its sink and taps when the run returns"),
    }
}

/// A finished main run plus what its tap saw.
struct MainOutcome {
    run: MainRun,
    packets: u64,
    uniform_records: u64,
    first_record: Option<Instant>,
    tick_gaps_ns: Vec<u64>,
    queue_high_water: u64,
}

fn simulate_main(
    cfg: ScenarioConfig,
    instruments: WorldInstruments,
    profile: Option<Profile>,
    sampler: Option<Rc<RefCell<SeriesSampler>>>,
) -> MainOutcome {
    let analysis = FullAnalysis::new(cfg.duration);
    let (tap, outcome, queue_high_water) =
        simulate(cfg.clone(), analysis, None, instruments, profile, sampler);
    let tap = take(tap);
    MainOutcome {
        run: MainRun {
            config: cfg,
            analysis: tap.inner,
            outcome,
        },
        packets: tap.packets,
        uniform_records: tap.uniform_records,
        first_record: tap.first_record,
        tick_gaps_ns: tap.tick_gaps_ns,
        queue_high_water,
    }
}

/// Identities every main run must satisfy, whatever the seed.
fn check_main(checks: &mut Checks, m: &MainOutcome) {
    let a = &m.run.analysis;
    checks.check(a.counts.total_packets() == m.packets, || {
        format!(
            "analysis counted {} packets, the tap saw {}",
            a.counts.total_packets(),
            m.packets
        )
    });
    checks.check(
        a.counts.packets_in(Direction::Inbound) + a.counts.packets_in(Direction::Outbound)
            == a.counts.total_packets(),
        || "per-direction packet counts do not sum to the total".into(),
    );
    for (name, total, inb, outb) in [
        (
            "per_minute",
            &a.per_minute,
            &a.per_minute_in,
            &a.per_minute_out,
        ),
        ("ms10", &a.ms10_total, &a.ms10_in, &a.ms10_out),
    ] {
        let sums = total.bins().len() == inb.bins().len()
            && total.bins().len() == outb.bins().len()
            && total
                .bins()
                .iter()
                .zip(inb.bins().iter().zip(outb.bins()))
                .all(|(t, (i, o))| {
                    t.packets == i.packets + o.packets
                        && t.wire_bytes == i.wire_bytes + o.wire_bytes
                });
        checks.check(sums, || {
            format!("{name}: inbound + outbound series do not sum to the total")
        });
    }
}

fn main_stats(m: &MainOutcome) -> SimStats {
    SimStats {
        packets: m.packets,
        events: m.run.outcome.events_executed,
        sessions: m.run.outcome.sessions.len() as u64,
        nat_drops: 0,
    }
}

fn main_trace(seed: u64, started: Instant) -> Iteration {
    let t0 = Instant::now();
    let (m, stdout) = {
        let _span = span::enter(Name::Iteration);
        let m = simulate_main(main_config(seed), WorldInstruments::default(), None, None);
        let stdout = render_main(&m.run);
        (m, stdout)
    };
    let wall_ns = nanos_since(t0);
    let mut checks = Checks::default();
    check_main(&mut checks, &m);
    Iteration {
        seed,
        wall_ns,
        setup_ns: setup_ns(started, m.first_record),
        stats: main_stats(&m),
        artifacts: vec![("stdout", hex_digest(stdout.as_bytes()))],
        checks,
        layer: LayerCounts {
            uniform_records: m.uniform_records,
            queue_high_water: m.queue_high_water,
            ..LayerCounts::default()
        },
        tick_gaps_ns: m.tick_gaps_ns,
        stdout,
    }
}

/// The router as the traced run sees it: `forward` and the `Deliver`
/// continuation each open a span, so world and ingest work done inside a
/// delivery nests under `router.deliver` instead of counting as router
/// self time.
struct TracedRouter(Rc<NatDevice>);

impl Middlebox for TracedRouter {
    fn forward(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
        // The wrapper's own box is the benchmark's allocation, not the router's.
        let deliver: Deliver = crate::alloc::uncounted(|| {
            Box::new(move |sim: &mut Simulator, pkt: Packet| {
                let _span = span::enter(Name::RouterDeliver);
                deliver(sim, pkt);
            })
        });
        let _span = span::enter(Name::RouterForward);
        self.0.forward(sim, pkt, deliver);
    }
}

fn nat_map(seed: u64, started: Instant) -> Iteration {
    let t0 = Instant::now();
    let span_it = span::enter(Name::Iteration);
    let cfg = nat_config(seed);
    let duration = cfg.duration;
    let mk = || Rc::new(RefCell::new(RateSeries::new(SimDuration::from_secs(1))));
    let (a, b, c, d) = (mk(), mk(), mk(), mk());
    let taps = NatTaps {
        clients_to_nat: Some(a.clone()),
        nat_to_server: Some(b.clone()),
        server_to_nat: Some(c.clone()),
        nat_to_clients: Some(d.clone()),
    };
    let engine = EngineConfig::default();
    let device = Rc::new(NatDevice::new(engine.clone(), taps));
    let middlebox: Rc<dyn Middlebox> = if span::tracing() {
        Rc::new(TracedRouter(device.clone()))
    } else {
        device.clone()
    };
    let (tap, outcome, queue_high_water) = simulate(
        cfg,
        NullSink,
        Some(middlebox),
        WorldInstruments::default(),
        None,
        None,
    );
    for series in [&a, &b, &c, &d] {
        series.borrow_mut().on_end(SimTime::ZERO + duration);
    }
    let stats = device.stats();
    let nat_stats = device.nat_stats();
    // Queued deliveries hold the world (and through it the tap) until the
    // device goes.
    drop(device);
    let tap = take(tap);
    let run = NatRun {
        clients_to_nat: take(a),
        nat_to_server: take(b),
        server_to_nat: take(c),
        nat_to_clients: take(d),
        stats,
        outcome,
        engine,
    };
    let stdout = render_nat(&run);
    drop(span_it);
    let wall_ns = nanos_since(t0);

    let mut checks = Checks::default();
    let total = |s: &RateSeries| -> u64 { s.bins().iter().map(|b| b.packets).sum() };
    let st = &run.stats;
    let engine = &run.engine;
    for (dir, name) in [(0, "inbound"), (1, "outbound")] {
        let (offered, forwarded, dropped) = (
            st.offered[dir].get(),
            st.forwarded[dir].get(),
            st.dropped[dir].get(),
        );
        // Packets still in the device at the horizon are neither forwarded
        // nor dropped; at most the direction's queue limit can be.
        let limit = (if dir == 0 {
            engine.wan_queue
        } else {
            engine.lan_queue
        }) as u64;
        let settled = forwarded + dropped;
        checks.check(settled <= offered && offered <= settled + limit, || {
            format!(
                "{name}: offered {offered} != forwarded {forwarded} + dropped {dropped} \
                 + at most {limit} queued"
            )
        });
        let (before, after) = if dir == 0 {
            (&run.clients_to_nat, &run.nat_to_server)
        } else {
            (&run.server_to_nat, &run.nat_to_clients)
        };
        let refused = nat_stats.table_drops[dir].get();
        checks.check(total(before) == offered + refused, || {
            format!(
                "{name}: pre-NAT tap {} != offered {offered} + refused {refused}",
                total(before)
            )
        });
        checks.check(total(after) == forwarded, || {
            format!(
                "{name}: post-NAT tap {} != forwarded {forwarded}",
                total(after)
            )
        });
    }
    Iteration {
        seed,
        wall_ns,
        setup_ns: setup_ns(started, tap.first_record),
        stats: SimStats {
            packets: tap.packets,
            events: run.outcome.events_executed,
            sessions: run.outcome.sessions.len() as u64,
            nat_drops: st.dropped[0].get() + st.dropped[1].get() + nat_stats.table_drops_total(),
        },
        artifacts: vec![("stdout", hex_digest(stdout.as_bytes()))],
        checks,
        layer: LayerCounts {
            uniform_records: tap.uniform_records,
            queue_high_water,
            ..LayerCounts::default()
        },
        tick_gaps_ns: tap.tick_gaps_ns,
        stdout,
    }
}

/// One fleet shard's result, returned from its worker thread.
struct ShardOut {
    busy_ns: u64,
    packets: u64,
    uniform_records: u64,
    events: u64,
    sessions: u64,
    queue_high_water: u64,
    first_record: Option<Instant>,
    tick_gaps_ns: Vec<u64>,
    bytes: u64,
    error: Option<String>,
}

fn run_shard(config: &FleetConfig, shard: usize, dir: &Path) -> ShardOut {
    let t0 = Instant::now();
    let _span = span::enter(Name::FleetShard);
    let m = simulate_main(
        config.scenario(shard),
        WorldInstruments::default(),
        None,
        None,
    );
    let mut out = ShardOut {
        busy_ns: 0,
        packets: m.packets,
        uniform_records: m.uniform_records,
        events: m.run.outcome.events_executed,
        sessions: m.run.outcome.sessions.len() as u64,
        queue_high_water: m.queue_high_water,
        first_record: m.first_record,
        tick_gaps_ns: m.tick_gaps_ns,
        bytes: 0,
        error: None,
    };
    let state = m.run.into_fleet_shard(shard);
    let written = {
        let _span = span::enter(Name::PersistWrite);
        persist::write_checkpoint_atomic(dir, &state)
    };
    match written.and_then(|path| Ok(std::fs::metadata(path)?.len())) {
        Ok(bytes) => out.bytes = bytes,
        Err(e) => out.error = Some(format!("shard {shard}: checkpoint write failed: {e}")),
    }
    out.busy_ns = nanos_since(t0);
    out
}

/// Reads every checkpoint back, folds it and builds the report, as
/// `repro fleet merge` does.
fn merge_from_files(config: &FleetConfig, dir: &Path) -> Result<(String, u64), String> {
    let mut merger = FleetMerger::new();
    for shard in 0..config.servers {
        let state = {
            let _span = span::enter(Name::PersistRead);
            persist::read_checkpoint(&dir.join(persist::shard_file_name(shard)), shard, config)
        }
        .map_err(|e| format!("shard {shard}: {e}"))?;
        let _span = span::enter(Name::FleetMerge);
        merger.push(&state).map_err(|e| e.to_string())?;
    }
    let (facility, shards) = {
        let _span = span::enter(Name::FleetMerge);
        merger.finish().map_err(|e| e.to_string())?
    };
    let _span = span::enter(Name::FleetReport);
    let coverage = FleetCoverage::full(facility.shards);
    let report = ProvisioningReport::build(config, &facility, &shards, coverage)
        .map_err(|e| e.to_string())?;
    Ok((fleet_stdout(&report), facility.counts.total_packets()))
}

/// The fleet block `repro --fleet` prints.
pub fn fleet_stdout(report: &ProvisioningReport) -> String {
    format!(
        "\n================ fleet ================\n{}\n{}\n",
        report.render().render(),
        report.sizing_line()
    )
}

fn fleet_facility(seed: u64, started: Instant, out_dir: &Path) -> Iteration {
    let config = fleet_config(seed);
    let dir = out_dir.join("fleet-state");
    // A fresh state directory, cleared before the clock starts.
    let _ = std::fs::remove_dir_all(&dir);
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let span_it = span::enter(Name::Iteration);
    let created = std::fs::create_dir_all(&dir);
    let parent = span::current();
    let shards: Vec<usize> = (0..config.servers).collect();
    let pool_t0 = Instant::now();
    let outs = work_steal(&shards, |_, &shard| {
        span::adopt(parent);
        let out = run_shard(&config, shard, &dir);
        span::flush_thread();
        out
    });
    let pool_wall_ns = nanos_since(pool_t0);
    let merged = merge_from_files(&config, &dir);
    drop(span_it);
    let wall_ns = nanos_since(t0);

    checks.check(created.is_ok(), || format!("state dir: {created:?}"));
    let outs = match outs {
        Ok(outs) => outs,
        Err(p) => {
            checks.check(false, || {
                format!("fleet worker panicked: {}", p.first().message)
            });
            Vec::new()
        }
    };
    for out in &outs {
        if let Some(e) = &out.error {
            checks.check(false, || e.clone());
        }
    }
    let packets: u64 = outs.iter().map(|o| o.packets).sum();
    let stdout = match merged {
        Ok((text, merged_packets)) => {
            checks.check(merged_packets == packets, || {
                format!("merged report counts {merged_packets} packets, the shard taps {packets}")
            });
            text
        }
        Err(e) => {
            checks.check(false, || format!("merge from files failed: {e}"));
            String::new()
        }
    };
    Iteration {
        seed,
        wall_ns,
        setup_ns: setup_ns(started, outs.iter().filter_map(|o| o.first_record).min()),
        stats: SimStats {
            packets,
            events: outs.iter().map(|o| o.events).sum(),
            sessions: outs.iter().map(|o| o.sessions).sum(),
            nat_drops: 0,
        },
        artifacts: vec![("stdout", hex_digest(stdout.as_bytes()))],
        checks,
        layer: LayerCounts {
            uniform_records: outs.iter().map(|o| o.uniform_records).sum(),
            queue_high_water: outs.iter().map(|o| o.queue_high_water).max().unwrap_or(0),
            shard_busy_ns: outs.iter().map(|o| o.busy_ns).collect(),
            pool_wall_ns,
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(config.servers),
            persist_bytes: outs.iter().map(|o| o.bytes).sum(),
            ..LayerCounts::default()
        },
        tick_gaps_ns: outs.into_iter().flat_map(|o| o.tick_gaps_ns).collect(),
        stdout,
    }
}

/// Writes one observed file, adding its size to `bytes`.
fn write_file(path: &Path, data: &str, bytes: &mut u64, checks: &mut Checks) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(path, data));
    match written {
        Ok(()) => *bytes += data.len() as u64,
        Err(e) => checks.check(false, || format!("could not write {}: {e}", path.display())),
    }
}

fn main_observed(seed: u64, started: Instant, out_dir: &Path, digest_files: bool) -> Iteration {
    let cfg = main_config(seed);
    let horizon_ns = cfg.duration.as_nanos();
    let dir = out_dir.join("observed");
    let mut checks = Checks::default();
    let mut obs_bytes = 0u64;
    let t0 = Instant::now();
    let span_it = span::enter(Name::Iteration);
    // Attachment order follows the CLI: the profile first (spans capture
    // it when created), then the world's instruments, then the sampler.
    let registry = MetricsRegistry::new();
    let journal = Journal::new();
    let profile = Profile::new();
    registry.attach_profile(Some(profile.clone()));
    let instruments = WorldInstruments {
        metrics: Some(GameMetrics::register(&registry)),
        link_metrics: Some(LinkMetrics::register(&registry)),
        journal: Some(journal.clone()),
        profile: Some(profile.clone()),
        ..WorldInstruments::default()
    };
    let sampler = Rc::new(RefCell::new(SeriesSampler::new(
        registry.clone(),
        SERIES_INTERVAL_NS,
    )));
    let m = simulate_main(
        cfg,
        instruments,
        Some(profile.clone()),
        Some(sampler.clone()),
    );
    m.run.analysis.export_metrics(&registry);
    let stdout = render_main(&m.run);
    let (trace, series) = {
        let _span = span::enter(Name::ObsWrite);
        let trace = journal.export_chrome_trace();
        write_file(
            &dir.join("trace.main.json"),
            &trace,
            &mut obs_bytes,
            &mut checks,
        );
        let series = {
            let mut sampler = sampler.borrow_mut();
            sampler.finish(horizon_ns);
            sampler.to_csv()
        };
        write_file(
            &dir.join("series/main.csv"),
            &series,
            &mut obs_bytes,
            &mut checks,
        );
        registry.attach_profile(None);
        write_file(
            &dir.join("profile/main.folded"),
            &profile.render_folded(),
            &mut obs_bytes,
            &mut checks,
        );
        write_file(
            &dir.join("profile/main.trace.json"),
            &journal.export_chrome_trace_with(&profile.chrome_rows(2)),
            &mut obs_bytes,
            &mut checks,
        );
        (trace, series)
    };
    drop(span_it);
    let wall_ns = nanos_since(t0);

    check_main(&mut checks, &m);
    checks.check(!journal.is_empty(), || {
        "the journal recorded nothing".into()
    });
    let mut artifacts = vec![("stdout", hex_digest(stdout.as_bytes()))];
    if digest_files {
        artifacts.push(("trace.main.json", hex_digest(trace.as_bytes())));
        artifacts.push(("series/main.csv", hex_digest(series.as_bytes())));
    }
    Iteration {
        seed,
        wall_ns,
        setup_ns: setup_ns(started, m.first_record),
        stats: main_stats(&m),
        artifacts,
        checks,
        layer: LayerCounts {
            uniform_records: m.uniform_records,
            queue_high_water: m.queue_high_water,
            obs_bytes,
            journal_dropped: journal.dropped(),
            ..LayerCounts::default()
        },
        tick_gaps_ns: m.tick_gaps_ns,
        stdout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing wraps the router's continuation and opens spans in the tap;
    /// neither may change what is simulated or rendered.
    #[test]
    fn traced_run_changes_no_simulated_statistic() {
        let out = Path::new(".");
        for w in [Workload::NatMap, Workload::MainTrace] {
            let plain = run(w, 3, Instant::now(), out, false);
            span::set_tracing(true);
            let traced = run(w, 3, Instant::now(), out, false);
            span::set_tracing(false);
            let spans = span::take_collected();
            assert_eq!(plain.stats, traced.stats, "{}", w.name());
            assert_eq!(plain.artifacts, traced.artifacts, "{}", w.name());
            assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
            assert_eq!(traced.checks.failed, 0, "{:?}", traced.checks.failures);
            assert!(plain.stats.packets > 0 && plain.stats.events > plain.stats.packets);
            assert_eq!(spans.get(Name::WorldRun).count, 1, "{}", w.name());
            let ingest = spans.get(Name::IngestPacket).count + spans.get(Name::IngestBatch).count;
            assert!(ingest > 0);
            if w == Workload::NatMap {
                assert!(
                    plain.stats.nat_drops > 0,
                    "the §IV map loses packets at the NAT"
                );
                assert!(spans.get(Name::RouterForward).count > plain.stats.packets / 2);
                assert!(spans.get(Name::RouterDeliver).count > 0);
            } else {
                assert_eq!(spans.get(Name::RouterForward).count, 0);
            }
        }
    }
}
