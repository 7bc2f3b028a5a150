//! Shared state between the simulation thread and HTTP handler threads.
//!
//! The workspace's [`MetricsRegistry`] and [`SeriesSampler`] are
//! deliberately `Rc`-based single-threaded types — they live on the
//! simulation thread and never cross it. The serving plane therefore
//! shares *rendered snapshots*, not instruments: the simulation thread
//! periodically renders Prometheus text / series CSV / the report into
//! `Mutex<String>` slots here, and handler threads only ever read those
//! strings. The one genuinely concurrent structure is the
//! [`BroadcastBus`], which is built for it.
//!
//! This split is what keeps the determinism boundary trivial to audit:
//! nothing an HTTP client does can reach an instrument, only a snapshot
//! of one.

use csprov_obs::{BroadcastBus, MetricsRegistry, ShardHealthBoard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock-free tallies of HTTP connection outcomes, written by handler
/// threads and read by `/status` and the metrics exporter. Rejections
/// are split by cause so a slow-loris attempt (`timeout`), an oversized
/// head (`too_large`) and plain garbage (`malformed`) are separately
/// visible.
#[derive(Default)]
pub struct HttpCounters {
    accepted: AtomicU64,
    served: AtomicU64,
    rejected_too_large: AtomicU64,
    rejected_timeout: AtomicU64,
    rejected_malformed: AtomicU64,
}

/// A point-in-time copy of [`HttpCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted by the listener.
    pub accepted: u64,
    /// Requests that were routed to an endpoint (any status code).
    pub served: u64,
    /// Heads rejected for exceeding the byte bound (431).
    pub rejected_too_large: u64,
    /// Heads rejected for missing the delivery deadline (408).
    pub rejected_timeout: u64,
    /// Heads rejected as unparsable (400 before routing).
    pub rejected_malformed: u64,
}

impl HttpStats {
    /// Total rejected connections across all causes.
    pub fn rejected(&self) -> u64 {
        self.rejected_too_large + self.rejected_timeout + self.rejected_malformed
    }
}

impl HttpCounters {
    /// Counts an accepted connection.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that reached routing.
    pub fn record_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a head rejected for size.
    pub fn record_too_large(&self) {
        self.rejected_too_large.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a head rejected for blowing the delivery deadline.
    pub fn record_timeout(&self) {
        self.rejected_timeout.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a head rejected as unparsable.
    pub fn record_malformed(&self) {
        self.rejected_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (each counter read atomically).
    pub fn snapshot(&self) -> HttpStats {
        HttpStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected_too_large: self.rejected_too_large.load(Ordering::Relaxed),
            rejected_timeout: self.rejected_timeout.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
        }
    }
}

/// Progress of the run being served, updated by the simulation thread.
#[derive(Clone, Debug)]
pub struct RunStatus {
    /// `"starting"`, `"running"` or `"finished"`.
    pub state: &'static str,
    /// Who executes the fleet this plane observes: `"run"` when this
    /// process simulates, `"coordinate"` when it only watches worker
    /// processes through their state-dir sidecars and checkpoints.
    pub mode: &'static str,
    /// Labels of the artifacts/runs requested, comma-joined.
    pub label: String,
    /// The run seed.
    pub seed: u64,
    /// Replay speed as configured (`"max"`, `"8x"`).
    pub speed: String,
    /// Virtual horizon of the current run, ns (0 until known).
    pub horizon_ns: u64,
    /// Current virtual clock, ns.
    pub sim_ns: u64,
    /// Events executed so far.
    pub events: u64,
    /// Sim-vs-wall lag behind the pacing schedule, ns (0 unpaced/on time).
    pub lag_ns: u64,
    /// Fleet shards total (0 for non-fleet runs).
    pub shards_total: u64,
    /// Fleet shards completed.
    pub shards_done: u64,
    /// Journal events dropped at capacity (storage, not bus).
    pub journal_dropped: u64,
}

impl Default for RunStatus {
    fn default() -> Self {
        RunStatus {
            state: "starting",
            mode: "run",
            label: String::new(),
            seed: 0,
            speed: "max".to_string(),
            horizon_ns: 0,
            sim_ns: 0,
            events: 0,
            lag_ns: 0,
            shards_total: 0,
            shards_done: 0,
            journal_dropped: 0,
        }
    }
}

/// State shared between the simulation thread (writer) and HTTP handlers
/// (readers). See the module docs for the snapshot discipline.
pub struct ServeShared {
    bus: BroadcastBus,
    started: Instant,
    shutdown: AtomicBool,
    metrics: Mutex<String>,
    series: Mutex<String>,
    report: Mutex<String>,
    profile: Mutex<String>,
    board: Mutex<Option<Arc<ShardHealthBoard>>>,
    status: Mutex<RunStatus>,
    http: HttpCounters,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Snapshot strings cannot be left half-written by a panicking writer
    // (String swaps are assignment-atomic under the lock); keep serving.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ServeShared {
    /// Fresh state around `bus` (the journal tap / live event source).
    pub fn new(bus: BroadcastBus) -> Self {
        ServeShared {
            bus,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            metrics: Mutex::new(String::new()),
            series: Mutex::new(String::new()),
            report: Mutex::new(String::new()),
            profile: Mutex::new(String::new()),
            board: Mutex::new(None),
            status: Mutex::new(RunStatus::default()),
            http: HttpCounters::default(),
        }
    }

    /// The HTTP connection-outcome counters (handler threads write,
    /// `/status` and the exporter read).
    pub fn http(&self) -> &HttpCounters {
        &self.http
    }

    /// The live event bus.
    pub fn bus(&self) -> &BroadcastBus {
        &self.bus
    }

    /// Requests shutdown: handlers finish their current response, SSE
    /// streams end, the accept loop stops.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.bus.close();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Replaces the `/metrics` snapshot (Prometheus exposition text).
    pub fn set_metrics(&self, text: String) {
        *lock(&self.metrics) = text;
    }

    /// Current `/metrics` snapshot.
    pub fn metrics(&self) -> String {
        lock(&self.metrics).clone()
    }

    /// Replaces the `/series` snapshot (sampler CSV).
    pub fn set_series(&self, text: String) {
        *lock(&self.series) = text;
    }

    /// Current `/series` snapshot.
    pub fn series(&self) -> String {
        lock(&self.series).clone()
    }

    /// Replaces the `/report` snapshot.
    pub fn set_report(&self, text: String) {
        *lock(&self.report) = text;
    }

    /// Appends a section to the `/report` snapshot.
    pub fn append_report(&self, text: &str) {
        lock(&self.report).push_str(text);
    }

    /// Current `/report` snapshot.
    pub fn report(&self) -> String {
        lock(&self.report).clone()
    }

    /// Replaces the `/profile` snapshot (wall-time self/total table).
    pub fn set_profile(&self, text: String) {
        *lock(&self.profile) = text;
    }

    /// Current `/profile` snapshot (empty until a profiled run renders).
    pub fn profile(&self) -> String {
        lock(&self.profile).clone()
    }

    /// Attaches the fleet health board backing `/shards`. The board is
    /// all-atomics, so handler threads can render it directly — it is
    /// the one instrument allowed across the thread boundary.
    pub fn set_board(&self, board: Arc<ShardHealthBoard>) {
        *lock(&self.board) = Some(board);
    }

    /// The attached fleet health board, if any.
    pub fn board(&self) -> Option<Arc<ShardHealthBoard>> {
        lock(&self.board).clone()
    }

    /// Renders `/shards`: the health board document, or a shape-stable
    /// empty document when no fleet is attached (single-run serves).
    pub fn shards_json(&self) -> String {
        match self.board() {
            Some(board) => board.render_json(),
            None => concat!(
                "{\"schema\":\"csprov-shards/1\",\"watchdog_ms\":0,",
                "\"summary\":{\"total\":0,\"pending\":0,\"running\":0,",
                "\"done\":0,\"lost\":0,\"stalled\":0,\"degraded\":0},",
                "\"shards\":[]}"
            )
            .to_string(),
        }
    }

    /// Renders `/healthz`: a liveness probe for the serving plane
    /// itself. `ok` is true as long as the server is answering and
    /// shutdown has not been requested — a load balancer needs nothing
    /// deeper, and anything deeper belongs on `/status` or `/shards`.
    pub fn healthz_json(&self) -> String {
        let s = self.status();
        let bus = self.bus.stats();
        format!(
            concat!(
                "{{\"schema\":\"csprov-healthz/1\",\"ok\":{ok},",
                "\"state\":{state},\"uptime_ns\":{uptime},",
                "\"bus\":{{\"subscribers\":{subs},\"max_depth\":{depth}}}}}"
            ),
            ok = !self.is_shutdown(),
            state = csprov_obs::json::escape(s.state),
            uptime = self.started.elapsed().as_nanos(),
            subs = bus.subscribers,
            depth = bus.max_depth,
        )
    }

    /// Applies `f` to the run status under the lock.
    pub fn update_status(&self, f: impl FnOnce(&mut RunStatus)) {
        f(&mut lock(&self.status));
    }

    /// A copy of the current run status.
    pub fn status(&self) -> RunStatus {
        lock(&self.status).clone()
    }

    /// Renders `/status`: the run status merged with live bus stats and
    /// wall-clock elapsed time.
    pub fn status_json(&self) -> String {
        let s = self.status();
        let bus = self.bus.stats();
        let http = self.http.snapshot();
        let progress = if s.horizon_ns > 0 {
            (s.sim_ns as f64 / s.horizon_ns as f64).min(1.0)
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"schema\":\"csprov-status/1\",\"state\":{state},",
                "\"mode\":{mode},",
                "\"label\":{label},\"seed\":{seed},\"speed\":{speed},",
                "\"horizon_ns\":{horizon},\"sim_ns\":{sim},",
                "\"progress\":{progress:.6},\"events\":{events},",
                "\"lag_ns\":{lag},\"wall_elapsed_ns\":{wall},",
                "\"shards\":{{\"done\":{sdone},\"total\":{stotal}}},",
                "\"journal_dropped\":{jdrop},",
                "\"http\":{{\"accepted\":{haccepted},\"served\":{hserved},",
                "\"rejected\":{{\"too_large\":{hlarge},\"timeout\":{htimeout},",
                "\"malformed\":{hmalformed}}}}},",
                "\"bus\":{{\"subscribers\":{subs},\"published\":{pubd},",
                "\"dropped\":{dropped},\"max_depth\":{depth}}}}}"
            ),
            state = csprov_obs::json::escape(s.state),
            mode = csprov_obs::json::escape(s.mode),
            label = csprov_obs::json::escape(&s.label),
            seed = s.seed,
            speed = csprov_obs::json::escape(&s.speed),
            horizon = s.horizon_ns,
            sim = s.sim_ns,
            progress = progress,
            events = s.events,
            lag = s.lag_ns,
            wall = self.started.elapsed().as_nanos(),
            sdone = s.shards_done,
            stotal = s.shards_total,
            jdrop = s.journal_dropped,
            haccepted = http.accepted,
            hserved = http.served,
            hlarge = http.rejected_too_large,
            htimeout = http.rejected_timeout,
            hmalformed = http.rejected_malformed,
            subs = bus.subscribers,
            pubd = bus.published,
            dropped = bus.dropped,
            depth = bus.max_depth,
        )
    }

    /// Exports the serving plane's self-observability into `registry` as
    /// wall-flagged `serve.*` instruments (wall because their values
    /// depend on subscriber behavior, which must never reach a
    /// determinism artifact). Call from the simulation thread — the
    /// registry is single-threaded by design.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let bus = self.bus.stats();
        let status = self.status();
        let subs = registry.wall_gauge("serve.subscribers");
        subs.set(bus.subscribers as i64);
        registry.describe("serve.subscribers", "live bus subscribers");
        let depth = registry.wall_gauge("serve.bus.depth");
        depth.set(bus.max_depth as i64);
        registry.describe("serve.bus.depth", "deepest subscriber queue");
        set_monotonic(&registry.wall_counter("serve.bus.published"), bus.published);
        registry.describe("serve.bus.published", "events published to the bus");
        set_monotonic(&registry.wall_counter("serve.bus.dropped"), bus.dropped);
        registry.describe(
            "serve.bus.dropped",
            "events dropped across all subscribers (slow-consumer policy)",
        );
        set_monotonic(
            &registry.wall_counter("serve.journal.dropped"),
            status.journal_dropped,
        );
        registry.describe(
            "serve.journal.dropped",
            "journal events dropped at storage capacity",
        );
        let lag = registry.wall_gauge("serve.lag_ns");
        lag.set(status.lag_ns.min(i64::MAX as u64) as i64);
        registry.describe("serve.lag_ns", "sim-vs-wall lag behind the pacing schedule");
        let http = self.http.snapshot();
        set_monotonic(&registry.wall_counter("serve.http.accepted"), http.accepted);
        registry.describe("serve.http.accepted", "HTTP connections accepted");
        set_monotonic(&registry.wall_counter("serve.http.served"), http.served);
        registry.describe("serve.http.served", "HTTP requests routed to an endpoint");
        set_monotonic(
            &registry.wall_counter("serve.http.rejected"),
            http.rejected(),
        );
        registry.describe(
            "serve.http.rejected",
            "HTTP heads rejected (oversized, slow, or malformed)",
        );
    }
}

/// Raises a counter to an absolute snapshot value (counters only expose
/// `add`; snapshots are monotonic, so the delta is never negative).
fn set_monotonic(counter: &csprov_obs::Counter, target: u64) {
    let current = counter.get();
    if target > current {
        counter.add(target - current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_obs::{HeartbeatRecord, Json, SHARD_RUNNING};

    #[test]
    fn status_json_merges_run_and_bus_state() {
        let bus = BroadcastBus::new();
        let _sub = bus.subscribe(8);
        bus.publish(csprov_obs::BusEvent::RunStarted {
            label: "main".into(),
            horizon_ns: 100,
        });
        let shared = ServeShared::new(bus);
        shared.update_status(|s| {
            s.state = "running";
            s.label = "table1".to_string();
            s.seed = 42;
            s.horizon_ns = 1_000;
            s.sim_ns = 250;
            s.events = 7;
        });
        let doc = Json::parse(&shared.status_json()).expect("status is valid JSON");
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("run"));
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(42.0));
        shared.update_status(|s| s.mode = "coordinate");
        let doc = Json::parse(&shared.status_json()).expect("status is valid JSON");
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("coordinate"));
        assert_eq!(doc.get("progress").and_then(Json::as_f64), Some(0.25));
        let bus = doc.get("bus").expect("bus section");
        assert_eq!(bus.get("subscribers").and_then(Json::as_f64), Some(1.0));
        assert_eq!(bus.get("published").and_then(Json::as_f64), Some(1.0));
        assert!(doc.get("wall_elapsed_ns").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn snapshots_swap_atomically() {
        let shared = ServeShared::new(BroadcastBus::new());
        assert_eq!(shared.metrics(), "");
        shared.set_metrics("a 1\n".to_string());
        shared.set_series("t,v\n0,1\n".to_string());
        shared.set_report("== report ==\n".to_string());
        shared.append_report("line\n");
        assert_eq!(shared.metrics(), "a 1\n");
        assert_eq!(shared.series(), "t,v\n0,1\n");
        assert_eq!(shared.report(), "== report ==\nline\n");
    }

    #[test]
    fn export_metrics_registers_wall_only_serve_instruments() {
        let bus = BroadcastBus::new();
        let slow = bus.subscribe(1);
        bus.publish(csprov_obs::BusEvent::RunStarted {
            label: "x".into(),
            horizon_ns: 1,
        });
        bus.publish(csprov_obs::BusEvent::RunFinished {
            label: "x".into(),
            sim_ns: 1,
            events: 1,
        }); // dropped: queue of 1 is full
        let shared = ServeShared::new(bus);
        shared.update_status(|s| s.journal_dropped = 5);
        let registry = MetricsRegistry::new();
        registry.counter("sim.events").add(3);
        shared.export_metrics(&registry);
        shared.export_metrics(&registry); // idempotent re-export
        let prom = registry.render_prometheus();
        assert!(prom.contains("serve_subscribers 1\n"), "got {prom}");
        assert!(prom.contains("serve_bus_published 2\n"));
        assert!(prom.contains("serve_bus_dropped 1\n"));
        assert!(prom.contains("serve_journal_dropped 5\n"));
        assert!(prom.contains("# HELP serve_bus_dropped "));
        // The determinism surfaces never see serve.*.
        assert!(!registry.render_deterministic().contains("serve."));
        assert!(registry
            .sample_deterministic()
            .iter()
            .all(|(n, _, _)| !n.starts_with("serve.")));
        drop(slow);
    }

    #[test]
    fn healthz_reports_liveness_and_flips_on_shutdown() {
        let shared = ServeShared::new(BroadcastBus::new());
        let doc = Json::parse(&shared.healthz_json()).expect("healthz is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("csprov-healthz/1")
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert!(doc.get("uptime_ns").and_then(Json::as_f64).is_some());
        shared.request_shutdown();
        let doc = Json::parse(&shared.healthz_json()).expect("healthz parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn shards_json_is_shape_stable_without_a_board() {
        let shared = ServeShared::new(BroadcastBus::new());
        let doc = Json::parse(&shared.shards_json()).expect("empty shards doc parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("csprov-shards/1")
        );
        let summary = doc.get("summary").expect("summary section");
        assert_eq!(summary.get("total").and_then(Json::as_f64), Some(0.0));

        let board = Arc::new(ShardHealthBoard::new(2, std::time::Duration::from_secs(5)));
        board.apply(&HeartbeatRecord {
            shard: 0,
            state: SHARD_RUNNING,
            sim_ns: 0,
            horizon_ns: 1_000,
            retries: 0,
            checkpoints: 0,
            wall_ms: 0,
            unix_ms: csprov_obs::unix_ms(),
        });
        shared.set_board(board);
        let doc = Json::parse(&shared.shards_json()).expect("board doc parses");
        let summary = doc.get("summary").expect("summary section");
        assert_eq!(summary.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(summary.get("running").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn profile_snapshot_swaps_like_the_other_slots() {
        let shared = ServeShared::new(BroadcastBus::new());
        assert_eq!(shared.profile(), "");
        shared.set_profile("frame self total\n".to_string());
        assert_eq!(shared.profile(), "frame self total\n");
    }

    #[test]
    fn shutdown_closes_the_bus() {
        let bus = BroadcastBus::new();
        let sub = bus.subscribe(4);
        let shared = ServeShared::new(bus);
        assert!(!shared.is_shutdown());
        shared.request_shutdown();
        assert!(shared.is_shutdown());
        assert!(sub.is_closed());
    }
}
