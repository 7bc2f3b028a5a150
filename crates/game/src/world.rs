//! The scenario orchestrator: wires server, clients, links, population,
//! map rotation, rounds, downloads and outages into the event kernel and
//! streams every observed packet into a [`TraceSink`].
//!
//! The tap point is the server's network interface — exactly where the
//! paper's tcpdump ran: inbound packets are recorded when they *arrive* at
//! the server (after their access link, and after the middlebox when one is
//! installed), outbound packets when the server emits them.

use crate::config::ScenarioConfig;
use crate::maps::MapRotation;
use crate::metrics::GameMetrics;
use crate::packets;
use crate::server::{ConnectOutcome, ServerState};
use crate::session::{self, Population};
use csprov_analysis::SessionRecord;
use csprov_net::{
    client_endpoint, server_endpoint, Direction, Link, LinkClass, LinkMetrics, Packet, PacketBatch,
    PacketKind, TraceRecord, TraceSink,
};
use csprov_sim::{spawn_periodic, RngStream, SimDuration, SimTime, Simulator, StopFlag};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Continuation invoked when a packet leaves a [`Middlebox`].
///
/// `Fn`, not `FnOnce`: an impairing middlebox may deliver the same packet
/// more than once (duplication) or stash the continuation in a scheduled
/// event (reordering), so the continuation must be re-invocable.
pub type Deliver = Box<dyn Fn(&mut Simulator, Packet)>;

/// A packet-forwarding middlebox (e.g. the NAT device of Section IV).
///
/// The world hands it every packet crossing the server's uplink; the
/// middlebox calls `deliver` (possibly later) for packets that survive.
pub trait Middlebox {
    /// Forwards `pkt`; invoke `deliver` when (and if) it comes out.
    fn forward(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver);
}

/// Optional observability attachments for a run. Everything here sits in
/// the reporting channel: metrics are written, never read back, and the
/// observer sees the kernel through `&Simulator` only — a seeded run
/// produces byte-identical traces with or without instruments attached.
#[derive(Default)]
pub struct WorldInstruments {
    /// Server/world instruments (tick span, snapshots, players, refusals).
    pub metrics: Option<GameMetrics>,
    /// Aggregate access-link instruments, cloned into every client link.
    pub link_metrics: Option<LinkMetrics>,
    /// Read-only kernel observer `(every_n_events, callback)` — the hook a
    /// progress reporter hangs off.
    pub observer: Option<(u64, csprov_sim::Observer)>,
    /// Trace journal receiving tick/burst/shed events from the world and
    /// (via [`Simulator::set_journal`]) sampled dispatch events from the
    /// kernel. Write-only, like everything else here.
    pub journal: Option<csprov_obs::Journal>,
    /// Wall-clock pacer for live replay (`--speed N`). The pacer only
    /// ever sleeps the thread, so a paced run computes exactly what an
    /// unpaced one computes.
    pub pacer: Option<csprov_sim::Pacer>,
    /// Hierarchical wall-time profiler. Handed to the kernel (which
    /// frames its dispatch loop as `sim.dispatch`) and available to the
    /// pipeline layers around the run; spans built from a registry with
    /// the same profile attached nest under whatever frame is open.
    /// Observe-only, like everything else here.
    pub profile: Option<csprov_obs::Profile>,
}

/// Sampling stride for kernel dispatch events when a journal is attached:
/// matches the progress-observer stride so a journal adds no finer-grained
/// timeline than the observer already sees.
const JOURNAL_DISPATCH_STRIDE: u64 = 8192;

/// Everything a finished run reports besides the packet stream.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// One record per connection attempt.
    pub sessions: Vec<SessionRecord>,
    /// Maps played (initial map + rotations).
    pub maps_played: u32,
    /// Rounds played.
    pub rounds_played: u32,
    /// Trace duration.
    pub duration: SimDuration,
    /// Distinct players seen during each minute (Figure 3's series; can
    /// exceed the slot count when players come and go within a minute).
    pub players_per_minute: Vec<u32>,
    /// Time-averaged concurrent player count.
    pub mean_players: f64,
    /// Total simulator events executed (performance accounting).
    pub events_executed: u64,
    /// Snapshots shed by the server's send-queue limit (0 unless the tick
    /// burst overran `send_queue_limit`).
    pub snapshots_shed: u64,
    /// Ticks whose burst overran the send-queue limit.
    pub tick_overruns: u64,
}

struct ActiveClient {
    stop: StopFlag,
    depart: csprov_sim::EventHandle,
    log_index: usize,
}

struct PendingConnect {
    client: u32,
    /// First-ever appearance of this client identity (a "tourist").
    is_new: bool,
    custom_rate: Option<f64>,
    link: Link,
    log_index: usize,
    issued: SimTime,
}

struct WorldState {
    cfg: ScenarioConfig,
    server: ServerState,
    sink: Rc<RefCell<dyn TraceSink>>,
    middlebox: Option<Rc<dyn Middlebox>>,
    population: Population,
    log: Vec<SessionRecord>,
    next_session: u32,
    outage: bool,
    clients: BTreeMap<u32, ActiveClient>,
    pending: BTreeMap<u32, PendingConnect>,
    seen_this_minute: u32,
    players_per_minute: Vec<u32>,
    player_integral: f64,
    last_count_change: SimTime,
    rounds_played: u32,
    /// Round-robin queue of active content downloads:
    /// `(session, chunk_size, chunks_remaining, stop)`.
    downloads: VecDeque<(u32, u32, u32, StopFlag)>,
    download_pump_active: bool,
    maps: MapRotation,
    rng_arrivals: RngStream,
    rng_clients: RngStream,
    rng_misc: RngStream,
    metrics: Option<GameMetrics>,
    link_metrics: Option<LinkMetrics>,
    journal: Option<csprov_obs::Journal>,
}

type W = Rc<RefCell<WorldState>>;

impl WorldState {
    fn record(&self, time: SimTime, pkt: &Packet) {
        if let Some(m) = &self.metrics {
            m.packets_recorded.incr();
        }
        self.sink
            .borrow_mut()
            .on_packet(&TraceRecord::from_packet(time, pkt));
    }

    /// Delivers a coalesced burst (e.g. one server tick's snapshots) to the
    /// tap in a single columnar sink call; equivalent to `record` per packet.
    fn record_batch(&self, batch: &PacketBatch) {
        if batch.is_empty() {
            return;
        }
        if let Some(m) = &self.metrics {
            m.packets_recorded.add(batch.len() as u64);
        }
        self.sink.borrow_mut().on_columns(batch);
    }

    fn note_player_delta(&mut self, now: SimTime, old_count: usize) {
        let dt = now.saturating_since(self.last_count_change).as_secs_f64();
        self.player_integral += dt * old_count as f64;
        self.last_count_change = now;
    }
}

/// Builds and runs scenarios.
pub struct World;

impl World {
    /// Runs a scenario, streaming packets into `sink`.
    pub fn run(cfg: ScenarioConfig, sink: Rc<RefCell<dyn TraceSink>>) -> TraceOutcome {
        Self::run_with_middlebox(cfg, sink, None)
    }

    /// Runs a scenario with an optional middlebox on the server's uplink.
    pub fn run_with_middlebox(
        cfg: ScenarioConfig,
        sink: Rc<RefCell<dyn TraceSink>>,
        middlebox: Option<Rc<dyn Middlebox>>,
    ) -> TraceOutcome {
        Self::run_instrumented(cfg, sink, middlebox, WorldInstruments::default())
    }

    /// Runs a scenario with optional middlebox and observability
    /// attachments; see [`WorldInstruments`] for the determinism contract.
    pub fn run_instrumented(
        cfg: ScenarioConfig,
        sink: Rc<RefCell<dyn TraceSink>>,
        middlebox: Option<Rc<dyn Middlebox>>,
        instruments: WorldInstruments,
    ) -> TraceOutcome {
        let root = RngStream::new(cfg.seed);
        let server = ServerState::new(cfg.server.clone(), root.derive("server"));
        let mut rng_maps = root.derive("maps");
        let state = Rc::new(RefCell::new(WorldState {
            population: Population::new(cfg.workload.population_theta),
            server,
            sink,
            middlebox,
            log: Vec::new(),
            next_session: 0,
            outage: false,
            clients: BTreeMap::new(),
            pending: BTreeMap::new(),
            seen_this_minute: 0,
            players_per_minute: Vec::new(),
            player_integral: 0.0,
            last_count_change: SimTime::ZERO,
            rounds_played: 0,
            downloads: VecDeque::new(),
            download_pump_active: false,
            maps: MapRotation::new(&mut rng_maps),
            rng_arrivals: root.derive("arrivals"),
            rng_clients: root.derive("clients"),
            rng_misc: root.derive("misc"),
            metrics: instruments.metrics,
            link_metrics: instruments.link_metrics,
            journal: instruments.journal.clone(),
            cfg,
        }));

        let mut sim = Simulator::new();
        if let Some((every, observer)) = instruments.observer {
            sim.set_observer(every, observer);
        }
        if let Some(journal) = instruments.journal {
            sim.set_journal(JOURNAL_DISPATCH_STRIDE, journal);
        }
        if let Some(pacer) = instruments.pacer {
            sim.set_pacer(pacer);
        }
        if let Some(profile) = instruments.profile {
            sim.set_profile(profile);
        }
        schedule_warm_start(&state, &mut sim);
        schedule_arrivals(&state, &mut sim);
        schedule_server_tick(&state, &mut sim);
        schedule_timeout_sweep(&state, &mut sim);
        schedule_map_rotation(&state, &mut sim);
        schedule_rounds(&state, &mut sim);
        schedule_minute_sampler(&state, &mut sim);
        schedule_probes(&state, &mut sim);
        schedule_outages(&state, &mut sim);
        schedule_pending_cleanup(&state, &mut sim);

        let duration = state.borrow().cfg.duration;
        sim.run_until(SimTime::ZERO + duration);

        let end = sim.now();
        let mut st = state.borrow_mut();
        // Break the teardown cycle: a middlebox may still hold queued
        // deliver-closures that reference this world; dropping our edge to
        // the middlebox lets both sides free once the caller drops theirs.
        st.middlebox = None;
        let n = st.server.player_count();
        st.note_player_delta(end, n);
        st.sink.borrow_mut().on_end(end);
        if let Some(m) = &st.metrics {
            m.sim_events.add(sim.events_executed());
            m.sim_queue_hwm.set(sim.queue_high_water() as i64);
            m.snapshots_shed.add(st.server.shed_snapshots());
            m.tick_overruns.add(st.server.overrun_ticks());
        }
        let mean_players = st.player_integral / duration.as_secs_f64().max(1e-9);
        TraceOutcome {
            sessions: std::mem::take(&mut st.log),
            maps_played: st.server.maps_played() + 1, // + the initial map
            rounds_played: st.rounds_played,
            duration,
            players_per_minute: std::mem::take(&mut st.players_per_minute),
            mean_players,
            events_executed: sim.events_executed(),
            snapshots_shed: st.server.shed_snapshots(),
            tick_overruns: st.server.overrun_ticks(),
        }
    }
}

/// Sends an inbound packet through the client's access link, the middlebox
/// (if any), the outage gate, and finally into the server tap.
fn send_inbound(w: &W, sim: &mut Simulator, link: &Link, pkt: Packet) {
    let w2 = w.clone();
    link.send(sim, pkt, move |sim, pkt| {
        let mb = w2.borrow().middlebox.clone();
        match mb {
            Some(mb) => {
                let w3 = w2.clone();
                let deliver: Deliver = Box::new(move |sim, pkt| inbound_arrive(&w3, sim, pkt));
                mb.forward(sim, pkt, deliver);
            }
            None => inbound_arrive(&w2, sim, pkt),
        }
    });
}

/// The server tap for inbound packets.
fn inbound_arrive(w: &W, sim: &mut Simulator, pkt: Packet) {
    let now = sim.now();
    {
        let st = w.borrow();
        if st.outage {
            return; // black-holed between clients and server
        }
        st.record(now, &pkt);
    }
    match pkt.kind {
        PacketKind::ConnectRequest => handle_connect(w, sim, pkt),
        PacketKind::Disconnect => {
            // Session teardown already handled at departure; nothing to do.
        }
        _ => {
            w.borrow_mut().server.heard_from(now, pkt.session);
        }
    }
}

/// Emits an outbound packet: records it at the server tap, then pushes it
/// through the middlebox when one is installed (delivery past the middlebox
/// is the middlebox's own tap business).
fn emit_outbound(w: &W, sim: &mut Simulator, session: u32, kind: PacketKind, app_len: u32) {
    let now = sim.now();
    let pkt = Packet {
        src: server_endpoint(),
        dst: client_endpoint(session),
        app_len,
        kind,
        session,
        direction: Direction::Outbound,
        sent_at: now,
    };
    let mb = {
        let st = w.borrow();
        if st.outage && kind != PacketKind::ConnectReply {
            // The uplink is down: the server's own sends go nowhere. The
            // tap is on the far side of the failure in the paper's setup,
            // so nothing is recorded either.
            return;
        }
        st.record(now, &pkt);
        st.middlebox.clone()
    };
    if let Some(mb) = mb {
        mb.forward(sim, pkt, Box::new(|_, _| {}));
    }
}

fn schedule_server_tick(w: &W, sim: &mut Simulator) {
    let tick = w.borrow().cfg.server.tick;
    let w = w.clone();
    // Scratch buffers reused across ticks; the burst is filled into one
    // column batch and handed to the tap in a single sink call instead of a
    // call per snapshot.
    let mut burst = PacketBatch::new();
    let mut forwards: Vec<Packet> = Vec::new();
    // Cumulative shed count already journaled, so each tick emits only the
    // delta it caused.
    let mut journaled_shed: u64 = 0;
    spawn_periodic(
        sim,
        SimTime::ZERO + tick,
        tick,
        StopFlag::new(),
        move |sim, _| {
            let metrics = w.borrow().metrics.clone();
            let mut guard = metrics
                .as_ref()
                .map(|m| m.tick_span.enter(sim.now().as_nanos()));
            let snaps = {
                let mut st = w.borrow_mut();
                let now = sim.now();
                if let Some(j) = &st.journal {
                    j.emit(
                        now.as_nanos(),
                        "game.tick.begin",
                        0,
                        st.server.player_count() as u64,
                    );
                }
                st.server.tick(now)
            };
            if let Some(m) = &metrics {
                m.snapshots.add(snaps.len() as u64);
                m.snapshot_bytes
                    .add(snaps.iter().map(|&(_, size)| u64::from(size)).sum());
                if let Some(g) = &mut guard {
                    g.add_items(snaps.len() as u64);
                }
            }
            {
                let st = w.borrow();
                if let Some(j) = &st.journal {
                    let now_ns = sim.now().as_nanos();
                    let bytes: u64 = snaps.iter().map(|&(_, size)| u64::from(size)).sum();
                    j.emit(now_ns, "game.tick.end", snaps.len() as u64, bytes);
                    if !snaps.is_empty() {
                        j.emit(now_ns, "game.snapshot.burst", snaps.len() as u64, bytes);
                    }
                    let shed = st.server.shed_snapshots();
                    if shed != journaled_shed {
                        j.emit(now_ns, "game.sendq.shed", 0, shed - journaled_shed);
                        journaled_shed = shed;
                    }
                    j.emit(
                        now_ns,
                        "game.players.level",
                        0,
                        st.server.player_count() as u64,
                    );
                }
            }
            let now = sim.now();
            let mb = {
                let st = w.borrow();
                if st.outage {
                    // The uplink is down for the whole burst: no events run
                    // between snapshots, so the per-packet outage gate of
                    // `emit_outbound` collapses to one check.
                    return;
                }
                st.middlebox.clone()
            };
            burst.clear();
            for &(session, size) in &snaps {
                let pkt = Packet {
                    src: server_endpoint(),
                    dst: client_endpoint(session),
                    app_len: size,
                    kind: PacketKind::StateUpdate,
                    session,
                    direction: Direction::Outbound,
                    sent_at: now,
                };
                if mb.is_some() {
                    forwards.push(pkt);
                }
                burst.push(&TraceRecord::from_packet(now, &pkt));
            }
            w.borrow().record_batch(&burst);
            if let Some(mb) = mb {
                // Forwarding after the batched tap keeps per-packet relative
                // order (and thus event ids) identical to the unbatched
                // record-then-forward sequence: recording schedules nothing.
                for pkt in forwards.drain(..) {
                    mb.forward(sim, pkt, Box::new(|_, _| {}));
                }
            }
        },
    );
}

fn schedule_timeout_sweep(w: &W, sim: &mut Simulator) {
    let w = w.clone();
    spawn_periodic(
        sim,
        SimTime::from_secs(1),
        SimDuration::from_secs(1),
        StopFlag::new(),
        move |sim, _| {
            let now = sim.now();
            let dead = {
                let mut st = w.borrow_mut();
                st.server.sweep_timeouts(now)
            };
            for slot in dead {
                finish_session(&w, sim, slot.session, false);
            }
        },
    );
}

/// Tears down an active session: stops its processes, frees the slot, and
/// stamps the log. `graceful` sessions also emit a Disconnect packet.
fn finish_session(w: &W, sim: &mut Simulator, session: u32, graceful: bool) {
    let now = sim.now();
    let (entry, link_for_bye) = {
        let mut st = w.borrow_mut();
        let entry = st.clients.remove(&session);
        if entry.is_some() {
            let old = st.server.player_count();
            if st.server.disconnect(session).is_some() {
                st.note_player_delta(now, old);
                if let Some(m) = &st.metrics {
                    m.players.set(st.server.player_count() as i64);
                }
            }
        }
        if let Some(e) = &entry {
            st.log[e.log_index].end = Some(now);
        }
        (entry, graceful)
    };
    if let Some(e) = entry {
        e.stop.stop();
        e.depart.cancel();
        if link_for_bye {
            let size = {
                let mut st = w.borrow_mut();
                packets::disconnect_size(&mut st.rng_misc)
            };
            // The farewell datagram: sent directly (its link handle is gone
            // with the client processes; a one-packet approximation).
            let pkt = Packet {
                src: client_endpoint(session),
                dst: server_endpoint(),
                app_len: size,
                kind: PacketKind::Disconnect,
                session,
                direction: Direction::Inbound,
                sent_at: now,
            };
            let w2 = w.clone();
            sim.schedule_in(SimDuration::from_millis(120), move |sim| {
                inbound_arrive(&w2, sim, pkt)
            });
        }
    }
}

fn schedule_map_rotation(w: &W, sim: &mut Simulator) {
    let map_time = w.borrow().cfg.server.map_time;
    let w = w.clone();
    spawn_periodic(
        sim,
        SimTime::ZERO + map_time,
        map_time,
        StopFlag::new(),
        move |sim, _| {
            let stall = {
                let mut st = w.borrow_mut();
                st.server.begin_map_change();
                st.maps.advance();
                let (lo, hi) = st.cfg.server.map_change_stall;
                SimDuration::from_nanos(st.rng_misc.next_range(lo.as_nanos(), hi.as_nanos()))
            };
            let w2 = w.clone();
            sim.schedule_in(stall, move |_sim| {
                w2.borrow_mut().server.end_map_change();
            });
        },
    );
}

fn schedule_rounds(w: &W, sim: &mut Simulator) {
    schedule_next_round(w, sim, SimTime::ZERO);
}

fn schedule_next_round(w: &W, sim: &mut Simulator, at: SimTime) {
    let w2 = w.clone();
    sim.schedule_at(at, move |sim| {
        let (length, freeze) = {
            let mut st = w2.borrow_mut();
            st.rounds_played += 1;
            // Action phase: activity varies round to round.
            st.server.activity = 1.0 + st.rng_misc.next_f64() * 0.6 - 0.15;
            let (lo, hi) = st.cfg.server.round_length;
            let length =
                SimDuration::from_nanos(st.rng_misc.next_range(lo.as_nanos(), hi.as_nanos()));
            (length, st.cfg.server.round_freeze)
        };
        let w3 = w2.clone();
        sim.schedule_in(length, move |sim| {
            w3.borrow_mut().server.activity = 0.35;
            let next = sim.now() + freeze;
            schedule_next_round(&w3, sim, next);
        });
    });
}

fn schedule_minute_sampler(w: &W, sim: &mut Simulator) {
    let w = w.clone();
    spawn_periodic(
        sim,
        SimTime::from_secs(60),
        SimDuration::from_secs(60),
        StopFlag::new(),
        move |_sim, _| {
            let mut st = w.borrow_mut();
            let seen = st.seen_this_minute;
            st.players_per_minute.push(seen);
            st.seen_this_minute = st.server.player_count() as u32;
        },
    );
}

fn schedule_probes(w: &W, sim: &mut Simulator) {
    let (rate, rng) = {
        let st = w.borrow();
        (st.cfg.workload.probe_rate, st.rng_misc.derive("probes"))
    };
    if rate <= 0.0 {
        return;
    }
    let w = w.clone();
    csprov_sim::spawn_poisson(
        sim,
        SimTime::ZERO,
        SimDuration::from_secs_f64(1.0 / rate),
        rng,
        StopFlag::new(),
        move |sim| {
            let now = sim.now();
            let (q, resp, outage) = {
                let mut st = w.borrow_mut();
                let (q, resp) = packets::probe_sizes(&mut st.rng_misc);
                (q, resp, st.outage)
            };
            if outage {
                return;
            }
            let st = w.borrow();
            let query = Packet {
                src: client_endpoint(u32::MAX),
                dst: server_endpoint(),
                app_len: q,
                kind: PacketKind::ServerInfo,
                session: u32::MAX,
                direction: Direction::Inbound,
                sent_at: now,
            };
            st.record(now, &query);
            drop(st);
            let w2 = w.clone();
            sim.schedule_in(SimDuration::from_micros(300), move |sim| {
                emit_outbound(&w2, sim, u32::MAX, PacketKind::ServerInfo, resp);
            });
        },
    );
}

fn schedule_outages(w: &W, sim: &mut Simulator) {
    let outages = w.borrow().cfg.outages.clone();
    for spec in outages {
        let w1 = w.clone();
        sim.schedule_at(SimTime::ZERO + spec.start, move |sim| {
            w1.borrow_mut().outage = true;
            // Clients give up after a few seconds of server silence; the
            // paper's outages all exceeded that, so every player drops.
            let w2 = w1.clone();
            sim.schedule_in(spec.length.max(SimDuration::from_secs(4)), move |sim| {
                w2.borrow_mut().outage = false;
                let sessions: Vec<u32> = w2.borrow().clients.keys().copied().collect();
                let n = sessions.len();
                for s in sessions {
                    finish_session(&w2, sim, s, false);
                }
                schedule_reconnect_wave(&w2, sim, n);
            });
        });
    }
}

/// After an outage, ~40% of players reconnect within seconds (they know the
/// address); the rest trickle back via server discovery over ~10 minutes.
fn schedule_reconnect_wave(w: &W, sim: &mut Simulator, dropped: usize) {
    let mut draws = Vec::new();
    {
        let mut st = w.borrow_mut();
        for _ in 0..dropped {
            let fast = st.rng_misc.chance(0.4);
            let delay_s = if fast {
                1.0 + st.rng_misc.next_f64() * 10.0
            } else if st.rng_misc.chance(0.6) {
                30.0 + st.rng_misc.next_f64() * 600.0
            } else {
                continue; // lost for good
            };
            draws.push(SimDuration::from_secs_f64(delay_s));
        }
    }
    for d in draws {
        let w2 = w.clone();
        sim.schedule_in(d, move |sim| {
            begin_connection_attempt(&w2, sim, None);
        });
    }
}

fn schedule_pending_cleanup(w: &W, sim: &mut Simulator) {
    let w = w.clone();
    spawn_periodic(
        sim,
        SimTime::from_secs(600),
        SimDuration::from_secs(600),
        StopFlag::new(),
        move |sim, _| {
            // Drop handshakes whose request was lost in transit.
            let now = sim.now();
            let mut st = w.borrow_mut();
            st.pending
                .retain(|_, p| now.saturating_since(p.issued) < SimDuration::from_secs(60));
        },
    );
}

/// Seeds the server with the configured number of initial sessions (the
/// paper's "brief warm-up period" left out of the trace).
fn schedule_warm_start(w: &W, sim: &mut Simulator) {
    let n = w.borrow().cfg.initial_players;
    for _ in 0..n {
        begin_connection_attempt(w, sim, None);
    }
}

fn schedule_arrivals(w: &W, sim: &mut Simulator) {
    let (rate, amp, rng) = {
        let st = w.borrow();
        (
            st.cfg.workload.arrival_rate,
            st.cfg.workload.diurnal_amplitude,
            st.rng_arrivals.derive("poisson"),
        )
    };
    // Thinned Poisson: generate at the peak rate, accept with the
    // time-varying probability.
    let peak = rate * (1.0 + amp);
    let w = w.clone();
    csprov_sim::spawn_poisson(
        sim,
        SimTime::ZERO,
        SimDuration::from_secs_f64(1.0 / peak),
        rng,
        StopFlag::new(),
        move |sim| {
            let now = sim.now();
            let accept = {
                let mut st = w.borrow_mut();
                let f = session::diurnal_factor(&st.cfg.workload, now.as_secs_f64());
                let p = f / (1.0 + st.cfg.workload.diurnal_amplitude);
                st.rng_arrivals.chance(p)
            };
            if accept {
                begin_connection_attempt(&w, sim, None);
            }
        },
    );
}

/// Starts one connection attempt. `retry_as` carries the identity of a
/// previously-refused client retrying; fresh attempts draw from the
/// population process.
fn begin_connection_attempt(w: &W, sim: &mut Simulator, retry_as: Option<u32>) {
    let (session, link, req_size) = {
        let mut st = w.borrow_mut();
        let (client, is_new) = match retry_as {
            Some(c) => {
                st.population.note_repeat(c);
                (c, false)
            }
            None => {
                // When the server is full, the in-game browser funnels in
                // first-time visitors (the paper's 2,300 clients who
                // attempted but never established).
                let full = st.server.player_count() >= st.cfg.server.max_players;
                let bias = if full { 4.5 } else { 1.0 };
                let mut rng = st.rng_arrivals.clone();
                let drawn = st.population.draw_biased(&mut rng, bias);
                st.rng_arrivals = rng;
                drawn
            }
        };
        let session = st.next_session;
        st.next_session += 1;

        let mut crng = st.rng_clients.derive_indexed("client", u64::from(session));
        let is_l337 = crng.chance(st.cfg.workload.l337_fraction);
        let link_class = if is_l337 {
            LinkClass::Lan
        } else {
            pick_link_class(&st.cfg.workload.link_mix, &mut crng)
        };
        let link = Link::of_class(link_class, crng.derive("link"));
        if let Some(lm) = &st.link_metrics {
            link.attach_metrics(lm.clone());
        }
        let custom_rate = is_l337.then_some(st.cfg.workload.l337_update_rate);
        let req_size = packets::connect_request_size(&mut crng);

        let log_index = st.log.len();
        st.log.push(SessionRecord {
            session_id: session,
            client_id: client,
            start: sim.now(),
            end: None,
            established: false,
        });
        st.pending.insert(
            session,
            PendingConnect {
                client,
                is_new,
                custom_rate,
                link: link.clone(),
                log_index,
                issued: sim.now(),
            },
        );
        (session, link, req_size)
    };
    let pkt = Packet {
        src: client_endpoint(session),
        dst: server_endpoint(),
        app_len: req_size,
        kind: PacketKind::ConnectRequest,
        session,
        direction: Direction::Inbound,
        sent_at: sim.now(),
    };
    send_inbound(w, sim, &link, pkt);
}

fn pick_link_class(mix: &[(LinkClass, f64)], rng: &mut RngStream) -> LinkClass {
    let total: f64 = mix.iter().map(|&(_, p)| p).sum();
    let mut x = rng.next_f64() * total;
    for &(class, p) in mix {
        if x < p {
            return class;
        }
        x -= p;
    }
    mix.last().map(|&(c, _)| c).unwrap_or(LinkClass::Modem56k)
}

/// Handles a ConnectRequest arriving at the server.
fn handle_connect(w: &W, sim: &mut Simulator, pkt: Packet) {
    let now = sim.now();
    let session = pkt.session;
    let (outcome, reply_size, info) = {
        let mut st = w.borrow_mut();
        let Some(info) = st.pending.remove(&session) else {
            return; // duplicate or stale request
        };
        let outcome = st
            .server
            .try_connect(now, session, info.client, info.custom_rate);
        if outcome == ConnectOutcome::Accepted {
            let old = st.server.player_count() - 1;
            st.note_player_delta(now, old);
            st.log[info.log_index].established = true;
            st.seen_this_minute += 1;
        }
        if let Some(m) = &st.metrics {
            match outcome {
                ConnectOutcome::Accepted => {
                    m.connects_accepted.incr();
                    m.players.set(st.server.player_count() as i64);
                }
                ConnectOutcome::Refused => m.connects_refused.incr(),
            }
        }
        let mut rng = st.rng_misc.clone();
        let reply = packets::connect_reply_size(outcome == ConnectOutcome::Accepted, &mut rng);
        st.rng_misc = rng;
        (outcome, reply, info)
    };
    emit_outbound(w, sim, session, PacketKind::ConnectReply, reply_size);

    match outcome {
        ConnectOutcome::Accepted => establish_session(w, sim, session, info),
        ConnectOutcome::Refused => {
            let (retry, delay) = {
                let mut st = w.borrow_mut();
                // Regulars retry; first-time visitors bounced off a full
                // server mostly move on to the next one in the browser.
                let retry_prob = if info.is_new {
                    st.cfg.workload.retry_prob * 0.5
                } else {
                    st.cfg.workload.retry_prob
                };
                let retry = st.rng_misc.chance(retry_prob);
                let (lo, hi) = st.cfg.workload.retry_delay;
                let delay =
                    SimDuration::from_nanos(st.rng_misc.next_range(lo.as_nanos(), hi.as_nanos()));
                (retry, delay)
            };
            if retry {
                let client = info.client;
                let w2 = w.clone();
                sim.schedule_in(delay, move |sim| {
                    begin_connection_attempt(&w2, sim, Some(client));
                });
            }
        }
    }
}

/// Spawns the per-session client processes after acceptance.
fn establish_session(w: &W, sim: &mut Simulator, session: u32, info: PendingConnect) {
    let stop = StopFlag::new();
    let (duration, cmd_rate, wl) = {
        let st = w.borrow();
        let mut crng = st
            .rng_clients
            .derive_indexed("session-behaviour", u64::from(session));
        let duration = session::session_duration(&st.cfg.workload, &mut crng);
        let cmd_rate = if info.custom_rate.is_some() {
            st.cfg.workload.l337_cmd_rate
        } else {
            session::cmd_rate(&st.cfg.workload, &mut crng)
        };
        (duration, cmd_rate, st.cfg.workload.clone())
    };

    // Departure (cancellable — timeouts and outages beat it).
    let w2 = w.clone();
    let depart = sim.schedule_cancellable_in(duration, move |sim| {
        finish_session(&w2, sim, session, true);
    });

    {
        let mut st = w.borrow_mut();
        st.clients.insert(
            session,
            ActiveClient {
                stop: stop.clone(),
                depart,
                log_index: info.log_index,
            },
        );
    }

    spawn_cmd_stream(w, sim, session, info.link.clone(), cmd_rate, stop.clone());
    if let Some(rate) = info.custom_rate {
        spawn_custom_snapshots(w, sim, session, rate, stop.clone());
    }
    spawn_chatter(w, sim, session, info.link.clone(), &wl, stop.clone());
    maybe_spawn_logo_upload(w, sim, session, info.link.clone(), &wl);
    maybe_spawn_download(w, sim, session, &wl, stop);
}

/// The client's periodic command/movement stream.
fn spawn_cmd_stream(
    w: &W,
    sim: &mut Simulator,
    session: u32,
    link: Link,
    rate_hz: f64,
    stop: StopFlag,
) {
    let period = SimDuration::from_secs_f64(1.0 / rate_hz);
    // Random phase so client streams are mutually unsynchronized (the
    // paper: "incoming packet load is not highly synchronized").
    let phase = {
        let mut st = w.borrow_mut();
        SimDuration::from_nanos(st.rng_misc.next_below(period.as_nanos().max(1)))
    };
    let w = w.clone();
    spawn_periodic(sim, sim.now() + phase, period, stop, move |sim, _| {
        let (size, paused) = {
            let mut st = w.borrow_mut();
            let paused = st.server.changing_map;
            let mut rng = st.rng_clients.clone();
            let size = packets::cmd_size(&st.cfg.workload, &mut rng);
            st.rng_clients = rng;
            (size, paused)
        };
        if paused {
            return; // clients are loading the map too
        }
        let pkt = Packet {
            src: client_endpoint(session),
            dst: server_endpoint(),
            app_len: size,
            kind: PacketKind::ClientCommand,
            session,
            direction: Direction::Inbound,
            sent_at: sim.now(),
        };
        send_inbound(&w, sim, &link, pkt);
    });
}

/// Extra per-client snapshot stream for cranked ("l337") clients.
fn spawn_custom_snapshots(w: &W, sim: &mut Simulator, session: u32, rate_hz: f64, stop: StopFlag) {
    let period = SimDuration::from_secs_f64(1.0 / rate_hz);
    let w = w.clone();
    spawn_periodic(sim, sim.now() + period, period, stop, move |sim, _| {
        let size = {
            let mut st = w.borrow_mut();
            let now = sim.now();
            st.server.snapshot_for(now, session)
        };
        if let Some(size) = size {
            emit_outbound(&w, sim, session, PacketKind::StateUpdate, size);
        }
    });
}

/// Occasional text chat, and voice spurts for voice users.
fn spawn_chatter(
    w: &W,
    sim: &mut Simulator,
    session: u32,
    link: Link,
    wl: &crate::config::WorkloadConfig,
    stop: StopFlag,
) {
    let (text_rng, voice_rng, uses_voice) = {
        let mut st = w.borrow_mut();
        let t = st.rng_clients.derive_indexed("text", u64::from(session));
        let v = st.rng_clients.derive_indexed("voice", u64::from(session));
        let voice_frac = st.cfg.workload.voice_fraction;
        let uses = st.rng_misc.chance(voice_frac);
        (t, v, uses)
    };
    if wl.text_rate > 0.0 {
        let w2 = w.clone();
        let link2 = link.clone();
        csprov_sim::spawn_poisson(
            sim,
            sim.now(),
            SimDuration::from_secs_f64(1.0 / wl.text_rate),
            text_rng,
            stop.clone(),
            move |sim| {
                let size = {
                    let mut st = w2.borrow_mut();
                    packets::text_size(&mut st.rng_misc)
                };
                let pkt = Packet {
                    src: client_endpoint(session),
                    dst: server_endpoint(),
                    app_len: size,
                    kind: PacketKind::TextChat,
                    session,
                    direction: Direction::Inbound,
                    sent_at: sim.now(),
                };
                send_inbound(&w2, sim, &link2, pkt);
            },
        );
    }
    if uses_voice && wl.voice_spurt_rate > 0.0 {
        let spurt_packets = wl.voice_spurt_packets;
        let voice_size = wl.voice_packet_size;
        let w2 = w.clone();
        csprov_sim::spawn_poisson(
            sim,
            sim.now(),
            SimDuration::from_secs_f64(1.0 / wl.voice_spurt_rate),
            voice_rng,
            stop.clone(),
            move |sim| {
                // A talk spurt: packets at 20 Hz through the client link.
                for i in 0..spurt_packets {
                    let w3 = w2.clone();
                    let link3 = link.clone();
                    let at = SimDuration::from_millis(u64::from(i) * 50);
                    sim.schedule_in(at, move |sim| {
                        let pkt = Packet {
                            src: client_endpoint(session),
                            dst: server_endpoint(),
                            app_len: voice_size,
                            kind: PacketKind::Voice,
                            session,
                            direction: Direction::Inbound,
                            sent_at: sim.now(),
                        };
                        send_inbound(&w3, sim, &link3, pkt);
                    });
                }
            },
        );
    }
}

/// Custom-logo upload burst on join, for some clients.
fn maybe_spawn_logo_upload(
    w: &W,
    sim: &mut Simulator,
    session: u32,
    link: Link,
    wl: &crate::config::WorkloadConfig,
) {
    let (go, total) = {
        let mut st = w.borrow_mut();
        let go = st.rng_misc.chance(wl.logo_fraction);
        let total = st
            .rng_misc
            .next_range(u64::from(wl.logo_size.0), u64::from(wl.logo_size.1))
            as u32;
        (go, total)
    };
    if !go {
        return;
    }
    let chunk = 250u32;
    let chunks = total.div_ceil(chunk);
    // Uploaded at ~20 packets/s alongside normal traffic.
    for i in 0..chunks {
        let w2 = w.clone();
        let link2 = link.clone();
        let size = if (i + 1) * chunk <= total {
            chunk
        } else {
            total - i * chunk
        };
        sim.schedule_in(SimDuration::from_millis(u64::from(i) * 50), move |sim| {
            let pkt = Packet {
                src: client_endpoint(session),
                dst: server_endpoint(),
                app_len: size.max(32),
                kind: PacketKind::UploadData,
                session,
                direction: Direction::Inbound,
                sent_at: sim.now(),
            };
            send_inbound(&w2, sim, &link2, pkt);
        });
    }
}

/// Rate-limited map/content download for joining clients that need it.
fn maybe_spawn_download(
    w: &W,
    sim: &mut Simulator,
    session: u32,
    wl: &crate::config::WorkloadConfig,
    stop: StopFlag,
) {
    let (go, total, chunk) = {
        let mut st = w.borrow_mut();
        let go = st.rng_misc.chance(wl.download_fraction);
        let total = st
            .rng_misc
            .next_range(u64::from(wl.download_size.0), u64::from(wl.download_size.1))
            as u32;
        (go, total, st.cfg.server.download_chunk)
    };
    if !go {
        return;
    }
    let remaining = total.div_ceil(chunk);
    {
        let mut st = w.borrow_mut();
        st.downloads.push_back((session, chunk, remaining, stop));
    }
    ensure_download_pump(w, sim);
}

/// The server's shared download limiter: one chunk per `1/download_rate_pps`
/// seconds, round-robin over active downloads — the aggregate rate can never
/// exceed the configured limit (Section II: "rate-limited at the server").
fn ensure_download_pump(w: &W, sim: &mut Simulator) {
    let (start, period) = {
        let mut st = w.borrow_mut();
        if st.download_pump_active || st.downloads.is_empty() {
            return;
        }
        st.download_pump_active = true;
        (
            SimDuration::ZERO,
            SimDuration::from_secs_f64(1.0 / st.cfg.server.download_rate_pps),
        )
    };
    let w2 = w.clone();
    sim.schedule_in(start, move |sim| download_pump(&w2, sim, period));
}

fn download_pump(w: &W, sim: &mut Simulator, period: SimDuration) {
    let job = {
        let mut st = w.borrow_mut();
        loop {
            match st.downloads.pop_front() {
                Some((session, chunk, remaining, stop)) => {
                    if stop.is_stopped() || remaining == 0 {
                        continue; // client left or transfer finished
                    }
                    if remaining > 1 {
                        st.downloads
                            .push_back((session, chunk, remaining - 1, stop));
                    }
                    break Some((session, chunk));
                }
                None => {
                    st.download_pump_active = false;
                    break None;
                }
            }
        }
    };
    if let Some((session, chunk)) = job {
        emit_outbound(w, sim, session, PacketKind::DownloadData, chunk);
        let w2 = w.clone();
        sim.schedule_in(period, move |sim| download_pump(&w2, sim, period));
    }
}
