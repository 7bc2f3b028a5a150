//! Columnar-ingest determinism boundary: the struct-of-arrays fast path
//! must be unobservable. Every analyzer reaches byte-identical state
//! whether a burst arrives as per-record `on_packet` calls or through the
//! columnar `on_columns` path — including the uniform-timestamp burst
//! shortcut — and the journal's buffered writer lane stores exactly the
//! events plain `emit` would.

use csprov::pipeline::FullAnalysis;
use csprov_game::{ScenarioConfig, World};
use csprov_net::{Direction, PacketBatch, PacketKind, TraceRecord, TraceSink};
use csprov_obs::{BroadcastBus, BusEvent, Journal};
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// splitmix64: tiny, seedable, and good enough to randomize burst shapes.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A randomized stream of delivery bursts. Roughly half the bursts share
/// one timestamp (a server tick, the uniform-burst fast path); the rest
/// spread over a few milliseconds (the general columnar path). Rows mix
/// directions, every packet kind, sessionless probes (`u32::MAX`), and
/// sizes straddling the histogram's overflow bound.
fn random_bursts(seed: u64, bursts: usize) -> Vec<Vec<TraceRecord>> {
    let mut rng = seed;
    let mut t_ns: u64 = 0;
    let mut out = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        t_ns += 1_000_000 + next(&mut rng) % 60_000_000;
        let n = (next(&mut rng) % 40) as usize; // empty bursts included
        let uniform = next(&mut rng) % 2 == 0;
        let mut burst = Vec::with_capacity(n);
        let mut off = 0;
        for _ in 0..n {
            if !uniform {
                off += next(&mut rng) % 200_000;
            }
            let kind = PacketKind::ALL[(next(&mut rng) % 12) as usize];
            let session = match next(&mut rng) % 10 {
                0 => u32::MAX,
                s => s as u32 + (next(&mut rng) % 24) as u32,
            };
            burst.push(TraceRecord {
                time: SimTime::from_nanos(t_ns + off),
                direction: if next(&mut rng) % 3 == 0 {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                },
                kind,
                session,
                app_len: (next(&mut rng) % 620) as u32,
            });
        }
        out.push(burst);
    }
    out
}

/// The per-record reference the columnar path is diffed against: the
/// trait's default `on_columns` replays every burst row by row through
/// `on_packet`, so no analyzer's columnar code ever runs.
struct PerRecord(FullAnalysis);

impl TraceSink for PerRecord {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.0.on_packet(rec);
    }

    fn on_end(&mut self, end: SimTime) {
        self.0.on_end(end);
    }
}

/// Counts the batched calls a producer makes before forwarding them.
struct CallCount<S> {
    inner: S,
    on_batch: u64,
    on_columns: u64,
}

impl<S: TraceSink> TraceSink for CallCount<S> {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.inner.on_packet(rec);
    }

    fn on_batch(&mut self, recs: &[TraceRecord]) {
        self.on_batch += 1;
        self.inner.on_batch(recs);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        self.on_columns += 1;
        self.inner.on_columns(batch);
    }

    fn on_end(&mut self, end: SimTime) {
        self.inner.on_end(end);
    }
}

fn run_through<S: TraceSink>(mut sink: S, bursts: &[Vec<TraceRecord>], end: SimTime) -> S {
    for burst in bursts {
        sink.on_columns(&PacketBatch::from_records(burst));
    }
    sink.on_end(end);
    sink
}

/// Deep equality across every analyzer two ingest paths must agree on.
/// This is the artifact surface: tables and figures are pure functions of
/// this state, so equality here is byte-identity of the repro outputs.
fn assert_identical(a: &FullAnalysis, b: &FullAnalysis, what: &str) {
    assert_eq!(a.counts.total_packets(), b.counts.total_packets(), "{what}");
    assert_eq!(
        a.counts.total_wire_bytes(),
        b.counts.total_wire_bytes(),
        "{what}"
    );
    for d in [Direction::Inbound, Direction::Outbound] {
        assert_eq!(a.counts.packets_in(d), b.counts.packets_in(d), "{what}");
        assert_eq!(a.counts.app_bytes_in(d), b.counts.app_bytes_in(d), "{what}");
        assert_eq!(
            a.counts.wire_bytes_in(d),
            b.counts.wire_bytes_in(d),
            "{what}"
        );
        assert_eq!(a.sizes.total(d), b.sizes.total(d), "{what}");
        assert_eq!(a.sizes.overflow(d), b.sizes.overflow(d), "{what}");
        assert_eq!(a.sizes.pdf(d), b.sizes.pdf(d), "{what}");
    }
    let series = [
        (&a.per_minute, &b.per_minute, "per_minute"),
        (&a.per_minute_in, &b.per_minute_in, "per_minute_in"),
        (&a.per_minute_out, &b.per_minute_out, "per_minute_out"),
        (&a.ms10_total, &b.ms10_total, "ms10_total"),
        (&a.ms10_in, &b.ms10_in, "ms10_in"),
        (&a.ms10_out, &b.ms10_out, "ms10_out"),
        (&a.ms50_total, &b.ms50_total, "ms50_total"),
        (&a.sec1_total, &b.sec1_total, "sec1_total"),
        (&a.min30_total, &b.min30_total, "min30_total"),
    ];
    for (sa, sb, name) in series {
        assert_eq!(sa.bins(), sb.bins(), "{what}: {name} bins");
        let (wa, wb) = (sa.bin_stats(), sb.bin_stats());
        assert_eq!(wa.count(), wb.count(), "{what}: {name} stats count");
        // Bit-exact, not approximate: both paths must fold the same f64s
        // in the same order.
        assert_eq!(
            wa.mean().to_bits(),
            wb.mean().to_bits(),
            "{what}: {name} stats mean"
        );
        assert_eq!(
            wa.variance().to_bits(),
            wb.variance().to_bits(),
            "{what}: {name} stats variance"
        );
    }
    assert_eq!(
        a.variance_time.bins_seen(),
        b.variance_time.bins_seen(),
        "{what}"
    );
    let (pa, pb) = (a.variance_time.points(), b.variance_time.points());
    assert_eq!(pa.len(), pb.len(), "{what}: vt points");
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.block, y.block, "{what}");
        assert_eq!(x.blocks_seen, y.blocks_seen, "{what}");
        assert_eq!(
            x.normalized_variance.to_bits(),
            y.normalized_variance.to_bits(),
            "{what}"
        );
    }
    assert_eq!(a.flows.len(), b.flows.len(), "{what}");
    for (session, fa) in a.flows.iter() {
        let fb = b.flows.get(*session).unwrap_or_else(|| {
            panic!("{what}: flow {session} present in one path only");
        });
        assert_eq!(fa.first, fb.first, "{what}");
        assert_eq!(fa.last, fb.last, "{what}");
        assert_eq!(fa.packets, fb.packets, "{what}");
        assert_eq!(fa.wire_bytes, fb.wire_bytes, "{what}");
        assert_eq!(fa.app_bytes, fb.app_bytes, "{what}");
    }
    let (la, lb) = (
        a.flows.long_flows(SimDuration::from_secs(1)),
        b.flows.long_flows(SimDuration::from_secs(1)),
    );
    assert_eq!(la.len(), lb.len(), "{what}");
    for (x, y) in la.iter().zip(&lb) {
        assert_eq!(x.first, y.first, "{what}: long_flows order");
        assert_eq!(x.packets, y.packets, "{what}: long_flows order");
    }
}

#[test]
fn columnar_matches_per_record_on_randomized_streams() {
    let duration = SimDuration::from_mins(10);
    let end = SimTime::from_nanos(duration.as_nanos());
    for seed in [1, 42, 0xdead_beef, 7_777_777] {
        let bursts = random_bursts(seed, 400);
        // Three deliveries of the same stream: the columnar path, the
        // per-record reference behind the default `on_columns`, and raw
        // on_packet calls.
        let columnar = run_through(FullAnalysis::new(duration), &bursts, end);
        let per_record = run_through(PerRecord(FullAnalysis::new(duration)), &bursts, end).0;
        let mut packet = FullAnalysis::new(duration);
        for burst in &bursts {
            for rec in burst {
                packet.on_packet(rec);
            }
        }
        packet.on_end(end);
        assert_identical(
            &columnar,
            &per_record,
            &format!("seed {seed}: soa vs per-record"),
        );
        assert_identical(
            &columnar,
            &packet,
            &format!("seed {seed}: soa vs on_packet"),
        );
    }
}

#[test]
fn uniform_tick_bursts_match_per_record() {
    // Every burst shares one timestamp, so the columnar path takes the
    // run-folded uniform-burst shortcut for the whole stream.
    let duration = SimDuration::from_mins(5);
    let end = SimTime::from_nanos(duration.as_nanos());
    let mut rng = 99u64;
    let mut bursts = Vec::new();
    for tick in 0..2_000u64 {
        let t = SimTime::from_nanos(tick * 50_000_000);
        let n = (next(&mut rng) % 30) as usize;
        bursts.push(
            (0..n)
                .map(|_| TraceRecord {
                    time: t,
                    direction: if next(&mut rng) % 4 == 0 {
                        Direction::Inbound
                    } else {
                        Direction::Outbound
                    },
                    kind: PacketKind::StateUpdate,
                    session: (next(&mut rng) % 24) as u32,
                    app_len: (next(&mut rng) % 400) as u32,
                })
                .collect(),
        );
    }
    let columnar = run_through(FullAnalysis::new(duration), &bursts, end);
    let per_record = run_through(PerRecord(FullAnalysis::new(duration)), &bursts, end).0;
    assert_identical(&columnar, &per_record, "uniform ticks");
}

#[test]
fn seeded_world_run_is_identical_across_ingest_paths() {
    // The real producer: a seeded world run delivers genuine server-tick
    // bursts. Bypassing the fast path must leave every artifact source
    // byte-identical.
    let cfg = ScenarioConfig::new(2024, SimDuration::from_mins(3));
    fn run<S: TraceSink + 'static>(cfg: &ScenarioConfig, sink: S) -> S {
        let sink = Rc::new(RefCell::new(sink));
        let _ = World::run(cfg.clone(), sink.clone());
        Rc::try_unwrap(sink)
            .map_err(|_| ())
            .expect("world must release the sink")
            .into_inner()
    }
    let counted = run(
        &cfg,
        CallCount {
            inner: FullAnalysis::new(cfg.duration),
            on_batch: 0,
            on_columns: 0,
        },
    );
    assert_eq!(counted.on_batch, 0, "the world never calls on_batch");
    assert!(counted.on_columns > 0, "tick bursts arrive as columns");
    let columnar = counted.inner;
    let per_record = run(&cfg, PerRecord(FullAnalysis::new(cfg.duration))).0;
    assert_identical(&columnar, &per_record, "seeded world run");
}

#[test]
fn journal_writer_lane_stores_exactly_what_emit_would() {
    // Plain emit vs the buffered writer lane, across chunk rotations and
    // past the capacity bound: stored events and drop accounting agree.
    let capacity = 5_000;
    let plain = Journal::with_capacity(capacity);
    let buffered = Journal::with_capacity(capacity);
    let mut writer = buffered.writer("batch.ev");
    for i in 0..8_192u64 {
        plain.emit(i, "batch.ev", i, i * 3);
        writer.emit(i, i, i * 3);
        if i % 1_900 == 0 {
            writer.flush();
        }
    }
    writer.flush();
    assert_eq!(plain.len(), buffered.len());
    assert_eq!(plain.dropped(), buffered.dropped());
    let (a, b) = (plain.events(), buffered.events());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            (x.sim_ns, x.kind, x.key, x.value),
            (y.sim_ns, y.kind, y.key, y.value)
        );
    }
}

#[test]
fn journal_writer_lane_preserves_tap_delivery() {
    // With a live tap attached the writer lane degrades to per-event
    // forwarding; subscribers must see the same events either way.
    let collect = |use_writer: bool| {
        let journal = Journal::with_capacity(64);
        let bus = BroadcastBus::new();
        let sub = bus.subscribe(256);
        journal.set_tap(bus);
        if use_writer {
            let mut w = journal.writer("tap.ev");
            for i in 0..100u64 {
                w.emit(i, i, i + 1);
            }
            w.flush();
        } else {
            for i in 0..100u64 {
                journal.emit(i, "tap.ev", i, i + 1);
            }
        }
        let mut seen = Vec::new();
        while let Some(ev) = sub.try_recv() {
            if let BusEvent::Trace(t) = ev {
                seen.push((t.sim_ns, t.kind, t.key, t.value));
            }
        }
        (journal.events().len(), journal.dropped(), seen)
    };
    assert_eq!(collect(false), collect(true));
}
