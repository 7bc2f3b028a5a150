//! Benchmarks for the streaming analyzers — these sit on the per-packet
//! hot path of every reproduction run.

use csprov::pipeline::FullAnalysis;
use csprov_analysis::{FlowTable, RateSeries, SizeHistogram, VarianceTime, Welford};
use csprov_bench::harness::{black_box, Harness, Throughput};
use csprov_net::{Direction, PacketBatch, PacketKind, TraceRecord, TraceSink};
use csprov_sim::{RngStream, SimDuration, SimTime};

fn synthetic_records(n: usize) -> Vec<TraceRecord> {
    let mut rng = RngStream::new(3);
    (0..n)
        .map(|i| TraceRecord {
            time: SimTime::from_micros(i as u64 * 1250), // 800 pps
            direction: if rng.chance(0.55) {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            kind: PacketKind::ClientCommand,
            session: rng.next_below(22) as u32,
            app_len: 30 + rng.next_below(200) as u32,
        })
        .collect()
}

fn bench_sinks(h: &mut Harness) {
    let records = synthetic_records(100_000);
    let mut g = h.group("analysis_ingest");
    g.throughput(Throughput::Elements(records.len() as u64));

    g.bench_function("rate_series_100k", |b| {
        b.iter(|| {
            let mut s = RateSeries::new(SimDuration::from_millis(10));
            for r in &records {
                s.on_packet(r);
            }
            s.on_end(SimTime::from_secs(125));
            black_box(s.bin_stats().mean())
        })
    });

    g.bench_function("variance_time_100k", |b| {
        b.iter(|| {
            let mut vt = VarianceTime::new(SimDuration::from_millis(10), 10_000, 8);
            for r in &records {
                vt.on_packet(r);
            }
            vt.on_end(SimTime::from_secs(125));
            black_box(vt.points().len())
        })
    });

    g.bench_function("size_histogram_100k", |b| {
        b.iter(|| {
            let mut h = SizeHistogram::new(500);
            for r in &records {
                h.on_packet(r);
            }
            black_box(h.mean(Direction::Inbound))
        })
    });

    g.bench_function("flow_table_100k", |b| {
        b.iter(|| {
            let mut t = FlowTable::new();
            for r in &records {
                t.on_packet(r);
            }
            black_box(t.len())
        })
    });

    g.finish();
}

/// Records shaped like what the server tap batches: every 50 ms tick, a
/// burst of simultaneous outbound snapshots, one per player. (Inbound
/// command packets are delivered singly by the tap either way, so they are
/// not part of the batched-vs-per-record comparison.)
fn tick_burst_records(bursts: usize, players: u32) -> Vec<TraceRecord> {
    let mut rng = RngStream::new(7);
    let mut recs = Vec::new();
    for tick in 0..bursts {
        let t = SimTime::from_micros(tick as u64 * 50_000);
        for session in 0..players {
            recs.push(TraceRecord {
                time: t,
                direction: Direction::Outbound,
                kind: PacketKind::StateUpdate,
                session,
                app_len: 80 + rng.next_below(300) as u32,
            });
        }
    }
    recs
}

fn bench_pipeline_ingest(h: &mut Harness) {
    // The full 13-analyzer composite behind the server tap, fed the same
    // snapshot-burst stream through its two ingest paths: record-by-record
    // `on_packet` (inbound arrivals) vs one columnar `on_columns` call per
    // tick burst, the batch the world fills each tick.
    let burst = 22usize; // one snapshot per player per 50 ms tick
    let records = tick_burst_records(100_000 / burst, burst as u32);
    let n = records.len() as u64;
    let end = records.last().unwrap().time + SimDuration::from_millis(50);
    let mut g = h.group("pipeline_ingest");
    g.throughput(Throughput::Elements(n));

    g.bench_function("full_analysis_per_record_100k", |b| {
        b.iter(|| {
            let mut a = FullAnalysis::new(SimDuration::from_secs(3600));
            let sink: &mut dyn TraceSink = &mut a;
            for r in &records {
                sink.on_packet(r);
            }
            sink.on_end(end);
            black_box(a.counts.total_packets())
        })
    });

    let batches: Vec<PacketBatch> = records
        .chunks(burst)
        .map(PacketBatch::from_records)
        .collect();
    g.bench_function("full_analysis_soa_100k", |b| {
        b.iter(|| {
            let mut a = FullAnalysis::new(SimDuration::from_secs(3600));
            let sink: &mut dyn TraceSink = &mut a;
            for batch in &batches {
                sink.on_columns(batch);
            }
            sink.on_end(end);
            black_box(a.counts.total_packets())
        })
    });

    g.finish();
}

fn bench_welford(h: &mut Harness) {
    let mut g = h.group("welford");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("push_1m", |b| {
        let xs: Vec<f64> = (0..1_000_000).map(|i| (i % 997) as f64).collect();
        b.iter(|| {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            black_box(w.variance())
        })
    });
    g.finish();
}

fn bench_hurst_full_pipeline(h: &mut Harness) {
    // The variance-time estimator at full-trace block ladder: the most
    // expensive analyzer per packet.
    let records = synthetic_records(100_000);
    let mut g = h.group("hurst");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("week_scale_ladder_100k", |b| {
        b.iter(|| {
            let mut vt = VarianceTime::new(SimDuration::from_millis(10), 7_800_000, 8);
            for r in &records {
                vt.on_packet(r);
            }
            vt.on_end(SimTime::from_secs(125));
            black_box(vt.bins_seen())
        })
    });
    g.finish();
}

fn bench_fleet_merge(h: &mut Harness) {
    // Folding per-shard analysis state into the facility aggregate — the
    // serial tail of every fleet run, O(shards) in memory and time.
    const SHARDS: usize = 64;
    let records = synthetic_records(20_000);
    let shards: Vec<(RateSeries, SizeHistogram)> = (0..SHARDS)
        .map(|_| {
            let mut s = RateSeries::new(SimDuration::from_secs(1));
            let mut hist = SizeHistogram::new(500);
            for r in &records {
                s.on_packet(r);
                hist.on_packet(r);
            }
            s.on_end(SimTime::from_secs(25));
            (s, hist)
        })
        .collect();

    let mut g = h.group("fleet_merge");
    g.throughput(Throughput::Elements(SHARDS as u64));
    g.bench_function("superpose_64_shards", |b| {
        b.iter(|| {
            let (mut series, mut hist) = shards[0].clone();
            for (s, sh) in &shards[1..] {
                series.merge_superpose(s).expect("same shape");
                hist.merge(sh).expect("same shape");
            }
            black_box((series.bin_stats().mean(), hist.mean(Direction::Inbound)))
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_sinks(&mut h);
    bench_pipeline_ingest(&mut h);
    bench_welford(&mut h);
    bench_hurst_full_pipeline(&mut h);
    bench_fleet_merge(&mut h);
}
