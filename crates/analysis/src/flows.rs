//! Per-flow (per-session) accounting.
//!
//! Reproduces the Figure 11 analysis: the mean bandwidth of every session
//! measured at the server, which the paper shows is pegged at modem rates —
//! the *narrowest last-mile link saturation* result.

use crate::histogram::Histogram;
use csprov_net::{Direction, PacketBatch, TraceRecord, TraceSink, WIRE_OVERHEAD_BYTES};
use csprov_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier for the rustc-style multiply-rotate mix below.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed multiply-rotate hasher for the small integer keys the flow
/// table uses. The standard library's SipHash is keyed per process and costs
/// more than the whole flow update for a `u32` session id; this mix is a few
/// cycles, and its fixed seed makes table internals reproducible across
/// processes (all exported orderings are explicitly sorted regardless).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Accumulated statistics for one flow (session).
#[derive(Debug, Clone, Copy)]
pub struct FlowStats {
    /// First packet time.
    pub first: SimTime,
    /// Last packet time.
    pub last: SimTime,
    /// Packets by direction `[in, out]`.
    pub packets: [u64; 2],
    /// Wire bytes by direction `[in, out]`.
    pub wire_bytes: [u64; 2],
    /// Application bytes by direction `[in, out]`.
    pub app_bytes: [u64; 2],
}

impl FlowStats {
    /// Flow duration (last − first packet).
    pub fn duration(&self) -> SimDuration {
        self.last.saturating_since(self.first)
    }

    /// Total wire bytes both ways.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes[0] + self.wire_bytes[1]
    }

    /// Mean two-way bandwidth in bits per second over the flow's lifetime.
    /// Zero-duration flows report zero.
    pub fn mean_bandwidth_bps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            self.total_wire_bytes() as f64 * 8.0 / d
        }
    }
}

/// Streaming per-flow accounting keyed by session id.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: HashMap<u32, FlowStats, FxBuildHasher>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flows seen.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows have been seen.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Looks up one flow.
    pub fn get(&self, session: u32) -> Option<&FlowStats> {
        self.flows.get(&session)
    }

    /// Iterates over all flows.
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &FlowStats)> {
        self.flows.iter()
    }

    /// Flows lasting at least `min_duration` (the paper uses 30 s for
    /// Figure 11, to exclude connection probes), ordered by first-packet
    /// time with the session id as tiebreak — a total order, so the result
    /// is independent of hash-table iteration order.
    pub fn long_flows(&self, min_duration: SimDuration) -> Vec<&FlowStats> {
        let mut v: Vec<(&u32, &FlowStats)> = self
            .flows
            .iter()
            .filter(|(_, f)| f.duration() >= min_duration)
            .collect();
        v.sort_by_key(|(session, f)| (f.first, **session));
        v.into_iter().map(|(_, f)| f).collect()
    }

    /// Builds the Figure 11 histogram: mean per-flow bandwidth (bps) of
    /// flows lasting at least `min_duration`, binned at `bin_bps` over
    /// `[0, max_bps)`.
    pub fn bandwidth_histogram(
        &self,
        min_duration: SimDuration,
        max_bps: f64,
        bins: usize,
    ) -> Histogram {
        let mut h = Histogram::new(0.0, max_bps, bins);
        for f in self.long_flows(min_duration) {
            h.record(f.mean_bandwidth_bps());
        }
        h
    }
}

impl TraceSink for FlowTable {
    fn on_packet(&mut self, rec: &TraceRecord) {
        if rec.session == u32::MAX {
            return; // sessionless traffic (server-browser probes)
        }
        let dir = match rec.direction {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        };
        let entry = self.flows.entry(rec.session).or_insert(FlowStats {
            first: rec.time,
            last: rec.time,
            packets: [0; 2],
            wire_bytes: [0; 2],
            app_bytes: [0; 2],
        });
        entry.last = rec.time;
        entry.packets[dir] += 1;
        entry.wire_bytes[dir] += u64::from(rec.wire_len());
        entry.app_bytes[dir] += u64::from(rec.app_len);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        // Command bursts repeat a session back-to-back, so one entry lookup
        // serves a whole run of same-session rows; the run scan walks only
        // the session column. Flow accumulation is integer addition plus a
        // last-write-wins timestamp, so run order alone determines the final
        // state — identical to per-record delivery.
        let times = batch.times_ns();
        let lens = batch.app_lens();
        let sessions = batch.sessions();
        let tags = batch.tags();
        let n = sessions.len();
        let mut i = 0;
        while i < n {
            let session = sessions[i];
            if session == u32::MAX {
                i += 1;
                continue; // sessionless traffic (server-browser probes)
            }
            let t = SimTime::from_nanos(times[i]);
            let entry = self.flows.entry(session).or_insert(FlowStats {
                first: t,
                last: t,
                packets: [0; 2],
                wire_bytes: [0; 2],
                app_bytes: [0; 2],
            });
            loop {
                let dir = usize::from(tags[i] >> 7);
                entry.last = SimTime::from_nanos(times[i]);
                entry.packets[dir] += 1;
                entry.wire_bytes[dir] += u64::from(lens[i]) + u64::from(WIRE_OVERHEAD_BYTES);
                entry.app_bytes[dir] += u64::from(lens[i]);
                i += 1;
                if i >= n || sessions[i] != session {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::PacketKind;

    fn rec(ms: u64, session: u32, dir: Direction, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(ms),
            direction: dir,
            kind: PacketKind::ClientCommand,
            session,
            app_len: len,
        }
    }

    #[test]
    fn accumulates_per_flow() {
        let mut t = FlowTable::new();
        t.on_packet(&rec(0, 1, Direction::Inbound, 40));
        t.on_packet(&rec(1000, 1, Direction::Outbound, 130));
        t.on_packet(&rec(500, 2, Direction::Inbound, 40));
        assert_eq!(t.len(), 2);
        let f = t.get(1).unwrap();
        assert_eq!(f.packets, [1, 1]);
        assert_eq!(f.app_bytes, [40, 130]);
        assert_eq!(f.wire_bytes, [98, 188]);
        assert_eq!(f.duration(), SimDuration::from_secs(1));
    }

    #[test]
    fn mean_bandwidth() {
        let mut t = FlowTable::new();
        // Two zero-payload packets 10 s apart: each is 58 wire bytes, so
        // 116 B * 8 / 10 s = 92.8 bps.
        t.on_packet(&rec(0, 1, Direction::Inbound, 0));
        t.on_packet(&rec(10_000, 1, Direction::Outbound, 0));
        let f = t.get(1).unwrap();
        assert!((f.mean_bandwidth_bps() - 92.8).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_flow_reports_zero_bandwidth() {
        let mut t = FlowTable::new();
        t.on_packet(&rec(5, 1, Direction::Inbound, 40));
        assert_eq!(t.get(1).unwrap().mean_bandwidth_bps(), 0.0);
    }

    #[test]
    fn sessionless_traffic_ignored() {
        let mut t = FlowTable::new();
        t.on_packet(&rec(0, u32::MAX, Direction::Inbound, 40));
        assert!(t.is_empty());
    }

    #[test]
    fn long_flows_filter_and_order() {
        let mut t = FlowTable::new();
        t.on_packet(&rec(0, 1, Direction::Inbound, 40));
        t.on_packet(&rec(40_000, 1, Direction::Inbound, 40));
        t.on_packet(&rec(10_000, 2, Direction::Inbound, 40));
        t.on_packet(&rec(15_000, 2, Direction::Inbound, 40)); // 5 s: too short
        t.on_packet(&rec(5_000, 3, Direction::Inbound, 40));
        t.on_packet(&rec(45_000, 3, Direction::Inbound, 40));
        let long = t.long_flows(SimDuration::from_secs(30));
        assert_eq!(long.len(), 2);
        assert!(long[0].first <= long[1].first);
    }

    #[test]
    fn bandwidth_histogram_modem_peg() {
        let mut t = FlowTable::new();
        // Three flows: ~40 kbps for 60 s each.
        for s in 0..3u32 {
            for i in 0..600u64 {
                // 10 pkts/s of 442+58=500 wire bytes = 40 kbps.
                t.on_packet(&rec(i * 100, s, Direction::Outbound, 442));
            }
        }
        let h = t.bandwidth_histogram(SimDuration::from_secs(30), 150_000.0, 75);
        assert_eq!(h.total(), 3);
        // 10 pps * 500 B * 8 = 40 kbps → bin starting at 40 kbps (2 kbps bins).
        assert_eq!(h.mode_bin(), Some(40_000.0));
    }
}
