//! The benchmark's tap: a `TraceSink` wrapped around the analysis that
//! counts packets, notes when the first record arrives (set-up time) and
//! takes one timestamp per server tick burst (tick latency). In the traced
//! run it also opens the ingest and fold spans.

use crate::span::{self, Name};
use csprov::net::{PacketBatch, TraceRecord, TraceSink};
use csprov::sim::SimTime;
use csprov_obs::Profile;
use std::time::Instant;

/// Wraps the sink the world writes into.
pub struct Tap<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Records delivered, by any method.
    pub packets: u64,
    /// Records that arrived in a burst sharing one timestamp.
    pub uniform_records: u64,
    /// When the first record arrived.
    pub first_record: Option<Instant>,
    /// Host time between successive tick bursts one tick period apart.
    pub tick_gaps_ns: Vec<u64>,
    tick_ns: u64,
    last_burst: Option<(u64, Instant)>,
    /// Frames the program's own profiled tap opens (`pipeline.ingest`,
    /// `pipeline.fold`), so an observed run's profile has the same shape.
    profile: Option<Profile>,
}

impl<S: TraceSink> Tap<S> {
    /// A tap for a run of `horizon_ns` with server tick `tick_ns`.
    pub fn new(inner: S, tick_ns: u64, horizon_ns: u64, profile: Option<Profile>) -> Self {
        Tap {
            inner,
            packets: 0,
            uniform_records: 0,
            first_record: None,
            // Reserved up front so recording a gap never allocates mid-run.
            tick_gaps_ns: Vec::with_capacity((horizon_ns / tick_ns.max(1)) as usize + 1),
            tick_ns,
            last_burst: None,
            profile,
        }
    }

    fn burst(&mut self, time: SimTime, len: usize, uniform: bool) {
        let now = Instant::now();
        if self.first_record.is_none() {
            self.first_record = Some(now);
        }
        let sim_ns = time.as_nanos();
        if let Some((last_sim, last_host)) = self.last_burst {
            let one_tick = sim_ns.saturating_sub(last_sim) == self.tick_ns;
            if one_tick && self.tick_gaps_ns.len() < self.tick_gaps_ns.capacity() {
                self.tick_gaps_ns
                    .push(now.duration_since(last_host).as_nanos() as u64);
            }
        }
        self.last_burst = Some((sim_ns, now));
        self.packets += len as u64;
        if uniform {
            self.uniform_records += len as u64;
        }
    }
}

impl<S: TraceSink> TraceSink for Tap<S> {
    fn on_packet(&mut self, rec: &TraceRecord) {
        if self.first_record.is_none() {
            self.first_record = Some(Instant::now());
        }
        self.packets += 1;
        let _span = span::enter(Name::IngestPacket);
        self.inner.on_packet(rec);
    }

    fn on_batch(&mut self, recs: &[TraceRecord]) {
        let (Some(first), Some(last)) = (recs.first(), recs.last()) else {
            return;
        };
        self.burst(first.time, recs.len(), first.time == last.time);
        let _frame = self.profile.as_ref().map(|p| {
            let mut f = p.enter("pipeline.ingest");
            f.add_items(recs.len() as u64);
            f
        });
        let _span = span::enter(Name::IngestBatch);
        self.inner.on_batch(recs);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        let times = batch.times_ns();
        let (Some(&first), Some(&last)) = (times.first(), times.last()) else {
            return;
        };
        self.burst(SimTime::from_nanos(first), batch.len(), first == last);
        let _frame = self.profile.as_ref().map(|p| {
            let mut f = p.enter("pipeline.ingest");
            f.add_items(batch.len() as u64);
            f
        });
        let _span = span::enter(Name::IngestBatch);
        self.inner.on_columns(batch);
    }

    fn on_end(&mut self, end: SimTime) {
        let _frame = self.profile.as_ref().map(|p| p.enter("pipeline.fold"));
        let _span = span::enter(Name::Fold);
        self.inner.on_end(end);
    }
}
