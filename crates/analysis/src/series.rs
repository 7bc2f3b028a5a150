//! Interval binning of the packet stream.
//!
//! [`RateSeries`] is the workhorse behind Figures 1, 2, 4, 6–10 of the
//! paper: it folds the trace into fixed-width bins of packet and byte
//! counts, optionally filtered by direction, optionally keeping only the
//! first `limit` bins (Figures 6–8 plot only the first 200 intervals, so a
//! 10 ms binning of a week-long trace need not allocate 60 M bins).

use crate::merge::MergeError;
use crate::welford::Welford;
use csprov_net::{Direction, PacketBatch, TraceRecord, TraceSink, WIRE_OVERHEAD_BYTES};
use csprov_sim::{SimDuration, SimTime};

/// One bin of a [`RateSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateBin {
    /// Packets observed in the bin.
    pub packets: u64,
    /// Wire bytes observed in the bin.
    pub wire_bytes: u64,
}

/// Streaming fixed-width binning of packets and bytes.
///
/// ```
/// use csprov_analysis::RateSeries;
/// use csprov_net::{Direction, PacketKind, TraceRecord, TraceSink};
/// use csprov_sim::{SimDuration, SimTime};
///
/// let mut s = RateSeries::new(SimDuration::from_millis(10));
/// for ms in [1u64, 4, 12] {
///     s.on_packet(&TraceRecord {
///         time: SimTime::from_millis(ms),
///         direction: Direction::Inbound,
///         kind: PacketKind::ClientCommand,
///         session: 1,
///         app_len: 40,
///     });
/// }
/// s.on_end(SimTime::from_millis(19));
/// assert_eq!(s.bins().len(), 2);
/// assert_eq!(s.pps(), vec![200.0, 100.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RateSeries {
    pub(crate) width: SimDuration,
    pub(crate) filter: Option<Direction>,
    pub(crate) skip: u64,
    pub(crate) limit: Option<usize>,
    pub(crate) bins: Vec<RateBin>,
    /// Total bins emitted (stored or not); stored bins are a prefix.
    pub(crate) emitted: u64,
    pub(crate) stats: Welford,
    pub(crate) current: Option<(u64, RateBin)>,
    pub(crate) end: Option<SimTime>,
}

impl RateSeries {
    /// Creates a series with the given bin width over all packets.
    pub fn new(width: SimDuration) -> Self {
        Self::with_options(width, None, None)
    }

    /// Creates a series with a direction filter and/or a cap on stored bins.
    ///
    /// `stats` (per-bin packet-count mean/variance) is maintained over *all*
    /// bins regardless of the cap; the cap only bounds the stored vector.
    pub fn with_options(
        width: SimDuration,
        filter: Option<Direction>,
        limit: Option<usize>,
    ) -> Self {
        Self::with_window(width, filter, 0, limit)
    }

    /// Creates a series that stores only bins in `[skip, skip + limit)` —
    /// e.g. the paper's Figures 6–8 plot a 200-bin window taken after the
    /// trace has warmed up. Statistics still cover every bin.
    pub fn with_window(
        width: SimDuration,
        filter: Option<Direction>,
        skip: u64,
        limit: Option<usize>,
    ) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        RateSeries {
            width,
            filter,
            skip,
            limit,
            bins: Vec::new(),
            emitted: 0,
            stats: Welford::new(),
            current: None,
            end: None,
        }
    }

    /// Bin width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    fn flush_current(&mut self) {
        if let Some((idx, bin)) = self.current.take() {
            // Materialize any empty bins between the last emitted bin and idx.
            while self.emitted < idx {
                self.push_bin(RateBin::default());
            }
            self.push_bin(bin);
        }
    }

    fn push_bin(&mut self, bin: RateBin) {
        let index = self.emitted;
        self.emitted += 1;
        self.stats.push(bin.packets as f64);
        if index >= self.skip && self.limit.map_or(true, |l| self.bins.len() < l) {
            self.bins.push(bin);
        }
    }

    /// Folds a pre-aggregated run of same-timestamp packets into the series,
    /// as if `packets` records totalling `wire_bytes` on the wire — all
    /// stamped `time`, all passing this series' direction filter — had been
    /// delivered one at a time. The caller is responsible for the filtering:
    /// pass the matching direction's lane totals only. A zero-packet run is
    /// a no-op (a burst with nothing for this series never opens or flushes
    /// a bin, exactly like a run of filtered-out records).
    ///
    /// Bin contents are integer sums, so one pre-folded add leaves state
    /// byte-identical to the per-record path.
    pub fn add_run(&mut self, time: SimTime, packets: u64, wire_bytes: u64) {
        if packets == 0 {
            return;
        }
        let idx = time.bin_index(self.width);
        match &mut self.current {
            Some((cur, bin)) if *cur == idx => {
                bin.packets += packets;
                bin.wire_bytes += wire_bytes;
            }
            Some(_) => {
                self.flush_current();
                self.current = Some((
                    idx,
                    RateBin {
                        packets,
                        wire_bytes,
                    },
                ));
            }
            None => {
                self.current = Some((
                    idx,
                    RateBin {
                        packets,
                        wire_bytes,
                    },
                ));
            }
        }
    }

    /// The stored bins (a prefix of all bins if a limit was set).
    pub fn bins(&self) -> &[RateBin] {
        &self.bins
    }

    /// Per-bin packet-count statistics over all bins seen.
    pub fn bin_stats(&self) -> &Welford {
        &self.stats
    }

    /// Packets-per-second for each stored bin.
    pub fn pps(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.bins.iter().map(|b| b.packets as f64 / w).collect()
    }

    /// Bandwidth in kilobits per second for each stored bin.
    pub fn kbps(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.bins
            .iter()
            .map(|b| b.wire_bytes as f64 * 8.0 / w / 1_000.0)
            .collect()
    }

    /// End-of-trace time, if `on_end` has been delivered.
    pub fn end(&self) -> Option<SimTime> {
        self.end
    }

    /// True if the series has seen neither packets nor `on_end` — the
    /// freshly-constructed identity element for [`RateSeries::merge_superpose`].
    pub fn is_fresh(&self) -> bool {
        self.emitted == 0 && self.current.is_none() && self.end.is_none()
    }

    /// Superposes another finished series onto this one: the receiving
    /// series becomes the *aggregate* of two concurrent traffic sources,
    /// with per-bin packet and byte counts added element-wise.
    ///
    /// Both series must share bin width, direction filter and stored
    /// window, and both must be finished (`on_end` delivered). Merging
    /// into a fresh series is the identity: the receiver becomes a
    /// bit-for-bit clone of `other`, so a fleet of one merges to exactly
    /// its monolithic analysis.
    ///
    /// When the series have different stored lengths the aggregate is
    /// truncated to the shorter one (an aggregate bin is only meaningful
    /// where every source contributed), and the number of tail bins
    /// dropped from the longer side is returned so callers can surface it
    /// instead of hiding it. After a ≥2-way merge, [`RateSeries::bin_stats`]
    /// is recomputed over the merged stored bins (a pure function of the
    /// final bins, so any merge order of the same shard set yields
    /// byte-identical statistics).
    pub fn merge_superpose(&mut self, other: &RateSeries) -> Result<u64, MergeError> {
        if self.width != other.width {
            return Err(MergeError::WidthMismatch {
                ours: self.width.as_nanos(),
                theirs: other.width.as_nanos(),
            });
        }
        if self.filter != other.filter {
            return Err(MergeError::FilterMismatch);
        }
        if self.skip != other.skip || self.limit != other.limit {
            return Err(MergeError::WindowMismatch);
        }
        if other.end.is_none() || other.current.is_some() {
            return Err(MergeError::Unfinished);
        }
        if self.is_fresh() {
            *self = other.clone();
            return Ok(0);
        }
        if self.end.is_none() || self.current.is_some() {
            return Err(MergeError::Unfinished);
        }
        let keep = self.bins.len().min(other.bins.len());
        let dropped = (self.bins.len().max(other.bins.len()) - keep) as u64;
        self.bins.truncate(keep);
        for (bin, add) in self.bins.iter_mut().zip(&other.bins[..keep]) {
            bin.packets += add.packets;
            bin.wire_bytes += add.wire_bytes;
        }
        self.emitted = self.emitted.min(other.emitted);
        self.end = self.end.min(other.end);
        self.stats = Welford::new();
        for bin in &self.bins {
            self.stats.push(bin.packets as f64);
        }
        Ok(dropped)
    }
}

impl TraceSink for RateSeries {
    fn on_packet(&mut self, rec: &TraceRecord) {
        if let Some(f) = self.filter {
            if rec.direction != f {
                return;
            }
        }
        let idx = rec.time.bin_index(self.width);
        match &mut self.current {
            Some((cur, bin)) if *cur == idx => {
                bin.packets += 1;
                bin.wire_bytes += u64::from(rec.wire_len());
            }
            Some(_) => {
                self.flush_current();
                self.current = Some((
                    idx,
                    RateBin {
                        packets: 1,
                        wire_bytes: u64::from(rec.wire_len()),
                    },
                ));
            }
            None => {
                self.current = Some((
                    idx,
                    RateBin {
                        packets: 1,
                        wire_bytes: u64::from(rec.wire_len()),
                    },
                ));
            }
        }
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        // A tick burst shares one timestamp, so rows fold in runs that share
        // a bin. Runs are found by scanning only the timestamp column (a
        // range check against the bin's bounds, one division per run), and
        // the per-run accumulation reads only the size column (plus the tag
        // column when filtered) — a tight integer loop over dense memory.
        // Bin flush order, and therefore the Welford push sequence, matches
        // the per-record path exactly: a filtered-out row contributes
        // nothing either way.
        let width = self.width.as_nanos();
        let times = batch.times_ns();
        let lens = batch.app_lens();
        let tags = batch.tags();
        let n = times.len();
        let want: Option<u8> = self.filter.map(|f| match f {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        });
        let mut i = 0;
        while i < n {
            if let Some(w) = want {
                if tags[i] >> 7 != w {
                    i += 1;
                    continue;
                }
            }
            let idx = times[i] / width;
            let lo = idx * width;
            let hi = lo.saturating_add(width);
            let mut bin = match self.current.take() {
                Some((cur, bin)) if cur == idx => bin,
                Some(other) => {
                    self.current = Some(other);
                    self.flush_current();
                    RateBin::default()
                }
                None => RateBin::default(),
            };
            bin.packets += 1;
            bin.wire_bytes += u64::from(lens[i]) + u64::from(WIRE_OVERHEAD_BYTES);
            i += 1;
            match want {
                None => {
                    // Unfiltered run: find the run end on the timestamp
                    // column, then accumulate the size column branch-free.
                    let start = i;
                    while i < n && times[i] >= lo && times[i] < hi {
                        i += 1;
                    }
                    let mut app: u64 = 0;
                    for len in &lens[start..i] {
                        app += u64::from(*len);
                    }
                    bin.packets += (i - start) as u64;
                    bin.wire_bytes += app + (i - start) as u64 * u64::from(WIRE_OVERHEAD_BYTES);
                }
                Some(w) => {
                    while i < n {
                        if tags[i] >> 7 != w {
                            i += 1;
                            continue;
                        }
                        let t = times[i];
                        if t < lo || t >= hi {
                            break;
                        }
                        bin.packets += 1;
                        bin.wire_bytes += u64::from(lens[i]) + u64::from(WIRE_OVERHEAD_BYTES);
                        i += 1;
                    }
                }
            }
            self.current = Some((idx, bin));
        }
    }

    fn on_end(&mut self, end: SimTime) {
        self.flush_current();
        // Materialize trailing empty bins up to the end of the trace so the
        // series length reflects trace duration, not last-packet time. An
        // end falling exactly on a bin boundary closes the previous bin
        // without opening a new one.
        let total_bins = end.as_nanos().div_ceil(self.width.as_nanos());
        while self.emitted < total_bins {
            self.push_bin(RateBin::default());
        }
        self.end = Some(end);
    }
}

/// A sampled gauge series (e.g. players connected), binned by mean value.
///
/// Samples arrive as `(time, value)` pairs; each bin reports the mean of the
/// samples that fell in it, carrying forward the previous value for empty
/// bins (a step function, matching how the paper plots player counts).
#[derive(Debug, Clone)]
pub struct GaugeSeries {
    width: SimDuration,
    sums: Vec<(f64, u64)>,
    last_value: f64,
}

impl GaugeSeries {
    /// Creates a gauge series with the given bin width.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero());
        GaugeSeries {
            width,
            sums: Vec::new(),
            last_value: 0.0,
        }
    }

    /// Records a sample.
    pub fn sample(&mut self, time: SimTime, value: f64) {
        let idx = time.bin_index(self.width) as usize;
        while self.sums.len() <= idx {
            self.sums.push((0.0, 0));
        }
        let (sum, n) = &mut self.sums[idx];
        *sum += value;
        *n += 1;
        self.last_value = value;
    }

    /// Per-bin mean values; empty bins repeat the previous bin's value.
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.sums.len());
        let mut prev = 0.0;
        for &(sum, n) in &self.sums {
            let v = if n > 0 { sum / n as f64 } else { prev };
            out.push(v);
            prev = v;
        }
        out
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::PacketKind;

    fn rec(ms: u64, dir: Direction, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(ms),
            direction: dir,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: len,
        }
    }

    #[test]
    fn bins_count_packets_and_bytes() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.on_packet(&rec(0, Direction::Inbound, 42)); // wire 100
        s.on_packet(&rec(5, Direction::Outbound, 42));
        s.on_packet(&rec(12, Direction::Inbound, 142)); // wire 200
        s.on_end(SimTime::from_millis(29));
        assert_eq!(s.bins().len(), 3);
        assert_eq!(
            s.bins()[0],
            RateBin {
                packets: 2,
                wire_bytes: 200
            }
        );
        assert_eq!(
            s.bins()[1],
            RateBin {
                packets: 1,
                wire_bytes: 200
            }
        );
        assert_eq!(s.bins()[2], RateBin::default());
    }

    #[test]
    fn pps_and_kbps() {
        let mut s = RateSeries::new(SimDuration::from_millis(100));
        for i in 0..5 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 67)); // wire 125 B
        }
        s.on_end(SimTime::from_millis(99));
        assert_eq!(s.pps(), vec![50.0]);
        // 5 * 125 B = 625 B in 0.1 s → 50 kbps.
        assert_eq!(s.kbps(), vec![50.0]);
    }

    #[test]
    fn gaps_materialize_empty_bins() {
        let mut s = RateSeries::new(SimDuration::from_secs(1));
        s.on_packet(&rec(500, Direction::Inbound, 40));
        s.on_packet(&rec(3_500, Direction::Inbound, 40));
        s.on_end(SimTime::from_millis(3_999));
        let pkts: Vec<u64> = s.bins().iter().map(|b| b.packets).collect();
        assert_eq!(pkts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn direction_filter() {
        let mut s = RateSeries::with_options(
            SimDuration::from_millis(10),
            Some(Direction::Outbound),
            None,
        );
        s.on_packet(&rec(1, Direction::Inbound, 40));
        s.on_packet(&rec(2, Direction::Outbound, 130));
        s.on_packet(&rec(3, Direction::Outbound, 130));
        s.on_end(SimTime::from_millis(9));
        assert_eq!(s.bins()[0].packets, 2);
    }

    #[test]
    fn limit_caps_storage_but_not_stats() {
        let mut s = RateSeries::with_options(SimDuration::from_millis(10), None, Some(3));
        for i in 0..10 {
            s.on_packet(&rec(i * 10 + 1, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(99));
        assert_eq!(s.bins().len(), 3);
        assert_eq!(s.bin_stats().count(), 10);
        assert!((s.bin_stats().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_skips_prefix() {
        let mut s = RateSeries::with_window(SimDuration::from_millis(10), None, 5, Some(3));
        for i in 0..100u64 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 40));
            s.on_packet(&rec(i * 10 + 2, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(999));
        assert_eq!(s.bins().len(), 3);
        // All bins carry 2 packets; stats cover all 100 bins.
        assert!(s.bins().iter().all(|b| b.packets == 2));
        assert_eq!(s.bin_stats().count(), 100);
    }

    #[test]
    fn trailing_empty_bins_padded_to_end() {
        let mut s = RateSeries::new(SimDuration::from_secs(1));
        s.on_packet(&rec(100, Direction::Inbound, 40));
        s.on_end(SimTime::from_millis(4_999));
        assert_eq!(s.bins().len(), 5);
        assert_eq!(s.bin_stats().count(), 5);
    }

    #[test]
    fn bin_stats_variance_of_constant_rate_is_zero() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        for i in 0..100u64 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 40));
            s.on_packet(&rec(i * 10 + 5, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(999));
        assert!((s.bin_stats().mean() - 2.0).abs() < 1e-12);
        assert!(s.bin_stats().variance() < 1e-12);
    }

    #[test]
    fn superpose_adds_bins_elementwise() {
        let feed = |offsets: &[u64]| {
            let mut s = RateSeries::new(SimDuration::from_secs(1));
            for &ms in offsets {
                s.on_packet(&rec(ms, Direction::Inbound, 40));
            }
            s.on_end(SimTime::from_millis(2_999));
            s
        };
        let mut a = feed(&[100, 200, 1_100]);
        let b = feed(&[150, 2_500]);
        assert_eq!(a.merge_superpose(&b), Ok(0));
        let pkts: Vec<u64> = a.bins().iter().map(|x| x.packets).collect();
        assert_eq!(pkts, vec![3, 1, 1]);
        // Stats are recomputed over the merged bins.
        assert_eq!(a.bin_stats().count(), 3);
        assert!((a.bin_stats().mean() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn superpose_into_fresh_is_identity() {
        let mut src = RateSeries::new(SimDuration::from_secs(1));
        src.on_packet(&rec(100, Direction::Inbound, 40));
        src.on_packet(&rec(1_600, Direction::Outbound, 130));
        src.on_end(SimTime::from_millis(1_999));
        let mut fresh = RateSeries::new(SimDuration::from_secs(1));
        assert!(fresh.is_fresh());
        assert_eq!(fresh.merge_superpose(&src), Ok(0));
        assert_eq!(fresh.bins(), src.bins());
        assert_eq!(fresh.bin_stats().count(), src.bin_stats().count());
        assert_eq!(fresh.bin_stats().mean(), src.bin_stats().mean());
        assert_eq!(fresh.bin_stats().variance(), src.bin_stats().variance());
        assert_eq!(fresh.end(), src.end());
        assert!(!fresh.is_fresh());
    }

    #[test]
    fn superpose_counts_dropped_tail_bins() {
        let feed = |end_ms: u64| {
            let mut s = RateSeries::new(SimDuration::from_secs(1));
            s.on_packet(&rec(100, Direction::Inbound, 40));
            s.on_end(SimTime::from_millis(end_ms));
            s
        };
        let mut short = feed(1_999); // 2 bins
        let long = feed(4_999); // 5 bins
        assert_eq!(short.merge_superpose(&long), Ok(3));
        assert_eq!(short.bins().len(), 2);
    }

    #[test]
    fn superpose_order_independent_bins() {
        let feed = |seedish: u64| {
            let mut s = RateSeries::new(SimDuration::from_millis(100));
            for i in 0..20u64 {
                s.on_packet(&rec(i * 97 + seedish, Direction::Inbound, 40));
            }
            s.on_end(SimTime::from_millis(1_999));
            s
        };
        let (a, b, c) = (feed(1), feed(5), feed(11));
        let mut ab = RateSeries::new(SimDuration::from_millis(100));
        for s in [&a, &b, &c] {
            ab.merge_superpose(s).unwrap();
        }
        let mut cb = RateSeries::new(SimDuration::from_millis(100));
        for s in [&c, &b, &a] {
            cb.merge_superpose(s).unwrap();
        }
        assert_eq!(ab.bins(), cb.bins());
        assert_eq!(ab.bin_stats().mean(), cb.bin_stats().mean());
        assert_eq!(ab.bin_stats().variance(), cb.bin_stats().variance());
    }

    #[test]
    fn superpose_rejects_mismatch_and_unfinished() {
        let mut a = RateSeries::new(SimDuration::from_secs(1));
        a.on_packet(&rec(0, Direction::Inbound, 40));
        a.on_end(SimTime::from_millis(999));
        let b = RateSeries::new(SimDuration::from_secs(2));
        assert!(matches!(
            a.merge_superpose(&b),
            Err(MergeError::WidthMismatch { .. })
        ));
        let c = RateSeries::with_options(SimDuration::from_secs(1), Some(Direction::Inbound), None);
        assert_eq!(a.merge_superpose(&c), Err(MergeError::FilterMismatch));
        let d = RateSeries::with_window(SimDuration::from_secs(1), None, 3, None);
        assert_eq!(a.merge_superpose(&d), Err(MergeError::WindowMismatch));
        let mut unfinished = RateSeries::new(SimDuration::from_secs(1));
        unfinished.on_packet(&rec(0, Direction::Inbound, 40));
        assert_eq!(a.merge_superpose(&unfinished), Err(MergeError::Unfinished));
    }

    #[test]
    fn gauge_series_step_function() {
        let mut g = GaugeSeries::new(SimDuration::from_secs(60));
        g.sample(SimTime::from_secs(30), 10.0);
        g.sample(SimTime::from_secs(45), 12.0);
        g.sample(SimTime::from_secs(200), 8.0);
        assert_eq!(g.len(), 4);
        let v = g.values();
        assert_eq!(v[0], 11.0); // mean of 10 and 12
        assert_eq!(v[1], 11.0); // carried forward
        assert_eq!(v[2], 11.0);
        assert_eq!(v[3], 8.0);
        assert!(!g.is_empty());
    }
}
