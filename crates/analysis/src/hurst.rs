//! Hurst parameter estimation via the aggregated variance method.
//!
//! This is Section III-B of the paper. The packet-count sequence is binned
//! at a base interval (the paper uses m = 10 ms), then re-aggregated at a
//! ladder of block sizes m; for each m, the variance of the block means is
//! recorded. On a log-log plot of normalized variance against block size, a
//! short-range-dependent process shows slope −1 (H = ½); long-range
//! dependence flattens the slope (`H = 1 − β/2`).
//!
//! Everything is computed in one streaming pass: each base bin is fed to a
//! set of block accumulators, so memory is O(#block sizes) regardless of
//! trace length.

use crate::fit::{fit_line, LineFit};
use crate::merge::MergeError;
use crate::welford::Welford;
use csprov_net::{PacketBatch, TraceRecord, TraceSink};
use csprov_sim::{SimDuration, SimTime};

/// One point of the variance-time plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtPoint {
    /// Block size in base bins.
    pub block: u64,
    /// Block size as wall time.
    pub interval: SimDuration,
    /// Variance of block means, normalized by the base-sequence variance.
    pub normalized_variance: f64,
    /// Number of complete blocks that contributed.
    pub blocks_seen: u64,
}

impl VtPoint {
    /// `log10` of the block size (the paper's x axis).
    pub fn log_block(&self) -> f64 {
        (self.block as f64).log10()
    }

    /// `log10` of the normalized variance (the paper's y axis).
    pub fn log_variance(&self) -> f64 {
        self.normalized_variance.log10()
    }
}

#[derive(Clone)]
struct BlockAcc {
    block: u64,
    sum: f64,
    filled: u64,
    stats: Welford,
}

/// Streaming aggregated-variance estimator.
///
/// Feed it the packet stream (it bins internally at `base`), then call
/// [`VarianceTime::points`] / [`VarianceTime::hurst`].
///
/// ```
/// use csprov_analysis::VarianceTime;
/// use csprov_net::{Direction, PacketKind, TraceRecord, TraceSink};
/// use csprov_sim::{RngStream, SimDuration, SimTime};
///
/// let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1_000, 4);
/// let mut rng = RngStream::new(1);
/// for i in 0..500_000u64 {
///     // Poisson-ish traffic: short-range dependent.
///     if rng.chance(0.5) {
///         vt.on_packet(&TraceRecord {
///             time: SimTime::from_millis(i / 5),
///             direction: Direction::Inbound,
///             kind: PacketKind::ClientCommand,
///             session: 0,
///             app_len: 40,
///         });
///     }
/// }
/// vt.on_end(SimTime::from_secs(100)); // 500k slots at 5 per ms = 100 s
/// // Fit over block sizes with plenty of samples each.
/// let (h, _fit) = vt.hurst(1, 100).ok_or("too few blocks to fit")?;
/// assert!((h - 0.5).abs() < 0.12, "iid traffic has H near 1/2");
/// # Ok::<(), &str>(())
/// ```
#[derive(Clone)]
pub struct VarianceTime {
    base: SimDuration,
    accs: Vec<BlockAcc>,
    current_bin: Option<(u64, u64)>, // (bin index, packet count)
    bins_emitted: u64,
}

impl VarianceTime {
    /// Creates an estimator with base bin `base` and a log-spaced ladder of
    /// block sizes from 1 up to `max_block` base bins (`points_per_decade`
    /// sizes per decade, deduplicated).
    pub fn new(base: SimDuration, max_block: u64, points_per_decade: u32) -> Self {
        assert!(!base.is_zero());
        assert!(max_block >= 1);
        assert!(points_per_decade >= 1);
        let mut blocks = Vec::new();
        let mut k = 0u32;
        loop {
            let b = 10f64.powf(f64::from(k) / f64::from(points_per_decade));
            let b = b.round() as u64;
            if b > max_block {
                break;
            }
            if blocks.last() != Some(&b) {
                blocks.push(b);
            }
            k += 1;
        }
        if blocks.is_empty() {
            blocks.push(1);
        }
        let accs = blocks
            .into_iter()
            .map(|block| BlockAcc {
                block,
                sum: 0.0,
                filled: 0,
                stats: Welford::new(),
            })
            .collect();
        VarianceTime {
            base,
            accs,
            current_bin: None,
            bins_emitted: 0,
        }
    }

    /// Base bin width.
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// Advances `n` empty base bins in closed form per accumulator, instead
    /// of walking the whole ladder once per bin. The Welford push sequence of
    /// each accumulator is exactly what `n` zero-bin ladder walks would have
    /// produced: a zero bin adds `+0.0` to a non-negative partial sum (a
    /// bitwise no-op), so the first block completed inside the gap pushes the
    /// pending `sum / block` and every later one pushes `0.0`. Accumulators
    /// are independent, so reordering the work across them changes nothing.
    fn emit_zero_bins(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.bins_emitted += n;
        for acc in &mut self.accs {
            let completions = (acc.filled + n) / acc.block;
            if completions > 0 {
                acc.stats.push(acc.sum / acc.block as f64);
                for _ in 1..completions {
                    acc.stats.push(0.0);
                }
                acc.sum = 0.0;
            }
            acc.filled = (acc.filled + n) % acc.block;
        }
    }

    /// Flushes the open bin: the zero-bin gap before it and the bin itself
    /// advance each accumulator in one fused ladder walk (half the memory
    /// traffic of `emit_zero_bins` + `emit_bin`), and the gap uses
    /// compare-and-subtract instead of the closed-form division — gaps are
    /// almost always shorter than the block, so the division never pays for
    /// itself on this path. Per accumulator the Welford push sequence is
    /// exactly the gap's pushes followed by the bin's, as in the unfused
    /// walks; accumulators are independent, so fusing changes nothing.
    fn flush_current(&mut self) {
        if let Some((idx, count)) = self.current_bin.take() {
            let gap = idx.saturating_sub(self.bins_emitted);
            self.bins_emitted += gap + 1;
            let x = count as f64;
            for acc in &mut self.accs {
                if gap > 0 {
                    let total = acc.filled + gap;
                    if total < acc.block {
                        acc.filled = total;
                    } else {
                        // See emit_zero_bins: the first completed block
                        // carries the pending sum, the rest are all-zero.
                        acc.stats.push(acc.sum / acc.block as f64);
                        let mut rem = total - acc.block;
                        while rem >= acc.block {
                            acc.stats.push(0.0);
                            rem -= acc.block;
                        }
                        acc.sum = 0.0;
                        acc.filled = rem;
                    }
                }
                acc.sum += x;
                acc.filled += 1;
                if acc.filled == acc.block {
                    acc.stats.push(acc.sum / acc.block as f64);
                    acc.sum = 0.0;
                    acc.filled = 0;
                }
            }
        }
    }

    /// Folds a pre-counted run of same-timestamp packets in, as if `count`
    /// records stamped `time` had been delivered one at a time. A zero-count
    /// run is a no-op. Bin counts are integer sums, so state stays
    /// byte-identical to the per-record path.
    pub fn add_run(&mut self, time: SimTime, count: u64) {
        if count == 0 {
            return;
        }
        let idx = time.bin_index(self.base);
        match &mut self.current_bin {
            Some((cur, c)) if *cur == idx => *c += count,
            Some(_) => {
                self.flush_current();
                self.current_bin = Some((idx, count));
            }
            None => self.current_bin = Some((idx, count)),
        }
    }

    /// Number of base bins processed.
    pub fn bins_seen(&self) -> u64 {
        self.bins_emitted
    }

    /// The variance-time plot: one point per block size that accumulated at
    /// least two complete blocks. Call after the trace ends.
    pub fn points(&self) -> Vec<VtPoint> {
        let base_var = self.accs.first().map(|a| a.stats.variance()).unwrap_or(0.0);
        if base_var <= 0.0 {
            return Vec::new();
        }
        self.accs
            .iter()
            // A block size whose variance is exactly zero (possible only for
            // pathologically periodic synthetic input) has no representable
            // log-variance; drop it rather than emit -inf.
            .filter(|a| a.stats.count() >= 2 && a.stats.variance() > 0.0)
            .map(|a| VtPoint {
                block: a.block,
                interval: self.base.mul_u64(a.block),
                normalized_variance: a.stats.variance() / base_var,
                blocks_seen: a.stats.count(),
            })
            .collect()
    }

    /// Fits the log-log plot over block sizes in `[min_block, max_block]`
    /// and returns `(H, fit)`, with `H = 1 − β/2` clamped to `[0, 1]`.
    ///
    /// The paper reads different slopes off different regions of Figure 5;
    /// the block range selects the region.
    pub fn hurst(&self, min_block: u64, max_block: u64) -> Option<(f64, LineFit)> {
        let pts: Vec<(f64, f64)> = self
            .points()
            .iter()
            .filter(|p| p.block >= min_block && p.block <= max_block)
            .map(|p| (p.log_block(), p.log_variance()))
            .collect();
        let fit = fit_line(&pts)?;
        let beta = -fit.slope;
        let h = (1.0 - beta / 2.0).clamp(0.0, 1.0);
        Some((h, fit))
    }

    /// Concatenates another estimator's state onto this one: `other` is the
    /// *next consecutive segment* of the same packet stream (e.g. one day
    /// of a sharded week). Both sides must use the same base bin and block
    /// ladder, and each should have been finished with `on_end`.
    ///
    /// The merge is exact only when this segment ends on a block boundary
    /// for every ladder entry — i.e. `bins_seen()` is a multiple of every
    /// block size. Otherwise the typed error reports the first mid-block
    /// accumulator rather than silently mis-aligning block means; size
    /// shards so segment lengths are multiples of the largest block.
    /// Merging into a freshly-created estimator is the identity.
    pub fn merge_concat(&mut self, other: &VarianceTime) -> Result<(), MergeError> {
        if self.base != other.base {
            return Err(MergeError::WidthMismatch {
                ours: self.base.as_nanos(),
                theirs: other.base.as_nanos(),
            });
        }
        if self.accs.len() != other.accs.len()
            || self
                .accs
                .iter()
                .zip(&other.accs)
                .any(|(a, b)| a.block != b.block)
        {
            return Err(MergeError::LadderMismatch);
        }
        if self.current_bin.is_some() || other.current_bin.is_some() {
            return Err(MergeError::Unfinished);
        }
        if self.bins_emitted == 0 {
            *self = other.clone();
            return Ok(());
        }
        if let Some(acc) = self.accs.iter().find(|a| a.filled != 0) {
            return Err(MergeError::UnalignedSegment {
                block: acc.block,
                filled: acc.filled,
            });
        }
        for (acc, seg) in self.accs.iter_mut().zip(&other.accs) {
            acc.stats.merge(&seg.stats);
            acc.sum = seg.sum;
            acc.filled = seg.filled;
        }
        self.bins_emitted += other.bins_emitted;
        Ok(())
    }
}

impl TraceSink for VarianceTime {
    fn on_packet(&mut self, rec: &TraceRecord) {
        let idx = rec.time.bin_index(self.base);
        match &mut self.current_bin {
            Some((cur, count)) if *cur == idx => *count += 1,
            Some(_) => {
                self.flush_current();
                self.current_bin = Some((idx, 1));
            }
            None => self.current_bin = Some((idx, 1)),
        }
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        // Fold each run of same-bin rows (a tick burst shares one timestamp)
        // with a single state update: the run scan reads only the timestamp
        // column, one division per run, and each run becomes a single count
        // increment.
        let base = self.base.as_nanos();
        let times = batch.times_ns();
        let n = times.len();
        let mut i = 0;
        while i < n {
            let idx = times[i] / base;
            let lo = idx * base;
            let hi = lo.saturating_add(base);
            let start = i;
            i += 1;
            while i < n && times[i] >= lo && times[i] < hi {
                i += 1;
            }
            let run = (i - start) as u64;
            match &mut self.current_bin {
                Some((cur, count)) if *cur == idx => *count += run,
                Some(_) => {
                    self.flush_current();
                    self.current_bin = Some((idx, run));
                }
                None => self.current_bin = Some((idx, run)),
            }
        }
    }

    fn on_end(&mut self, end: SimTime) {
        self.flush_current();
        // See RateSeries::on_end: a boundary-aligned end opens no new bin.
        let total = end.as_nanos().div_ceil(self.base.as_nanos());
        self.emit_zero_bins(total.saturating_sub(self.bins_emitted));
    }
}

/// Rescaled-range (R/S) Hurst estimation over a binned count series — the
/// classic estimator of Hurst's reservoir paper (which this paper cites),
/// used as a cross-check on the aggregated variance method.
///
/// The series is split into non-overlapping windows of `window` samples; for
/// each, R/S = (max − min of the mean-adjusted cumulative sum) / std-dev.
/// `log(R/S)` grows as `H·log(window)`.
pub fn rs_statistic(series: &[f64], window: usize) -> Option<f64> {
    if window < 4 || series.len() < window {
        return None;
    }
    let mut values = Vec::new();
    for chunk in series.chunks_exact(window) {
        let mean = chunk.iter().sum::<f64>() / window as f64;
        let mut cum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut var = 0.0;
        for &x in chunk {
            cum += x - mean;
            min = min.min(cum);
            max = max.max(cum);
            var += (x - mean) * (x - mean);
        }
        let s = (var / window as f64).sqrt();
        if s > 0.0 {
            values.push((max - min) / s);
        }
    }
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Estimates H by regressing `log10(R/S)` on `log10(window)` over a
/// log-spaced ladder of window sizes between `min_window` and
/// `series.len() / 4`.
pub fn rs_hurst(series: &[f64], min_window: usize) -> Option<(f64, LineFit)> {
    let max_window = series.len() / 4;
    if max_window < min_window.max(4) {
        return None;
    }
    let mut pts = Vec::new();
    let mut w = min_window.max(4);
    while w <= max_window {
        if let Some(rs) = rs_statistic(series, w) {
            pts.push(((w as f64).log10(), rs.log10()));
        }
        w = ((w as f64) * 1.5).ceil() as usize;
    }
    let fit = fit_line(&pts)?;
    Some((fit.slope.clamp(0.0, 1.0), fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::{Direction, PacketKind};
    use csprov_sim::RngStream;

    fn rec(ns: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            direction: Direction::Inbound,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: 40,
        }
    }

    fn feed_counts(vt: &mut VarianceTime, counts: &[u64]) {
        let base = vt.base().as_nanos();
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                vt.on_packet(&rec(i as u64 * base + j));
            }
        }
        vt.on_end(SimTime::from_nanos(counts.len() as u64 * base - 1));
    }

    #[test]
    fn ladder_is_log_spaced_and_deduplicated() {
        let vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        let blocks: Vec<u64> = vt.accs.iter().map(|a| a.block).collect();
        assert_eq!(blocks.first(), Some(&1));
        assert_eq!(blocks.last(), Some(&1000));
        for w in blocks.windows(2) {
            assert!(
                w[0] < w[1],
                "ladder must be strictly increasing: {blocks:?}"
            );
        }
    }

    #[test]
    fn iid_noise_has_hurst_half() {
        // Poisson-ish iid counts: aggregated variance should fall as 1/m.
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        let mut rng = RngStream::new(42);
        let counts: Vec<u64> = (0..200_000).map(|_| rng.next_below(20)).collect();
        feed_counts(&mut vt, &counts);
        let (h, fit) = vt.hurst(1, 1000).unwrap();
        assert!((h - 0.5).abs() < 0.05, "H = {h}, slope = {}", fit.slope);
        assert!(fit.r_squared > 0.98);
    }

    #[test]
    fn constant_rate_is_antipersistent_at_subperiod_scales() {
        // A strictly periodic burst every 5 bins: variance at m >= 5
        // collapses far faster than 1/m (the paper's m < 50 ms region).
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        let counts: Vec<u64> = (0..50_000)
            .map(|i| if i % 5 == 0 { 20 } else { 0 })
            .collect();
        feed_counts(&mut vt, &counts);
        let (h, _) = vt.hurst(1, 50).unwrap();
        assert!(h < 0.4, "periodic bursts must smooth aggressively, H = {h}");
    }

    #[test]
    fn long_range_dependent_series_has_high_hurst() {
        // Per-bin rate modulated by a slowly-mixing on/off process with
        // Pareto sojourn times: a classic LRD construction.
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 10_000, 4);
        let mut rng = RngStream::new(7);
        let mut counts = Vec::with_capacity(400_000);
        let mut on = true;
        while counts.len() < 400_000 {
            // Pareto(shape 1.2) sojourn in bins — infinite variance.
            let u: f64 = rng.next_f64_open();
            let sojourn = (5.0 / u.powf(1.0 / 1.2)).min(50_000.0) as usize;
            let rate = if on { 20 } else { 2 };
            for _ in 0..sojourn.max(1) {
                counts.push(rate);
            }
            on = !on;
        }
        feed_counts(&mut vt, &counts);
        let (h, _) = vt.hurst(10, 10_000).unwrap();
        assert!(h > 0.7, "LRD construction should give high H, got {h}");
    }

    #[test]
    fn empty_trace_has_no_points() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        vt.on_end(SimTime::from_secs(1));
        assert!(vt.points().is_empty());
        assert!(vt.hurst(1, 100).is_none());
    }

    #[test]
    fn gaps_are_zero_bins() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        vt.on_packet(&rec(0));
        vt.on_packet(&rec(100 * 1_000_000)); // 100 ms later
        vt.on_end(SimTime::from_millis(109));
        assert_eq!(vt.bins_seen(), 11);
    }

    #[test]
    fn rs_hurst_of_iid_noise_is_near_half() {
        let mut rng = RngStream::new(21);
        let series: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
        let (h, fit) = rs_hurst(&series, 16).unwrap();
        // R/S on iid data biases slightly above 0.5 at finite n (the
        // Anis–Lloyd correction); accept the classic band.
        assert!((0.45..0.65).contains(&h), "H = {h}");
        assert!(fit.r_squared > 0.95);
    }

    #[test]
    fn rs_hurst_detects_persistence() {
        // A long-memory series: sum of a slowly varying level plus noise.
        let mut rng = RngStream::new(22);
        let mut level = 0.0_f64;
        let series: Vec<f64> = (0..100_000)
            .map(|_| {
                // Random walk level (strong persistence) plus noise.
                level += rng.next_f64() - 0.5;
                level + rng.next_f64()
            })
            .collect();
        let (h, _) = rs_hurst(&series, 16).unwrap();
        assert!(h > 0.8, "random-walk level must read persistent: H = {h}");
    }

    #[test]
    fn rs_degenerate_inputs() {
        assert!(rs_statistic(&[], 8).is_none());
        assert!(
            rs_statistic(&[1.0; 10], 16).is_none(),
            "series shorter than window"
        );
        assert!(
            rs_statistic(&[5.0; 64], 8).is_none(),
            "constant series has no std"
        );
        assert!(rs_hurst(&[1.0; 8], 4).is_none());
    }

    #[test]
    fn rs_and_aggregated_variance_agree_on_noise() {
        let mut rng = RngStream::new(23);
        let counts: Vec<u64> = (0..200_000).map(|_| rng.next_below(20)).collect();
        let series: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let (h_rs, _) = rs_hurst(&series, 16).unwrap();

        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        feed_counts(&mut vt, &counts);
        let (h_av, _) = vt.hurst(1, 1000).unwrap();
        assert!(
            (h_rs - h_av).abs() < 0.15,
            "estimators must roughly agree: R/S {h_rs} vs AV {h_av}"
        );
    }

    #[test]
    fn concat_of_aligned_segments_matches_monolithic() {
        // 2000 bins split at 1000, a multiple of every block size in the
        // decade ladder {1, 10, 100} — the merge is exact up to the
        // parallel-combine rounding of Welford::merge.
        let mut rng = RngStream::new(31);
        let counts: Vec<u64> = (0..2000).map(|_| rng.next_below(15)).collect();

        let mut whole = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut whole, &counts);

        let mut left = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut left, &counts[..1000]);
        let mut right = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut right, &counts[1000..]);
        left.merge_concat(&right).unwrap();

        assert_eq!(left.bins_seen(), whole.bins_seen());
        let (a, b) = (left.points(), whole.points());
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.block, pb.block);
            assert_eq!(pa.blocks_seen, pb.blocks_seen);
            assert!(
                (pa.normalized_variance - pb.normalized_variance).abs() < 1e-9,
                "block {}: {} vs {}",
                pa.block,
                pa.normalized_variance,
                pb.normalized_variance
            );
        }
    }

    #[test]
    fn concat_into_fresh_is_identity() {
        let mut rng = RngStream::new(32);
        let counts: Vec<u64> = (0..500).map(|_| rng.next_below(9)).collect();
        let mut src = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        feed_counts(&mut src, &counts);

        let mut fresh = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        fresh.merge_concat(&src).unwrap();
        assert_eq!(fresh.bins_seen(), src.bins_seen());
        // Identity is an exact clone: every point matches bit-for-bit.
        for (pa, pb) in fresh.points().iter().zip(&src.points()) {
            assert_eq!(pa.block, pb.block);
            assert_eq!(pa.blocks_seen, pb.blocks_seen);
            assert_eq!(
                pa.normalized_variance.to_bits(),
                pb.normalized_variance.to_bits()
            );
        }
    }

    #[test]
    fn concat_rejects_misaligned_and_mismatched() {
        // Left ends mid-block for the largest block size: typed error names
        // the offending accumulator.
        let mut left = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        feed_counts(&mut left, &[1; 15]); // 15 bins: block 10 is mid-block
        let mut right = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        feed_counts(&mut right, &[1; 10]);
        match left.merge_concat(&right) {
            Err(MergeError::UnalignedSegment { block, filled }) => {
                assert_eq!((block, filled), (2, 1));
            }
            other => panic!("expected UnalignedSegment, got {other:?}"),
        }

        // Base-width mismatch.
        let mut a = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        let b = VarianceTime::new(SimDuration::from_millis(20), 10, 4);
        assert!(matches!(
            a.merge_concat(&b),
            Err(MergeError::WidthMismatch { .. })
        ));

        // Ladder mismatch.
        let c = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        assert!(matches!(
            a.merge_concat(&c),
            Err(MergeError::LadderMismatch)
        ));

        // Unfinished right side (mid-trace: on_end not delivered).
        let mut d = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        d.on_packet(&rec(0));
        assert!(matches!(a.merge_concat(&d), Err(MergeError::Unfinished)));
    }

    #[test]
    fn normalized_variance_starts_at_one() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        let mut rng = RngStream::new(9);
        let counts: Vec<u64> = (0..10_000).map(|_| rng.next_below(10)).collect();
        feed_counts(&mut vt, &counts);
        let pts = vt.points();
        assert_eq!(pts[0].block, 1);
        assert!((pts[0].normalized_variance - 1.0).abs() < 1e-12);
        assert_eq!(pts[0].interval, SimDuration::from_millis(10));
    }
}
