//! The benchmark's own arithmetic: medians, percentiles and the fleet's
//! idle share.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `p`% of the samples at or below it. 0 for no samples.
#[cfg(test)]
fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn nearest_rank(n: u64, p: f64) -> u64 {
    (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Width of a linear histogram bucket.
const BUCKET_NS: u64 = 10;
/// Samples below this land in linear buckets; longer ones are kept exactly.
const LINEAR_NS: u64 = 2_000_000;

/// Host-time samples (tick gaps) in fixed memory, so the benchmark's own
/// footprint does not grow with the number of iterations a run fits:
/// 10 ns buckets below 2 ms, exact values above.
pub struct GapHistogram {
    buckets: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl Default for GapHistogram {
    fn default() -> Self {
        GapHistogram {
            buckets: vec![0; (LINEAR_NS / BUCKET_NS) as usize],
            over: Vec::new(),
            count: 0,
        }
    }
}

impl GapHistogram {
    /// Forgets every sample, keeping the buckets' memory.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.over.clear();
        self.count = 0;
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank percentile `p` in ns (a bucket reads as its midpoint),
    /// and how many samples lie in higher buckets: a percentile is worth
    /// reporting only with at least ten beyond it. `(0, 0)` when empty.
    pub fn percentile(&mut self, p: f64) -> (f64, u64) {
        if self.count == 0 {
            return (0.0, 0);
        }
        let rank = nearest_rank(self.count, p);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += u64::from(b);
            if seen >= rank {
                let mid = (i as u64 * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
                return (mid, self.count - seen);
            }
        }
        self.over.sort_unstable();
        let k = (rank - seen - 1) as usize;
        let v = self.over[k];
        let beyond = self.over.len() - self.over.partition_point(|&x| x <= v);
        (v as f64, beyond as u64)
    }
}

/// Share of the pool's thread time no shard was running:
/// `1 − Σ busy / (threads × pool wall)`, clamped to `[0, 1]`.
pub fn idle_share(busy_ns: &[u64], threads: usize, pool_wall_ns: u64) -> f64 {
    let capacity = threads as f64 * pool_wall_ns as f64;
    if capacity <= 0.0 {
        return 0.0;
    }
    let busy: f64 = busy_ns.iter().map(|&b| b as f64).sum();
    (1.0 - busy / capacity).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 500);
        assert_eq!(percentile_sorted(&s, 99.0), 990);
        assert_eq!(percentile_sorted(&s, 100.0), 1000);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
        assert_eq!(percentile_sorted(&[42], 99.0), 42);
    }

    #[test]
    fn histogram_matches_exact_percentiles_and_counts_what_lies_beyond() {
        let mut h = GapHistogram::default();
        assert_eq!(h.percentile(99.0), (0.0, 0));
        // 1000 samples, 10.000..19.990 us in 10 ns steps.
        let exact: Vec<u64> = (0..1000).map(|i| 10_000 + i * 10).collect();
        for &x in &exact {
            h.record(x);
        }
        assert_eq!(h.len(), 1000);
        for p in [50.0, 90.0, 99.0] {
            let (v, beyond) = h.percentile(p);
            let want = percentile_sorted(&exact, p) as f64;
            assert!((v - want).abs() <= BUCKET_NS as f64, "p{p}: {v} vs {want}");
            // p99 of 1000 samples leaves exactly ten above it.
            assert_eq!(beyond, 1000 - (p * 10.0) as u64);
        }
    }

    #[test]
    fn histogram_keeps_long_gaps_exact() {
        let mut h = GapHistogram::default();
        for _ in 0..98 {
            h.record(1_000);
        }
        h.record(5_000_000);
        h.record(3_000_000);
        assert_eq!(h.percentile(50.0), (1_005.0, 2));
        assert_eq!(h.percentile(99.0), (3_000_000.0, 1));
        assert_eq!(h.percentile(100.0), (5_000_000.0, 0));
    }

    #[test]
    fn idle_share_formula() {
        // Two threads for 10 s: one busy 10 s, the other 6 s -> 4 of 20 idle.
        let share = idle_share(&[4_000, 6_000, 6_000], 2, 10_000);
        assert!((share - 0.2).abs() < 1e-12, "{share}");
        assert_eq!(idle_share(&[10, 10], 2, 10), 0.0);
        assert_eq!(idle_share(&[], 2, 10), 1.0);
        assert_eq!(idle_share(&[5], 2, 0), 0.0);
        // Clock skew can make busy exceed capacity; the share stays in range.
        assert_eq!(idle_share(&[30], 2, 10), 0.0);
    }
}
