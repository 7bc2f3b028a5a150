//! Facility-scale fleet simulation with mergeable analysis state.
//!
//! Section IV-B's provisioning argument is about an *aggregation* of
//! servers: aggregate game traffic is effectively linear in active players,
//! so a hosting facility can be sized by extrapolation from one busy
//! server. This module runs that extrapolation forward: it shards hundreds
//! of independent simulated servers across the work-stealing pool
//! ([`crate::sweep::work_steal`]), reduces each run to a compact
//! [`ShardState`] *inside the worker* (the full per-run analysis — 18,000
//! stored 1 s bins, variance-time ladders, flow tables — is dropped before
//! the next shard starts), and folds the shard states into one
//! [`FacilityAnalysis`] with the typed merge operations from
//! `csprov_analysis`. Memory is O(shards), not O(shards × trace).
//!
//! Determinism contract:
//! - shard seeds are derived per index ([`csprov_sim::RngStream::derive_seed`]),
//!   so each shard's traffic is independent of fleet size and thread count;
//! - shard states are folded in canonical shard-index order, and the
//!   per-bin merge is integer superposition, so any permutation of the same
//!   shard set produces a byte-identical facility aggregate;
//! - dropped tail bins (shards whose run emitted more minute bins than the
//!   shortest shard) are counted up front across the whole fleet — a
//!   pairwise running total would depend on fold order — and surfaced in
//!   the report instead of silently truncated.
//!
//! On top of the merged state, [`ProvisioningReport`] answers the paper's
//! provisioning questions: aggregate packet rate and bandwidth (mean,
//! p95/p99), the per-player slope and its fit quality, the aggregate Hurst
//! exponent, and an uplink-sizing line in the spirit of the paper's OC-3
//! discussion.

pub mod coord;
pub mod persist;

use crate::pipeline::MainRun;
use crate::sweep::{panic_message, work_steal};
use csprov_analysis::report::{fmt_f64, TextTable};
use csprov_analysis::{
    fit_line, rs_hurst, summarize_sessions, MergeError, RateSeries, SizeHistogram,
};
use csprov_game::{ScenarioConfig, WorldInstruments};
use csprov_net::CountingSink;
use csprov_obs::{
    unix_ms, HeartbeatRecord, Journal, MetricsRegistry, Profile, ProfileSnapshot, ShardHealthBoard,
    SHARD_DONE, SHARD_LOST, SHARD_RUNNING,
};
use csprov_sim::{Pacer, RngStream, SimDuration, Speed};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a fleet run should simulate.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Variant label for reports.
    pub label: String,
    /// Facility-level seed; per-shard seeds are derived from it.
    pub seed: u64,
    /// Number of independent servers.
    pub servers: usize,
    /// Simulated minutes per server.
    pub minutes: u64,
    /// Session-duration shape (log-normal sigma) for every shard.
    pub session_sigma: f64,
    /// Replay speed per shard. [`Speed::Max`] (the default) runs as fast
    /// as the hardware allows; a paced speed wall-clocks every shard,
    /// which changes nothing about what a shard computes — pacing only
    /// sleeps — so the aggregate stays byte-identical.
    pub speed: Speed,
    /// Per-shard retry policy for contained worker faults.
    pub retry: RetryPolicy,
    /// Deterministic fault injection for tests and drills: listed shards
    /// fail their first N attempts with a typed (non-panicking) error.
    pub fail_plan: Vec<FailSpec>,
    /// Shared per-shard health board workers publish heartbeats into.
    /// Observe-only: the board never feeds back into shard execution, so
    /// the aggregate is byte-identical with or without it attached.
    pub health: Option<Arc<ShardHealthBoard>>,
    /// When true, every worker keeps a thread-local wall-time profile of
    /// its shard (execute / encode / checkpoint frames, with the sim and
    /// pipeline frames nested inside) and the coordinator absorbs the
    /// snapshots into [`FleetRun::profile`]. Observe-only.
    pub profile: bool,
}

impl FleetConfig {
    /// A fleet with the default session-duration shape.
    pub fn new(label: &str, seed: u64, servers: usize, minutes: u64) -> Self {
        FleetConfig {
            label: label.to_string(),
            seed,
            servers,
            minutes,
            session_sigma: 1.05,
            speed: Speed::Max,
            retry: RetryPolicy::default(),
            fail_plan: Vec::new(),
            health: None,
            profile: false,
        }
    }

    /// The scenario shard `shard` runs. Per-shard seeds are derived by
    /// label+index rather than taken consecutively, so shard traffic stays
    /// decorrelated however large the facility grows, and shard `k` of a
    /// 4-server fleet is identical to shard `k` of a 400-server fleet.
    pub fn scenario(&self, shard: usize) -> ScenarioConfig {
        let root = RngStream::new(self.seed);
        let mut cfg = ScenarioConfig::new(
            root.derive_seed("fleet.shard", shard as u64),
            SimDuration::from_mins(self.minutes),
        );
        cfg.workload.session_sigma = self.session_sigma;
        cfg.workload.session_range.1 = SimDuration::from_hours(12);
        cfg
    }
}

/// How often a failing shard is retried, and how the retry delay is
/// accounted.
///
/// Backoff is *simulated*, not slept: a retry after attempt `k` charges
/// `backoff_ns << (k - 1)` nanoseconds to the run's recovery accounting
/// ([`FleetCoverage::backoff_ns`]) and to the journal, so retry behavior
/// is a deterministic function of the failure pattern rather than of
/// wall-clock scheduling. Nothing about a retry changes what the shard
/// computes — the re-run uses the same derived seed, so a shard that
/// eventually succeeds is byte-identical to one that succeeded first try.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard (including the first); clamped to ≥ 1.
    pub attempts: u32,
    /// Base backoff charged for the first retry, doubling per attempt.
    pub backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff_ns: 1_000_000_000, // 1 simulated second
        }
    }
}

impl RetryPolicy {
    /// Backoff charged when attempt `attempt` (1-based) fails and another
    /// attempt follows.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_ns.saturating_mul(1u64 << shift)
    }
}

/// One entry of a deterministic fault plan: shard `shard` fails its first
/// `failures` attempts with a typed error before running normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailSpec {
    /// Shard index to impair.
    pub shard: usize,
    /// Number of leading attempts that fail (`u32::MAX` = permanent).
    pub failures: u32,
    /// Wall milliseconds the worker sleeps before each attempt. Purely a
    /// wall-clock stall — the shard still computes the same bytes — so
    /// watchdog tests can manufacture a silent-but-alive shard on demand.
    pub stall_ms: u64,
}

/// Where (and whether) a fleet run checkpoints shard states.
#[derive(Debug, Clone, Default)]
pub struct FleetPersistence {
    /// Directory for `shard-NNNNN.state` checkpoint files; `None` disables
    /// persistence entirely.
    pub state_dir: Option<PathBuf>,
    /// Load valid checkpoints from `state_dir` before running and skip
    /// those shards (their states merge as if freshly computed — same
    /// derived seeds, so the final report is byte-identical).
    pub resume: bool,
}

impl FleetPersistence {
    /// No persistence: the pre-PR-8 in-memory-only behavior.
    pub fn none() -> Self {
        Self::default()
    }

    /// Checkpoint completed shards into `dir` (no resume).
    pub fn checkpoint_to(dir: impl Into<PathBuf>) -> Self {
        FleetPersistence {
            state_dir: Some(dir.into()),
            resume: false,
        }
    }

    /// Checkpoint into `dir` and first resume whatever valid checkpoints
    /// it already holds.
    pub fn resume_from(dir: impl Into<PathBuf>) -> Self {
        FleetPersistence {
            state_dir: Some(dir.into()),
            resume: true,
        }
    }
}

/// Execution-plane events surfaced to the observer during a fleet run.
///
/// Events fire from worker threads (shard lifecycle) or the coordinator
/// (resume loading); like the shard observer, the callback is read-only
/// with respect to the fleet — the final aggregate cannot depend on it.
#[derive(Debug)]
pub enum FleetEvent<'a> {
    /// A shard finished and its state was reduced.
    ShardDone {
        /// The reduced state (borrowed; the run keeps ownership).
        state: &'a ShardState,
        /// Attempt that succeeded (1-based; 0 for checkpoint loads).
        attempt: u32,
        /// True when the state came from a resume checkpoint, not a run.
        from_checkpoint: bool,
    },
    /// An attempt failed and another one follows.
    ShardRetry {
        /// Shard index.
        shard: usize,
        /// The failing attempt (1-based).
        attempt: u32,
        /// Simulated backoff charged for this retry.
        backoff_ns: u64,
        /// Failure message.
        message: &'a str,
    },
    /// Every attempt failed; the shard is excluded from the merge.
    ShardLost {
        /// Shard index.
        shard: usize,
        /// Attempts consumed.
        attempts: u32,
        /// Final failure message.
        message: &'a str,
    },
    /// A checkpoint file was atomically written for a shard.
    CheckpointWritten {
        /// Shard index.
        shard: usize,
    },
    /// Writing a checkpoint failed (the run continues; the shard's state
    /// is still merged from memory).
    CheckpointFailed {
        /// Shard index.
        shard: usize,
        /// Rendered I/O or encoding error.
        message: &'a str,
    },
    /// A valid checkpoint was loaded during resume.
    ResumeLoaded {
        /// Shard index.
        shard: usize,
    },
    /// A state file in the resume directory was rejected (it will be
    /// recomputed).
    ResumeInvalid {
        /// Rendered decode/validation error, including the path.
        message: &'a str,
    },
}

/// Coverage accounting for a (possibly degraded) fleet run: how much of
/// the configured fleet actually made it into the merged aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCoverage {
    /// Shards the run was configured for.
    pub configured: usize,
    /// Shards merged into the aggregate.
    pub merged: usize,
    /// Shards permanently lost (retries exhausted), ascending.
    pub lost: Vec<usize>,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Total simulated backoff charged for those retries.
    pub backoff_ns: u64,
}

impl FleetCoverage {
    /// Full coverage over `n` shards (nothing lost, nothing retried).
    pub fn full(n: usize) -> Self {
        FleetCoverage {
            configured: n,
            merged: n,
            lost: Vec::new(),
            retries: 0,
            backoff_ns: 0,
        }
    }

    /// True when at least one configured shard is missing from the merge:
    /// every headline number is then a lower bound.
    pub fn is_degraded(&self) -> bool {
        !self.lost.is_empty()
    }
}

/// Persistence-side counters for one fleet run. Kept out of the rendered
/// report (and therefore out of the byte-identity contract between
/// resumed and uninterrupted runs); exported via metrics and `/status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistSummary {
    /// Checkpoint files written this run.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (the run continued).
    pub checkpoint_failures: u64,
    /// Shards loaded from valid checkpoints instead of recomputed.
    pub resumed: u64,
    /// State files rejected during resume (recomputed instead).
    pub invalid_checkpoints: u64,
}

/// Why a fleet run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// `servers == 0`: there is nothing to aggregate.
    NoServers,
    /// A shard's worker panicked outside the retry loop; the panic was
    /// contained and converted.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// Every shard exhausted its retries; there is nothing to merge.
    AllShardsLost {
        /// Shards the run was configured for.
        configured: usize,
        /// Final failure message of the lowest-indexed shard.
        message: String,
    },
    /// Shard states could not be folded (incompatible analyzer shapes).
    Merge(MergeError),
    /// The merged aggregate cannot support the report (e.g. no players).
    Degenerate(&'static str),
    /// The checkpoint directory could not be created or scanned.
    StateDir(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoServers => write!(f, "fleet has no servers to aggregate"),
            FleetError::ShardFailed { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
            FleetError::AllShardsLost {
                configured,
                message,
            } => {
                write!(
                    f,
                    "all {configured} shards lost after retries; first failure: {message}"
                )
            }
            FleetError::Merge(e) => write!(f, "shard merge failed: {e}"),
            FleetError::Degenerate(what) => write!(f, "degenerate aggregate: {what}"),
            FleetError::StateDir(message) => write!(f, "fleet state dir: {message}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}

/// The mergeable reduction of one shard's [`MainRun`].
///
/// Everything here is either a merge-capable analyzer or a scalar, so a
/// fleet retains O(shards) state. The heavyweight per-run analyzers
/// (10 ms/1 s stored series, variance-time ladders, flow tables) die with
/// the `MainRun` inside the worker.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// Shard index within the fleet (also the canonical merge order).
    pub shard: usize,
    /// The derived seed the shard ran with.
    pub seed: u64,
    /// Configured run length.
    pub duration: SimDuration,
    /// Packet/byte totals.
    pub counts: CountingSink,
    /// Per-minute totals.
    pub per_minute: RateSeries,
    /// Per-minute inbound.
    pub per_minute_in: RateSeries,
    /// Per-minute outbound.
    pub per_minute_out: RateSeries,
    /// Packet-size distribution.
    pub sizes: SizeHistogram,
    /// Active players sampled each minute.
    pub players_per_minute: Vec<u32>,
    /// Time-averaged player count.
    pub mean_players: f64,
    /// Established / attempted connections.
    pub sessions: (u64, u64),
}

impl ShardState {
    /// Reduces a finished run to its mergeable state, dropping the rest.
    pub fn from_run(shard: usize, run: MainRun) -> ShardState {
        let s = summarize_sessions(&run.outcome.sessions);
        ShardState {
            shard,
            seed: run.config.seed,
            duration: run.config.duration,
            counts: run.analysis.counts,
            per_minute: run.analysis.per_minute,
            per_minute_in: run.analysis.per_minute_in,
            per_minute_out: run.analysis.per_minute_out,
            sizes: run.analysis.sizes,
            players_per_minute: run.outcome.players_per_minute,
            mean_players: run.outcome.mean_players,
            sessions: (s.established, s.attempted),
        }
    }

    /// Mean packet rate over the shard's configured duration.
    pub fn mean_pps(&self) -> f64 {
        self.counts.total_packets() as f64 / self.duration.as_secs_f64()
    }
}

/// One compact reporting row per shard (kept alongside the aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The derived seed the shard ran with.
    pub seed: u64,
    /// Time-averaged player count.
    pub mean_players: f64,
    /// Mean packet rate.
    pub mean_pps: f64,
    /// Stored minute bins before truncation.
    pub minute_bins: usize,
}

/// The facility aggregate: every shard's traffic superposed.
#[derive(Debug, Clone)]
pub struct FacilityAnalysis {
    /// Shards folded in.
    pub shards: usize,
    /// Aggregate packet/byte totals.
    pub counts: CountingSink,
    /// Aggregate per-minute totals (bins are element-wise sums).
    pub per_minute: RateSeries,
    /// Aggregate per-minute inbound.
    pub per_minute_in: RateSeries,
    /// Aggregate per-minute outbound.
    pub per_minute_out: RateSeries,
    /// Aggregate packet-size distribution.
    pub sizes: SizeHistogram,
    /// Aggregate active players per minute (summed over shards, truncated
    /// to the common bin prefix).
    pub players_per_minute: Vec<u64>,
    /// Tail minute bins dropped by truncating every shard to the shortest
    /// shard's bin count (counted on the total per-minute series; the
    /// directional series truncate identically).
    pub dropped_bins: u64,
    /// Established / attempted connections across the fleet.
    pub sessions: (u64, u64),
}

impl FacilityAnalysis {
    /// Folds shard states into one aggregate via [`FleetMerger`].
    ///
    /// Every merge ingredient is commutative — integer bin superposition,
    /// min-folds for truncation, statistics recomputed from the final
    /// stored bins — so the result is byte-for-byte independent of the
    /// order the states arrive in (pinned by the permutation test below).
    pub fn merge(states: Vec<ShardState>) -> Result<FacilityAnalysis, FleetError> {
        let mut merger = FleetMerger::new();
        for s in &states {
            merger.push(s)?;
        }
        let (facility, _) = merger.finish()?;
        Ok(facility)
    }

    /// Mean aggregate player count over the common bin prefix.
    pub fn mean_players(&self) -> f64 {
        if self.players_per_minute.is_empty() {
            return 0.0;
        }
        self.players_per_minute.iter().sum::<u64>() as f64 / self.players_per_minute.len() as f64
    }
}

/// Streaming fold of [`ShardState`]s into a [`FacilityAnalysis`].
///
/// Holds exactly one accumulator plus O(shards) *scalars* (per-shard bin
/// lengths and reporting rows), never more than one decoded shard state at
/// a time — the property that lets `repro fleet merge` fold 10k+ state
/// files without materializing them all. A k-ary tree fold would hold k
/// decoded states per level for the same result; because superposition is
/// commutative and associative (integer adds; Welford statistics are
/// recomputed over the final stored bins; truncation is a min-fold), the
/// degenerate streaming fold is both the cheapest and byte-identical to
/// any tree shape or push order.
///
/// The dropped-tail-bin total needs the *global* minimum bin count, which
/// a pairwise running count cannot provide order-independently; the merger
/// keeps the per-shard bin lengths (8 bytes each) and settles the total in
/// [`FleetMerger::finish`].
#[derive(Default)]
pub struct FleetMerger {
    acc: Option<FacilityAcc>,
    bin_lens: Vec<u64>,
    players: Vec<u64>,
    stats: Vec<ShardStats>,
}

struct FacilityAcc {
    counts: CountingSink,
    per_minute: RateSeries,
    per_minute_in: RateSeries,
    per_minute_out: RateSeries,
    sizes: SizeHistogram,
    sessions: (u64, u64),
}

impl FleetMerger {
    /// An empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shard states folded in so far.
    pub fn merged(&self) -> usize {
        self.bin_lens.len()
    }

    /// Per-shard reporting rows pushed so far (unsorted until `finish`).
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Folds one shard state into the accumulator.
    pub fn push(&mut self, s: &ShardState) -> Result<(), FleetError> {
        self.stats.push(ShardStats {
            shard: s.shard,
            seed: s.seed,
            mean_players: s.mean_players,
            mean_pps: s.mean_pps(),
            minute_bins: s.per_minute.bins().len(),
        });
        self.bin_lens.push(s.per_minute.bins().len() as u64);

        // The player sampler emits one fewer entry than the rate series
        // (no sample at the closing boundary), so its common prefix runs
        // on its own lengths — padding would invent phantom zero-player
        // minutes and drag the facility mean down. Keeping the sum vector
        // truncated to the running minimum is equivalent to truncating to
        // the global minimum up front: entries past the final minimum are
        // discarded exactly once, whenever the shortest shard arrives.
        if self.acc.is_none() {
            self.players = s.players_per_minute.iter().map(|&p| u64::from(p)).collect();
        } else {
            let keep = self.players.len().min(s.players_per_minute.len());
            self.players.truncate(keep);
            for (agg, add) in self.players.iter_mut().zip(&s.players_per_minute) {
                *agg += u64::from(*add);
            }
        }

        match &mut self.acc {
            // Seed the accumulator from the first shard (clone), so a
            // fleet of one is a bit-for-bit copy of its single shard's
            // analysis, streamed statistics included.
            None => {
                self.acc = Some(FacilityAcc {
                    counts: s.counts.clone(),
                    per_minute: s.per_minute.clone(),
                    per_minute_in: s.per_minute_in.clone(),
                    per_minute_out: s.per_minute_out.clone(),
                    sizes: s.sizes.clone(),
                    sessions: s.sessions,
                });
            }
            Some(acc) => {
                acc.counts.merge(&s.counts);
                // Pairwise dropped counts are discarded in favor of the
                // order-canonical total settled in finish().
                acc.per_minute.merge_superpose(&s.per_minute)?;
                acc.per_minute_in.merge_superpose(&s.per_minute_in)?;
                acc.per_minute_out.merge_superpose(&s.per_minute_out)?;
                acc.sizes.merge(&s.sizes)?;
                acc.sessions.0 += s.sessions.0;
                acc.sessions.1 += s.sessions.1;
            }
        }
        Ok(())
    }

    /// Settles the fold: the aggregate plus per-shard rows in canonical
    /// shard order. [`FleetError::NoServers`] if nothing was pushed.
    pub fn finish(mut self) -> Result<(FacilityAnalysis, Vec<ShardStats>), FleetError> {
        let Some(acc) = self.acc else {
            return Err(FleetError::NoServers);
        };
        let min_bins = self.bin_lens.iter().copied().min().unwrap_or(0);
        let dropped_bins: u64 = self.bin_lens.iter().map(|&l| l - min_bins).sum();
        self.stats.sort_by_key(|s| s.shard);
        Ok((
            FacilityAnalysis {
                shards: self.bin_lens.len(),
                counts: acc.counts,
                per_minute: acc.per_minute,
                per_minute_in: acc.per_minute_in,
                per_minute_out: acc.per_minute_out,
                sizes: acc.sizes,
                players_per_minute: self.players,
                dropped_bins,
                sessions: acc.sessions,
            },
            self.stats,
        ))
    }
}

/// The uplink ladder the sizing line chooses from (name, Mbps).
pub const UPLINK_LADDER: [(&str, f64); 6] = [
    ("T-1", 1.544),
    ("10BaseT", 10.0),
    ("T-3/DS-3", 44.736),
    ("OC-3", 155.52),
    ("OC-12", 622.08),
    ("GigE", 1000.0),
];

/// OC-3 payload capacity in kbps, for the paper-style players-per-OC-3 line.
pub const OC3_KBPS: f64 = 155_520.0;

/// The provisioning answers computed from a merged facility aggregate.
#[derive(Debug, Clone)]
pub struct ProvisioningReport {
    /// Variant label.
    pub label: String,
    /// Servers aggregated.
    pub servers: usize,
    /// Simulated minutes per server.
    pub minutes: u64,
    /// Mean aggregate player count.
    pub mean_players: f64,
    /// Mean aggregate packet rate (packets per second).
    pub mean_pps: f64,
    /// 95th-percentile minute-bin packet rate.
    pub p95_pps: f64,
    /// 99th-percentile minute-bin packet rate.
    pub p99_pps: f64,
    /// Mean aggregate bandwidth (Mbps, wire bytes).
    pub mean_mbps: f64,
    /// 95th-percentile minute-bin bandwidth (Mbps).
    pub p95_mbps: f64,
    /// 99th-percentile minute-bin bandwidth (Mbps).
    pub p99_mbps: f64,
    /// Per-player packet rate: the cross-shard regression slope (ratio
    /// `mean_pps / mean_players` for a single-shard fleet).
    pub pps_per_player: f64,
    /// Fit quality of the linearity claim (1.0 for the ratio fallback).
    pub r_squared: f64,
    /// R/S Hurst exponent of the aggregate per-minute rate, when the run
    /// is long enough to estimate one.
    pub hurst: Option<f64>,
    /// Tail minute bins dropped by common-prefix truncation.
    pub dropped_bins: u64,
    /// Mean per-player bandwidth (kbps).
    pub per_player_kbps: f64,
    /// Chosen uplink name.
    pub uplink: &'static str,
    /// Chosen uplink capacity (Mbps, per link).
    pub uplink_mbps: f64,
    /// Parallel links needed (1 unless even the ladder top is exceeded).
    pub uplink_count: u32,
    /// Mean utilization of the chosen uplink(s).
    pub uplink_utilization: f64,
    /// Players one OC-3 sustains at the measured per-player bandwidth.
    pub players_per_oc3: f64,
    /// Coverage block: how much of the configured fleet the headline
    /// numbers actually describe. When shards were lost, aggregate totals
    /// (players, pps, Mbps) are lower bounds and the rendered report says
    /// so explicitly; per-player ratios remain unbiased estimates over the
    /// surviving shards.
    pub coverage: FleetCoverage,
}

/// Deterministic nearest-rank quantile of an unsorted sample.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ProvisioningReport {
    /// Computes the provisioning answer from a merged facility aggregate.
    /// Public so out-of-process merges (`repro fleet merge`) produce the
    /// same report the in-process fleet engine does.
    pub fn build(
        config: &FleetConfig,
        facility: &FacilityAnalysis,
        shards: &[ShardStats],
        coverage: FleetCoverage,
    ) -> Result<ProvisioningReport, FleetError> {
        let pps = facility.per_minute.pps();
        let kbps = facility.per_minute.kbps();
        if pps.is_empty() {
            return Err(FleetError::Degenerate("no aggregate minute bins"));
        }
        // Runs shorter than two minutes have no per-minute player samples;
        // fall back to the sum of the shards' time-averaged counts.
        let mean_players = if facility.players_per_minute.is_empty() {
            shards.iter().map(|s| s.mean_players).sum()
        } else {
            facility.mean_players()
        };
        if mean_players <= 0.0 {
            return Err(FleetError::Degenerate("aggregate has no players"));
        }
        let mean_pps = pps.iter().sum::<f64>() / pps.len() as f64;
        let mean_kbps = kbps.iter().sum::<f64>() / kbps.len() as f64;
        let mbps: Vec<f64> = kbps.iter().map(|k| k / 1000.0).collect();
        let mean_mbps = mean_kbps / 1000.0;

        // Linearity: aggregate rate of the first k shards against their
        // combined player count — the paper's "effectively linear to the
        // number of active players". One shard has no slope; fall back to
        // the ratio through the origin.
        let mut points = Vec::with_capacity(shards.len());
        let mut cum_players = 0.0;
        let mut cum_pps = 0.0;
        for s in shards {
            cum_players += s.mean_players;
            cum_pps += s.mean_pps;
            points.push((cum_players, cum_pps));
        }
        let (pps_per_player, r_squared) = match fit_line(&points) {
            Some(fit) => (fit.slope, fit.r_squared),
            None => (mean_pps / mean_players, 1.0),
        };

        let hurst = rs_hurst(&pps, 8).map(|(h, _)| h);

        let per_player_kbps = mean_kbps / mean_players;
        let p99_mbps = quantile(&mbps, 0.99);
        let (uplink, uplink_mbps, uplink_count) =
            match UPLINK_LADDER.iter().find(|(_, cap)| *cap >= p99_mbps) {
                Some(&(name, cap)) => (name, cap, 1),
                None => {
                    let (name, cap) = UPLINK_LADDER[UPLINK_LADDER.len() - 1];
                    (name, cap, (p99_mbps / cap).ceil() as u32)
                }
            };
        let uplink_utilization = mean_mbps / (uplink_mbps * f64::from(uplink_count));

        Ok(ProvisioningReport {
            label: config.label.clone(),
            servers: config.servers,
            minutes: config.minutes,
            mean_players,
            mean_pps,
            p95_pps: quantile(&pps, 0.95),
            p99_pps: quantile(&pps, 0.99),
            mean_mbps,
            p95_mbps: quantile(&mbps, 0.95),
            p99_mbps,
            pps_per_player,
            r_squared,
            hurst,
            dropped_bins: facility.dropped_bins,
            per_player_kbps,
            uplink,
            uplink_mbps,
            uplink_count,
            uplink_utilization,
            players_per_oc3: OC3_KBPS / per_player_kbps,
            coverage,
        })
    }

    /// Estimated players the lost shards would have contributed, linearly
    /// extrapolated from the surviving shards' mean.
    pub fn players_unaccounted(&self) -> f64 {
        if self.coverage.merged == 0 {
            return 0.0;
        }
        self.mean_players * self.coverage.lost.len() as f64 / self.coverage.merged as f64
    }

    /// The one-line uplink answer, in the spirit of the paper's observation
    /// that its single busy server consumed a steady fraction of a T-1.
    pub fn sizing_line(&self) -> String {
        let link = if self.uplink_count > 1 {
            format!("{}x {}", self.uplink_count, self.uplink)
        } else {
            self.uplink.to_string()
        };
        let caveat = if self.coverage.is_degraded() {
            format!(
                " [lower bound: {}/{} shards merged]",
                self.coverage.merged, self.coverage.configured
            )
        } else {
            String::new()
        };
        format!(
            "uplink: {} servers ({:.0} players) need {} ({} Mbps) at {:.1}% mean utilization; one OC-3 sustains ~{:.0} players at {} kbps/player{}",
            self.servers,
            self.mean_players,
            link,
            fmt_f64(self.uplink_mbps * f64::from(self.uplink_count), 1),
            self.uplink_utilization * 100.0,
            self.players_per_oc3,
            fmt_f64(self.per_player_kbps, 2),
            caveat,
        )
    }

    /// Renders the report as a metric/value table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(&format!(
            "Provisioning report: {} ({} servers x {} min)",
            self.label, self.servers, self.minutes
        ))
        .header(vec!["metric", "value"]);
        t.row(vec![
            "mean players".to_string(),
            fmt_f64(self.mean_players, 1),
        ]);
        t.row(vec!["mean pps".to_string(), fmt_f64(self.mean_pps, 1)]);
        t.row(vec!["p95 pps".to_string(), fmt_f64(self.p95_pps, 1)]);
        t.row(vec!["p99 pps".to_string(), fmt_f64(self.p99_pps, 1)]);
        t.row(vec!["mean Mbps".to_string(), fmt_f64(self.mean_mbps, 3)]);
        t.row(vec!["p95 Mbps".to_string(), fmt_f64(self.p95_mbps, 3)]);
        t.row(vec!["p99 Mbps".to_string(), fmt_f64(self.p99_mbps, 3)]);
        t.row(vec![
            "pps per player".to_string(),
            fmt_f64(self.pps_per_player, 2),
        ]);
        t.row(vec![
            "linearity r^2".to_string(),
            fmt_f64(self.r_squared, 4),
        ]);
        t.row(vec![
            "aggregate H (R/S)".to_string(),
            self.hurst
                .map(|h| fmt_f64(h, 3))
                .unwrap_or_else(|| "-".to_string()),
        ]);
        t.row(vec![
            "dropped tail bins".to_string(),
            self.dropped_bins.to_string(),
        ]);
        t.row(vec![
            "kbps per player".to_string(),
            fmt_f64(self.per_player_kbps, 2),
        ]);
        let link = if self.uplink_count > 1 {
            format!("{}x {}", self.uplink_count, self.uplink)
        } else {
            self.uplink.to_string()
        };
        t.row(vec![
            "uplink".to_string(),
            format!("{link} ({} Mbps)", fmt_f64(self.uplink_mbps, 1)),
        ]);
        t.row(vec![
            "uplink utilization".to_string(),
            format!("{:.1}%", self.uplink_utilization * 100.0),
        ]);
        t.row(vec![
            "players per OC-3".to_string(),
            fmt_f64(self.players_per_oc3, 0),
        ]);
        t.row(vec![
            "coverage".to_string(),
            format!(
                "{}/{} shards merged",
                self.coverage.merged, self.coverage.configured
            ),
        ]);
        if self.coverage.retries > 0 {
            t.row(vec![
                "shard retries".to_string(),
                format!(
                    "{} ({} ms simulated backoff)",
                    self.coverage.retries,
                    self.coverage.backoff_ns / 1_000_000
                ),
            ]);
        }
        if self.coverage.is_degraded() {
            let lost: Vec<String> = self.coverage.lost.iter().map(|s| s.to_string()).collect();
            t.row(vec!["shards lost".to_string(), lost.join(", ")]);
            t.row(vec![
                "players unaccounted (est)".to_string(),
                fmt_f64(self.players_unaccounted(), 1),
            ]);
            t.row(vec![
                "headline basis".to_string(),
                format!(
                    "lower bound ({} of {} shards missing)",
                    self.coverage.lost.len(),
                    self.coverage.configured
                ),
            ]);
        }
        t
    }
}

/// A finished fleet run: the merged aggregate, per-shard rows, and the
/// provisioning answers.
pub struct FleetRun {
    /// The facility aggregate.
    pub facility: FacilityAnalysis,
    /// One row per surviving shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// The provisioning report over the aggregate (coverage block
    /// included).
    pub report: ProvisioningReport,
    /// Checkpoint/resume counters (all zero without persistence).
    pub persist: PersistSummary,
    /// Merged wall-time profile across every worker plus the coordinator's
    /// own merge frame; `None` unless [`FleetConfig::profile`] was set.
    pub profile: Option<ProfileSnapshot>,
}

impl FleetRun {
    /// The step every fleet path ends with — the in-process fleet, the
    /// coordinator, interim reports and `repro fleet merge`: a settled fold
    /// becomes a run with its provisioning report. Coverage counts the
    /// fold's shards against `config.servers`; `lost`, `retries` and
    /// `backoff_ns` are the shard-plane recovery the run charged (none for
    /// a fold of finished shards or checkpoint files).
    pub fn settle(
        config: &FleetConfig,
        (facility, shards): (FacilityAnalysis, Vec<ShardStats>),
        lost: Vec<usize>,
        retries: u64,
        backoff_ns: u64,
    ) -> Result<FleetRun, FleetError> {
        let coverage = FleetCoverage {
            configured: config.servers,
            merged: shards.len(),
            lost,
            retries,
            backoff_ns,
        };
        let report = ProvisioningReport::build(config, &facility, &shards, coverage)?;
        Ok(FleetRun {
            facility,
            shards,
            report,
            persist: PersistSummary::default(),
            profile: None,
        })
    }

    /// Exports fleet aggregates as `fleet.*` metrics.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry
            .counter("fleet.shards")
            .add(self.facility.shards as u64);
        registry
            .counter("fleet.packets")
            .add(self.facility.counts.total_packets());
        registry
            .counter("fleet.wire_bytes")
            .add(self.facility.counts.total_wire_bytes());
        registry
            .counter("fleet.dropped_bins")
            .add(self.facility.dropped_bins);
        registry
            .gauge("fleet.mean_players")
            .set(self.report.mean_players as i64);
        registry
            .gauge("fleet.mean_pps")
            .set(self.report.mean_pps as i64);
        registry
            .gauge("fleet.p99_pps")
            .set(self.report.p99_pps as i64);
        registry
            .counter("fleet.shards_lost")
            .add(self.report.coverage.lost.len() as u64);
        registry
            .counter("fleet.shard_retries")
            .add(self.report.coverage.retries);
        registry
            .counter("fleet.checkpoints_written")
            .add(self.persist.checkpoints_written);
        registry
            .counter("fleet.shards_resumed")
            .add(self.persist.resumed);
    }

    /// Emits one journal event per shard plus fleet-level summary events.
    ///
    /// The fleet has no single simulation clock (every shard has its own),
    /// so — like the route-cache events, which use the access ordinal —
    /// these events use the shard ordinal as their time axis. Emission
    /// happens on the coordinating thread after the merge; workers never
    /// touch the journal.
    pub fn emit_journal(&self, journal: &Journal) {
        for s in &self.shards {
            let ordinal = s.shard as u64;
            journal.emit(ordinal, "fleet.shard.pps", ordinal, s.mean_pps as u64);
            journal.emit(
                ordinal,
                "fleet.shard.players",
                ordinal,
                s.mean_players as u64,
            );
        }
        for &shard in &self.report.coverage.lost {
            journal.emit(shard as u64, "fleet.shard.lost", shard as u64, 1);
        }
        let end = self.facility.shards as u64;
        journal.emit(end, "fleet.mean_pps", 0, self.report.mean_pps as u64);
        journal.emit(end, "fleet.dropped_bins", 0, self.facility.dropped_bins);
        if self.report.coverage.retries > 0 {
            journal.emit(end, "fleet.retries", 0, self.report.coverage.retries);
            journal.emit(
                end,
                "fleet.retry_backoff_ns",
                0,
                self.report.coverage.backoff_ns,
            );
        }
    }
}

/// Runs a fleet: shards across the work-stealing pool, reduces each run to
/// its [`ShardState`] in the worker, folds the states in canonical order,
/// and computes the provisioning report.
///
/// Typed failure modes instead of panics: zero servers, every shard lost
/// after retries, incompatible merge shapes, or a degenerate aggregate.
pub fn run_fleet(config: &FleetConfig) -> Result<FleetRun, FleetError> {
    run_fleet_full(config, &FleetPersistence::none(), None)
}

/// The crash-safe fleet engine: [`run_fleet`] plus checkpointing, resume,
/// per-shard retry, degraded-mode merging, and an execution-plane event
/// stream.
///
/// With a `state_dir`, every completed shard is written atomically
/// (`write-tmp + fsync + rename`, see [`persist::write_checkpoint_atomic`])
/// as `shard-NNNNN.state`; with `resume`, shards whose checkpoint decodes
/// and matches the config (seed, duration) are loaded instead of recomputed
/// — derived per-shard seeds make the resumed report byte-identical to an
/// uninterrupted run. A shard whose attempts are exhausted is *lost*, not
/// fatal: the surviving shards merge and the report carries an explicit
/// coverage block. Only a fleet with **no** survivors fails, with
/// [`FleetError::AllShardsLost`].
///
/// Heartbeat sidecars are written only when a health board is attached
/// (`repro --fleet --serve`); a `fleet work` worker always writes them.
pub fn run_fleet_full(
    config: &FleetConfig,
    persistence: &FleetPersistence,
    on_event: Option<&(dyn Fn(&FleetEvent<'_>) + Sync)>,
) -> Result<FleetRun, FleetError> {
    if config.servers == 0 {
        return Err(FleetError::NoServers);
    }
    let sidecars = config.health.is_some();
    let ran = run_range(config, 0..config.servers, persistence, sidecars, on_event)?;

    let coord_profile = config.profile.then(Profile::new);
    let mut merger = FleetMerger::new();
    {
        let _merge_scope = coord_profile.as_ref().map(|p| p.enter("fleet.merge"));
        let ran_states = ran.outcomes.iter().filter_map(|o| o.state.as_ref());
        for state in ran.resumed.values().chain(ran_states) {
            merger.push(state)?;
        }
    }
    let mut profile = coord_profile.as_ref().map(|p| p.snapshot());
    if let Some(total) = profile.as_mut() {
        for snap in ran.outcomes.iter().filter_map(|o| o.profile.as_ref()) {
            total.absorb(snap);
        }
    }
    if merger.merged() == 0 {
        let first = ran.outcomes.iter().find(|o| o.state.is_none());
        return Err(FleetError::AllShardsLost {
            configured: config.servers,
            message: first.map(|o| o.message.clone()).unwrap_or_default(),
        });
    }
    let (retries, backoff_ns) = ran.retries();
    let mut run = FleetRun::settle(config, merger.finish()?, ran.lost(), retries, backoff_ns)?;
    let count = |pick: fn(&ShardOutcome) -> bool| ran.outcomes.iter().filter(|o| pick(o)).count();
    run.persist = PersistSummary {
        checkpoints_written: count(|o| o.checkpoint_written) as u64,
        checkpoint_failures: count(|o| o.checkpoint_failed) as u64,
        resumed: ran.resumed.len() as u64,
        invalid_checkpoints: ran.invalid,
    };
    run.profile = profile;
    Ok(run)
}

/// What [`run_range`] did: the shards it restored and the shards it ran.
#[derive(Default)]
struct RangeRun {
    /// Shards loaded from valid checkpoints, in shard order.
    resumed: BTreeMap<usize, ShardState>,
    /// One outcome per shard that ran, in shard order.
    outcomes: Vec<ShardOutcome>,
    /// State files the resume scan rejected (their shards ran instead).
    invalid: u64,
}

impl RangeRun {
    /// Shards lost after exhausting their retries, ascending.
    fn lost(&self) -> Vec<usize> {
        let lost = self.outcomes.iter().filter(|o| o.state.is_none());
        lost.map(|o| o.shard).collect()
    }

    /// Retries across the range and the simulated backoff they charged.
    fn retries(&self) -> (u64, u64) {
        self.outcomes.iter().fold((0, 0), |(n, ns), o| {
            (n + u64::from(o.retries), ns.saturating_add(o.backoff_ns))
        })
    }
}

/// The one shard-range executor under both the in-process fleet (the range
/// `0..servers`) and a `fleet work` worker (its assigned range): creates
/// the state dir, resume-scans it when asked, then runs every shard it did
/// not restore across the work-stealing pool through [`run_one_shard`].
/// With `sidecars`, each running shard also writes its heartbeat records
/// into the state dir.
fn run_range(
    config: &FleetConfig,
    shards: std::ops::Range<usize>,
    persistence: &FleetPersistence,
    sidecars: bool,
    on_event: Option<&(dyn Fn(&FleetEvent<'_>) + Sync)>,
) -> Result<RangeRun, FleetError> {
    let emit = |ev: FleetEvent<'_>| {
        if let Some(f) = on_event {
            f(&ev);
        }
    };
    let state_dir = persistence.state_dir.as_deref();
    if let Some(dir) = state_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| FleetError::StateDir(format!("{}: {e}", dir.display())))?;
    }

    // Resume: load valid checkpoints up front; rejected files are surfaced
    // as events, counted, and recomputed like missing ones.
    let mut ran = RangeRun::default();
    if let (true, Some(dir)) = (persistence.resume, state_dir) {
        let scan = persist::load_checkpoints(dir, config)
            .map_err(|e| FleetError::StateDir(e.to_string()))?;
        for (path, err) in &scan.rejected {
            ran.invalid += 1;
            let message = format!("{}: {err}", path.display());
            emit(FleetEvent::ResumeInvalid { message: &message });
        }
        ran.resumed = scan.states;
        ran.resumed.retain(|shard, _| shards.contains(shard));
    }
    let horizon_ns = SimDuration::from_mins(config.minutes).as_nanos();
    for (&shard, state) in &ran.resumed {
        emit(FleetEvent::ResumeLoaded { shard });
        ShardBeacon::new(config.health.clone(), None, shard, horizon_ns)
            .publish(SHARD_DONE, horizon_ns, 0, 0, false);
        emit(FleetEvent::ShardDone {
            state,
            attempt: 0,
            from_checkpoint: true,
        });
    }

    let todo: Vec<(usize, ScenarioConfig)> = shards
        .filter(|i| !ran.resumed.contains_key(i))
        .map(|i| (i, config.scenario(i)))
        .collect();
    let sidecar_dir = state_dir.filter(|_| sidecars);
    ran.outcomes = work_steal(&todo, |_, (shard, cfg)| {
        run_one_shard(*shard, cfg, config, state_dir, sidecar_dir, on_event)
    })
    .map_err(|p| {
        // Unreachable in practice: run_one_shard contains panics itself.
        let first = p.first();
        FleetError::ShardFailed {
            shard: todo
                .get(first.index)
                .map(|(s, _)| *s)
                .unwrap_or(first.index),
            message: first.message.clone(),
        }
    })?;
    Ok(ran)
}

/// One shard's outcome after the retry loop.
struct ShardOutcome {
    shard: usize,
    state: Option<ShardState>,
    /// Last failure message (empty unless the shard was lost).
    message: String,
    retries: u32,
    backoff_ns: u64,
    checkpoint_written: bool,
    checkpoint_failed: bool,
    /// The worker's wall-time profile snapshot (with [`FleetConfig::profile`]).
    profile: Option<ProfileSnapshot>,
}

/// Wall-clock interval between heartbeat sidecar rewrites. Records on the
/// in-process board are much cheaper (a few atomic stores) and ride every
/// observer callback; only the file write is rate-limited.
const HEARTBEAT_FILE_INTERVAL: Duration = Duration::from_millis(500);

/// Kernel-observer stride for heartbeat publication: every N executed
/// events the worker refreshes its watermark. Matches the repro binary's
/// telemetry stride so attaching health costs one closure call per stride.
const HEARTBEAT_STRIDE: u64 = 8192;

/// One shard's heartbeat channel. Every lifecycle step — start, beat,
/// retry, done, lost — is one [`HeartbeatRecord`], built only here. The
/// record is applied to the health board (when one is attached) and, for
/// the steps that leave a trace on disk, written as the shard's
/// `shard-NNNNN.hb` sidecar (when a sidecar dir is set). The coordinator
/// marks collected and lost shards through the same records, so the board
/// has a single input.
#[derive(Clone)]
pub(crate) struct ShardBeacon {
    board: Option<Arc<ShardHealthBoard>>,
    sidecar_dir: Option<PathBuf>,
    shard: usize,
    horizon_ns: u64,
    started: Instant,
}

impl ShardBeacon {
    pub(crate) fn new(
        board: Option<Arc<ShardHealthBoard>>,
        sidecar_dir: Option<&Path>,
        shard: usize,
        horizon_ns: u64,
    ) -> Self {
        ShardBeacon {
            board,
            sidecar_dir: sidecar_dir.map(Path::to_path_buf),
            shard,
            horizon_ns,
            started: Instant::now(),
        }
    }

    /// Publishes one lifecycle record, stamping the wall clocks now: to the
    /// board always, and to the sidecar when `sidecar` is set. A failed
    /// sidecar write only means a stale beat, which is precisely what the
    /// watchdog exists to notice.
    pub(crate) fn publish(
        &self,
        state: u8,
        sim_ns: u64,
        retries: u32,
        checkpoints: u64,
        sidecar: bool,
    ) {
        let rec = HeartbeatRecord {
            shard: self.shard as u64,
            state,
            sim_ns,
            horizon_ns: self.horizon_ns,
            retries: u64::from(retries),
            checkpoints,
            wall_ms: self.started.elapsed().as_millis() as u64,
            unix_ms: unix_ms(),
        };
        if let Some(board) = &self.board {
            board.apply(&rec);
        }
        if let (true, Some(dir)) = (sidecar, &self.sidecar_dir) {
            let _ = persist::write_heartbeat(dir, &rec);
        }
    }

    /// The kernel observer a running attempt carries when anyone listens:
    /// every stride it publishes the shard's sim-time watermark, rewriting
    /// the sidecar at most every [`HEARTBEAT_FILE_INTERVAL`].
    fn observer(&self, retries: u32) -> Option<(u64, csprov_sim::Observer)> {
        if self.board.is_none() && self.sidecar_dir.is_none() {
            return None;
        }
        let beacon = self.clone();
        let mut last_write: Option<Instant> = None;
        let observer = move |sim: &csprov_sim::Simulator| {
            let now = Instant::now();
            let due = !last_write.is_some_and(|t| now.duration_since(t) < HEARTBEAT_FILE_INTERVAL);
            if due {
                last_write = Some(now);
            }
            beacon.publish(SHARD_RUNNING, sim.now().as_nanos(), retries, 0, due);
        };
        Some((HEARTBEAT_STRIDE, Box::new(observer)))
    }
}

/// Runs one shard with retries. Never panics: injected faults are typed,
/// real panics are contained per attempt, and checkpoint-write failures
/// degrade to a counted event (the in-memory state still merges).
fn run_one_shard(
    shard: usize,
    cfg: &ScenarioConfig,
    config: &FleetConfig,
    state_dir: Option<&Path>,
    sidecar_dir: Option<&Path>,
    on_event: Option<&(dyn Fn(&FleetEvent<'_>) + Sync)>,
) -> ShardOutcome {
    let emit = |ev: FleetEvent<'_>| {
        if let Some(f) = on_event {
            f(&ev);
        }
    };
    let horizon_ns = cfg.duration.as_nanos();
    let attempts = config.retry.attempts.max(1);
    let plan = config.fail_plan.iter().find(|f| f.shard == shard);
    let injected = plan.map_or(0, |f| f.failures);
    let stall_ms = plan.map_or(0, |f| f.stall_ms);
    let profile = config.profile.then(Profile::new);
    let beacon = ShardBeacon::new(config.health.clone(), sidecar_dir, shard, horizon_ns);
    beacon.publish(SHARD_RUNNING, 0, 0, 0, true);
    let mut retries = 0u32;
    let mut backoff_ns = 0u64;
    let mut last_message = String::new();
    for attempt in 1..=attempts {
        if stall_ms > 0 {
            // Beat once so the board sees a *running* shard, then go
            // silent for the stall: exactly the signature a wedged worker
            // leaves behind, without touching what the shard computes.
            beacon.publish(SHARD_RUNNING, 0, retries, 0, false);
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        let result: Result<ShardState, String> = if attempt <= injected {
            Err(format!("injected fault (attempt {attempt} of {attempts})"))
        } else {
            let speed = config.speed;
            let observer = beacon.observer(retries);
            let worker_profile = profile.clone();
            catch_unwind(AssertUnwindSafe(|| {
                let run = {
                    let _scope = worker_profile
                        .as_ref()
                        .map(|p| p.enter("fleet.shard.execute"));
                    let instruments = WorldInstruments {
                        pacer: speed.is_paced().then(|| Pacer::new(speed)),
                        observer,
                        profile: worker_profile.clone(),
                        ..WorldInstruments::default()
                    };
                    MainRun::execute_instrumented(cfg.clone(), instruments, None)
                };
                let _scope = worker_profile
                    .as_ref()
                    .map(|p| p.enter("fleet.shard.encode"));
                run.into_fleet_shard(shard)
            }))
            .map_err(panic_message)
        };
        match result {
            Ok(state) => {
                let mut written = false;
                let mut failed = false;
                if let Some(dir) = state_dir {
                    let _scope = profile.as_ref().map(|p| p.enter("fleet.shard.checkpoint"));
                    match persist::write_checkpoint_atomic(dir, &state) {
                        Ok(_) => {
                            written = true;
                            emit(FleetEvent::CheckpointWritten { shard });
                        }
                        Err(e) => {
                            failed = true;
                            let message = e.to_string();
                            emit(FleetEvent::CheckpointFailed {
                                shard,
                                message: &message,
                            });
                        }
                    }
                }
                beacon.publish(SHARD_DONE, horizon_ns, retries, u64::from(written), true);
                emit(FleetEvent::ShardDone {
                    state: &state,
                    attempt,
                    from_checkpoint: false,
                });
                return ShardOutcome {
                    shard,
                    state: Some(state),
                    message: String::new(),
                    retries,
                    backoff_ns,
                    checkpoint_written: written,
                    checkpoint_failed: failed,
                    profile: profile.as_ref().map(|p| p.snapshot()),
                };
            }
            Err(message) => {
                if attempt < attempts {
                    let delay = config.retry.backoff_for(attempt);
                    retries += 1;
                    backoff_ns = backoff_ns.saturating_add(delay);
                    beacon.publish(SHARD_RUNNING, 0, retries, 0, false);
                    emit(FleetEvent::ShardRetry {
                        shard,
                        attempt,
                        backoff_ns: delay,
                        message: &message,
                    });
                } else {
                    beacon.publish(SHARD_LOST, 0, retries, 0, true);
                    emit(FleetEvent::ShardLost {
                        shard,
                        attempts,
                        message: &message,
                    });
                }
                last_message = message;
            }
        }
    }
    ShardOutcome {
        shard,
        state: None,
        message: last_message,
        retries,
        backoff_ns,
        checkpoint_written: false,
        checkpoint_failed: false,
        profile: profile.as_ref().map(|p| p.snapshot()),
    }
}

/// A provisioning report over a *partial* fleet: the shards completed so
/// far. The serving plane re-renders this on every shard completion; the
/// report is labelled with the number of shards actually folded, not the
/// configured fleet size.
pub fn interim_report(
    config: &FleetConfig,
    states: &[ShardState],
) -> Result<ProvisioningReport, FleetError> {
    let mut merger = FleetMerger::new();
    for s in states {
        merger.push(s)?;
    }
    let mut partial = config.clone();
    partial.servers = merger.merged();
    Ok(FleetRun::settle(&partial, merger.finish()?, Vec::new(), 0, 0)?.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_servers_is_a_typed_error() {
        let cfg = FleetConfig::new("empty", 1, 0, 5);
        assert_eq!(run_fleet(&cfg).err(), Some(FleetError::NoServers));
        assert_eq!(
            FacilityAnalysis::merge(Vec::new()).err(),
            Some(FleetError::NoServers)
        );
    }

    #[test]
    fn shard_seeds_are_stable_across_fleet_sizes() {
        let small = FleetConfig::new("a", 42, 4, 5);
        let large = FleetConfig::new("b", 42, 400, 5);
        for k in 0..4 {
            assert_eq!(small.scenario(k).seed, large.scenario(k).seed);
        }
        assert_ne!(small.scenario(0).seed, small.scenario(1).seed);
    }

    #[test]
    fn fleet_of_one_is_bitwise_its_monolithic_run() {
        let cfg = FleetConfig::new("one", 11, 1, 5);
        let fleet = run_fleet(&cfg).unwrap();
        let reference = MainRun::execute(cfg.scenario(0));
        let f = &fleet.facility;
        let r = &reference.analysis;
        assert_eq!(f.counts.packets, r.counts.packets);
        assert_eq!(f.counts.wire_bytes, r.counts.wire_bytes);
        assert_eq!(f.per_minute.bins(), r.per_minute.bins());
        assert_eq!(f.per_minute_in.bins(), r.per_minute_in.bins());
        assert_eq!(f.per_minute_out.bins(), r.per_minute_out.bins());
        assert_eq!(
            f.per_minute.bin_stats().mean().to_bits(),
            r.per_minute.bin_stats().mean().to_bits()
        );
        assert_eq!(f.sizes.grand_total(), r.sizes.grand_total());
        assert_eq!(f.dropped_bins, 0);
    }

    #[test]
    fn merge_order_does_not_change_the_aggregate() {
        let cfg = FleetConfig::new("perm", 21, 3, 4);
        let states: Vec<ShardState> = (0..3)
            .map(|i| ShardState::from_run(i, MainRun::execute(cfg.scenario(i))))
            .collect();
        let forward = FacilityAnalysis::merge(states.clone()).unwrap();
        let mut shuffled = states;
        shuffled.rotate_left(1);
        shuffled.swap(0, 1);
        let permuted = FacilityAnalysis::merge(shuffled).unwrap();
        assert_eq!(forward.per_minute.bins(), permuted.per_minute.bins());
        assert_eq!(forward.counts.packets, permuted.counts.packets);
        assert_eq!(
            forward.per_minute.bin_stats().variance().to_bits(),
            permuted.per_minute.bin_stats().variance().to_bits()
        );
        assert_eq!(forward.players_per_minute, permuted.players_per_minute);
        assert_eq!(forward.dropped_bins, permuted.dropped_bins);
    }

    #[test]
    fn report_renders_and_sizes_an_uplink() {
        let cfg = FleetConfig::new("render", 31, 2, 4);
        let fleet = run_fleet(&cfg).unwrap();
        let rep = &fleet.report;
        assert!(rep.mean_pps > 0.0);
        assert!(rep.p99_pps >= rep.p95_pps && rep.p95_pps >= 0.0);
        assert!(rep.uplink_count >= 1);
        assert!(rep.players_per_oc3 > 0.0);
        let rendered = rep.render().render();
        assert!(rendered.contains("pps per player"));
        assert!(rendered.contains("uplink"));
        assert!(rep.sizing_line().contains("OC-3"));
    }

    #[test]
    fn observer_sees_every_shard_and_interim_reports_converge() {
        use std::sync::Mutex;
        let cfg = FleetConfig::new("observed", 17, 3, 4);
        let seen: Mutex<Vec<ShardState>> = Mutex::new(Vec::new());
        let observe = |ev: &FleetEvent<'_>| {
            if let FleetEvent::ShardDone { state, .. } = ev {
                let mut partial = seen.lock().unwrap();
                partial.push((*state).clone());
                // An interim report over any non-empty prefix is valid.
                let interim = interim_report(&cfg, &partial).unwrap();
                assert_eq!(interim.servers, partial.len());
                assert!(interim.mean_pps > 0.0);
            }
        };
        let observed = run_fleet_full(&cfg, &FleetPersistence::none(), Some(&observe)).unwrap();
        let states = seen.into_inner().unwrap();
        assert_eq!(states.len(), 3);
        // The interim report over ALL shards is the final report.
        let full = interim_report(&cfg, &states).unwrap();
        assert_eq!(full.render().render(), observed.report.render().render());
        // And observation changed nothing vs the plain path.
        let plain = run_fleet(&cfg).unwrap();
        assert_eq!(
            plain.report.render().render(),
            observed.report.render().render()
        );
        assert_eq!(
            plain.facility.per_minute.bins(),
            observed.facility.per_minute.bins()
        );
    }

    #[test]
    fn paced_fleet_matches_max_speed_fleet() {
        // A very fast pace (minimal sleeping) on a tiny fleet: the
        // aggregate must be byte-identical to the unpaced run.
        let mut paced_cfg = FleetConfig::new("paced", 23, 2, 1);
        paced_cfg.speed = Speed::Times(100_000.0);
        let mut max_cfg = paced_cfg.clone();
        max_cfg.speed = Speed::Max;
        let paced = run_fleet(&paced_cfg).unwrap();
        let unpaced = run_fleet(&max_cfg).unwrap();
        assert_eq!(
            paced.facility.per_minute.bins(),
            unpaced.facility.per_minute.bins()
        );
        assert_eq!(
            paced.facility.counts.packets,
            unpaced.facility.counts.packets
        );
        assert_eq!(
            paced.report.render().render(),
            unpaced.report.render().render()
        );
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let r = RetryPolicy {
            attempts: 5,
            backoff_ns: 1_000,
        };
        assert_eq!(r.backoff_for(1), 1_000);
        assert_eq!(r.backoff_for(2), 2_000);
        assert_eq!(r.backoff_for(3), 4_000);
        let huge = RetryPolicy {
            attempts: 5,
            backoff_ns: u64::MAX / 2,
        };
        assert_eq!(huge.backoff_for(60), u64::MAX);
    }

    #[test]
    fn transient_fault_retries_to_a_byte_identical_facility() {
        let clean_cfg = FleetConfig::new("retry", 41, 3, 2);
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.fail_plan = vec![FailSpec {
            shard: 1,
            failures: 2,
            stall_ms: 0,
        }];
        let clean = run_fleet(&clean_cfg).unwrap();
        let recovered = run_fleet(&faulty_cfg).unwrap();
        // The retried shard re-runs from the same derived seed, so the
        // facility aggregate is unchanged; only the recovery accounting
        // (and its report row) differs.
        assert_eq!(
            clean.facility.per_minute.bins(),
            recovered.facility.per_minute.bins()
        );
        assert_eq!(
            clean.facility.counts.packets,
            recovered.facility.counts.packets
        );
        assert_eq!(recovered.report.coverage.retries, 2);
        assert_eq!(
            recovered.report.coverage.backoff_ns,
            1_000_000_000 + 2_000_000_000
        );
        assert!(!recovered.report.coverage.is_degraded());
        assert!(recovered.report.render().render().contains("shard retries"));
        assert_eq!(clean.report.coverage.retries, 0);
    }

    #[test]
    fn exhausted_shard_degrades_to_a_lower_bound_report() {
        let mut cfg = FleetConfig::new("degraded", 43, 3, 2);
        cfg.fail_plan = vec![FailSpec {
            shard: 2,
            failures: u32::MAX,
            stall_ms: 0,
        }];
        let run = run_fleet(&cfg).unwrap();
        let cov = &run.report.coverage;
        assert!(cov.is_degraded());
        assert_eq!(cov.configured, 3);
        assert_eq!(cov.merged, 2);
        assert_eq!(cov.lost, vec![2]);
        assert_eq!(run.facility.shards, 2);
        let rendered = run.report.render().render();
        assert!(rendered.contains("2/3 shards merged"));
        assert!(rendered.contains("shards lost"));
        assert!(rendered.contains("lower bound"));
        assert!(run.report.sizing_line().contains("lower bound"));
        assert!(run.report.players_unaccounted() > 0.0);
        // The surviving shards match a 2-server fleet's traffic exactly.
        let survivors = FleetConfig::new("degraded", 43, 2, 2);
        let reference = run_fleet(&survivors).unwrap();
        assert_eq!(
            run.facility.per_minute.bins(),
            reference.facility.per_minute.bins()
        );
    }

    #[test]
    fn all_shards_lost_is_a_typed_error() {
        let mut cfg = FleetConfig::new("doom", 47, 2, 1);
        cfg.fail_plan = (0..2)
            .map(|shard| FailSpec {
                shard,
                failures: u32::MAX,
                stall_ms: 0,
            })
            .collect();
        match run_fleet(&cfg) {
            Err(FleetError::AllShardsLost {
                configured,
                message,
            }) => {
                assert_eq!(configured, 2);
                assert!(message.contains("injected fault"));
            }
            Err(other) => panic!("expected AllShardsLost, got {other}"),
            Ok(_) => panic!("expected AllShardsLost, got a successful run"),
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("csprov-fleet-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FleetConfig::new("resume", 53, 3, 2);
        let baseline = run_fleet(&cfg).unwrap();

        // First pass: checkpoint every shard.
        let checkpointed =
            run_fleet_full(&cfg, &FleetPersistence::checkpoint_to(&dir), None).unwrap();
        assert_eq!(checkpointed.persist.checkpoints_written, 3);
        assert_eq!(
            checkpointed.report.render().render(),
            baseline.report.render().render()
        );

        // Simulate a crash: drop one checkpoint, corrupt another.
        std::fs::remove_file(dir.join(persist::shard_file_name(1))).unwrap();
        let corrupt_path = dir.join(persist::shard_file_name(2));
        let mut bytes = std::fs::read(&corrupt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&corrupt_path, &bytes).unwrap();

        let resumed = run_fleet_full(&cfg, &FleetPersistence::resume_from(&dir), None).unwrap();
        assert_eq!(resumed.persist.resumed, 1);
        assert_eq!(resumed.persist.invalid_checkpoints, 1);
        assert_eq!(resumed.persist.checkpoints_written, 2);
        // The headline guarantee: byte-identical report after resume.
        assert_eq!(
            resumed.report.render().render(),
            baseline.report.render().render()
        );
        assert_eq!(
            resumed.facility.per_minute.bins(),
            baseline.facility.per_minute.bins()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_shard_is_flagged_within_the_watchdog_deadline() {
        // Shard 1 beats once, then goes silent for 400 ms against a 50 ms
        // watchdog: the board must flag it stalled while the run is still
        // in flight, well before the deadline.
        let mut cfg = FleetConfig::new("stall", 61, 2, 1);
        cfg.fail_plan = vec![FailSpec {
            shard: 1,
            failures: 0,
            stall_ms: 400,
        }];
        let board = Arc::new(ShardHealthBoard::new(2, Duration::from_millis(50)));
        cfg.health = Some(board.clone());
        let runner = std::thread::spawn(move || run_fleet(&cfg).unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut flagged = false;
        while Instant::now() < deadline {
            let json = board.render_json();
            if json.contains("\"verdict\":\"stalled\"") {
                flagged = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let run = runner.join().unwrap();
        assert!(flagged, "silent shard never flagged stalled");
        // Once the run drains, every shard is done and nothing is stalled.
        let json = board.render_json();
        assert!(!json.contains("\"verdict\":\"stalled\""), "final: {json}");
        assert!(json.contains("\"done\":2"), "final: {json}");
        // The stall is wall-only: traffic matches an unimpaired fleet.
        let clean = run_fleet(&FleetConfig::new("stall", 61, 2, 1)).unwrap();
        assert_eq!(
            run.facility.per_minute.bins(),
            clean.facility.per_minute.bins()
        );
    }

    #[test]
    fn healthy_fleet_never_flags_a_shard() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut cfg = FleetConfig::new("healthy", 67, 3, 1);
        // A generous watchdog a healthy sub-second shard can't trip.
        let board = Arc::new(ShardHealthBoard::new(3, Duration::from_secs(30)));
        cfg.health = Some(board.clone());
        let saw_stall = AtomicBool::new(false);
        let watcher_board = board.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let watcher_stop = stop.clone();
        let watcher = std::thread::spawn(move || {
            let mut seen = false;
            while !watcher_stop.load(Ordering::Relaxed) {
                if watcher_board
                    .render_json()
                    .contains("\"verdict\":\"stalled\"")
                {
                    seen = true;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        });
        run_fleet(&cfg).unwrap();
        stop.store(true, Ordering::Relaxed);
        saw_stall.fetch_or(watcher.join().unwrap(), Ordering::Relaxed);
        assert!(!saw_stall.load(Ordering::Relaxed), "healthy run flagged");
        let json = board.render_json();
        assert!(json.contains("\"done\":3"), "{json}");
        assert!(json.contains("\"lost\":0"), "{json}");
    }

    #[test]
    fn in_process_board_agrees_with_a_board_fed_from_the_sidecars() {
        // The in-process board and the sidecars are fed by the same
        // records, so a fresh board replaying only the sidecars must land
        // every shard in the same place — retried shard included.
        use csprov_obs::Json;
        let dir = std::env::temp_dir().join(format!("csprov-fleet-agree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new("agree", 73, 3, 1);
        cfg.fail_plan = vec![FailSpec {
            shard: 1,
            failures: 1,
            stall_ms: 0,
        }];
        let board = Arc::new(ShardHealthBoard::new(3, Duration::from_secs(30)));
        cfg.health = Some(board.clone());
        run_fleet_full(&cfg, &FleetPersistence::checkpoint_to(&dir), None).unwrap();

        let replay = ShardHealthBoard::new(3, Duration::from_secs(30));
        for o in persist::scan_heartbeats_observed(&dir) {
            replay.apply_observed(&o.rec, o.age_ms);
        }
        let view = |json: String| -> Vec<(String, f64, f64, f64)> {
            let doc = Json::parse(&json).expect("valid JSON");
            let shards = doc.get("shards").and_then(Json::as_arr).expect("shards");
            let num = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64).unwrap();
            shards
                .iter()
                .map(|s| {
                    let state = s.get("state").and_then(Json::as_str).unwrap();
                    let (retries, checkpoints) = (num(s, "retries"), num(s, "checkpoints"));
                    (state.to_string(), retries, checkpoints, num(s, "sim_ns"))
                })
                .collect()
        };
        let in_process = view(board.render_json());
        assert_eq!(in_process, view(replay.render_json()));
        let horizon = SimDuration::from_mins(1).as_nanos() as f64;
        for (shard, (state, retries, checkpoints, sim_ns)) in in_process.iter().enumerate() {
            assert_eq!(state, "done");
            assert_eq!(*retries, f64::from(u8::from(shard == 1)));
            assert_eq!((*checkpoints, *sim_ns), (1.0, horizon));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiled_fleet_attributes_worker_and_merge_frames() {
        let mut cfg = FleetConfig::new("profiled", 71, 2, 1);
        cfg.profile = true;
        let run = run_fleet(&cfg).unwrap();
        let snap = run.profile.expect("profile requested");
        for frame in ["fleet.shard.execute", "fleet.merge", "sim.dispatch"] {
            assert!(
                snap.entries()
                    .iter()
                    .any(|e| e.path.last().is_some_and(|f| f == frame)),
                "missing frame {frame}"
            );
        }
        // Two shards ran, each framed once.
        let execute = snap
            .entries()
            .iter()
            .find(|e| e.path == ["fleet.shard.execute"])
            .unwrap();
        assert_eq!(execute.count, 2);
        // Nesting survived the merge: the dispatch loop sits under execute.
        assert!(snap
            .entries()
            .iter()
            .any(|e| e.path == ["fleet.shard.execute", "sim.dispatch"]));
        // And the result is byte-identical to an unprofiled fleet.
        let plain = run_fleet(&FleetConfig::new("profiled", 71, 2, 1)).unwrap();
        assert!(plain.profile.is_none());
        assert_eq!(run.report.render().render(), plain.report.render().render());
    }

    #[test]
    fn events_narrate_the_run() {
        use std::sync::Mutex;
        let mut cfg = FleetConfig::new("events", 59, 2, 1);
        cfg.fail_plan = vec![FailSpec {
            shard: 0,
            failures: 1,
            stall_ms: 0,
        }];
        let log: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let capture = |ev: &FleetEvent<'_>| {
            let line = match ev {
                FleetEvent::ShardDone { state, attempt, .. } => {
                    format!("done {} attempt {attempt}", state.shard)
                }
                FleetEvent::ShardRetry { shard, attempt, .. } => {
                    format!("retry {shard} attempt {attempt}")
                }
                FleetEvent::ShardLost { shard, .. } => format!("lost {shard}"),
                FleetEvent::CheckpointWritten { shard } => format!("ckpt {shard}"),
                FleetEvent::CheckpointFailed { shard, .. } => format!("ckpt-fail {shard}"),
                FleetEvent::ResumeLoaded { shard } => format!("resume {shard}"),
                FleetEvent::ResumeInvalid { .. } => "resume-invalid".to_string(),
            };
            log.lock().unwrap().push(line);
        };
        run_fleet_full(&cfg, &FleetPersistence::none(), Some(&capture)).unwrap();
        let lines = log.into_inner().unwrap();
        assert!(lines.contains(&"retry 0 attempt 1".to_string()));
        assert!(lines.contains(&"done 0 attempt 2".to_string()));
        assert!(lines.contains(&"done 1 attempt 1".to_string()));
    }
}
