//! Fleet shard health: a lock-free heartbeat board plus the wall-clock
//! watchdog that turns beats into `stalled`/`degraded` verdicts.
//!
//! Each fleet worker reports into one [`ShardHealthBoard`] slot — run
//! state, sim-time watermark, retries, checkpoints, and the wall time of
//! its last beat — through one input: [`HeartbeatRecord`]s. An in-process
//! worker applies its records directly; a coordinator applies the records
//! other processes left in `csprov-state/1` heartbeat sidecars, aged by
//! the sidecar's mtime. The board is all atomics, so worker threads beat
//! without locking and HTTP handler threads render `/shards` without
//! blocking anyone.
//!
//! Verdicts are computed on demand at render time, not pushed: a stalled
//! worker by definition cannot push its own bad news, so the watchdog
//! compares each running shard's last beat against `watchdog` wall time
//! whenever someone asks. Everything here is wall-domain observability
//! and must never feed a determinism artifact.

use crate::registry::MetricsRegistry;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// Shard has not started executing yet.
pub const SHARD_PENDING: u8 = 0;
/// Shard is executing (or retrying after an injected/real failure).
pub const SHARD_RUNNING: u8 = 1;
/// Shard finished and its state was collected.
pub const SHARD_DONE: u8 = 2;
/// Shard exhausted its retry budget and was abandoned.
pub const SHARD_LOST: u8 = 3;

/// One heartbeat: a shard lifecycle step (start, beat, retry, done, lost)
/// as applied to the board and as carried by the `csprov-state/1` sidecar
/// files workers write (see `csprov::fleet::persist`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// Shard index.
    pub shard: u64,
    /// One of the `SHARD_*` states.
    pub state: u8,
    /// Sim-time watermark, ns.
    pub sim_ns: u64,
    /// Sim horizon for the shard, ns (0 if unknown).
    pub horizon_ns: u64,
    /// Retries consumed so far.
    pub retries: u64,
    /// Checkpoints written so far.
    pub checkpoints: u64,
    /// Wall ms since the worker started this shard.
    pub wall_ms: u64,
    /// Unix wall-clock ms when the beat was written; orders beats across
    /// processes and lets an observer estimate clock skew.
    pub unix_ms: u64,
}

/// Ordering-word bit marking a terminal state (done/lost). Terminal
/// records outrank any non-terminal record regardless of timestamp, so a
/// late-arriving `running` sidecar can never resurrect a finished shard.
const ORD_TERMINAL: u64 = 1 << 62;
/// Widest `unix_ms` the ordering word can carry (60 bits ≈ 36 My).
const ORD_MS_MAX: u64 = (1 << 60) - 1;

/// Packs a heartbeat's ordering key into one word claimable with a
/// single `fetch_max`: terminal bit, then writer `unix_ms`, then the
/// state rank as the tie-break within the same millisecond.
fn pack_ord(unix_ms: u64, state: u8) -> u64 {
    let terminal = if state >= SHARD_DONE { ORD_TERMINAL } else { 0 };
    terminal | (unix_ms.min(ORD_MS_MAX) << 2) | u64::from(state & 0b11)
}

/// The `SHARD_*` state carried in an ordering word.
fn ord_state(ord: u64) -> u8 {
    (ord & 0b11) as u8
}

struct Slot {
    /// Packed (terminal, unix_ms, state) ordering word. The slot's
    /// current state lives in the low bits; every writer claims it with
    /// `fetch_max`, so concurrent appliers can never regress it.
    hb_ord: AtomicU64,
    sim_ns: AtomicU64,
    horizon_ns: AtomicU64,
    retries: AtomicU64,
    checkpoints: AtomicU64,
    /// Board-epoch-relative ms of the last *observed* beat. Fed from the
    /// observer's own clock (or sidecar mtime), never from the writer's
    /// embedded `unix_ms`, so cross-machine clock skew cannot forge or
    /// hide staleness.
    last_beat_ms: AtomicU64,
    /// Writer-clock minus observer-clock estimate, ms (positive = the
    /// worker's clock runs ahead of ours). Diagnostic only.
    skew_ms: AtomicI64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            hb_ord: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            horizon_ns: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            last_beat_ms: AtomicU64::new(0),
            skew_ms: AtomicI64::new(0),
        }
    }

    fn state(&self) -> u8 {
        ord_state(self.hb_ord.load(Ordering::Relaxed))
    }

    /// Claims the ordering word for (`unix_ms`, `state`); returns true
    /// when this record is the newest the slot has seen.
    fn claim(&self, unix_ms: u64, state: u8) -> bool {
        let ord = pack_ord(unix_ms, state);
        self.hb_ord.fetch_max(ord, Ordering::Relaxed) < ord
    }
}

/// Per-shard health slots plus the watchdog deadline. `Send + Sync`;
/// share it as an `Arc` between the fleet executor (or the coordinator)
/// and the serving plane.
pub struct ShardHealthBoard {
    slots: Vec<Slot>,
    epoch: Instant,
    watchdog: Duration,
}

impl std::fmt::Debug for ShardHealthBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHealthBoard")
            .field("shards", &self.slots.len())
            .field("watchdog", &self.watchdog)
            .finish()
    }
}

/// Current unix time in ms (wall domain only).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl ShardHealthBoard {
    /// A board for `shards` slots; a running shard whose last beat is
    /// older than `watchdog` wall time is flagged `stalled`.
    pub fn new(shards: usize, watchdog: Duration) -> Self {
        ShardHealthBoard {
            slots: (0..shards).map(|_| Slot::new()).collect(),
            epoch: Instant::now(),
            watchdog,
        }
    }

    /// Number of shard slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the board tracks no shards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured watchdog deadline.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Returns `shard` to `pending` so a re-dispatched range can report
    /// fresh state. Terminal stickiness is authority for *peers*; the
    /// coordinator that owns re-dispatch resets the ordering word outright
    /// (call only after deleting the dead worker's sidecar files, from the
    /// single thread that applies scans in that process).
    pub fn reset_for_redispatch(&self, shard: usize) {
        if let Some(slot) = self.slots.get(shard) {
            slot.hb_ord.store(0, Ordering::Relaxed);
            slot.last_beat_ms
                .fetch_max(self.now_ms(), Ordering::Relaxed);
            slot.skew_ms.store(0, Ordering::Relaxed);
        }
    }

    /// Applies a heartbeat decoded from a sidecar file, observed
    /// `observed_age_ms` ago on *our* clock (sidecar mtime age at scan
    /// time, or 0 at arrival). Ordering races with other appliers and
    /// replays can never regress the slot: the (terminal, `unix_ms`,
    /// state) word is claimed with one `fetch_max`, and the monotone
    /// watermarks (`sim_ns`, retries, checkpoints) apply even when the
    /// ordering claim loses — a second record in the same millisecond
    /// still advances them. Freshness is tracked purely from the observed
    /// age; the writer's `unix_ms` orders records but never ages them, so
    /// a worker with a skewed clock cannot read as stalled (or mask a
    /// real stall) while its sidecars keep arriving.
    pub fn apply_observed(&self, rec: &HeartbeatRecord, observed_age_ms: u64) {
        let Some(slot) = self.slots.get(rec.shard as usize) else {
            return;
        };
        let newest = slot.claim(rec.unix_ms, rec.state);
        slot.sim_ns.fetch_max(rec.sim_ns, Ordering::Relaxed);
        slot.horizon_ns.fetch_max(rec.horizon_ns, Ordering::Relaxed);
        slot.retries.fetch_max(rec.retries, Ordering::Relaxed);
        slot.checkpoints
            .fetch_max(rec.checkpoints, Ordering::Relaxed);
        slot.last_beat_ms.fetch_max(
            self.now_ms().saturating_sub(observed_age_ms),
            Ordering::Relaxed,
        );
        if newest {
            let written_unix_ms = unix_ms().saturating_sub(observed_age_ms);
            let skew = rec.unix_ms as i64 - written_unix_ms as i64;
            slot.skew_ms.store(skew, Ordering::Relaxed);
        }
    }

    /// Applies a heartbeat observed just now (age 0): the path for a
    /// record published in this process, as an in-process worker or the
    /// coordinator does. Records read back from sidecar files should pass
    /// the sidecar's mtime age to [`ShardHealthBoard::apply_observed`].
    pub fn apply(&self, rec: &HeartbeatRecord) {
        self.apply_observed(rec, 0);
    }

    fn verdict(&self, slot: &Slot, now_ms: u64) -> &'static str {
        let state = slot.state();
        if state == SHARD_LOST {
            return "lost";
        }
        if state == SHARD_RUNNING {
            let age = now_ms.saturating_sub(slot.last_beat_ms.load(Ordering::Relaxed));
            if age > self.watchdog.as_millis() as u64 {
                return "stalled";
            }
            if slot.retries.load(Ordering::Relaxed) > 0 {
                return "degraded";
            }
        }
        // Done shards render "ok" even with retries on the meter: the
        // coverage recovered, and the nonzero `retries` field carries the
        // history.
        "ok"
    }

    /// Renders the `/shards` document: per-shard state, watermark,
    /// progress, and watchdog verdict, plus a summary roll-up.
    pub fn render_json(&self) -> String {
        let now_ms = self.now_ms();
        let mut shards = String::new();
        let (mut pending, mut running, mut done, mut lost) = (0u64, 0u64, 0u64, 0u64);
        let (mut stalled, mut degraded) = (0u64, 0u64);
        for (i, slot) in self.slots.iter().enumerate() {
            let state = slot.state();
            let state_name = match state {
                SHARD_RUNNING => {
                    running += 1;
                    "running"
                }
                SHARD_DONE => {
                    done += 1;
                    "done"
                }
                SHARD_LOST => {
                    lost += 1;
                    "lost"
                }
                _ => {
                    pending += 1;
                    "pending"
                }
            };
            let verdict = self.verdict(slot, now_ms);
            match verdict {
                "stalled" => stalled += 1,
                "degraded" => degraded += 1,
                _ => {}
            }
            let sim_ns = slot.sim_ns.load(Ordering::Relaxed);
            let horizon_ns = slot.horizon_ns.load(Ordering::Relaxed);
            let progress = if horizon_ns > 0 {
                (sim_ns as f64 / horizon_ns as f64).min(1.0)
            } else {
                0.0
            };
            let beat_age_ms = if state == SHARD_PENDING {
                0
            } else {
                now_ms.saturating_sub(slot.last_beat_ms.load(Ordering::Relaxed))
            };
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&format!(
                "{{\"shard\":{i},\"state\":\"{state_name}\",\"verdict\":\"{verdict}\",\
                 \"sim_ns\":{sim_ns},\"horizon_ns\":{horizon_ns},\
                 \"progress\":{progress:.6},\"retries\":{retries},\
                 \"checkpoints\":{checkpoints},\"beat_age_ms\":{beat_age_ms},\
                 \"skew_ms\":{skew_ms}}}",
                retries = slot.retries.load(Ordering::Relaxed),
                checkpoints = slot.checkpoints.load(Ordering::Relaxed),
                skew_ms = slot.skew_ms.load(Ordering::Relaxed),
            ));
        }
        format!(
            "{{\"schema\":\"csprov-shards/1\",\"watchdog_ms\":{watchdog},\
             \"summary\":{{\"total\":{total},\"pending\":{pending},\
             \"running\":{running},\"done\":{done},\"lost\":{lost},\
             \"stalled\":{stalled},\"degraded\":{degraded}}},\
             \"shards\":[{shards}]}}",
            watchdog = self.watchdog.as_millis(),
            total = self.slots.len(),
        )
    }

    /// Exports the board as wall-flagged `shard.*` instruments with HELP
    /// text. Call from the simulation thread (the registry is
    /// single-threaded by design).
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let now_ms = self.now_ms();
        let (mut running, mut done, mut lost) = (0i64, 0i64, 0i64);
        let (mut stalled, mut degraded) = (0i64, 0i64);
        let (mut retries, mut checkpoints) = (0u64, 0u64);
        let mut floor_ns = u64::MAX;
        let mut any_unfinished = false;
        for slot in &self.slots {
            let state = slot.state();
            match state {
                SHARD_RUNNING => running += 1,
                SHARD_DONE => done += 1,
                SHARD_LOST => lost += 1,
                _ => {}
            }
            match self.verdict(slot, now_ms) {
                "stalled" => stalled += 1,
                "degraded" => degraded += 1,
                _ => {}
            }
            retries += slot.retries.load(Ordering::Relaxed);
            checkpoints += slot.checkpoints.load(Ordering::Relaxed);
            let sim_ns = slot.sim_ns.load(Ordering::Relaxed);
            if state != SHARD_DONE {
                any_unfinished = true;
                floor_ns = floor_ns.min(sim_ns);
            } else if !any_unfinished {
                floor_ns = floor_ns.min(sim_ns);
            }
        }
        if self.slots.is_empty() {
            floor_ns = 0;
        }
        for (name, value, help) in [
            ("shard.running", running, "fleet shards currently executing"),
            ("shard.done", done, "fleet shards completed and collected"),
            (
                "shard.lost",
                lost,
                "fleet shards abandoned after retry budget",
            ),
            (
                "shard.stalled",
                stalled,
                "running shards whose last heartbeat is older than the watchdog",
            ),
            (
                "shard.degraded",
                degraded,
                "running shards that consumed at least one retry",
            ),
        ] {
            registry.wall_gauge(name).set(value);
            registry.describe(name, help);
        }
        raise_counter(registry, "shard.retries", retries);
        registry.describe("shard.retries", "retries consumed across all shards");
        raise_counter(registry, "shard.checkpoints", checkpoints);
        registry.describe(
            "shard.checkpoints",
            "checkpoint files written across all shards",
        );
        registry
            .wall_gauge("shard.watermark_ns")
            .set(floor_ns.min(i64::MAX as u64) as i64);
        registry.describe(
            "shard.watermark_ns",
            "lowest sim-time watermark across unfinished shards (fleet progress floor)",
        );
    }
}

/// Raises a counter to an absolute snapshot value (counters only add).
fn raise_counter(registry: &MetricsRegistry, name: &str, target: u64) {
    let counter = registry.wall_counter(name);
    let current = counter.get();
    if target > current {
        counter.add(target - current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn board(shards: usize, watchdog_ms: u64) -> ShardHealthBoard {
        ShardHealthBoard::new(shards, Duration::from_millis(watchdog_ms))
    }

    /// One lifecycle record stamped now, as a worker publishes it.
    fn rec(shard: u64, state: u8, sim_ns: u64, horizon_ns: u64, retries: u64) -> HeartbeatRecord {
        HeartbeatRecord {
            shard,
            state,
            sim_ns,
            horizon_ns,
            retries,
            checkpoints: 0,
            wall_ms: 0,
            unix_ms: unix_ms(),
        }
    }

    #[test]
    fn silent_running_shard_is_flagged_stalled_after_the_watchdog() {
        let b = board(2, 20);
        b.apply(&rec(0, SHARD_RUNNING, 0, 1_000, 0));
        b.apply(&rec(1, SHARD_RUNNING, 0, 1_000, 0));
        b.apply(&rec(0, SHARD_RUNNING, 100, 1_000, 0));
        std::thread::sleep(Duration::from_millis(60));
        // Shard 1 keeps beating; shard 0 went silent.
        b.apply(&rec(1, SHARD_RUNNING, 900, 1_000, 0));
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shards = doc.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(
            shards[0].get("verdict").and_then(Json::as_str),
            Some("stalled")
        );
        assert_eq!(shards[1].get("verdict").and_then(Json::as_str), Some("ok"));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("stalled").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn healthy_lifecycle_never_flags() {
        let b = board(1, 10_000);
        b.apply(&rec(0, SHARD_RUNNING, 0, 1_000, 0));
        b.apply(&rec(0, SHARD_RUNNING, 500, 1_000, 0));
        b.apply(&HeartbeatRecord {
            checkpoints: 1,
            ..rec(0, SHARD_DONE, 1_000, 1_000, 0)
        });
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shard = &doc.get("shards").and_then(Json::as_arr).expect("shards")[0];
        assert_eq!(shard.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(shard.get("verdict").and_then(Json::as_str), Some("ok"));
        assert_eq!(shard.get("progress").and_then(Json::as_f64), Some(1.0));
        assert!(!b.render_json().contains("\"verdict\":\"stalled\""));
    }

    #[test]
    fn done_shards_are_exempt_from_the_watchdog() {
        let b = board(1, 10);
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 0));
        b.apply(&rec(0, SHARD_DONE, 100, 100, 0));
        std::thread::sleep(Duration::from_millis(40));
        let json = b.render_json();
        assert!(json.contains("\"verdict\":\"ok\""), "got {json}");
    }

    #[test]
    fn retries_mark_a_shard_degraded_and_loss_is_terminal() {
        let b = board(2, 10_000);
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 0));
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 1));
        b.apply(&rec(1, SHARD_RUNNING, 0, 100, 0));
        b.apply(&rec(1, SHARD_LOST, 0, 100, 0));
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shards = doc.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(
            shards[0].get("verdict").and_then(Json::as_str),
            Some("degraded")
        );
        assert_eq!(
            shards[1].get("verdict").and_then(Json::as_str),
            Some("lost")
        );
    }

    #[test]
    fn sidecar_records_apply_monotonically() {
        let b = board(1, 10_000);
        let rec = HeartbeatRecord {
            shard: 0,
            state: SHARD_RUNNING,
            sim_ns: 500,
            horizon_ns: 1_000,
            retries: 1,
            checkpoints: 2,
            wall_ms: 10,
            unix_ms: unix_ms(),
        };
        b.apply(&rec);
        // A replay or older record must not regress anything.
        b.apply(&HeartbeatRecord {
            sim_ns: 100,
            retries: 0,
            unix_ms: rec.unix_ms.saturating_sub(5),
            ..rec
        });
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shard = &doc.get("shards").and_then(Json::as_arr).expect("shards")[0];
        assert_eq!(shard.get("sim_ns").and_then(Json::as_f64), Some(500.0));
        assert_eq!(shard.get("retries").and_then(Json::as_f64), Some(1.0));
        // A done record supersedes running; a late running record cannot
        // resurrect a done shard.
        b.apply(&HeartbeatRecord {
            state: SHARD_DONE,
            sim_ns: 1_000,
            unix_ms: rec.unix_ms + 10,
            ..rec
        });
        b.apply(&HeartbeatRecord {
            state: SHARD_RUNNING,
            unix_ms: rec.unix_ms + 20,
            ..rec
        });
        assert!(b.render_json().contains("\"state\":\"done\""));
    }

    #[test]
    fn done_after_retries_renders_ok_with_the_retry_count() {
        // A shard that retried and then completed recovered its coverage:
        // the verdict is "ok", and the history lives in `retries`.
        let b = board(1, 10_000);
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 0));
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 1));
        b.apply(&rec(0, SHARD_DONE, 100, 100, 1));
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shard = &doc.get("shards").and_then(Json::as_arr).expect("shards")[0];
        assert_eq!(shard.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(shard.get("verdict").and_then(Json::as_str), Some("ok"));
        assert_eq!(shard.get("retries").and_then(Json::as_f64), Some(1.0));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("degraded").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn equal_millisecond_record_still_advances_the_watermarks() {
        // Two beats can land in the same wall millisecond; the second one
        // loses the ordering claim but its monotone watermarks must land.
        let b = board(1, 10_000);
        let now = unix_ms();
        let rec = HeartbeatRecord {
            shard: 0,
            state: SHARD_RUNNING,
            sim_ns: 100,
            horizon_ns: 1_000,
            retries: 0,
            checkpoints: 0,
            wall_ms: 1,
            unix_ms: now,
        };
        b.apply(&rec);
        b.apply(&HeartbeatRecord {
            sim_ns: 400,
            checkpoints: 1,
            ..rec
        });
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shard = &doc.get("shards").and_then(Json::as_arr).expect("shards")[0];
        assert_eq!(shard.get("sim_ns").and_then(Json::as_f64), Some(400.0));
        assert_eq!(shard.get("checkpoints").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn skewed_worker_clocks_neither_forge_nor_mask_stalls() {
        // A worker whose clock lags ours by a minute keeps beating: the
        // observed age is what counts, so it must never read "stalled".
        let b = board(2, 50);
        let now = unix_ms();
        let slow = HeartbeatRecord {
            shard: 0,
            state: SHARD_RUNNING,
            sim_ns: 100,
            horizon_ns: 1_000,
            retries: 0,
            checkpoints: 0,
            wall_ms: 1,
            unix_ms: now.saturating_sub(60_000),
        };
        b.apply_observed(&slow, 0);
        // A worker whose clock runs a minute ahead beat once and then
        // went silent: the future timestamp must not hide the stall.
        let fast = HeartbeatRecord {
            shard: 1,
            unix_ms: now + 60_000,
            ..slow
        };
        b.apply_observed(&fast, 0);
        std::thread::sleep(Duration::from_millis(80));
        // The lagging worker is still beating — a fresh observation lands
        // within the watchdog window even though its own clock reads a
        // minute in the past.
        b.apply_observed(
            &HeartbeatRecord {
                sim_ns: 200,
                unix_ms: slow.unix_ms + 100,
                ..slow
            },
            0,
        );
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shards = doc.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(shards[0].get("verdict").and_then(Json::as_str), Some("ok"));
        let skew0 = shards[0]
            .get("skew_ms")
            .and_then(Json::as_f64)
            .expect("skew");
        assert!(
            skew0 < -50_000.0,
            "lagging clock skew measured, got {skew0}"
        );
        assert_eq!(
            shards[1].get("verdict").and_then(Json::as_str),
            Some("stalled")
        );
        let skew1 = shards[1]
            .get("skew_ms")
            .and_then(Json::as_f64)
            .expect("skew");
        assert!(skew1 > 50_000.0, "fast clock skew measured, got {skew1}");
    }

    /// Strips the wall-jittery fields (`beat_age_ms`, `skew_ms`) from a
    /// rendered `/shards` doc so two boards can be compared exactly.
    fn stable_view(json: &str) -> Vec<(String, String, f64, f64, f64)> {
        let doc = Json::parse(json).expect("valid JSON");
        doc.get("shards")
            .and_then(Json::as_arr)
            .expect("shards")
            .iter()
            .map(|s| {
                (
                    s.get("state").and_then(Json::as_str).unwrap().to_string(),
                    s.get("verdict").and_then(Json::as_str).unwrap().to_string(),
                    s.get("sim_ns").and_then(Json::as_f64).unwrap(),
                    s.get("retries").and_then(Json::as_f64).unwrap(),
                    s.get("checkpoints").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn concurrent_appliers_converge_to_the_serial_order() {
        // N threads replaying shuffled, duplicated heartbeat records must
        // land the board in the same state as one serial apply in
        // `unix_ms` order — the fetch_max claims make replays and races
        // unable to regress anything.
        use std::sync::Arc;
        let shards = 4usize;
        let base = unix_ms();
        let mut records = Vec::new();
        for shard in 0..shards as u64 {
            for step in 0..20u64 {
                let state = if step == 19 && shard % 2 == 0 {
                    SHARD_DONE
                } else {
                    SHARD_RUNNING
                };
                records.push(HeartbeatRecord {
                    shard,
                    state,
                    sim_ns: (step + 1) * 50,
                    horizon_ns: 1_000,
                    retries: u64::from(step > 10 && shard == 1),
                    checkpoints: step / 8,
                    wall_ms: step,
                    unix_ms: base + step * 7 + shard,
                });
            }
        }

        let serial = board(shards, 1_000_000);
        let mut ordered = records.clone();
        ordered.sort_by_key(|r| r.unix_ms);
        for rec in &ordered {
            serial.apply(rec);
        }
        let want = stable_view(&serial.render_json());

        for trial in 0..8u64 {
            let concurrent = Arc::new(board(shards, 1_000_000));
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let b = Arc::clone(&concurrent);
                    // Deterministic per-thread shuffle with duplicates: a
                    // different stride walk of the record list per thread.
                    let mut replay = records.clone();
                    let stride = (trial * 4 + t) as usize * 2 + 3;
                    let rot = stride % replay.len();
                    replay.rotate_left(rot);
                    replay.extend_from_slice(&records[..stride.min(records.len())]);
                    std::thread::spawn(move || {
                        for rec in &replay {
                            b.apply(rec);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("applier thread");
            }
            assert_eq!(
                stable_view(&concurrent.render_json()),
                want,
                "trial {trial} diverged from the serial apply"
            );
        }
    }

    #[test]
    fn redispatch_reset_returns_a_terminal_shard_to_pending() {
        let b = board(1, 10_000);
        b.apply(&rec(0, SHARD_RUNNING, 0, 1_000, 0));
        b.apply(&rec(0, SHARD_LOST, 0, 1_000, 0));
        assert!(b.render_json().contains("\"state\":\"lost\""));
        b.reset_for_redispatch(0);
        let doc = Json::parse(&b.render_json()).expect("valid JSON");
        let shard = &doc.get("shards").and_then(Json::as_arr).expect("shards")[0];
        assert_eq!(shard.get("state").and_then(Json::as_str), Some("pending"));
        // A fresh worker's records apply normally after the reset, even
        // with a lagging clock.
        b.apply_observed(
            &HeartbeatRecord {
                shard: 0,
                state: SHARD_RUNNING,
                sim_ns: 10,
                horizon_ns: 1_000,
                retries: 0,
                checkpoints: 0,
                wall_ms: 1,
                unix_ms: unix_ms().saturating_sub(60_000),
            },
            0,
        );
        assert!(b.render_json().contains("\"state\":\"running\""));
    }

    #[test]
    fn export_metrics_is_wall_only_with_help() {
        let b = board(3, 10_000);
        b.apply(&rec(0, SHARD_RUNNING, 0, 100, 0));
        b.apply(&HeartbeatRecord {
            checkpoints: 1,
            ..rec(0, SHARD_RUNNING, 0, 100, 1)
        });
        b.apply(&rec(1, SHARD_DONE, 100, 100, 0));
        let registry = MetricsRegistry::new();
        b.export_metrics(&registry);
        b.export_metrics(&registry); // idempotent re-export
        let prom = registry.render_prometheus();
        assert!(prom.contains("shard_running 1\n"), "got {prom}");
        assert!(prom.contains("shard_done 1\n"));
        assert!(prom.contains("shard_retries 1\n"));
        assert!(prom.contains("shard_checkpoints 1\n"));
        assert!(prom.contains("# HELP shard_stalled "));
        assert!(prom.contains("# HELP shard_watermark_ns "));
        assert!(!registry.render_deterministic().contains("shard."));
    }
}
