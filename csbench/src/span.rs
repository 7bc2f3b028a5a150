//! Spans recorded by the benchmark's own wrappers around the calls into
//! each layer. Only the traced run opens them: with tracing off, entering
//! a span is one relaxed atomic load.
//!
//! Every thread keeps a span stack. Closing a span charges its duration
//! minus the time its children cover to its own *self* time, and the same
//! for allocations, into a per-name table. Spans that fire once per packet
//! (`Name::is_hot`) are only folded into that table; the rest are also
//! kept as records (name, start, end, parent, run id) and written out when
//! the benchmark ends.

use crate::alloc;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Every span the benchmark opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One workload iteration (root).
    Iteration,
    /// `World::run_instrumented`: the `world` layer (sim, game, net).
    WorldRun,
    /// `FullAnalysis::on_packet` (inbound records, one at a time).
    IngestPacket,
    /// `FullAnalysis::on_batch` (server tick bursts).
    IngestBatch,
    /// `FullAnalysis::on_end`.
    Fold,
    /// `NatDevice::forward`.
    RouterForward,
    /// The `Deliver` continuation the router invokes; world and ingest
    /// work run inside it.
    RouterDeliver,
    /// Table and figure rendering.
    Render,
    /// One fleet shard on a worker thread.
    FleetShard,
    /// `fleet::persist::write_checkpoint_atomic`.
    PersistWrite,
    /// `fleet::persist::read_checkpoint`.
    PersistRead,
    /// `FleetMerger` push and finish.
    FleetMerge,
    /// `ProvisioningReport::build` and its rendering.
    FleetReport,
    /// Exporting and writing the journal, series and profile files.
    ObsWrite,
}

/// Number of [`Name`] variants.
pub const NAMES: usize = 14;

impl Name {
    /// Every name, in table order.
    pub const ALL: [Name; NAMES] = [
        Name::Iteration,
        Name::WorldRun,
        Name::IngestPacket,
        Name::IngestBatch,
        Name::Fold,
        Name::RouterForward,
        Name::RouterDeliver,
        Name::Render,
        Name::FleetShard,
        Name::PersistWrite,
        Name::PersistRead,
        Name::FleetMerge,
        Name::FleetReport,
        Name::ObsWrite,
    ];

    /// The span's name as written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Iteration => "iteration",
            Name::WorldRun => "world.run",
            Name::IngestPacket => "analysis.ingest_packet",
            Name::IngestBatch => "analysis.ingest_batch",
            Name::Fold => "analysis.fold",
            Name::RouterForward => "router.forward",
            Name::RouterDeliver => "router.deliver",
            Name::Render => "experiments.render",
            Name::FleetShard => "fleet.shard",
            Name::PersistWrite => "persist.write",
            Name::PersistRead => "persist.read",
            Name::FleetMerge => "fleet.merge",
            Name::FleetReport => "fleet.report",
            Name::ObsWrite => "obs.write",
        }
    }

    /// Spans opened once per packet: aggregated, never kept as records.
    pub fn is_hot(self) -> bool {
        matches!(
            self,
            Name::IngestPacket | Name::IngestBatch | Name::RouterForward | Name::RouterDeliver
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregate of every closed span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
    /// Allocations made inside the span but outside its children.
    pub self_allocs: u64,
    /// Bytes of those allocations.
    pub self_bytes: u64,
}

impl Totals {
    const ZERO: Totals = Totals {
        count: 0,
        total_ns: 0,
        self_ns: 0,
        self_allocs: 0,
        self_bytes: 0,
    };

    fn add(&mut self, o: &Totals) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.self_allocs += o.self_allocs;
        self.self_bytes += o.self_bytes;
    }
}

/// A kept span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the process.
    pub id: u64,
    /// The enclosing kept span, possibly on another thread.
    pub parent: Option<u64>,
    /// The iteration it belongs to.
    pub run: u32,
    /// What it timed.
    pub name: Name,
    /// Nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process epoch.
    pub end_ns: u64,
}

struct Frame {
    name: Name,
    start_ns: u64,
    allocs0: (u64, u64),
    child_ns: u64,
    child_allocs: (u64, u64),
    /// `(id, run)` for a kept span.
    kept: Option<(u64, u32)>,
}

/// One thread's span stack plus what its closed spans added up to. Time
/// and allocation counts are passed in, so tests can drive it by hand.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Frame>,
    /// Parent for kept spans opened with an empty stack (a worker thread's
    /// roots hang under the span that started the pool).
    root_parent: Option<u64>,
    totals: [Totals; NAMES],
    records: Vec<SpanRecord>,
}

impl Recorder {
    /// Opens a span at `now_ns`, with the thread's allocation totals at
    /// that instant. `kept` gives the record id and run for a kept span.
    pub fn enter(&mut self, name: Name, now_ns: u64, allocs: (u64, u64), kept: Option<(u64, u32)>) {
        self.stack.push(Frame {
            name,
            start_ns: now_ns,
            allocs0: allocs,
            child_ns: 0,
            child_allocs: (0, 0),
            kept,
        });
    }

    /// Closes the innermost span.
    pub fn exit(&mut self, now_ns: u64, allocs: (u64, u64)) {
        let Some(f) = self.stack.pop() else { return };
        let dur = now_ns.saturating_sub(f.start_ns);
        let made = (
            allocs.0.saturating_sub(f.allocs0.0),
            allocs.1.saturating_sub(f.allocs0.1),
        );
        let t = &mut self.totals[f.name.index()];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(f.child_ns);
        t.self_allocs += made.0.saturating_sub(f.child_allocs.0);
        t.self_bytes += made.1.saturating_sub(f.child_allocs.1);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs.0 += made.0;
            parent.child_allocs.1 += made.1;
        }
        if let Some((id, run)) = f.kept {
            let parent = self.innermost_kept();
            self.records.push(SpanRecord {
                id,
                parent,
                run,
                name: f.name,
                start_ns: f.start_ns,
                end_ns: now_ns,
            });
        }
    }

    /// Totals for one span name.
    pub fn totals(&self, name: Name) -> Totals {
        self.totals[name.index()]
    }

    /// The kept records, in closing order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    fn innermost_kept(&self) -> Option<u64> {
        self.stack
            .iter()
            .rev()
            .find_map(|p| p.kept.map(|(id, _)| id))
            .or(self.root_parent)
    }
}

/// Span totals and records gathered from every thread.
#[derive(Clone, Debug)]
pub struct Collected {
    totals: [Totals; NAMES],
    /// Kept spans from every thread.
    pub records: Vec<SpanRecord>,
}

impl Default for Collected {
    fn default() -> Self {
        Collected {
            totals: [Totals::ZERO; NAMES],
            records: Vec::new(),
        }
    }
}

impl Collected {
    /// Totals for one span name.
    pub fn get(&self, name: Name) -> Totals {
        self.totals[name.index()]
    }

    /// Adds another collection's totals (not its records) to this one.
    pub fn absorb(&mut self, other: &Collected) {
        for (sum, t) in self.totals.iter_mut().zip(other.totals.iter()) {
            sum.add(t);
        }
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static RUN: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Option<Collected>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Fixes the process epoch; call first thing in `main`.
pub fn start_clock() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    start_clock().elapsed().as_nanos() as u64
}

/// Turns span recording (and allocation counting) on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
    alloc::set_counting(on);
}

/// Whether spans are being recorded.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Sets the run id stamped on the kept spans opened from now on.
pub fn set_run(run: u32) {
    RUN.store(run, Ordering::Relaxed);
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard {
    active: bool,
}

/// Opens a span, if tracing is on.
pub fn enter(name: Name) -> Guard {
    if !tracing() {
        return Guard { active: false };
    }
    let kept = (!name.is_hot()).then(|| {
        (
            NEXT_ID.fetch_add(1, Ordering::Relaxed),
            RUN.load(Ordering::Relaxed),
        )
    });
    alloc::uncounted(|| {
        RECORDER.with(|r| {
            r.borrow_mut()
                .enter(name, now_ns(), alloc::thread_counts(), kept)
        })
    });
    Guard { active: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            alloc::uncounted(|| {
                RECORDER.with(|r| r.borrow_mut().exit(now_ns(), alloc::thread_counts()))
            });
        }
    }
}

/// The innermost kept span open on this thread, to hand to worker threads.
pub fn current() -> Option<u64> {
    RECORDER.with(|r| r.borrow().innermost_kept())
}

/// Hangs this thread's root spans under `parent` (a span on another thread).
pub fn adopt(parent: Option<u64>) {
    RECORDER.with(|r| r.borrow_mut().root_parent = parent);
}

/// Moves this thread's totals and records into the process-wide collection.
/// Worker threads call it before they end; the main thread before reading.
pub fn flush_thread() {
    let rec = RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()));
    let mut guard = COLLECTED.lock().expect("span collection lock poisoned");
    let all = guard.get_or_insert_with(Collected::default);
    for (sum, t) in all.totals.iter_mut().zip(rec.totals.iter()) {
        sum.add(t);
    }
    all.records.extend(rec.records);
}

/// Takes everything flushed so far, leaving the collection empty.
pub fn take_collected() -> Collected {
    flush_thread();
    COLLECTED
        .lock()
        .expect("span collection lock poisoned")
        .take()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_inside_router_deliver_is_not_router_self_time() {
        // world.run 0..100 ─ router.deliver 10..40 ─ ingest_packet 15..25
        //                  └ router.forward 50..60
        let mut r = Recorder::default();
        r.enter(Name::WorldRun, 0, (0, 0), Some((1, 0)));
        r.enter(Name::RouterDeliver, 10, (2, 20), None);
        r.enter(Name::IngestPacket, 15, (3, 30), None);
        r.exit(25, (5, 50));
        r.exit(40, (6, 60));
        r.enter(Name::RouterForward, 50, (6, 60), None);
        r.exit(60, (7, 64));
        r.exit(100, (9, 90));

        let ingest = r.totals(Name::IngestPacket);
        assert_eq!((ingest.total_ns, ingest.self_ns), (10, 10));
        assert_eq!((ingest.self_allocs, ingest.self_bytes), (2, 20));
        let deliver = r.totals(Name::RouterDeliver);
        assert_eq!((deliver.total_ns, deliver.self_ns), (30, 20));
        assert_eq!((deliver.self_allocs, deliver.self_bytes), (2, 20));
        let forward = r.totals(Name::RouterForward);
        assert_eq!((forward.self_ns, forward.self_allocs), (10, 1));
        let world = r.totals(Name::WorldRun);
        assert_eq!((world.total_ns, world.self_ns), (100, 60));
        assert_eq!((world.self_allocs, world.self_bytes), (9 - 5, 90 - 44));
        // Self times partition the root span.
        let sum: u64 = Name::ALL.iter().map(|&n| r.totals(n).self_ns).sum();
        assert_eq!(sum, 100);
        // Only the kept root left a record.
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].parent, None);
    }

    #[test]
    fn kept_spans_record_their_nearest_kept_ancestor() {
        let mut r = Recorder {
            root_parent: Some(7),
            ..Recorder::default()
        };
        r.enter(Name::FleetShard, 0, (0, 0), Some((10, 3)));
        r.enter(Name::WorldRun, 1, (0, 0), Some((11, 3)));
        r.enter(Name::IngestBatch, 2, (0, 0), None);
        r.enter(Name::Fold, 3, (0, 0), Some((12, 3)));
        r.exit(4, (0, 0));
        r.exit(5, (0, 0));
        r.exit(6, (0, 0));
        r.exit(9, (0, 0));
        let parents: Vec<(u64, Option<u64>)> =
            r.records().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(parents, vec![(12, Some(11)), (11, Some(10)), (10, Some(7))]);
        assert!(r.records().iter().all(|s| s.run == 3));
        assert_eq!(r.totals(Name::FleetShard).self_ns, 4);
    }

    #[test]
    fn unmatched_exit_is_ignored() {
        let mut r = Recorder::default();
        r.exit(5, (0, 0));
        assert_eq!(r.totals(Name::Iteration), Totals::default());
    }
}
