//! Columnar (struct-of-arrays) packet batches.
//!
//! A [`PacketBatch`] holds the same information as a `&[TraceRecord]` burst,
//! transposed into parallel columns: timestamps, application sizes, flow
//! keys (session ids) and a packed direction/kind tag byte per packet. Hot
//! sinks consume whole columns — run-folded bin accounting walks only the
//! timestamp column, size histograms walk only the size column — so the
//! inner loops touch dense, homogeneous memory and vectorize. Producers
//! (the world's server tick, trace replay) push rows into one reused batch
//! per burst, so no record slice is ever transposed.
//!
//! The batch is a *view format*, not a new source of truth: every row can be
//! reconstructed exactly as the [`TraceRecord`] it was built from (see
//! [`PacketBatch::record`]), which is what the default
//! [`TraceSink::on_columns`](crate::TraceSink::on_columns) shim does for
//! sinks that have not opted into the columnar path. Columnar and
//! per-record delivery are required to leave byte-identical analyzer state;
//! the differential tests in `csprov` enforce that.

use crate::packet::{Direction, PacketKind};
use crate::trace::TraceRecord;
use csprov_sim::SimTime;

/// Bit set in a tag byte for outbound packets.
pub const TAG_DIR_BIT: u8 = 0x80;
/// Mask selecting the packet-kind bits of a tag byte.
pub const TAG_KIND_MASK: u8 = 0x7F;

/// Packs a direction and kind into one tag byte.
fn tag_of(direction: Direction, kind: PacketKind) -> u8 {
    let dir = match direction {
        Direction::Inbound => 0,
        Direction::Outbound => TAG_DIR_BIT,
    };
    dir | kind.as_u8()
}

/// A burst of trace records transposed into parallel columns.
///
/// Rows are in delivery order (non-decreasing time, like any sink input).
/// The batch is reusable: [`PacketBatch::clear`] retains the column
/// allocations so a producer can fill it once per burst without
/// reallocating.
#[derive(Debug, Clone, Default)]
pub struct PacketBatch {
    times_ns: Vec<u64>,
    app_lens: Vec<u32>,
    sessions: Vec<u32>,
    tags: Vec<u8>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` rows per column.
    pub fn with_capacity(n: usize) -> Self {
        PacketBatch {
            times_ns: Vec::with_capacity(n),
            app_lens: Vec::with_capacity(n),
            sessions: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
        }
    }

    /// Builds a batch from a record slice. Producers push rows as they
    /// go; this is for callers that already hold the records.
    pub fn from_records(recs: &[TraceRecord]) -> Self {
        let mut batch = Self::with_capacity(recs.len());
        for rec in recs {
            batch.push(rec);
        }
        batch
    }

    /// Appends one record as a new row.
    pub fn push(&mut self, rec: &TraceRecord) {
        self.times_ns.push(rec.time.as_nanos());
        self.app_lens.push(rec.app_len);
        self.sessions.push(rec.session);
        self.tags.push(tag_of(rec.direction, rec.kind));
    }

    /// Empties the batch, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        self.times_ns.clear();
        self.app_lens.clear();
        self.sessions.clear();
        self.tags.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// The timestamp column, in nanoseconds.
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    /// The application-payload-size column, in bytes.
    pub fn app_lens(&self) -> &[u32] {
        &self.app_lens
    }

    /// The session (flow key) column; `u32::MAX` marks sessionless traffic.
    pub fn sessions(&self) -> &[u32] {
        &self.sessions
    }

    /// The packed direction/kind tag column. Bit 7 ([`TAG_DIR_BIT`]) is the
    /// direction (set = outbound); the low bits ([`TAG_KIND_MASK`]) are the
    /// [`PacketKind`] tag.
    pub fn tags(&self) -> &[u8] {
        &self.tags
    }

    /// Direction of row `i`.
    pub fn direction(&self, i: usize) -> Direction {
        if self.tags[i] & TAG_DIR_BIT == 0 {
            Direction::Inbound
        } else {
            Direction::Outbound
        }
    }

    /// Kind of row `i`.
    pub fn kind(&self, i: usize) -> PacketKind {
        // Tags are only ever written by `push`, so the kind bits are always
        // a valid `PacketKind`; the fallback is unreachable but keeps this
        // path free of panicking constructs.
        PacketKind::from_u8(self.tags[i] & TAG_KIND_MASK).unwrap_or(PacketKind::ClientCommand)
    }

    /// Reconstructs row `i` as the record it was built from.
    pub fn record(&self, i: usize) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(self.times_ns[i]),
            direction: self.direction(i),
            kind: self.kind(i),
            session: self.sessions[i],
            app_len: self.app_lens[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::WIRE_OVERHEAD_BYTES;

    fn rec(ms: u64, dir: Direction, kind: PacketKind, session: u32, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(ms),
            direction: dir,
            kind,
            session,
            app_len: len,
        }
    }

    #[test]
    fn roundtrips_every_kind_and_direction() {
        let mut recs = Vec::new();
        for (i, kind) in PacketKind::ALL.iter().enumerate() {
            for dir in [Direction::Inbound, Direction::Outbound] {
                recs.push(rec(i as u64, dir, *kind, i as u32, 10 + i as u32));
            }
        }
        recs.push(rec(
            99,
            Direction::Outbound,
            PacketKind::ServerInfo,
            u32::MAX,
            0,
        ));
        let batch = PacketBatch::from_records(&recs);
        assert_eq!(batch.len(), recs.len());
        let back: Vec<TraceRecord> = (0..batch.len()).map(|i| batch.record(i)).collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn columns_line_up_with_rows() {
        let recs = vec![
            rec(0, Direction::Inbound, PacketKind::ClientCommand, 3, 40),
            rec(1, Direction::Outbound, PacketKind::StateUpdate, 7, 130),
        ];
        let batch = PacketBatch::from_records(&recs);
        assert_eq!(batch.times_ns(), &[0, 1_000_000]);
        assert_eq!(batch.app_lens(), &[40, 130]);
        assert_eq!(batch.sessions(), &[3, 7]);
        assert_eq!(batch.tags()[0] & TAG_DIR_BIT, 0);
        assert_eq!(batch.tags()[1] & TAG_DIR_BIT, TAG_DIR_BIT);
        assert_eq!(batch.record(1).wire_len(), 130 + WIRE_OVERHEAD_BYTES);
        assert_eq!(batch.kind(1), PacketKind::StateUpdate);
    }

    #[test]
    fn clear_retains_capacity() {
        let recs = vec![rec(0, Direction::Inbound, PacketKind::ClientCommand, 1, 40); 64];
        let mut batch = PacketBatch::from_records(&recs);
        let cap = batch.times_ns.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.times_ns.capacity(), cap);
        for rec in &recs[..8] {
            batch.push(rec);
        }
        assert_eq!(batch.len(), 8);
    }
}
