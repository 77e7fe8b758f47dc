//! Structured trace events in a bounded ring.
//!
//! The ring is a `VecDeque` of fixed-size [`Event`]s behind a mutex, held
//! for one O(1) push or pop. When the ring is full a producer *displaces*
//! the oldest unread event (counting it dropped) rather than waiting for
//! a consumer or losing the fresh event — observability wants recent
//! history, flight-recorder style. Sequence numbers are assigned under
//! the same lock, so they increase strictly in ring order, and every
//! emitted event is accounted exactly once:
//!
//! ```text
//! emitted == read + dropped + still-in-ring
//! ```
//!
//! which the loss-accounting property test pins under concurrent
//! writers.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// What happened. The payload fields `a`/`b`/`c` of [`Event`] are
/// interpreted per kind; see each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// WAL made records durable: `a` = records synced, `b` = bytes.
    WalFsync,
    /// Checkpoint written: `a` = checkpoint seq, `b` = payload bytes.
    WalCheckpoint,
    /// WAL scanned at recovery: `a` = records recovered, `b` = end cause
    /// (0 clean-eof, 1 torn-frame, 2 crc-mismatch).
    WalRecovery,
    /// A retry budget ran out: `a` = attempts, `b` = total backoff ns.
    RetryExhausted,
    /// An epoch snapshot was published: `a` = its high LSN.
    EpochPublish,
    /// An epoch publisher re-scored its population (Skiing's rule, a
    /// population rebuild, or an explicit reorganization): `a` = LSN of
    /// the rebased epoch, `b` = tuples the `[lw, hw]` band held when it
    /// was reset, `c` = charged cost `S` of the re-score (ops).
    EpochRebase,
    /// The ski-rental advisor ordered a switch: `a` = from-arch code,
    /// `b` = to-arch code, `c` = accumulated regret (ns).
    AdvisorDecision,
    /// A view migration began: `a` = from-arch code, `b` = to-arch code,
    /// `c` = 1 if advisor-ordered.
    MigrationStart,
    /// A view migration finished: `a` = from-arch code, `b` = to-arch
    /// code, `c` = pause duration in virtual ns.
    MigrationFinish,
    /// A WAL segment shipped to a replica: `a` = replica index,
    /// `b` = records shipped.
    ReplShipment,
    /// A lagging replica was evicted from the read set: `a` = replica
    /// index, `b` = observed lag (LSNs).
    ReplEviction,
    /// A caught-up replica was readmitted: `a` = replica index.
    ReplReadmission,
    /// Primary failover promoted a replica: `a` = promoted replica
    /// index, `b` = its LSN at promotion.
    ReplFailover,
    /// A front lane served one batch: `a` = batch size, `b` = lane
    /// (0 read, 1 write, 2 engine), `c` = queue depth after the drain.
    FrontBatch,
    /// Admission control shed a request: `a` = queue depth at rejection,
    /// `b` = advised retry-after ms.
    FrontShed,
    /// A dataflow source ingested deltas: `a` = deltas in, `b` = rows
    /// emitted at sinks-so-far delta.
    FlowIngest,
    /// A view reorganized (re-sorted/re-keyed its physical layout):
    /// `a` = virtual ns spent.
    Reorg,
}

impl EventKind {
    /// Stable kebab-case name (what `SHOW EVENTS` prints).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::WalFsync => "wal-fsync",
            EventKind::WalCheckpoint => "wal-checkpoint",
            EventKind::WalRecovery => "wal-recovery",
            EventKind::RetryExhausted => "retry-exhausted",
            EventKind::EpochPublish => "epoch-publish",
            EventKind::EpochRebase => "epoch-rebase",
            EventKind::AdvisorDecision => "advisor-decision",
            EventKind::MigrationStart => "migration-start",
            EventKind::MigrationFinish => "migration-finish",
            EventKind::ReplShipment => "repl-shipment",
            EventKind::ReplEviction => "repl-eviction",
            EventKind::ReplReadmission => "repl-readmission",
            EventKind::ReplFailover => "repl-failover",
            EventKind::FrontBatch => "front-batch",
            EventKind::FrontShed => "front-shed",
            EventKind::FlowIngest => "flow-ingest",
            EventKind::Reorg => "reorg",
        }
    }
}

/// One structured trace event: plain `Copy` data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Ring-assigned sequence number, strictly increasing in ring order
    /// (gaps mean drops).
    pub seq: u64,
    /// [`crate::now_ns`] at emit time.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload field (meaning per [`EventKind`]).
    pub a: u64,
    /// Second payload field.
    pub b: u64,
    /// Third payload field.
    pub c: u64,
}

impl Event {
    /// Human-readable payload rendering for `SHOW EVENTS`.
    pub fn detail(&self) -> String {
        use EventKind::*;
        match self.kind {
            WalFsync => format!("records={} bytes={}", self.a, self.b),
            WalCheckpoint => format!("seq={} bytes={}", self.a, self.b),
            WalRecovery => {
                let end = match self.b {
                    0 => "clean-eof",
                    1 => "torn-frame",
                    _ => "crc-mismatch",
                };
                format!("records={} end={end}", self.a)
            }
            RetryExhausted => format!("attempts={} backoff_ns={}", self.a, self.b),
            EpochPublish => format!("lsn={}", self.a),
            EpochRebase => format!("lsn={} band_tuples={} s={}", self.a, self.b, self.c),
            AdvisorDecision => format!("from={} to={} regret_ns={}", self.a, self.b, self.c),
            MigrationStart => format!("from={} to={} auto={}", self.a, self.b, self.c),
            MigrationFinish => format!("from={} to={} pause_ns={}", self.a, self.b, self.c),
            ReplShipment => format!("replica={} records={}", self.a, self.b),
            ReplEviction => format!("replica={} lag={}", self.a, self.b),
            ReplReadmission => format!("replica={}", self.a),
            ReplFailover => format!("promoted={} lsn={}", self.a, self.b),
            FrontBatch => {
                let lane = match self.b {
                    0 => "read",
                    1 => "write",
                    _ => "engine",
                };
                format!("len={} lane={lane} depth={}", self.a, self.c)
            }
            FrontShed => format!("depth={} retry_after_ms={}", self.a, self.b),
            FlowIngest => format!("deltas={} emitted={}", self.a, self.b),
            Reorg => format!("ns={}", self.a),
        }
    }
}

/// A bounded ring of [`Event`]s with drop accounting.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    inner: Mutex<Ring>,
}

/// The ring's state; every field changes only under the ring's lock.
#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    /// Events ever emitted, which is also the next sequence number.
    emitted: u64,
    read: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring holding up to `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                emitted: 0,
                read: 0,
                dropped: 0,
            }),
        }
    }

    /// The ring's lock. A panic cannot leave the ring half-updated — every
    /// mutation is a push, a pop or a counter bump — so a poisoned lock is
    /// recovered rather than propagated into every later emit.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Emits an event. On a full ring the oldest unread event is
    /// displaced (and counted dropped), so an emit waits only for another
    /// thread's O(1) push or pop. Sequence numbers are assigned under the
    /// lock, in ring order, starting at 0.
    pub fn emit(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if !crate::enabled() {
            return;
        }
        let at_ns = crate::now_ns();
        let mut ring = self.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.emitted;
        ring.emitted += 1;
        ring.events.push_back(Event { seq, at_ns, kind, a, b, c });
    }

    /// Pops the oldest retained event, counting it as read.
    pub fn pop(&self) -> Option<Event> {
        let mut ring = self.lock();
        let ev = ring.events.pop_front()?;
        ring.read += 1;
        Some(ev)
    }

    /// Pops up to `max` events, oldest first.
    pub fn drain(&self, max: usize) -> Vec<Event> {
        let mut ring = self.lock();
        let n = max.min(ring.events.len());
        ring.read += n as u64;
        ring.events.drain(..n).collect()
    }

    /// Total events ever emitted into this ring.
    pub fn emitted(&self) -> u64 {
        self.lock().emitted
    }

    /// Total events consumed via [`EventRing::pop`]/[`EventRing::drain`].
    pub fn read_count(&self) -> u64 {
        self.lock().read
    }

    /// Total events lost — displaced by writers when the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

/// Capacity of the process-global ring.
const GLOBAL_RING_CAP: usize = 8192;
/// Retention of the drained side log behind [`recent`].
const RECENT_CAP: usize = 8192;

static GLOBAL: OnceLock<EventRing> = OnceLock::new();
static RECENT: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();

/// The process-global event ring every subsystem emits into.
pub fn global() -> &'static EventRing {
    GLOBAL.get_or_init(|| EventRing::new(GLOBAL_RING_CAP))
}

/// Drains the global ring into a bounded side log and returns the last
/// `limit` retained events, oldest first. Repeated callers (SQL `SHOW
/// EVENTS`, debuggers) therefore see a stable growing history rather
/// than stealing events from one another.
pub fn recent(limit: usize) -> Vec<Event> {
    let log = RECENT.get_or_init(|| Mutex::new(Vec::new()));
    let mut log = log.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        let batch = global().drain(1024);
        if batch.is_empty() {
            break;
        }
        log.extend_from_slice(&batch);
    }
    if log.len() > RECENT_CAP {
        let cut = log.len() - RECENT_CAP;
        log.drain(..cut);
    }
    let n = limit.min(log.len());
    log[log.len() - n..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_seq_monotone() {
        let ring = EventRing::new(8);
        for i in 0..5 {
            ring.emit(EventKind::WalFsync, i, 0, 0);
        }
        let got = ring.drain(16);
        assert_eq!(got.len(), 5);
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.a, i as u64);
        }
        assert_eq!(ring.emitted(), 5);
        assert_eq!(ring.read_count(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_keeps_recent_history() {
        let ring = EventRing::new(4);
        for i in 0..100u64 {
            ring.emit(EventKind::FrontShed, i, 0, 0);
        }
        let got = ring.drain(16);
        // flight-recorder semantics: the *latest* events survive
        assert_eq!(got.last().unwrap().a, 99);
        assert_eq!(ring.emitted(), 100);
        assert_eq!(ring.read_count() + ring.dropped(), 100);
    }

    #[test]
    fn detail_strings_cover_all_kinds() {
        use EventKind::*;
        for kind in [
            WalFsync,
            WalCheckpoint,
            WalRecovery,
            RetryExhausted,
            EpochPublish,
            EpochRebase,
            AdvisorDecision,
            MigrationStart,
            MigrationFinish,
            ReplShipment,
            ReplEviction,
            ReplReadmission,
            ReplFailover,
            FrontBatch,
            FrontShed,
            FlowIngest,
            Reorg,
        ] {
            let ev = Event { seq: 1, at_ns: 2, kind, a: 3, b: 4, c: 5 };
            assert!(!ev.detail().is_empty());
            assert!(!kind.name().is_empty());
        }
    }
}
