//! Structured trace events in a bounded lock-free ring.
//!
//! The ring is a Vyukov-style MPMC queue of fixed-size [`Event`]s: each
//! slot carries its own sequence atomic, producers claim slots with a
//! CAS on the enqueue cursor, and neither side ever takes a lock. When
//! the ring is full a producer *displaces* the oldest unread event
//! (popping it and counting it dropped) rather than blocking or losing
//! the fresh event — observability wants recent history, flight-recorder
//! style. If even displacement loses the race twice, the new event
//! itself is dropped and counted. Either way every emitted event is
//! accounted exactly once:
//!
//! ```text
//! emitted == read + dropped + still-in-ring
//! ```
//!
//! which the loss-accounting property test pins under concurrent
//! writers.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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
    /// Epoch GC freed retired snapshots: `a` = snapshots reclaimed,
    /// `b` = still retired (live pins hold them).
    EpochReclaim,
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
            EventKind::EpochReclaim => "epoch-reclaim",
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

/// One structured trace event. Plain `Copy` data so ring slots never
/// allocate or drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Ring-assigned monotonic sequence number (gaps mean drops).
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
            EpochReclaim => format!("reclaimed={} retired={}", self.a, self.b),
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

impl Default for Event {
    fn default() -> Event {
        Event { seq: 0, at_ns: 0, kind: EventKind::WalFsync, a: 0, b: 0, c: 0 }
    }
}

/// One ring slot: a per-slot sequence atomic (the Vyukov handshake) plus
/// the payload. `turn == pos` means "free for the producer that claimed
/// position `pos`"; `turn == pos + 1` means "holds the event of position
/// `pos`, ready for a consumer".
struct Slot {
    turn: AtomicU64,
    data: UnsafeCell<Event>,
}

/// A bounded lock-free MPMC ring of [`Event`]s with drop accounting.
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    enqueue: AtomicU64,
    dequeue: AtomicU64,
    next_seq: AtomicU64,
    emitted: AtomicU64,
    read: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slot payloads are only touched between winning the position
// CAS and publishing the slot's `turn` (release store), which the other
// side acquires before reading — the standard Vyukov exclusive-access
// argument. `Event` is plain `Copy` data.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &(self.mask + 1))
            .field("emitted", &self.emitted)
            .field("read", &self.read)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(2).next_power_of_two() as u64;
        EventRing {
            slots: (0..cap)
                .map(|i| Slot { turn: AtomicU64::new(i), data: UnsafeCell::new(Event::default()) })
                .collect(),
            mask: cap - 1,
            enqueue: AtomicU64::new(0),
            dequeue: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            read: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Vyukov push. `Err(ev)` means the ring was full at the attempt.
    fn try_push(&self, ev: Event) -> Result<(), Event> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let turn = slot.turn.load(Ordering::Acquire);
            if turn == pos {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS on `enqueue` at `pos`
                        // grants exclusive write access to this slot until
                        // the release store below hands it to consumers.
                        unsafe { *slot.data.get() = ev };
                        slot.turn.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(seen) => pos = seen,
                }
            } else if turn < pos {
                // the consumer side hasn't freed this slot: full
                return Err(ev);
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Vyukov pop; `None` when empty. Does not touch the read/dropped
    /// counters — callers account for what they do with the event.
    fn try_pop(&self) -> Option<Event> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let turn = slot.turn.load(Ordering::Acquire);
            if turn == pos + 1 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS on `dequeue` at `pos`
                        // grants exclusive read access until the release
                        // store frees the slot for the next lap.
                        let ev = unsafe { *slot.data.get() };
                        slot.turn.store(pos + self.mask + 1, Ordering::Release);
                        return Some(ev);
                    }
                    Err(seen) => pos = seen,
                }
            } else if turn <= pos {
                // no producer has filled this slot yet: empty
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Emits an event. Never blocks: on a full ring the oldest unread
    /// event is displaced (and counted dropped); if displacement races
    /// out, the fresh event itself is dropped (and counted). Sequence
    /// numbers are assigned in emit order and are monotonic per ring.
    pub fn emit(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if !crate::enabled() {
            return;
        }
        let ev = Event {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at_ns: crate::now_ns(),
            kind,
            a,
            b,
            c,
        };
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut ev = ev;
        for _ in 0..2 {
            match self.try_push(ev) {
                Ok(()) => return,
                Err(back) => {
                    ev = back;
                    if self.try_pop().is_some() {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if self.try_push(ev).is_ok() {
            return;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops the oldest retained event, counting it as read.
    pub fn pop(&self) -> Option<Event> {
        let ev = self.try_pop()?;
        self.read.fetch_add(1, Ordering::Relaxed);
        Some(ev)
    }

    /// Pops up to `max` events, oldest first.
    pub fn drain(&self, max: usize) -> Vec<Event> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.pop() {
                Some(ev) => out.push(ev),
                None => break,
            }
        }
        out
    }

    /// Total events ever emitted into this ring.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Total events consumed via [`EventRing::pop`]/[`EventRing::drain`].
    pub fn read_count(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }

    /// Total events lost — displaced by writers under pressure or
    /// dropped outright when displacement raced out.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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
            EpochReclaim,
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
