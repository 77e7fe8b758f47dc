//! Paged storage substrate for Hazy's on-disk architectures.
//!
//! The paper runs inside PostgreSQL 8.4 on 2008-era SATA disks. This crate
//! replaces that substrate with an embedded, *simulated-cost* storage engine:
//! page I/O is performed against in-memory pages, but every access is charged
//! to a [`VirtualClock`] according to a [`CostModel`] that preserves the
//! latency ratios the paper's algorithms exploit — random I/O ≫ sequential
//! I/O ≫ buffer-pool hit, and sort ≫ scan (so the paper's σ → 0 as data
//! grows). Because the clock is deterministic, every experiment in the bench
//! harness is bit-reproducible.
//!
//! Components (bottom-up):
//!
//! * [`SimDisk`] — page store with sequential/random access detection,
//! * [`BufferPool`] — fixed-capacity clock-sweep page cache,
//! * [`slotted`] — slotted-page record layout,
//! * [`HeapFile`] — unordered record files (the scratch table `H` and the
//!   materialized view `V` live in these),
//! * [`BTree`] — the clustered B+-tree on `eps` that makes the watermark
//!   range scan cheap (Section 3.2.2),
//! * [`HashIndex`] — static hash index `id → record` backing single-entity
//!   reads,
//! * [`wal`] — write-ahead logging, double-buffered checkpoint slots, the
//!   simulated stable file system, and the crash-injection hooks behind the
//!   durability subsystem (fsyncs and checkpoint writes charge the same
//!   [`VirtualClock`] as page I/O).

mod btree;
mod buffer;
mod clock;
mod disk;
mod error;
mod hash_index;
mod heap;
pub mod retry;
pub mod slotted;
pub mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use clock::{sort_ops, CostModel, IoStats, VirtualClock};
pub use disk::{DiskFault, PageId, SimDisk, PAGE_SIZE};
pub use error::StorageError;
pub use hash_index::HashIndex;
pub use heap::{HeapFile, Rid};
pub use retry::{Retrier, RetryPolicy, RetryStats};
pub use wal::{
    charge_bulk_read, charge_bulk_write, crc32, offset_of_lsn, Checkpoint, CheckpointStore,
    CrashPoint, DurableImage, DurableStore, IngestReport, SimFs, Wal, WalEnd, WalReader, WalRecord,
};
