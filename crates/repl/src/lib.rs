//! Log-shipping read replicas for classification views.
//!
//! The paper's durability story (PR 4) rests on one observation: a
//! classification view is a **deterministic state machine over its logical
//! operation stream**, so replaying the WAL reproduces the view
//! bit-for-bit. This crate pushes that observation one step further — if
//! replaying the log reproduces the view, then *shipping* the log
//! reproduces the view **somewhere else**. A replica is nothing more than
//! recovery that never stops.
//!
//! Three pieces:
//!
//! * [`ReplicaView`] — the receiving end. Bootstrapped from a snapshot of
//!   the primary (written into the replica's own durable store as a
//!   checkpoint at offset zero), it ingests shipped WAL frames *verbatim*
//!   (primary LSNs and CRCs preserved), replays them through the same
//!   redo path crash recovery uses
//!   ([`PublishedView::replay_record`](hazy_core::PublishedView::replay_record)),
//!   and serves reads at its applied LSN. Local reads are **not** logged:
//!   the replica's store stays a pure replay of the shipped prefix, which
//!   is exactly why promotion is bit-exact.
//! * [`LogShipper`] — the sending end. Streams stable frames in bounded
//!   chunks, survives a hostile transport (dropped, torn, duplicated and
//!   delayed shipments; replica stores that throw `EIO`/`ENOSPC`; replicas
//!   that crash mid-replay) via CRC+LSN resume cursors and jittered
//!   exponential backoff with a retry budget
//!   ([`Retrier`](hazy_storage::Retrier)). Faults are injected
//!   deterministically through a [`FaultPlan`] keyed by shipment ordinal.
//! * [`ReplicationGroup`] — the membrane around both. Routes reads
//!   round-robin across replicas within a staleness bound (`max_lag`, in
//!   LSN), health-checks laggards out of rotation and re-admits them after
//!   catch-up, falls back to the primary when every replica is unhealthy
//!   (counted, never silent), and implements failover as *promote the
//!   furthest-ahead replica, truncate shipping to its LSN, re-point the
//!   others* — replicas the promotion left behind (or ahead) are
//!   re-bootstrapped rather than allowed to diverge.
//!
//! The whole stack is exercised by `tests/chaos_replication.rs`, which
//! injects every fault kind at shipment boundaries of a 500+-operation
//! script and proves the promoted replica's model bits, answers and
//! statistics equal a clean view that executed the same durable prefix.

#![warn(missing_docs)]

mod fault;
mod group;
mod replica;
mod shipper;

pub use fault::{FaultPlan, ShipFault};
pub use group::{GroupConfig, GroupStats, PromotionReport, ReplicationGroup};
pub use replica::ReplicaView;
pub use shipper::{LogShipper, ShipOutcome, ShipperStats};
