//! Sharded concurrent serving over Hazy classification views.
//!
//! The paper maintains one classification view inside a single-threaded
//! RDBMS session; this crate is the production-scale serving tier on top of
//! that machinery. A [`ShardedView`] hash-partitions the entity table across
//! `N` shards, runs one full [`ClassifierView`] — any architecture × mode —
//! per shard, and serves reads concurrently:
//!
//! * **Data is partitioned, the model is replicated.** Every training
//!   example is applied to every shard (the same SGD steps in the same
//!   order, so all shard models are bit-identical), while each entity lives
//!   on exactly one shard, chosen by a [splitmix64 hash](shard_of) of its
//!   id. Single-entity reads touch one shard; All-Members and ranked reads
//!   fan out and k-way-merge.
//! * **Observational equivalence.** Because the shard models are identical
//!   and the merges use the same total orders as the unsharded scans
//!   ([`hazy_core::rank_order`] for ranked reads, ascending id for member
//!   lists), a `ShardedView` answers every query exactly as one unsharded
//!   view over the union of the shards would — enforced by
//!   `tests/equivalence.rs` at 1, 3 and 8 shards.
//! * **Reader/writer split.** [`ShardedView::into_handles`] splits the view
//!   into a cloneable [`ReadHandle`] for many reader threads and a unique
//!   [`WriteHandle`] for the single writer that applies `update` /
//!   `update_batch` rounds shard-by-shard and triggers per-shard
//!   [`reorganize`](WriteHandle::reorganize) off the read path. Reads pin
//!   per-shard epochs and never take a shard lock — each shard's engine
//!   and its epoch stream live in one `hazy_core::PublishedView` behind a
//!   writer–writer mutex — so they proceed on every shard during
//!   maintenance, the one being written included.
//!
//! [`ShardedView`] also implements [`ClassifierView`] itself, which is how
//! `hazy-rdbms` routes a `CREATE CLASSIFICATION VIEW ... SHARDS n`
//! declaration through this crate without changing its execution paths.
//!
//! The motivating regime is F-IVM's (Kara et al., 2023): incremental view
//! maintenance under a continuous update stream is exactly where read/write
//! separation and batching pay, and keeping model maintenance off the read
//! path (Nikolic et al., 2020) is what the writer-side `reorganize` hook
//! does.

#![warn(missing_docs)]

mod kway;
mod sharded;

pub use kway::{merge_ascending, merge_ranked};
pub use sharded::{max_shard_load, shard_of, ReadHandle, ServeRestorer, ShardedView, WriteHandle};

// re-exported so downstream code can name the traits without a hazy-core dep
pub use hazy_core::{ClassifierView, Durable, DurableClassifierView};
