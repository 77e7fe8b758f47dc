//! Hazy classification views: the paper's core contribution.
//!
//! A *classification view* `V(id, class)` is a relational view whose contents
//! are the output of a linear classifier over an entity table `In(id, f)`
//! (Section 2.1). The model `(w, b)` changes every time a training example is
//! inserted, and this crate implements the machinery that keeps `V` correct
//! without reclassifying the world:
//!
//! * [`WaterMarks`] — the low/high-water bounds of Lemma 3.1 / Eq. 2. `H` is
//!   clustered on `eps = w(s)·f − b(s)` under the *stored* model; after any
//!   number of model rounds, only tuples with `eps ∈ [lw, hw]` can have
//!   changed label.
//! * [`Skiing`] — the ski-rental-style strategy (Section 3.2.1) deciding
//!   *when to recluster*: accumulate the measured incremental cost and
//!   reorganize when it reaches `α·S`. [`opt`] contains the offline
//!   dynamic-programming optimum used to validate the competitive ratio of
//!   Theorem 3.3.
//! * Five architectures × two approaches (Section 2.2, 3.5):
//!   [`NaiveMemView`], [`HazyMemView`], [`NaiveDiskView`], [`HazyDiskView`]
//!   and [`HybridView`], each eager or lazy, all behind the
//!   [`ClassifierView`] trait. The first four are Figure 4's matrix and
//!   are built as exactly that — **strategy × store**: the Hazy strategy
//!   (`hazy.rs`) and the naive strategy (`naive.rs`) are each written once,
//!   generic over a crate-private store interface (`store.rs`) with a
//!   main-memory implementation (`mem_store.rs`: ε-sorted vector + id map)
//!   and an on-disk one (`disk_store.rs`: clustered heap + B+-tree + hash
//!   index over the buffer pool). The public names are aliases of the
//!   cells. The strategy owns every decision the paper makes and every
//!   charge its cost model names (statement overheads, classifications,
//!   sorts, Skiing's clock differences); the store owns the physical
//!   format and charges only its own physical work (page pins, index
//!   probes, vector shifts). The hybrid is the ε-map + boundary buffer on
//!   top of the on-disk Hazy cell.
//!
//! On-disk architectures run on `hazy-storage`'s simulated-cost pages;
//! *every* architecture charges CPU work to the same [`VirtualClock`], so
//! throughput comparisons across architectures are apples-to-apples and
//! deterministic.
//!
//! [`VirtualClock`]: hazy_storage::VirtualClock

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod disk_store;
mod durable;
mod entity;
mod epoch;
mod hazy;
mod hazy_disk;
mod hazy_mem;
mod hybrid;
mod mem_store;
mod merge;
mod migrate;
mod multiclass_view;
mod naive;
mod naive_disk;
mod naive_mem;
pub mod opt;
mod skiing;
mod stats;
mod store;
mod view;
mod watermark;

pub use cost::{classify_cost, OpOverheads};
pub use durable::{
    CoreRestorer, Durable, DurableClassifierView, DurableView, RecoveryInfo, ViewRestorer,
    SHARDED_VIEW_TAG,
};
pub use entity::{
    decode_tuple, decode_tuple_header, decode_tuple_ref, encode_tuple, Entity, HTuple, HTupleRef,
    TUPLE_HEADER, TUPLE_LABEL_OFFSET,
};
pub use epoch::{EpochCell, EpochPin, EpochPublisher, EpochStats, ModelEpoch, PublishedView};
pub use merge::merge_sorted_tail;
pub use migrate::{MigrationCarry, MigrationState};
pub use hazy_disk::HazyDiskView;
pub use hazy_mem::HazyMemView;
pub use hybrid::{HybridConfig, HybridView};
pub use multiclass_view::MulticlassView;
pub use naive_disk::NaiveDiskView;
pub use naive_mem::NaiveMemView;
pub use skiing::Skiing;
pub use stats::{MemoryFootprint, ViewStats};
pub use view::{rank_order, Architecture, ClassifierView, Mode, ViewBuilder};
pub use watermark::{DeltaTracker, WaterMarks, WatermarkPolicy};
