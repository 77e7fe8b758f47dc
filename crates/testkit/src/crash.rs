//! The crash walk: run a script durably, keep a crash image after every
//! WAL record, and visit each image with its durable prefix length.

use std::sync::{Arc, Mutex};

use hazy_core::{DurableView, ViewBuilder, ViewRestorer};
use hazy_storage::{DurableImage, DurableStore, WalReader};

use crate::script::{apply, Op};
use crate::BoxedView;

/// Wraps `inner` in WAL logging over a fresh store on `inner`'s clock,
/// auto-checkpointing every `interval` records (0 = manual only).
pub fn durable(inner: BoxedView, interval: u64) -> DurableView {
    let store = Arc::new(Mutex::new(DurableStore::new(inner.clock().clone())));
    DurableView::create(inner, store, interval)
}

/// Runs `ops` against a durable `inner` and returns `ops.len() + 1` crash
/// images: `images[n]` is the store as a crash right after the `n`-th WAL
/// record would leave it.
pub fn durable_run(inner: BoxedView, interval: u64, ops: &[Op]) -> Vec<DurableImage> {
    let mut dv = durable(inner, interval);
    let mut images = Vec::with_capacity(ops.len() + 1);
    images.push(dv.durable_image());
    for op in ops {
        apply(&mut dv, op);
        images.push(dv.durable_image());
    }
    images
}

/// Walks crash images as `(boundary, image, durable_ops)` — `durable_ops`
/// counts the WAL records that parse, i.e. how much of the script a
/// recovery from `image` must reflect. On an un-faulted run it equals
/// `boundary` (one record per op); each suite asserts that.
pub fn boundaries(
    images: &[DurableImage],
) -> impl Iterator<Item = (usize, &DurableImage, usize)> + '_ {
    images
        .iter()
        .enumerate()
        .map(|(boundary, image)| (boundary, image, WalReader::new(image.wal_bytes()).count()))
}

/// Recovers a view from a crash image, naming `ctx` when recovery fails.
pub fn recover(
    b: &ViewBuilder,
    image: &DurableImage,
    interval: u64,
    restorer: &dyn ViewRestorer,
    ctx: &str,
) -> DurableView {
    DurableView::recover_image(b, image, interval, restorer)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"))
}
