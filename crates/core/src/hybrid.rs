//! The hybrid architecture (Section 3.5.2).
//!
//! On disk, everything [`HazyDiskView`] maintains. In memory, two small
//! structures:
//!
//! * the **ε-map** `h(s): id → eps` — one float per entity, *no feature
//!   vectors*, so it is orders of magnitude smaller than the data (the
//!   paper's Citeseer ε-map is 5.4 MB against a 1.3 GB corpus), and
//! * a **buffer** of `B` boundary entities (with feature vectors), chosen
//!   closest to the uncertain band, where label changes concentrate.
//!
//! A single-entity read consults the ε-map against the watermarks first —
//! if `h(id) ≥ hw` or `≤ lw` the answer is certain with zero I/O. Otherwise
//! the buffer is tried, and only on a buffer miss does the read go to disk
//! (Figure 8's lookup algorithm). The Skiing strategy reorganizes disk and
//! memory together.

use std::collections::HashMap;

use hazy_learn::{Label, LinearModel, SgdTrainer, StepInfo, TrainingExample};
use hazy_linalg::{decode_fvec, encode_fvec, wire, FeatureVec, NormPair};
use hazy_storage::{BufferPool, VirtualClock};

use crate::cost::{charge_classify, OpOverheads};
use crate::durable::{tag, Durable};
use crate::entity::Entity;
use crate::hazy_disk::HazyDiskView;
use crate::stats::{MemoryFootprint, ViewStats};
use crate::view::{ClassifierView, Mode};
use crate::watermark::WatermarkPolicy;

/// Hybrid tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Buffer capacity as a fraction of the entity count (the paper's
    /// experiments hold ≤ 1% of entities in memory).
    pub buffer_frac: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { buffer_frac: 0.01 }
    }
}

/// The hybrid view: on-disk Hazy + ε-map + boundary buffer.
pub struct HybridView {
    inner: HazyDiskView,
    cfg: HybridConfig,
    overheads: OpOverheads,
    eps_map: HashMap<u64, f64>,
    buffer: HashMap<u64, FeatureVec>,
    seen_epoch: u64,
    single_reads: u64,
    eps_map_prunes: u64,
    buffer_hits: u64,
    disk_reads: u64,
}

impl HybridView {
    /// Builds the hybrid: the on-disk structure plus in-memory ε-map and
    /// buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        entities: Vec<Entity>,
        trainer: SgdTrainer,
        pool: BufferPool,
        overheads: OpOverheads,
        mode: Mode,
        pair: NormPair,
        policy: WatermarkPolicy,
        alpha: f64,
        cfg: HybridConfig,
    ) -> HybridView {
        let inner =
            HazyDiskView::new(entities, trainer, pool, overheads, mode, pair, policy, alpha);
        let mut view = HybridView {
            inner,
            cfg,
            overheads,
            eps_map: HashMap::new(),
            buffer: HashMap::new(),
            seen_epoch: 0,
            single_reads: 0,
            eps_map_prunes: 0,
            buffer_hits: 0,
            disk_reads: 0,
        };
        view.rebuild_memory();
        view
    }

    /// Inverse of this view's [`Durable::save_state`] (tag byte already
    /// consumed). The ε-map and buffer are serialized — not rebuilt — so
    /// restoration does not scan the heap (a rebuild would charge the clock
    /// and touch pool frames, making the recovered view diverge from one
    /// that never crashed).
    pub(crate) fn restore_state(
        b: &mut &[u8],
        clock: VirtualClock,
        overheads: OpOverheads,
    ) -> Option<HybridView> {
        if wire::take_u8(b)? != tag::HAZY_DISK {
            return None;
        }
        let inner = HazyDiskView::restore_state(b, clock, overheads)?;
        let buffer_frac = wire::take_f64(b)?;
        let seen_epoch = wire::take_u64(b)?;
        let single_reads = wire::take_u64(b)?;
        let eps_map_prunes = wire::take_u64(b)?;
        let buffer_hits = wire::take_u64(b)?;
        let disk_reads = wire::take_u64(b)?;
        // each ε-map entry is an id and a float; each buffer entry an id
        // and at least an empty feature vector
        let n_eps = wire::take_count(b, 8 + 8)?;
        let mut eps_map = HashMap::with_capacity(n_eps);
        for _ in 0..n_eps {
            let id = wire::take_u64(b)?;
            eps_map.insert(id, wire::take_f64(b)?);
        }
        let n_buf = wire::take_count(b, 8 + 5)?;
        let mut buffer = HashMap::with_capacity(n_buf);
        for _ in 0..n_buf {
            let id = wire::take_u64(b)?;
            buffer.insert(id, decode_fvec(b)?);
        }
        Some(HybridView {
            inner,
            cfg: HybridConfig { buffer_frac },
            overheads,
            eps_map,
            buffer,
            seen_epoch,
            single_reads,
            eps_map_prunes,
            buffer_hits,
            disk_reads,
        })
    }

    /// Buffer capacity in entities.
    pub fn buffer_capacity(&self) -> usize {
        ((self.eps_map.len() as f64 * self.cfg.buffer_frac) as usize).max(1)
    }

    /// Experiment hook (Figure 6(B)): force the uncertain band to cover the
    /// given fraction of tuples (centered on the decision boundary), then
    /// rebuild the buffer for that band.
    pub fn set_uncertain_fraction(&mut self, frac: f64) {
        assert!((0.0..=1.0).contains(&frac), "fraction out of range");
        let mut eps: Vec<f64> = self.eps_map.values().copied().collect();
        eps.sort_unstable_by(|a, b| b.total_cmp(a)); // descending
        if eps.is_empty() {
            return;
        }
        let n = eps.len();
        let boundary = eps.iter().position(|&e| e < 0.0).unwrap_or(n);
        let half = ((n as f64 * frac) / 2.0).round() as usize;
        let hi_idx = boundary.saturating_sub(half);
        let lo_idx = (boundary + half).min(n - 1);
        let (hw, lw) = (eps[hi_idx], eps[lo_idx]);
        self.inner.force_waterband(lw.min(hw), hw.max(lw));
        self.rebuild_buffer();
    }

    /// Experiment hook: replace the buffer capacity fraction and rebuild.
    pub fn set_buffer_frac(&mut self, frac: f64) {
        self.cfg.buffer_frac = frac.max(0.0);
        self.rebuild_buffer();
    }

    /// Runs `op` on the on-disk view, then brings the in-memory structures
    /// back in step if it reorganized — "the Skiing strategy reorganizes the
    /// data on disk and in memory". The one sync point: any forwarded
    /// operation may reorganize (updates by Skiing's rule, lazy reads by
    /// the postponed one).
    fn forward<R>(&mut self, op: impl FnOnce(&mut HazyDiskView) -> R) -> R {
        let out = op(&mut self.inner);
        if self.inner.reorg_epoch() != self.seen_epoch {
            self.rebuild_memory();
        }
        out
    }

    /// Rebuilds ε-map and buffer from the on-disk state. The ε-map needs
    /// only `(id, eps)` from each tuple's fixed prefix, so this is a
    /// header-only scan: O(1) per tuple, no feature payload decoded,
    /// nothing materialized.
    fn rebuild_memory(&mut self) {
        let clock = self.inner.clock().clone();
        self.eps_map.clear();
        let eps_map = &mut self.eps_map;
        self.inner.for_each_header(|id, _, eps| {
            eps_map.insert(id, eps);
        });
        clock.charge_cpu_ops(self.eps_map.len() as u64);
        self.seen_epoch = self.inner.reorg_epoch();
        self.rebuild_buffer();
    }

    /// Fills the buffer with the `B` entities nearest the uncertain band's
    /// center — the tuples most likely to need a real dot product.
    fn rebuild_buffer(&mut self) {
        let clock = self.inner.clock().clone();
        let (lw, hw) = self.inner.waterband();
        let center = (lw + hw) / 2.0;
        let cap = self.buffer_capacity();
        // pass 1: find the distance threshold admitting `cap` entities
        let mut dists: Vec<f64> = self.eps_map.values().map(|&e| (e - center).abs()).collect();
        clock.charge_cpu_ops(dists.len() as u64);
        if dists.is_empty() {
            self.buffer.clear();
            return;
        }
        let k = cap.min(dists.len() - 1);
        dists.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
        let threshold = dists[k];
        // pass 2: pull the qualifying feature vectors from disk. The scan
        // borrows page bytes; only the ≤ cap admitted vectors (a ~1%
        // fraction) are materialized.
        let mut buffer = HashMap::with_capacity(cap + 16);
        self.inner.for_each_tuple_ref(|t| {
            if (t.eps - center).abs() <= threshold && buffer.len() <= cap {
                buffer.insert(t.id, t.f.to_owned());
            }
        });
        self.buffer = buffer;
    }
}

impl Durable for HybridView {
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(tag::HYBRID);
        self.inner.save_state(out);
        out.extend_from_slice(&self.cfg.buffer_frac.to_bits().to_le_bytes());
        out.extend_from_slice(&self.seen_epoch.to_le_bytes());
        for v in [self.single_reads, self.eps_map_prunes, self.buffer_hits, self.disk_reads] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // hash maps dump in sorted id order so checkpoint bytes are
        // deterministic (same state ⇒ same blob ⇒ same CRC)
        let mut eps: Vec<(u64, f64)> = self.eps_map.iter().map(|(&k, &v)| (k, v)).collect();
        eps.sort_unstable_by_key(|&(k, _)| k);
        out.extend_from_slice(&(eps.len() as u64).to_le_bytes());
        for (id, e) in eps {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        let mut buf: Vec<(&u64, &FeatureVec)> = self.buffer.iter().collect();
        buf.sort_unstable_by_key(|&(&k, _)| k);
        out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        for (&id, f) in buf {
            out.extend_from_slice(&id.to_le_bytes());
            encode_fvec(f, out);
        }
    }
}

impl ClassifierView for HybridView {
    fn describe(&self) -> String {
        format!("hybrid ({})", self.mode().name())
    }

    fn mode(&self) -> Mode {
        self.inner.mode()
    }

    fn update(&mut self, ex: &TrainingExample) {
        self.update_batch(std::slice::from_ref(ex));
    }

    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        self.forward(|v| v.update_batch_steps(batch, steps));
    }

    fn reorganize(&mut self) {
        self.forward(|v| v.reorganize());
    }

    /// Figure 8's lookup: ε-map prune → buffer → disk.
    fn read_single(&mut self, id: u64) -> Option<Label> {
        let clock = self.inner.clock().clone();
        clock.charge_ns(self.overheads.read_ns);
        self.single_reads += 1;
        self.inner.fold_watermarks();
        let eps = match self.eps_map.get(&id) {
            Some(&e) => e,
            None => {
                // unknown to the map (never an entity): confirm via disk
                self.disk_reads += 1;
                return self.inner.read_single_inner(id);
            }
        };
        clock.charge_cpu_ops(2);
        if let Some(l) = self.inner.wm.certain_label(eps) {
            self.eps_map_prunes += 1;
            return Some(l);
        }
        if let Some(f) = self.buffer.get(&id) {
            self.buffer_hits += 1;
            charge_classify(&clock, f);
            return Some(self.inner.model().predict(f));
        }
        self.disk_reads += 1;
        self.inner.read_single_inner(id)
    }

    fn entity_count(&self) -> u64 {
        self.inner.entity_count()
    }

    fn count_positive(&mut self) -> u64 {
        self.forward(|v| v.count_positive())
    }

    fn positive_ids(&mut self) -> Vec<u64> {
        self.forward(|v| v.positive_ids())
    }

    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        // ranked reads go to the full on-disk table; the ε-map and buffer
        // only accelerate certain-label lookups, which a ranked read cannot
        // use (it needs exact margins)
        self.forward(|v| v.top_k(k))
    }

    fn insert_entity(&mut self, e: Entity) {
        let eps = self.inner.wm.stored_model().margin(&e.f);
        self.eps_map.insert(e.id, eps);
        // a live id is replaced: its buffered feature vector is stale
        self.buffer.remove(&e.id);
        self.inner.insert_entity(e);
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        // derived state first: the ε-map and buffer must never serve a
        // certain label for an entity the disk no longer holds
        self.eps_map.remove(&id);
        self.buffer.remove(&id);
        self.inner.remove_entity(id)
    }

    fn model(&self) -> &LinearModel {
        self.inner.model()
    }

    fn stats(&self) -> ViewStats {
        let mut s = self.inner.stats();
        s.single_reads += self.single_reads;
        s.eps_map_prunes = self.eps_map_prunes;
        s.buffer_hits = self.buffer_hits;
        s.disk_reads = self.disk_reads;
        s
    }

    /// Figure 6(A)'s breakdown: the ε-map costs `(k + sizeof(double))·N`
    /// bytes and the buffer `B·(k + f)` — tiny next to `N·(k + f)` for the
    /// full data.
    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            entities_bytes: 0,
            eps_map_bytes: self.eps_map.len() * (8 + std::mem::size_of::<f64>()),
            buffer_bytes: self.buffer.values().map(|f| 8 + f.mem_bytes()).sum(),
            model_bytes: self.inner.model().mem_bytes(),
        }
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        // the ε-map and boundary buffer are derived state: the inner
        // on-disk structure holds the authoritative population
        self.inner.snapshot_state()
    }

    fn export_migration(&mut self) -> Option<crate::MigrationState> {
        // evacuate through the on-disk structure (the ε-map and buffer are
        // derived state), but export the *hybrid's* merged counters
        let stats = self.stats();
        let mut state = self.inner.export_migration()?;
        state.carry.stats = stats;
        Some(state)
    }

    fn adopt_migration_carry(&mut self, carry: &crate::MigrationCarry) {
        // the hybrid's read-path counters are reported from its own fields
        // (they overwrite the inner view's at stats() time), so adopt them
        // here; everything else continues inside the inner view
        self.single_reads = 0;
        self.eps_map_prunes = carry.stats.eps_map_prunes;
        self.buffer_hits = carry.stats.buffer_hits;
        self.disk_reads = carry.stats.disk_reads;
        self.inner.adopt_migration_carry(carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_learn::SgdConfig;
    use hazy_storage::{CostModel, SimDisk};

    fn entities(n: usize) -> Vec<Entity> {
        (0..n)
            .map(|k| {
                Entity::new(
                    k as u64,
                    FeatureVec::dense(vec![(k % 13) as f32 / 13.0 - 0.5, (k % 7) as f32 / 7.0 - 0.5]),
                )
            })
            .collect()
    }

    fn view(mode: Mode) -> HybridView {
        let pool =
            BufferPool::new(SimDisk::new(VirtualClock::new(CostModel::sata_2008())), 128);
        HybridView::new(
            entities(300),
            SgdTrainer::new(SgdConfig::svm(), 2),
            pool,
            OpOverheads::free(),
            mode,
            NormPair::EUCLIDEAN,
            WatermarkPolicy::Monotone,
            1.0,
            HybridConfig { buffer_frac: 0.05 },
        )
    }

    fn ex(k: usize) -> TrainingExample {
        let x0 = (k % 11) as f32 / 11.0 - 0.5;
        let x1 = (k % 17) as f32 / 17.0 - 0.5;
        let y = if x0 + 0.3 * x1 >= 0.0 { 1 } else { -1 };
        TrainingExample::new(0, FeatureVec::dense(vec![x0, x1]), y)
    }

    #[test]
    fn labels_always_match_ground_truth() {
        for mode in [Mode::Eager, Mode::Lazy] {
            let mut v = view(mode);
            for k in 0..600 {
                v.update(&ex(k));
                if k % 113 == 0 {
                    v.count_positive();
                }
            }
            let model = v.model().clone();
            for e in entities(300) {
                assert_eq!(v.read_single(e.id), Some(model.predict(&e.f)), "{mode:?} id {}", e.id);
            }
        }
    }

    #[test]
    fn most_reads_avoid_disk() {
        let mut v = view(Mode::Eager);
        for k in 0..300 {
            v.update(&ex(k));
        }
        for id in (0..300u64).cycle().take(3000) {
            v.read_single(id);
        }
        let s = v.stats();
        let from_memory = s.eps_map_prunes + s.buffer_hits;
        assert!(
            from_memory * 10 >= s.disk_reads * 9,
            "memory {from_memory} vs disk {}",
            s.disk_reads
        );
    }

    #[test]
    fn eps_map_is_much_smaller_than_data() {
        let v = view(Mode::Eager);
        let m = v.memory();
        assert!(m.eps_map_bytes > 0);
        // 300 entities × 2 dense floats; map is 16 bytes/entity — smaller
        // than the raw vectors once features are non-trivial, and crucially
        // it carries no feature payload at all
        assert_eq!(m.eps_map_bytes, 300 * 16);
        assert!(m.buffer_bytes < m.eps_map_bytes * 2);
    }

    #[test]
    fn forced_band_fraction_brackets_request() {
        let mut v = view(Mode::Eager);
        for k in 0..300 {
            v.update(&ex(k));
        }
        v.set_uncertain_fraction(0.10);
        let (lw, hw) = v.inner.waterband();
        let inside = v
            .eps_map
            .values()
            .filter(|&&e| e >= lw && e <= hw)
            .count() as f64
            / v.eps_map.len() as f64;
        assert!((0.04..=0.25).contains(&inside), "fraction {inside}");
    }

    #[test]
    fn inserted_entity_readable_through_map() {
        let mut v = view(Mode::Eager);
        for k in 0..100 {
            v.update(&ex(k));
        }
        v.insert_entity(Entity::new(31337, FeatureVec::dense(vec![0.4, 0.4])));
        let expect = v.model().predict(&FeatureVec::dense(vec![0.4, 0.4]));
        assert_eq!(v.read_single(31337), Some(expect));
    }

    #[test]
    fn unknown_id_reads_none() {
        let mut v = view(Mode::Lazy);
        assert_eq!(v.read_single(999_999), None);
    }
}
