//! The Hazy strategy (Section 3.2), written once over any [`Store`].
//!
//! `H` is clustered on `eps` under the *stored* model. Each model round
//! widens the `[lw, hw]` band by Lemma 3.1; an eager update touches only
//! the tuples inside the band, a lazy read classifies only the tuples it
//! cannot decide from `eps` alone, and the Skiing strategy decides when the
//! accumulated waste justifies reclustering. Every one of those decisions —
//! and every counter and control-state byte that records them — lives
//! here; what a band walk or a rewrite *physically costs* is the store's
//! business. The main-memory and on-disk architectures are this file over
//! [`MemStore`](crate::mem_store::MemStore) and
//! [`DiskStore`](crate::disk_store::DiskStore); the hybrid wraps the
//! on-disk instance.

use hazy_learn::{sign, Label, LinearModel, SgdTrainer, StepInfo, TrainingExample};
use hazy_linalg::{wire, Norm, NormPair};
use hazy_storage::VirtualClock;

use crate::cost::{charge_classify, OpOverheads};
use crate::durable::Durable;
use crate::entity::{Entity, HTuple};
use crate::mem_store::MemStore;
use crate::merge::merge_sorted_tail;
use crate::migrate::{MigrationCarry, MigrationState};
use crate::skiing::Skiing;
use crate::stats::{MemoryFootprint, ViewStats};
use crate::store::{relabel, tuple_cmp, tuple_le, Row, Store};
use crate::view::{ranked_scan, ClassifierView, Mode};
use crate::watermark::{DeltaTracker, WaterMarks, WatermarkPolicy};

/// Lemma 3.1's short-circuit, the one rule every lazy read applies: the label
/// `eps` alone decides, charged as one comparison. `None` inside the
/// uncertain band — the caller must classify.
pub(crate) fn certain(wm: &WaterMarks, clock: &VirtualClock, eps: f64) -> Option<Label> {
    let l = wm.certain_label(eps)?;
    clock.charge_cpu_ops(1);
    Some(l)
}

/// A Hazy-maintained classification view over store `S`.
pub struct HazyView<S: Store> {
    mode: Mode,
    overheads: OpOverheads,
    clock: VirtualClock,
    trainer: SgdTrainer,
    pub(crate) store: S,
    /// Trainer rounds at the last reorganization; when the model has not
    /// advanced since, the sorted run's eps keys are still exact and a
    /// reorganization reduces to folding the tail in by merge.
    rounds_at_reorg: u64,
    pub(crate) wm: WaterMarks,
    tracker: DeltaTracker,
    skiing: Skiing,
    pair: NormPair,
    policy: WatermarkPolicy,
    m_norm: f64,
    stats: ViewStats,
}

impl<S: Store> HazyView<S> {
    /// Builds the view over `medium` and performs the initial organization
    /// (which also measures the first `S` for Skiing).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        entities: Vec<Entity>,
        trainer: SgdTrainer,
        medium: S::Medium,
        overheads: OpOverheads,
        mode: Mode,
        pair: NormPair,
        policy: WatermarkPolicy,
        alpha: f64,
    ) -> HazyView<S> {
        let m_norm = entities
            .iter()
            .map(|e| e.f.norm(pair.q))
            .fold(0.0f64, f64::max);
        let staged = entities.into_iter().map(|e| HTuple {
            id: e.id,
            label: 1,
            eps: 0.0,
            f: e.f,
        });
        let store = S::load(medium, staged, true);
        let mut view = HazyView {
            mode,
            overheads,
            clock: store.clock().clone(),
            wm: WaterMarks::new(trainer.model().clone(), pair, m_norm, policy),
            tracker: DeltaTracker::new(trainer.model(), pair.p),
            trainer,
            store,
            // sentinel: staged tuples are unkeyed (eps = 0), so the first
            // organization must always take the full re-keying path
            rounds_at_reorg: u64::MAX,
            skiing: Skiing::new(alpha, 0.0),
            pair,
            policy,
            m_norm,
            stats: ViewStats::default(),
        };
        view.reorganize_inner();
        view
    }

    /// Inverse of this view's [`Durable::save_state`] (tag byte already
    /// consumed): control state, then the store's image.
    pub(crate) fn restore_state(
        b: &mut &[u8],
        clock: VirtualClock,
        overheads: OpOverheads,
    ) -> Option<HazyView<S>> {
        let mode = Mode::from_tag(wire::take_u8(b)?)?;
        let trainer = SgdTrainer::restore_state(b)?;
        let stats = ViewStats::restore_state(b)?;
        let p = Norm::from_tag(wire::take_u8(b)?)?;
        let q = Norm::from_tag(wire::take_u8(b)?)?;
        let policy = WatermarkPolicy::from_tag(wire::take_u8(b)?)?;
        let m_norm = wire::take_f64(b)?;
        let rounds_at_reorg = wire::take_u64(b)?;
        let wm = WaterMarks::restore_state(b)?;
        let tracker = DeltaTracker::restore_state(b)?;
        let skiing = Skiing::restore_state(b)?;
        let store = S::restore_image(b, clock.clone(), true)?;
        Some(HazyView {
            mode,
            overheads,
            clock,
            trainer,
            store,
            rounds_at_reorg,
            wm,
            tracker,
            skiing,
            pair: NormPair { p, q },
            policy,
            m_norm,
            stats,
        })
    }

    /// Current `[lw, hw]` band.
    pub fn waterband(&self) -> (f64, f64) {
        (self.wm.low(), self.wm.high())
    }

    /// Number of tuples whose `eps` lies inside the current band — the
    /// quantity Figure 13 plots against update count.
    pub fn tuples_in_band(&mut self) -> u64 {
        let (lw, hw) = self.waterband();
        self.store.band_len(lw, hw)
    }

    /// The Skiing controller (ablation benches).
    pub fn skiing(&self) -> &Skiing {
        &self.skiing
    }

    /// Folds the current model round into the watermarks (O(1)); lazy reads
    /// call this before consulting the band.
    pub(crate) fn fold_watermarks(&mut self) {
        self.wm
            .observe_bounded(self.tracker.bound(), self.trainer.model().b);
    }

    /// Single-entity read without the per-statement overhead charge or the
    /// `single_reads` counter bump (the hybrid's disk-fallback path pays
    /// the statement overhead itself).
    pub(crate) fn read_single_inner(&mut self, id: u64) -> Option<Label> {
        let loc = self.store.locate(id)?;
        if self.mode == Mode::Eager {
            return self.store.with_row(loc, |row| row.label());
        }
        self.fold_watermarks();
        // probe the key first, classify only inside the band: on disk these
        // are two page pins, the cost a lazy uncertain read has always paid
        let eps = self.store.with_row(loc, |row| row.eps())?;
        let (model, clock) = (self.trainer.model(), &self.clock);
        certain(&self.wm, clock, eps)
            .or_else(|| self.store.with_row(loc, |row| row.predict(model, clock)))
    }

    /// Reorganization. Three regimes, cheapest applicable wins:
    ///
    /// 1. **Free** — the model has not advanced since the last
    ///    reorganization and no tail exists: every key is exact and in
    ///    place, so nothing is touched and nothing is charged. Watermarks
    ///    and tracker are left alone too: under a clean model they already
    ///    are the post-reorganization ones, and a band forced by the
    ///    Figure 6(B) harness must survive the reads that follow it.
    /// 2. **Incremental merge** — the keys of the sorted run are still
    ///    valid (model unchanged, inserts only; or re-keying under the new
    ///    model happened to preserve the run's order): sort the tail of `t`
    ///    entries and fold it in with one merge pass — O(t log t + n)
    ///    charged as `charge_sort(t) + charge_merge(n)`.
    /// 3. **Full** — the model moved enough to scramble the run: re-key
    ///    everything and pay the full `charge_sort(n)`.
    ///
    /// Regimes 2 and 3 end in the store's rewrite — reclustering is a
    /// physical rewrite either way; what the merge regime saves is the
    /// O(n · nnz) reclassification pass and the superlinear sort.
    pub(crate) fn reorganize_inner(&mut self) {
        let t0 = self.clock.now_ns();
        let model_clean = self.rounds_at_reorg == self.trainer.steps();
        if !model_clean || self.store.has_tail() {
            let model = self.trainer.model().clone();
            let (mut tuples, split) = self.store.take_all();
            let n = tuples.len();
            let mergeable = model_clean || {
                for t in &mut tuples {
                    charge_classify(&self.clock, &t.f);
                    t.eps = model.margin(&t.f);
                    t.label = sign(t.eps);
                }
                // O(n) probe: did re-keying preserve the run's order?
                self.clock.charge_cpu_ops(split as u64);
                tuples[..split].is_sorted_by(tuple_le)
            };
            if mergeable {
                self.clock.charge_sort((n - split) as u64);
                tuples[split..].sort_unstable_by(tuple_cmp);
                // with a single run (empty prefix or empty tail) the merge
                // is a no-op — charge only when two runs actually fold
                if split > 0 && split < n {
                    self.clock.charge_merge(n as u64);
                    merge_sorted_tail(&mut tuples, split, tuple_le);
                }
            } else {
                self.clock.charge_sort(n as u64);
                tuples.sort_unstable_by(tuple_cmp);
            }
            self.store.rewrite(tuples);
            self.tracker = DeltaTracker::new(&model, self.pair.p);
            self.wm = WaterMarks::new(model, self.pair, self.m_norm, self.policy);
            self.rounds_at_reorg = self.trainer.steps();
        }
        let s = (self.clock.now_ns() - t0) as f64;
        self.skiing.reorganized(s);
        self.stats.reorgs += 1;
        self.stats.last_reorg_ns = s as u64;
        crate::stats::obs_reorg(s as u64);
    }

    /// Eager incremental step: reclassify exactly the `[lw, hw]` band under
    /// the current model.
    fn incremental_step(&mut self) {
        let t0 = self.clock.now_ns();
        self.fold_watermarks();
        let (lw, hw) = self.waterband();
        let (model, clock, stats) = (self.trainer.model(), &self.clock, &mut self.stats);
        self.store
            .band_walk(lw, hw, |row| relabel(row, model, clock, stats));
        self.skiing.add_cost((self.clock.now_ns() - t0) as f64);
    }

    /// Shared lazy/eager All-Members walk; returns the positives and
    /// optionally collects their ids.
    fn scan_positive(&mut self, mut collect: Option<&mut Vec<u64>>) -> u64 {
        self.clock.charge_ns(self.overheads.scan_ns);
        self.stats.all_members += 1;
        let lazy = self.mode == Mode::Lazy;
        if lazy {
            // a lazy read may first trigger the postponed reorganization
            if self.skiing.should_reorganize() {
                self.reorganize_inner();
            }
            self.fold_watermarks();
        }
        let t0 = self.clock.now_ns();
        let (lw, _) = self.waterband();
        let (mut positives, mut examined, mut classified) = (0u64, 0u64, 0u64);
        let (model, clock, wm) = (self.trainer.model(), &self.clock, &self.wm);
        self.store.scan_members(lw, |row| {
            examined += 1;
            let label = if !lazy {
                clock.charge_cpu_ops(1);
                row.label()
            } else {
                certain(wm, clock, row.eps()).unwrap_or_else(|| {
                    classified += 1;
                    row.predict(model, clock)
                })
            };
            if label > 0 {
                positives += 1;
                if let Some(ids) = collect.as_deref_mut() {
                    ids.push(row.id());
                }
            }
        });
        self.stats.tuples_reclassified += classified;
        self.stats.tuples_examined += examined;
        if lazy && examined > 0 {
            // Section 3.4: the wasted fraction of this read is the cost the
            // Skiing strategy accumulates
            let elapsed = (self.clock.now_ns() - t0) as f64;
            self.skiing
                .add_cost((examined - positives) as f64 / examined as f64 * elapsed);
        }
        positives
    }
}

impl HazyView<MemStore> {
    /// Shared-reference single-entity read for concurrent readers (the
    /// Figure 11(B) scale-up experiment). Safe while no updates run
    /// concurrently: eager mode reads the materialized label; lazy mode uses
    /// the *current* watermark band without folding the model round in, so
    /// callers must invoke [`ClassifierView::read_single`] (or any other
    /// `&mut` operation) once after the last update to fold watermarks.
    ///
    /// The paper's observation that "locking protocols are trivial for
    /// Single Entity reads" is exactly this: the read path is pure.
    pub fn read_single_shared(&self, id: u64) -> Option<Label> {
        self.clock.charge_ns(self.overheads.read_ns);
        let t = self.store.get(id)?;
        Some(match self.mode {
            Mode::Eager => t.label,
            Mode::Lazy => certain(&self.wm, &self.clock, t.eps)
                .unwrap_or_else(|| t.predict(self.trainer.model(), &self.clock)),
        })
    }
}

impl<S: Store> Durable for HazyView<S> {
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(S::HAZY.tag());
        out.push(self.mode.tag());
        self.trainer.save_state(out);
        self.stats.save_state(out);
        out.push(self.pair.p.tag());
        out.push(self.pair.q.tag());
        out.push(self.policy.tag());
        out.extend_from_slice(&self.m_norm.to_bits().to_le_bytes());
        out.extend_from_slice(&self.rounds_at_reorg.to_le_bytes());
        self.wm.save_state(out);
        self.tracker.save_state(out);
        self.skiing.save_state(out);
        self.store.save_image(out);
    }
}

impl<S: Store> ClassifierView for HazyView<S> {
    fn describe(&self) -> String {
        format!("{} ({})", S::HAZY.name(), self.mode.name())
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn update(&mut self, ex: &TrainingExample) {
        self.update_batch(std::slice::from_ref(ex));
    }

    fn update_batch_steps(&mut self, batch: &[TrainingExample], steps: &mut Vec<StepInfo>) {
        if batch.is_empty() {
            return;
        }
        // one statement's overhead, k SGD rounds, then a single maintenance
        // decision: the watermark band after the k rounds covers every
        // label any intermediate model could have flipped, so the band walk
        // (on disk: its page pins) is paid once instead of once per example
        self.clock.charge_ns(self.overheads.update_ns);
        for ex in batch {
            charge_classify(&self.clock, &ex.f);
            let info = self.trainer.step(&ex.f, ex.y);
            self.tracker.apply(&info, &ex.f);
            steps.push(info);
            self.stats.updates += 1;
        }
        if self.mode == Mode::Eager {
            // Figure 7: reorganize when the accumulated waste has reached
            // α·S, otherwise take the incremental step
            if self.skiing.should_reorganize() {
                self.reorganize_inner();
            } else {
                self.incremental_step();
            }
        }
    }

    fn reorganize(&mut self) {
        self.reorganize_inner();
    }

    fn read_single(&mut self, id: u64) -> Option<Label> {
        self.clock.charge_ns(self.overheads.read_ns);
        self.stats.single_reads += 1;
        self.read_single_inner(id)
    }

    fn entity_count(&self) -> u64 {
        self.store.len()
    }

    fn count_positive(&mut self) -> u64 {
        self.scan_positive(None)
    }

    fn positive_ids(&mut self) -> Vec<u64> {
        let mut ids = Vec::new();
        self.scan_positive(Some(&mut ids));
        ids
    }

    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        // ranked reads need exact margins, so the stored eps keys (stale by
        // up to the watermark band) cannot prune: score everything — sorted
        // run and tail alike — under the current model
        self.clock.charge_ns(self.overheads.scan_ns);
        self.stats.all_members += 1;
        ranked_scan(
            &mut self.store,
            self.trainer.model(),
            &self.clock,
            &mut self.stats,
            k,
        )
    }

    fn insert_entity(&mut self, e: Entity) {
        // keyed under the *stored* model, like everything else in the run
        charge_classify(&self.clock, &e.f);
        let eps = self.wm.stored_model().margin(&e.f);
        self.m_norm = self.m_norm.max(e.f.norm(self.pair.q));
        self.wm.raise_m(self.m_norm);
        let label = match self.mode {
            Mode::Eager => {
                charge_classify(&self.clock, &e.f);
                self.trainer.model().predict(&e.f)
            }
            Mode::Lazy => sign(eps),
        };
        self.store.append(HTuple {
            id: e.id,
            label,
            eps,
            f: e.f,
        });
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        // m_norm stays a valid (possibly loose) upper bound for watermarks
        self.store.delete(id)
    }

    fn model(&self) -> &LinearModel {
        self.trainer.model()
    }

    fn stats(&self) -> ViewStats {
        let mut s = self.stats;
        s.reorgs = self.skiing.reorgs();
        s
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            entities_bytes: self.store.footprint(),
            eps_map_bytes: 0,
            buffer_bytes: 0,
            model_bytes: self.trainer.model().mem_bytes(),
        }
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn snapshot_state(&mut self) -> Option<(Vec<Entity>, LinearModel)> {
        // the view lives on; only the population is copied out
        Some((self.store.evacuate(), self.trainer.model().clone()))
    }

    fn export_migration(&mut self) -> Option<MigrationState> {
        // clustering order is irrelevant: the target re-organizes from
        // scratch
        Some(MigrationState {
            entities: self.store.evacuate(),
            trainer: self.trainer.clone(),
            carry: MigrationCarry {
                skiing: Some(self.skiing.clone()),
                stats: self.stats(),
            },
        })
    }

    fn adopt_migration_carry(&mut self, carry: &MigrationCarry) {
        // construction already ran the initial organization (stats holds
        // its reorg accounting; skiing holds its measured S): continue the
        // source's counters, keeping the rebuild as the most recent reorg
        let built_reorg_ns = self.stats.last_reorg_ns;
        self.stats = carry.stats;
        self.stats.last_reorg_ns = built_reorg_ns;
        self.stats.migrations += 1;
        match &carry.skiing {
            Some(prior) => self.skiing.carry_from(prior),
            // naive source: no controller to carry, but the lifetime
            // reorganization count still continues (stats() reads it off
            // the controller for hazy architectures)
            None => self.skiing.carry_reorg_count(carry.stats.reorgs),
        }
    }
}
