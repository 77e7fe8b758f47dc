//! The naive strategy — the state of the art the paper compares against
//! (Section 4.1: "The state-of-the-art approach to integrate classification
//! with an RDBMS is captured by the na¨ıve on-disk approach"), written once
//! over any [`Store`].
//!
//! Eager updates retrain and then relabel *every* tuple; lazy updates
//! retrain only, and every read classifies from scratch. No clustering, no
//! watermarks, no Skiing. Over [`MemStore`](crate::mem_store::MemStore)
//! this is the "na¨ıve MM" row of Figure 4 — fast storage, no algorithmic
//! savings — and the gap between it and the Hazy strategy over the same
//! store is the paper's claim that the Skiing/watermark strategy, not main
//! memory alone, provides an order of magnitude.

use hazy_learn::{sign, Label, LinearModel, SgdTrainer, StepInfo, TrainingExample};
use hazy_linalg::wire;
use hazy_storage::VirtualClock;

use crate::cost::{charge_classify, OpOverheads};
use crate::durable::Durable;
use crate::entity::{Entity, HTuple};
use crate::migrate::{MigrationCarry, MigrationState};
use crate::stats::{MemoryFootprint, ViewStats};
use crate::store::{relabel, Row, Store};
use crate::view::{ranked_scan, ClassifierView, Mode};

/// A naively maintained classification view over store `S`.
pub struct NaiveView<S: Store> {
    mode: Mode,
    overheads: OpOverheads,
    clock: VirtualClock,
    trainer: SgdTrainer,
    store: S,
    stats: ViewStats,
}

/// One tuple classified under `model` (a charged classification): how the
/// naive strategy materializes an entity at build and insert time.
fn classified(e: Entity, model: &LinearModel, clock: &VirtualClock) -> HTuple {
    charge_classify(clock, &e.f);
    let eps = model.margin(&e.f);
    HTuple {
        id: e.id,
        label: sign(eps),
        eps,
        f: e.f,
    }
}

impl<S: Store> NaiveView<S> {
    /// Builds the materialized view over `medium`, classifying every entity
    /// under the initial model.
    pub fn new(
        entities: Vec<Entity>,
        trainer: SgdTrainer,
        medium: S::Medium,
        overheads: OpOverheads,
        mode: Mode,
    ) -> NaiveView<S> {
        let clock = S::clock_of(&medium).clone();
        let tuples = entities
            .into_iter()
            .map(|e| classified(e, trainer.model(), &clock));
        let store = S::load(medium, tuples, false);
        NaiveView {
            mode,
            overheads,
            clock,
            trainer,
            store,
            stats: ViewStats::default(),
        }
    }

    /// Inverse of this view's [`Durable::save_state`] (tag byte already
    /// consumed by the dispatcher).
    pub(crate) fn restore_state(
        b: &mut &[u8],
        clock: VirtualClock,
        overheads: OpOverheads,
    ) -> Option<NaiveView<S>> {
        let mode = Mode::from_tag(wire::take_u8(b)?)?;
        let trainer = SgdTrainer::restore_state(b)?;
        let stats = ViewStats::restore_state(b)?;
        let store = S::restore_image(b, clock.clone(), false)?;
        Some(NaiveView {
            mode,
            overheads,
            clock,
            trainer,
            store,
            stats,
        })
    }

    /// Shared All-Members walk: the whole store, labels read (eager) or
    /// recomputed (lazy); returns the positives and optionally collects
    /// their ids.
    fn scan_positive(&mut self, mut collect: Option<&mut Vec<u64>>) -> u64 {
        self.clock.charge_ns(self.overheads.scan_ns);
        self.stats.all_members += 1;
        let lazy = self.mode == Mode::Lazy;
        let (model, clock) = (self.trainer.model(), &self.clock);
        let (mut positives, mut examined) = (0u64, 0u64);
        self.store.scan_all(|row| {
            examined += 1;
            let label = if lazy {
                row.predict(model, clock)
            } else {
                clock.charge_cpu_ops(1);
                row.label()
            };
            if label > 0 {
                positives += 1;
                if let Some(ids) = collect.as_deref_mut() {
                    ids.push(row.id());
                }
            }
        });
        self.stats.tuples_examined += examined;
        positives
    }
}

impl<S: Store> Durable for NaiveView<S> {
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(S::NAIVE.tag());
        out.push(self.mode.tag());
        self.trainer.save_state(out);
        self.stats.save_state(out);
        self.store.save_image(out);
    }
}

impl<S: Store> ClassifierView for NaiveView<S> {
    fn describe(&self) -> String {
        format!("{} ({})", S::NAIVE.name(), self.mode.name())
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
        // one statement, k SGD rounds, ONE full relabel: the relabel reads
        // every tuple regardless of which model rounds happened, so running
        // it once after the batch gives the same labels for 1/k of the
        // maintenance scans
        self.clock.charge_ns(self.overheads.update_ns);
        for ex in batch {
            charge_classify(&self.clock, &ex.f);
            steps.push(self.trainer.step(&ex.f, ex.y));
            self.stats.updates += 1;
        }
        if self.mode == Mode::Eager {
            let (model, clock, stats) = (self.trainer.model(), &self.clock, &mut self.stats);
            self.store
                .relabel_all(|row| relabel(row, model, clock, stats));
        }
    }

    fn read_single(&mut self, id: u64) -> Option<Label> {
        self.clock.charge_ns(self.overheads.read_ns);
        self.stats.single_reads += 1;
        let loc = self.store.locate(id)?;
        let (lazy, model, clock) = (self.mode == Mode::Lazy, self.trainer.model(), &self.clock);
        self.store.with_row(loc, |row| {
            if lazy {
                row.predict(model, clock)
            } else {
                row.label()
            }
        })
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
        self.store
            .append(classified(e, self.trainer.model(), &self.clock));
    }

    fn remove_entity(&mut self, id: u64) -> bool {
        self.store.delete(id)
    }

    fn model(&self) -> &LinearModel {
        self.trainer.model()
    }

    fn stats(&self) -> ViewStats {
        self.stats
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
        Some(MigrationState {
            entities: self.store.evacuate(),
            trainer: self.trainer.clone(),
            carry: MigrationCarry {
                skiing: None,
                stats: self.stats(),
            },
        })
    }

    fn adopt_migration_carry(&mut self, carry: &MigrationCarry) {
        // construction left our counters at zero: continue the source's
        self.stats = carry.stats;
        self.stats.migrations += 1;
    }
}
