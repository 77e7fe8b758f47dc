//! Property tests for the epoch snapshot machinery, plus a counting
//! allocator shim that proves reclamation discipline at the allocation
//! level:
//!
//! * **immutability** — once pinned, a [`hazy_core::ModelEpoch`]'s answers
//!   are bit-frozen under arbitrary interleavings of model updates,
//!   inserts, removals, reorganizations (rebases) and architecture
//!   migrations happening behind it, each publish freeing every unpinned
//!   epoch it supersedes;
//! * **conservation** — at every step,
//!   `published == reclaimed + retired_live + 1` (the current epoch):
//!   nothing is double-freed, nothing leaks out of the ledger, and a
//!   pinned epoch is never reclaimed while its pin is live;
//! * **allocation balance** — via a thread-local counting
//!   `#[global_allocator]` shim, the bytes live before building a
//!   publisher equal the bytes live after dropping it: every epoch ever
//!   published was freed exactly once (a leak leaves the count high, a
//!   double free — if it survived — would leave it low);
//! * **Skiing rebases** — under drifts large enough to make the publisher
//!   re-score several times a script, every answer after every operation
//!   equals from-scratch scoring, a pin taken before the rebases keeps its
//!   answers, and a rebase allocates a scoring (13 bytes an entity), not a
//!   population;
//! * **bound-pruned ranked reads** — `top_k` walks the `eps` order under
//!   Lemma 3.1 and stops early, yet answers bit for bit like a full scan
//!   over scripted drift; the tuples it scores stay within the bound's own
//!   count, and on a forest-shaped shard under SGD drift they are a sliver
//!   of the population;
//! * **O(Δ) publication** — a published SGD round on a 2^16-dim text view
//!   allocates the model chunks its example touches plus chunk tables, not
//!   a model copy, while a pinned epoch sharing the other chunks stays
//!   bit-frozen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hazy_core::{
    rank_order, Architecture, Entity, EpochPublisher, Mode, ModelEpoch, PublishedView, ViewBuilder,
    WaterMarks, WatermarkPolicy,
};
use hazy_datagen::{DatasetSpec, ExampleStream};
use hazy_learn::{LinearModel, SgdConfig, SgdTrainer, TrainingExample};
use hazy_linalg::{ChunkedVec, FeatureVec, Norm, NormPair};
use hazy_testkit::{builder, feature, grid_entities, grid_feature, splitmix64, BoxedView};
use proptest::prelude::*;

/// Ranked reads in this suite take turns: the pruning tests read the
/// process-global `core_epoch_topk_*` counters around their own calls, so no
/// sibling test may bump them meanwhile.
static RANKED_READS: Mutex<()> = Mutex::new(());

fn ranked_reads() -> MutexGuard<'static, ()> {
    RANKED_READS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(ranked reads, tuples they scored)` so far, process-wide.
fn topk_counters() -> (u64, u64) {
    (
        hazy_obs::counter("core_epoch_topk_total").get(),
        hazy_obs::counter("core_epoch_topk_scored_total").get(),
    )
}

/// Counts net live bytes per thread. Thread-local so the parallel test
/// harness (and any sibling test) cannot pollute a measurement: everything
/// this suite allocates and frees happens on the measuring thread.
struct CountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Bytes ever requested on this thread (never decremented).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
            let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(|c| c.get())
}

fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(|c| c.get())
}

fn build_view(arch: Architecture, mode: Mode) -> BoxedView {
    builder(arch, mode).build(grid_entities(48), &[])
}

#[derive(Clone, Debug)]
enum Op {
    Update(u8, u8, bool),
    Insert(u8, u8),
    Remove(u16),
    Reorg,
    /// Round-trip migration hop (memory ↔ disk) behind the pin.
    Migrate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, y)| Op::Update(a, b, y)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Insert(a, b)),
        2 => any::<u16>().prop_map(Op::Remove),
        1 => Just(Op::Reorg),
        1 => Just(Op::Migrate),
    ]
}

/// Applies one op to the live view and mirrors it into the publisher the
/// way the serving layer does; every publish reclaims what no pin holds.
fn writer_step(
    b: &ViewBuilder,
    view: &mut BoxedView,
    publisher: &mut EpochPublisher,
    next_id: &mut u64,
    op: &Op,
) {
    match op {
        Op::Update(a, bb, y) => {
            let ex = TrainingExample::new(0, grid_feature(*a, *bb), if *y { 1 } else { -1 });
            view.update(&ex);
            let m = view.model().clone();
            publisher.apply_update(&m);
        }
        Op::Insert(a, bb) => {
            *next_id += 1;
            let e = Entity::new(*next_id, grid_feature(*a, *bb));
            view.insert_entity(e.clone());
            publisher.apply_insert(e);
        }
        Op::Remove(raw) => {
            let id = u64::from(*raw) % (*next_id + 1);
            let _ = view.remove_entity(id);
            let _ = publisher.apply_remove(id);
        }
        Op::Reorg => {
            view.reorganize();
            publisher.apply_reorganize();
        }
        Op::Migrate => {
            let clock = view.clock().clone();
            let state = view.export_migration().expect("plain views export migration state");
            let (arch, mode) = if view.describe().contains("mm") {
                (Architecture::HazyDisk, Mode::Eager)
            } else {
                (Architecture::HazyMem, Mode::Eager)
            };
            *view = b.build_migrated(arch, mode, state, clock);
            publisher.apply_noop();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pin taken at an arbitrary point keeps serving bit-identical
    /// answers while the writer applies an arbitrary suffix of operations
    /// — including rebases and migrations — each reclaiming what no pin
    /// holds. The ledger conserves every epoch at every step, and drains
    /// fully once the pin drops.
    #[test]
    fn pinned_answers_are_immutable_under_writer_pressure(
        ops in prop::collection::vec(arb_op(), 1..80),
        pin_at_raw in any::<u16>(),
    ) {
        let _turn = ranked_reads();
        let b = builder(Architecture::HazyMem, Mode::Eager);
        let mut view = build_view(Architecture::HazyMem, Mode::Eager);
        let (entities, model) = view.snapshot_state().expect("snapshot");
        let mut publisher = EpochPublisher::new(entities, model, NormPair::EUCLIDEAN, 0);
        let cell = publisher.handle();
        let mut next_id = 47u64;

        let pin_at = usize::from(pin_at_raw) % ops.len();
        for op in &ops[..pin_at] {
            writer_step(&b, &mut view, &mut publisher, &mut next_id, op);
        }

        let pin = cell.pin();
        let frozen_lsn = pin.lsn();
        let frozen_count = pin.count_positive();
        let frozen_members = pin.positive_ids();
        let frozen_top = pin.top_k(5);
        let frozen_model = pin.model().clone();

        for op in &ops[pin_at..] {
            writer_step(&b, &mut view, &mut publisher, &mut next_id, op);
            // conservation at every step, pin still held
            let es = cell.stats();
            prop_assert_eq!(
                es.published, es.reclaimed + es.retired_live + 1,
                "epoch ledger lost or duplicated a node"
            );
            // immutability under maximal collector pressure
            prop_assert_eq!(pin.lsn(), frozen_lsn);
            prop_assert_eq!(pin.count_positive(), frozen_count);
        }
        prop_assert_eq!(pin.positive_ids(), frozen_members);
        let got_top = pin.top_k(5);
        prop_assert_eq!(got_top.len(), frozen_top.len());
        for ((ga, gm), (wa, wm)) in got_top.iter().zip(frozen_top.iter()) {
            prop_assert_eq!(ga, wa);
            prop_assert_eq!(gm.to_bits(), wm.to_bits());
        }
        prop_assert_eq!(pin.model().b.to_bits(), frozen_model.b.to_bits());

        // the pinned epoch was never reclaimed: dropping the pin must
        // drain the whole retired chain
        drop(pin);
        let es = cell.stats();
        prop_assert_eq!(es.retired_live, 0, "retired chain not drained after unpin");
        prop_assert_eq!(es.reclaimed + 1, es.published, "exactly the current epoch survives");
    }
}

/// One step of a model drift or a population change, applied to the
/// publisher alone: its answers are checked against direct scoring, so no
/// engine is needed — and the drifts can be far larger than SGD takes.
#[derive(Clone, Debug)]
enum DriftOp {
    Drift(u8, u8, u8),
    Insert(u8, u8),
    Remove(u16),
}

fn arb_drift_op() -> impl Strategy<Value = DriftOp> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| DriftOp::Drift(a, b, c)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| DriftOp::Insert(a, b)),
        2 => any::<u16>().prop_map(DriftOp::Remove),
    ]
}

/// Every answer an epoch serves, for comparison and for freezing.
#[derive(Debug, PartialEq)]
struct Answers {
    labels: Vec<(u64, Option<i8>)>,
    count: u64,
    members: Vec<u64>,
    top: Vec<(u64, u64)>,
}

fn answers_of(epoch: &ModelEpoch, ids: &[u64]) -> Answers {
    Answers {
        labels: ids.iter().map(|&id| (id, epoch.classify(id))).collect(),
        count: epoch.count_positive(),
        members: epoch.positive_ids(),
        top: epoch.top_k(7).into_iter().map(|(id, m)| (id, m.to_bits())).collect(),
    }
}

/// The same answers from scratch: one margin per live entity under `model`.
fn scored_from_scratch(live: &BTreeMap<u64, Entity>, model: &LinearModel, ids: &[u64]) -> Answers {
    let members: Vec<u64> =
        live.values().filter(|e| model.predict(&e.f) > 0).map(|e| e.id).collect();
    let mut ranked: Vec<(u64, f64)> = live.values().map(|e| (e.id, model.margin(&e.f))).collect();
    ranked.sort_by(rank_order);
    Answers {
        labels: ids.iter().map(|&id| (id, live.get(&id).map(|e| model.predict(&e.f)))).collect(),
        count: members.len() as u64,
        members,
        top: ranked.into_iter().take(7).map(|(id, m)| (id, m.to_bits())).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drifts of a few tenths per round put most of the corpus inside the
    /// band, so Skiing re-scores every few rounds. After every operation
    /// the current epoch equals from-scratch scoring of the live entities,
    /// and a pin taken early in the script still serves its frozen answers
    /// after at least two rebases happened behind it.
    #[test]
    fn answers_match_scratch_scoring_across_skiing_rebases(
        ops in prop::collection::vec(arb_drift_op(), 40..100),
        pin_at_raw in any::<u8>(),
    ) {
        let drifts = ops.iter().filter(|op| matches!(op, DriftOp::Drift(..))).count();
        prop_assume!(drifts >= 16);
        let _turn = ranked_reads();
        let mut live: BTreeMap<u64, Entity> =
            grid_entities(96).into_iter().map(|e| (e.id, e)).collect();
        let mut w = [0.4f64, -0.3, 0.05];
        let mut model = LinearModel::from_parts(w.to_vec(), 0.0);
        let mut publisher = EpochPublisher::new(
            live.values().cloned().collect(), model.clone(), NormPair::EUCLIDEAN, 0,
        );
        let cell = publisher.handle();
        let mut next_id = 95u64;
        let pin_at = usize::from(pin_at_raw) % (ops.len() / 4);
        let mut pinned = None;

        for (step, op) in ops.iter().enumerate() {
            if step == pin_at {
                let pin = cell.pin();
                let ids: Vec<u64> = (0..=next_id + 1).collect();
                let frozen = answers_of(&pin, &ids);
                pinned = Some((pin, ids, frozen, publisher.rebases()));
            }
            match op {
                DriftOp::Drift(a, b, c) => {
                    w[0] += (f64::from(*a) / 255.0 - 0.5) * 0.6;
                    w[1] += (f64::from(*b) / 255.0 - 0.5) * 0.6;
                    model = LinearModel::from_parts(w.to_vec(), (f64::from(*c) / 255.0 - 0.5) * 0.2);
                    publisher.apply_update(&model);
                }
                DriftOp::Insert(a, b) => {
                    next_id += 1;
                    let e = Entity::new(next_id, grid_feature(*a, *b));
                    live.insert(e.id, e.clone());
                    publisher.apply_insert(e);
                }
                DriftOp::Remove(raw) => {
                    let id = u64::from(*raw) % (next_id + 1);
                    prop_assert_eq!(publisher.apply_remove(id), live.remove(&id).is_some());
                }
            }
            let ids: Vec<u64> = (0..=next_id + 1).collect();
            prop_assert_eq!(
                answers_of(&cell.pin(), &ids),
                scored_from_scratch(&live, &model, &ids),
                "after step {} ({:?})", step, op
            );
        }

        let (pin, ids, frozen, rebases_at_pin) = pinned.expect("pin_at is inside the script");
        prop_assert!(
            publisher.skiing().reorgs() >= rebases_at_pin + 2,
            "only {} rebases behind the pin", publisher.rebases() - rebases_at_pin
        );
        prop_assert_eq!(answers_of(&pin, &ids), frozen, "pinned answers moved across a rebase");
    }
}

/// A dense-54 corpus the size of a small shard, from the kit's RNG.
fn dense54_entities(n: usize) -> Vec<Entity> {
    let mut r = 0xD54_u64;
    (0..n as u64)
        .map(|id| {
            let f: Vec<f32> =
                (0..54).map(|_| (splitmix64(&mut r) % 2001) as f32 / 1000.0 - 1.0).collect();
            Entity::new(id, FeatureVec::dense(f))
        })
        .collect()
}

/// A Skiing rebase allocates a scoring — `eps`, label, `by_eps` slot: 13
/// bytes an entity, plus the stable sort's scratch — and never a population
/// (≈ 250 bytes an entity here). The rebuild after a population change is
/// measured beside it as the contrast.
#[test]
fn skiing_rebase_allocates_a_scoring_not_a_population() {
    let n = 4_000;
    let entities = dense54_entities(n);
    let mut w = vec![0.0f64; 54];
    w[0] = 1.0;
    let mut publisher = EpochPublisher::new(
        entities,
        LinearModel::from_parts(w.clone(), 0.0),
        NormPair::EUCLIDEAN,
        0,
    );
    let mut drift = |publisher: &mut EpochPublisher| {
        let round = publisher.lsn() as usize;
        assert!(round < 10_000, "drift never reached α·S");
        w[round % 54] += 0.01;
        publisher.apply_update(&LinearModel::from_parts(w.clone(), 0.0));
    };
    while !publisher.skiing().should_reorganize() {
        drift(&mut publisher);
    }
    let (rebases, before) = (publisher.rebases(), allocated_bytes());
    drift(&mut publisher);
    let rebase_bytes = allocated_bytes() - before;
    assert_eq!(publisher.rebases(), rebases + 1, "the round after α·S must rebase");
    assert!(
        rebase_bytes < 32 * n as u64,
        "a Skiing rebase of {n} entities allocated {rebase_bytes} bytes"
    );

    publisher.apply_insert(Entity::new(n as u64, FeatureVec::dense(vec![0.5; 54])));
    let before = allocated_bytes();
    publisher.apply_reorganize();
    let fold_bytes = allocated_bytes() - before;
    assert!(fold_bytes > 200 * n as u64, "a population rebuild allocated only {fold_bytes} bytes");
}

/// The allocation-balance proof. One measured scope builds a publisher,
/// storms it with updates/rebases while a pin is held, then unpins and
/// drops everything: the thread's live
/// byte count must return exactly to its pre-scope value. Run twice — the
/// first pass warms up lazily-initialized runtime state (stdio, TLS) so
/// the second pass measures only the epoch machinery.
#[test]
fn epoch_reclamation_is_allocation_balanced() {
    // prep (unmeasured): a live view generates a realistic model-drift
    // trajectory; the measured scope then exercises *only* the epoch
    // machinery, with every input cloned inside the scope
    let mut view = build_view(Architecture::NaiveMem, Mode::Eager);
    let (entities, model0) = view.snapshot_state().expect("snapshot");
    let mut models = Vec::with_capacity(400);
    let mut r = 0xA_110C_u64;
    for _ in 0..400u64 {
        r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let ex = TrainingExample::new(
            0,
            grid_feature((r >> 16) as u8, (r >> 32) as u8),
            if r.is_multiple_of(2) { 1 } else { -1 },
        );
        view.update(&ex);
        models.push(view.model().clone());
    }

    let run = |measure: bool| -> (i64, i64) {
        let before = live_bytes();
        {
            let mut publisher =
                EpochPublisher::new(entities.clone(), model0.clone(), NormPair::EUCLIDEAN, 0);
            let cell = publisher.handle();
            let mut pin = Some(cell.pin());
            for (i, m) in models.iter().enumerate() {
                publisher.apply_update(m);
                if (i as u64).is_multiple_of(97) {
                    publisher.apply_reorganize();
                }
                if i == 200 {
                    // re-pin mid-storm: the old pin drains, a fresh epoch
                    // gets held across the rest of the run
                    pin = Some(cell.pin());
                }
                if let Some(p) = &pin {
                    // a freed epoch could not keep answering coherently
                    assert!(p.count_positive() <= p.entity_count());
                }
                let es = cell.stats();
                assert_eq!(
                    es.published,
                    es.reclaimed + es.retired_live + 1,
                    "epoch ledger lost or duplicated a node at step {i}"
                );
            }
            drop(pin);
            let es = cell.stats();
            assert_eq!(es.retired_live, 0, "retired chain must drain once unpinned");
            assert_eq!(es.reclaimed + 1, es.published);
        }
        let after = live_bytes();
        if measure {
            (before, after)
        } else {
            (0, 0)
        }
    };
    run(false); // warmup
    let (before, after) = run(true);
    assert_eq!(
        after, before,
        "epoch machinery leaked or double-freed {} bytes",
        after - before
    );
}

/// The publisher's Lemma 3.1 state, mirrored from outside with the same
/// public [`WaterMarks`] arithmetic: the population as of its last fold,
/// the ids inserted since, and the marks since the last re-score.
struct Mirror {
    pair: NormPair,
    pop: BTreeMap<u64, Entity>,
    added: BTreeSet<u64>,
    marks: WaterMarks,
    rebases: u64,
}

impl Mirror {
    fn new(live: &BTreeMap<u64, Entity>, model: &LinearModel, pair: NormPair) -> Mirror {
        let m = live.values().map(|e| e.f.norm(pair.q)).fold(0.0f64, f64::max);
        Mirror {
            pair,
            pop: live.clone(),
            added: BTreeSet::new(),
            marks: WaterMarks::new(model.clone(), pair, m, WatermarkPolicy::Monotone),
            rebases: 0,
        }
    }

    /// Follows one publisher operation (`update`: it was a model round). A
    /// re-score restarts the marks; one that leaves no overlay behind has
    /// folded the live set into the population.
    fn follow(
        &mut self,
        p: &EpochPublisher,
        live: &BTreeMap<u64, Entity>,
        model: &LinearModel,
        update: bool,
    ) {
        if p.rebases() != self.rebases {
            self.rebases = p.rebases();
            let m = self.marks.m_norm();
            self.marks = WaterMarks::new(model.clone(), self.pair, m, WatermarkPolicy::Monotone);
            if p.handle().pin().overlay_len() == 0 {
                self.pop = live.clone();
                self.added.clear();
            }
        } else if update {
            self.marks.observe(model);
        }
    }

    fn insert(&mut self, e: &Entity) {
        self.marks.raise_m(e.f.norm(self.pair.q));
        self.added.insert(e.id);
    }

    /// Live population tuples whose Lemma 3.1 bound `eps − lw` reaches
    /// `kth`, within a slack a thousand times the reader's own.
    fn within_reach(&self, live: &BTreeMap<u64, Entity>, kth: f64) -> usize {
        let (stored, lw) = (self.marks.stored_model(), self.marks.low());
        self.pop
            .values()
            .filter(|e| live.contains_key(&e.id) && !self.added.contains(&e.id))
            .filter(|e| {
                let bound = stored.margin(&e.f) - lw;
                bound >= kth - 1e-6 * bound.abs().max(kth.abs()).max(1.0)
            })
            .count()
    }
}

/// The test-local reference: score every live entity, sort, keep `k`.
fn full_scan(live: &BTreeMap<u64, Entity>, model: &LinearModel, k: usize) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = live.values().map(|e| (e.id, model.margin(&e.f))).collect();
    all.sort_by(rank_order);
    all.truncate(k);
    all
}

fn bits(ranked: &[(u64, f64)]) -> Vec<(u64, u64)> {
    ranked.iter().map(|&(id, m)| (id, m.to_bits())).collect()
}

/// One pruned read checked against the full scan, bit for bit, and against
/// the count the bound allows: `k + |added|` plus the population tuples
/// within reach of the k-th margin — every tuple when `k ≥ n`, none at 0.
fn check_ranked(
    pin: &ModelEpoch,
    live: &BTreeMap<u64, Entity>,
    model: &LinearModel,
    mirror: &Mirror,
    k: usize,
    ctx: &str,
) {
    let want = full_scan(live, model, k);
    let (calls0, scored0) = topk_counters();
    let got = pin.top_k(k);
    let (calls1, scored1) = topk_counters();
    assert_eq!(calls1 - calls0, 1, "{ctx} k={k}: one ranked read, one count");
    assert_eq!(bits(&got), bits(&want), "{ctx} k={k}: pruned walk diverged from the full scan");
    let scored = (scored1 - scored0) as usize;
    if k == 0 {
        assert_eq!(scored, 0, "{ctx}: k = 0 scored {scored}");
    } else if k >= live.len() {
        assert_eq!(scored, live.len(), "{ctx} k={k}: a read of everything scores everything");
    } else {
        let kth = want[k - 1].1;
        let allowed = k + mirror.added.len() + mirror.within_reach(live, kth);
        assert!(scored <= allowed, "{ctx} k={k}: scored {scored} > {allowed} the bound allows");
    }
}

/// The pruned walk against a full scan over scripted drift: Skiing
/// rebases and population folds mid-script, the top of a fresh `eps` order
/// retracted, overlay inserts that outrank the whole population, a run of
/// identical feature vectors whose tied margins straddle the k-th place,
/// and a negated model whose band spans the population. Every read at
/// k ∈ {0, 1, 3, 10, n, n+5} and at the tie run is bit-equal to the
/// reference and scores no more than the bound allows.
#[test]
fn pruned_top_k_matches_a_full_scan_over_scripted_drift() {
    let _turn = ranked_reads();
    let pair = NormPair::EUCLIDEAN;
    let (mut skiing, mut folds, mut top_retractions, mut outranked, mut straddles) =
        (0, 0, 0, 0, 0);
    for seed in 1..=39u64 {
        let mut r = seed;
        let unit = |r: &mut u64| (splitmix64(r) % 1001) as f64 / 1000.0 - 0.5;
        let twin = grid_feature(230, 40);
        let mut live: BTreeMap<u64, Entity> = (0..60)
            .map(|id| Entity::new(id, feature(&mut r)))
            .chain((60..66).map(|id| Entity::new(id, twin.clone())))
            .map(|e| (e.id, e))
            .collect();
        let twins: Vec<u64> = (60..66).collect();
        let mut w = vec![0.4f64, -0.3, 0.05];
        let mut model = LinearModel::from_parts(w.clone(), 0.0);
        let mut p = EpochPublisher::new(live.values().cloned().collect(), model.clone(), pair, 0);
        let cell = p.handle();
        let mut mirror = Mirror::new(&live, &model, pair);
        let mut next_id = 100u64;

        for step in 0..200 {
            let roll = splitmix64(&mut r) % 100;
            let rebases = p.rebases();
            let mut update = false;
            let retract = |p: &mut EpochPublisher,
                           live: &mut BTreeMap<u64, Entity>,
                           mirror: &mut Mirror,
                           id: u64| {
                assert_eq!(p.apply_remove(id), live.remove(&id).is_some());
                mirror.added.remove(&id);
            };
            match (step, roll) {
                // a fold orders `eps` by the current margins; the next three
                // steps retract the very top of that order
                (60, _) => {
                    folds += u32::from(cell.pin().overlay_len() > 0);
                    p.apply_reorganize();
                }
                (61..=63, _) => {
                    let top = full_scan(&live, &model, 1)[0].0;
                    retract(&mut p, &mut live, &mut mirror, top);
                    top_retractions += 1;
                }
                // the band now spans every margin: nothing can be pruned
                (100, _) => {
                    w.iter_mut().for_each(|x| *x = -*x);
                    model = LinearModel::from_parts(w.clone(), -model.b);
                    p.apply_update(&model);
                    update = true;
                }
                (_, 0..=54) => {
                    w[0] += unit(&mut r) * 0.3;
                    w[1] += unit(&mut r) * 0.3;
                    model = LinearModel::from_parts(w.clone(), unit(&mut r) * 0.2);
                    p.apply_update(&model);
                    update = true;
                }
                (_, 55..=69) => {
                    next_id += 1;
                    // every fifth insert outranks the whole population
                    let e = if roll >= 65 {
                        let s = |x: f64| if x >= 0.0 { 3.0 } else { -3.0 };
                        Entity::new(next_id, FeatureVec::dense(vec![s(w[0]), s(w[1]), 1.0]))
                    } else {
                        Entity::new(next_id, feature(&mut r))
                    };
                    mirror.insert(&e);
                    live.insert(e.id, e.clone());
                    p.apply_insert(e);
                }
                (_, 70..=77) => {
                    let top = full_scan(&live, &model, 1)[0].0;
                    retract(&mut p, &mut live, &mut mirror, top);
                }
                (_, 78..=96) => {
                    let id = splitmix64(&mut r) % (next_id + 1);
                    retract(&mut p, &mut live, &mut mirror, id);
                }
                _ => {
                    folds += u32::from(cell.pin().overlay_len() > 0);
                    p.apply_reorganize();
                }
            }
            if update && p.rebases() > rebases {
                skiing += 1;
            }
            mirror.follow(&p, &live, &model, update);

            let pin = cell.pin();
            let ranked = full_scan(&live, &model, live.len());
            outranked += u32::from(ranked.first().is_some_and(|(id, _)| mirror.added.contains(id)));
            let ctx = format!("seed {seed} step {step}");
            let n = live.len();
            for k in [0, 1, 3, 10, n, n + 5] {
                check_ranked(&pin, &live, &model, &mirror, k, &ctx);
            }
            // the twins tie bit for bit; cut the run in its middle
            let at: Vec<usize> = ranked
                .iter()
                .enumerate()
                .filter(|(_, (id, _))| twins.contains(id))
                .map(|(i, _)| i)
                .collect();
            if at.len() >= 2 {
                let k = at[0] + at.len() / 2;
                straddles += 1;
                check_ranked(&pin, &live, &model, &mirror, k, &ctx);
            }
        }
    }
    assert!(skiing > 0, "no Skiing rebase in any script");
    assert!(folds > 0, "no population fold in any script");
    assert!(top_retractions > 0 && outranked > 0 && straddles > 0);
}

/// On one `tcp_mixed` shard's shape — the forest corpus, a warm model and
/// `Train{8}` SGD rounds — a pinned `top_k(10)` scores a sliver of the
/// population per read, with answers equal to the full scan.
#[test]
fn pruned_top_k_scores_a_sliver_of_a_forest_shard() {
    let _turn = ranked_reads();
    let spec = DatasetSpec::forest().scaled(0.01);
    let entities: Vec<Entity> =
        spec.generate().entities.into_iter().map(|e| Entity::new(e.id, e.f)).collect();
    let live: BTreeMap<u64, Entity> = entities.iter().map(|e| (e.id, e.clone())).collect();
    let n = entities.len();
    let mut trainer = SgdTrainer::new(SgdConfig::svm(), spec.dim);
    for ex in ExampleStream::new(&spec, 0xAAAA).take_vec(6_000) {
        trainer.step(&ex.f, ex.y);
    }
    let mut p = EpochPublisher::new(entities, trainer.model().clone(), spec.norm_pair(), 0);
    let cell = p.handle();
    let mut stream = ExampleStream::new(&spec, 7);
    let (calls0, scored0) = topk_counters();
    for round in 0..200 {
        for ex in stream.take_vec(8) {
            trainer.step(&ex.f, ex.y);
        }
        p.apply_update(trainer.model());
        let got = cell.pin().top_k(10);
        if round % 40 == 0 {
            assert_eq!(bits(&got), bits(&full_scan(&live, trainer.model(), 10)), "round {round}");
        }
    }
    let (calls, scored) = topk_counters();
    let mean = (scored - scored0) as f64 / (calls - calls0) as f64;
    assert!(p.rebases() > 0, "the drift never re-scored");
    assert!(mean < n as f64 / 20.0, "a top_k(10) scored {mean:.0} of {n} tuples on average");
}

/// A document of the SQL path's shape: 20 words of a 3 000-word vocabulary,
/// dictionary-coded (ids dense from 0) in a 2^16-dim space, ℓ1-normalized.
fn text_doc(r: &mut u64) -> FeatureVec {
    let words = (0..20).map(|_| ((splitmix64(r) % 3_000) as u32, 1.0));
    FeatureVec::sparse(1 << 16, words).normalized(Norm::L1)
}

fn model_bits(epoch: &ModelEpoch) -> Vec<u64> {
    epoch.model().w.to_vec().iter().map(|x| x.to_bits()).collect()
}

/// One published feedback round on a 2^16-dim eager `HazyMem` text view
/// allocates the model chunks its example touches (the trainer copies each
/// once, since the last epoch shares it), the published model's chunk
/// table, and a fixed slack for the epoch, its overlay maps and the
/// engine's bookkeeping — not a 512 KB model copy. A pinned epoch sharing
/// the untouched chunks keeps its model bits and ranked margins throughout.
#[test]
fn a_published_text_round_allocates_the_chunks_it_touches() {
    const DIM: usize = 1 << 16;
    // the `flips` map every publish still clones — at most 1 024 buckets
    // (9 232 bytes) over 500 entities — plus the epoch node and the
    // engine's bookkeeping (≈ 500 bytes)
    const SLACK: usize = 12 << 10;
    let _turn = ranked_reads();
    let mut r = 0x7E47_u64;
    let docs: Vec<Entity> = (0..500).map(|id| Entity::new(id, text_doc(&mut r))).collect();
    let builder =
        ViewBuilder::new(Architecture::HazyMem, Mode::Eager).norm_pair(NormPair::TEXT).dim(DIM);
    let mut view = PublishedView::new(builder.build(docs, &[]), NormPair::TEXT, 0);
    let feedback = |r: &mut u64| {
        let y = if splitmix64(r).is_multiple_of(2) { 1 } else { -1 };
        TrainingExample::new(0, text_doc(r), y)
    };
    // warm-up: every vocabulary chunk written, lazily grown state sized
    for _ in 0..200 {
        view.update(&feedback(&mut r));
    }
    let cell = Arc::clone(view.cell());
    let pin = cell.pin();
    let (frozen_w, frozen_top) = (model_bits(&pin), bits(&pin.top_k(5)));

    let entry = std::mem::size_of::<Option<Arc<[f64; ChunkedVec::CHUNK]>>>();
    let table = DIM / ChunkedVec::CHUNK * entry;
    let mut measured = 0;
    for round in 0..50 {
        let ex = feedback(&mut r);
        let touched: BTreeSet<usize> =
            ex.f.iter().map(|(i, _)| i as usize / ChunkedVec::CHUNK).collect();
        let (rebases, reorgs) = (view.publisher().rebases(), view.engine().stats().reorgs);
        let before = allocated_bytes();
        view.update(&ex);
        let bytes = (allocated_bytes() - before) as usize;
        // a re-score allocates a scoring or a sort, by design
        if view.publisher().rebases() == rebases && view.engine().stats().reorgs == reorgs {
            measured += 1;
            let bound = touched.len() * ChunkedVec::CHUNK * 8 + table + SLACK;
            assert!(
                bytes <= bound,
                "round {round}: {bytes} bytes allocated, {} chunks touched, bound {bound}",
                touched.len()
            );
        }
    }
    assert!(measured >= 25, "only {measured} of 50 rounds ran without a re-score");
    assert_eq!(model_bits(&pin), frozen_w, "a pinned epoch's model moved under the trainer");
    assert_eq!(bits(&pin.top_k(5)), frozen_top, "a pinned epoch's margins moved");
    assert_ne!(model_bits(&cell.pin()), frozen_w, "the trainer never stepped");
}
