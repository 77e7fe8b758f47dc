//! Property tests for the epoch snapshot machinery, plus a counting
//! allocator shim that proves reclamation discipline at the allocation
//! level:
//!
//! * **immutability** — once pinned, a [`hazy_core::ModelEpoch`]'s answers
//!   are bit-frozen under arbitrary interleavings of model updates,
//!   inserts, removals, reorganizations (rebases) and architecture
//!   migrations happening behind it, with the collector running after
//!   every single operation;
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
//!   population.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use hazy_core::{rank_order, Architecture, Entity, EpochPublisher, Mode, ModelEpoch, ViewBuilder};
use hazy_learn::{LinearModel, TrainingExample};
use hazy_linalg::{FeatureVec, NormPair};
use hazy_testkit::{builder, grid_entities, grid_feature, splitmix64, BoxedView};
use proptest::prelude::*;

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
/// way the serving layer does, collecting after every step so reclamation
/// pressure is maximal while pins are held.
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
    publisher.handle().try_collect();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pin taken at an arbitrary point keeps serving bit-identical
    /// answers while the writer applies an arbitrary suffix of operations
    /// — including rebases and migrations — with the collector invoked
    /// after every one of them. The ledger conserves every epoch at every
    /// step, and drains fully once the pin drops.
    #[test]
    fn pinned_answers_are_immutable_under_writer_pressure(
        ops in prop::collection::vec(arb_op(), 1..80),
        pin_at_raw in any::<u16>(),
    ) {
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

        // the pinned epoch was never reclaimed: dropping the pin and
        // collecting once must drain the whole retired chain
        drop(pin);
        cell.try_collect();
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
            cell.try_collect();
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
/// storms it with updates/rebases while a pin is held (collector after
/// every publish), then unpins and drops everything: the thread's live
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
                cell.try_collect();
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
            cell.try_collect();
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
