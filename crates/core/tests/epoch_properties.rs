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
//!   double free — if it survived — would leave it low).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hazy_core::{Architecture, Entity, EpochPublisher, Mode, ViewBuilder};
use hazy_learn::TrainingExample;
use hazy_linalg::NormPair;
use hazy_testkit::{builder, grid_entities, grid_feature, BoxedView};
use proptest::prelude::*;

/// Counts net live bytes per thread. Thread-local so the parallel test
/// harness (and any sibling test) cannot pollute a measurement: everything
/// this suite allocates and frees happens on the measuring thread.
struct CountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
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
