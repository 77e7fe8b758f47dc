//! Deterministic interleaving suite for epoch snapshot reads (PR 8's
//! centerpiece deliverable): a seeded single-threaded **step scheduler**
//! interleaves N reader state machines with one writer walking a long
//! random operation script, and proves that every answer served off a
//! pinned [`hazy_core::ModelEpoch`] equals a **prefix-consistent oracle** —
//! a plain view that executed exactly the first `lsn` script operations and
//! nothing else.
//!
//! Why a scheduler instead of threads: thread interleavings are
//! host-dependent, so a failing schedule could never be replayed. Here
//! every actor is a state machine advanced one step at a time in an order
//! drawn from `HAZY_CRASH_SEED` (the same knob the crash matrix uses, so CI
//! runs a seed matrix over this suite too). Readers deliberately *hold
//! their pins across many writer steps* — each probe phase lands at a
//! different writer LSN — so the assertions prove three things at once:
//!
//! 1. **prefix consistency**: a pin taken at LSN `k` answers exactly like a
//!    view that stopped after script op `k`;
//! 2. **immutability**: those answers do not drift while the writer
//!    publishes dozens of newer epochs (including rebases, reorganizations
//!    and architecture migrations) behind the pin;
//! 3. **reclamation safety**: when the run drains, every retired epoch has
//!    been freed except the current one, and nothing was freed while any
//!    reader still held it (the probe would have read garbage).
//!
//! The oracle answers are precomputed once per LSN by advancing a second
//! plain view through the same script, probing after every op — answers
//! are pure functions of (population, model), which the equivalence suites
//! already prove architecture-independent, so one oracle per config serves
//! every pin regardless of how the writer's view has migrated since.

use hazy_core::{Architecture, EpochCell, EpochPin, EpochPublisher, Mode, ViewBuilder};
use hazy_linalg::NormPair;
use hazy_testkit::{
    apply, assert_models_bit_identical, assert_ranked_bit_identical, builder, probe, script, seed,
    splitmix64, BoxedView, Mix, Op, OracleState, Shape,
};

const N_READERS: usize = 4;
/// Ranked-read depth checked at every oracle LSN.
const TOP_K: usize = 7;

/// 520 logical statements (the crash suite's floor) over 72 entities, with
/// a migration round-trip pinned in: away at one third, home at two thirds
/// — pins straddle both hops. Every op advances the epoch LSN by exactly
/// one, so `oracle[lsn]` is the state after the first `lsn` ops.
fn shape(home: Architecture, mode: Mode) -> Shape {
    let away =
        if home == Architecture::HazyMem { Architecture::NaiveDisk } else { Architecture::HazyMem };
    Shape {
        salt: 0x17E2_11EA_0000_0001,
        corpus: 0x00E1_7A11,
        ops: 520,
        population: 72,
        first_fresh_id: 10_001,
        mix: Mix { update: 40, insert: 8, remove: 6, read: 20, count: 8, members: 7, top_k: 8 },
        top_k_mod: 9,
        pinned: vec![(520 / 3, Op::SetArch(away, mode)), (2 * 520 / 3, Op::SetArch(home, mode))],
    }
}

/// One script step on a plain view. A migration here is the core-level
/// one (what `AdaptiveView` drives): export, rebuild as the target, adopt
/// the carried counters — answer-invisible to the oracle and to every
/// pinned reader.
fn step(b: &ViewBuilder, v: &mut BoxedView, op: &Op) {
    match op {
        Op::SetArch(arch, mode) => {
            let clock = v.clock().clone();
            let state = v.export_migration().expect("plain views export migration state");
            *v = b.build_migrated(*arch, *mode, state, clock);
        }
        _ => apply(v.as_mut(), op),
    }
}

/// Precomputes `oracle[k]` = answers after the first `k` ops, for every k.
fn oracle_states(b: &ViewBuilder, shape: &Shape, ops: &[Op], ever: &[u64]) -> Vec<OracleState> {
    let mut v = b.build(shape.base_entities(), &[]);
    let mut states = Vec::with_capacity(ops.len() + 1);
    states.push(probe(v.as_mut(), ever, TOP_K));
    for op in ops {
        step(b, &mut v, op);
        states.push(probe(v.as_mut(), ever, TOP_K));
    }
    states
}

/// The writer actor: applies one script op per step to the live view and
/// mirrors it into the epoch publisher, exactly as the serving layer does.
struct Writer {
    b: ViewBuilder,
    view: BoxedView,
    publisher: EpochPublisher,
    ops: Vec<Op>,
    next: usize,
}

impl Writer {
    fn done(&self) -> bool {
        self.next == self.ops.len()
    }

    fn step(&mut self) {
        let op = self.ops[self.next].clone();
        self.next += 1;
        step(&self.b, &mut self.view, &op);
        match op {
            Op::Update(_) => {
                let m = self.view.model().clone();
                self.publisher.apply_update(&m);
            }
            Op::Insert(e) => self.publisher.apply_insert(e),
            Op::Remove(id) => {
                let _ = self.publisher.apply_remove(id);
            }
            Op::Reorg => self.publisher.apply_reorganize(),
            // reads (which may drive lazy maintenance) and migrations are
            // answer-invisible: the epoch stream advances in lockstep but
            // republishes unchanged answers
            Op::Read(_) | Op::Count | Op::Members | Op::TopK(_) | Op::SetArch(..) => {
                self.publisher.apply_noop()
            }
        }
        assert_eq!(
            self.publisher.lsn(),
            self.next as u64,
            "epoch LSN must advance exactly once per logical statement"
        );
    }
}

/// A reader actor: pins an epoch, then spends several scheduler steps
/// probing it against the oracle at the *pinned* LSN while the writer keeps
/// publishing behind it, then unpins. `probes_per_phase` ids are sampled
/// per classify step from the reader's own seeded stream.
struct Reader<'a> {
    cell: &'a EpochCell,
    pin: Option<(EpochPin<'a>, u64)>,
    phase: u8,
    rng: u64,
    cycles: u64,
}

impl<'a> Reader<'a> {
    fn new(cell: &'a EpochCell, id: usize, seed: u64) -> Reader<'a> {
        Reader { cell, pin: None, phase: 0, rng: seed ^ ((id as u64 + 1) << 40), cycles: 0 }
    }

    fn step(&mut self, oracle: &[OracleState], ever: &[u64], writer_lsn: u64, ctx: &str) {
        match self.phase {
            0 => {
                let pin = self.cell.pin();
                let lsn = pin.lsn();
                assert_eq!(
                    lsn, writer_lsn,
                    "{ctx}: a freshly pinned epoch is the writer's latest publication"
                );
                self.pin = Some((pin, lsn));
            }
            1 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 1 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}@lsn={lsn} (writer at {writer_lsn})");
                assert_eq!(pin.count_positive(), want.count, "{ctx}: count_positive");
                assert!(pin.entity_count() > 0, "{ctx}: population vanished");
                assert_models_bit_identical(pin.model(), &want.model, &ctx);
            }
            2 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 2 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}@lsn={lsn} (writer at {writer_lsn})");
                for _ in 0..6 {
                    let id = ever[(splitmix64(&mut self.rng) as usize) % ever.len()];
                    assert_eq!(pin.classify(id), want.labels[&id], "{ctx}: classify({id})");
                }
                assert_eq!(pin.classify(u64::MAX - 7), None, "{ctx}: ghost id");
            }
            3 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 3 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}@lsn={lsn} (writer at {writer_lsn})");
                assert_eq!(pin.positive_ids(), want.members, "{ctx}: scan_positive");
            }
            4 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 4 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}@lsn={lsn} (writer at {writer_lsn})");
                assert_ranked_bit_identical(&pin.top_k(TOP_K), &want.top_k, &ctx);
            }
            _ => {
                self.pin = None; // unpin: the epoch may now be reclaimed
                self.cycles += 1;
            }
        }
        self.phase = (self.phase + 1) % 6;
    }
}

fn run_config(arch: Architecture, mode: Mode) {
    let seed = seed();
    let ctx = format!("{}/{}/seed={seed}", arch.name(), mode.name());
    let shape = shape(arch, mode);
    let (ops, ever) = script(seed, &shape);
    let b = builder(arch, mode);
    let oracle = oracle_states(&b, &shape, &ops, &ever);

    let mut view = b.build(shape.base_entities(), &[]);
    let (entities, model) = view.snapshot_state().expect("every architecture snapshots");
    let publisher = EpochPublisher::new(entities, model, NormPair::EUCLIDEAN, 0);
    let cell = publisher.handle();
    let mut writer = Writer { b: b.clone(), view, publisher, ops, next: 0 };

    let mut readers: Vec<Reader<'_>> =
        (0..N_READERS).map(|i| Reader::new(&cell, i, seed)).collect();
    let mut sched = seed ^ 0x5CED_0000_0000_0001;

    // the interleaving: seeded choice each step between the writer and one
    // of the readers; readers keep cycling until the script drains, then
    // run to the end of their current probe cycle so no pin leaks
    while !writer.done() {
        let pick = (splitmix64(&mut sched) as usize) % (N_READERS + 1);
        if pick == 0 {
            writer.step();
        } else {
            let lsn = writer.publisher.lsn();
            readers[pick - 1].step(&oracle, &ever, lsn, &ctx);
        }
    }
    let final_lsn = writer.publisher.lsn();
    for r in &mut readers {
        while r.pin.is_some() || r.phase != 0 {
            r.step(&oracle, &ever, final_lsn, &ctx);
        }
        assert!(r.cycles > 0, "{ctx}: a reader never completed a probe cycle");
    }

    // reclamation: dropping the last pins freed the whole retired chain;
    // only the current epoch stays live
    drop(readers);
    let es = cell.stats();
    assert_eq!(es.published, final_lsn + 1, "{ctx}: one publication per LSN");
    assert_eq!(es.reclaimed, es.published - 1, "{ctx}: all retired epochs reclaimed");
    assert_eq!(es.retired_live, 0, "{ctx}: retired chain drained");
    assert!(es.pins >= N_READERS as u64, "{ctx}: lifetime pin counter lost pins");

    // and the final epoch answers the full-script oracle
    let pin = cell.pin();
    let want = oracle.last().expect("oracle has a final state");
    assert_eq!(pin.lsn(), final_lsn, "{ctx}: final epoch LSN");
    assert_eq!(pin.count_positive(), want.count, "{ctx}: final count");
    assert_eq!(pin.positive_ids(), want.members, "{ctx}: final members");
}

macro_rules! interleave_matrix {
    ($($name:ident => ($arch:expr, $mode:expr);)*) => {
        $(
            #[test]
            fn $name() {
                run_config($arch, $mode);
            }
        )*
    };
}

interleave_matrix! {
    naive_mem_eager => (Architecture::NaiveMem, Mode::Eager);
    naive_mem_lazy => (Architecture::NaiveMem, Mode::Lazy);
    hazy_mem_eager => (Architecture::HazyMem, Mode::Eager);
    hazy_mem_lazy => (Architecture::HazyMem, Mode::Lazy);
    naive_disk_eager => (Architecture::NaiveDisk, Mode::Eager);
    naive_disk_lazy => (Architecture::NaiveDisk, Mode::Lazy);
    hazy_disk_eager => (Architecture::HazyDisk, Mode::Eager);
    hazy_disk_lazy => (Architecture::HazyDisk, Mode::Lazy);
    hybrid_eager => (Architecture::Hybrid, Mode::Eager);
    hybrid_lazy => (Architecture::Hybrid, Mode::Lazy);
}
