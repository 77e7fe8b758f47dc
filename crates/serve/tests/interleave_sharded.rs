//! Sharded flavour of the deterministic interleaving suite
//! (`crates/core/tests/interleave.rs`): a seeded step scheduler interleaves
//! per-shard reader state machines with one writer driving a
//! [`ShardedView`], and proves every pinned per-shard epoch answers exactly
//! like a **per-shard prefix oracle**.
//!
//! A shard's LSN counts the logical statements routed to *that shard*:
//! updates and reorganizations fan out to every shard, inserts and
//! removals hit only the home shard (`shard_of`). So the oracle here is
//! per shard — a plain unsharded view over just that shard's slice of the
//! population, advanced through just that shard's operation stream — and a
//! reader that pins shard `s` at LSN `k` must see answers bit-equal to
//! oracle `s` after its first `k` shard-ops, no matter how far the writer
//! (and the *other* shards) have advanced since. That is exactly the
//! consistency contract the serving layer's k-way merges rely on.

use std::sync::Arc;

use hazy_core::{Architecture, Entity, EpochCell, EpochPin, Mode, ViewBuilder};
use hazy_serve::{shard_of, ShardedView};
use hazy_testkit::{
    apply, assert_models_bit_identical, assert_ranked_bit_identical, builder, probe, script, seed,
    splitmix64, Mix, Op, OracleState, Shape,
};

const TOP_K: usize = 5;

/// Write-side script only (what is left of the mix is `Reorg`) — reads are
/// the readers' job here.
const SHAPE: Shape = Shape {
    salt: 0x5AAD_ED00_0000_0001,
    corpus: 0x00E1_7A11,
    ops: 520,
    population: 72,
    first_fresh_id: 10_001,
    mix: Mix { update: 62, insert: 16, remove: 14, read: 0, count: 0, members: 0, top_k: 0 },
    top_k_mod: 1,
    pinned: Vec::new(),
};

/// The shards a write-side op is routed to: everything fans out except
/// inserts and removals, which hit only the home shard.
fn routed_to(op: &Op, s: usize, n_shards: usize) -> bool {
    match op {
        Op::Insert(e) => shard_of(e.id, n_shards) == s,
        Op::Remove(id) => shard_of(*id, n_shards) == s,
        _ => true,
    }
}

/// Splits the global script into per-shard streams and precomputes
/// `oracle[s][k]` = shard `s`'s answers after its first `k` shard-ops.
fn shard_oracles(
    b: &ViewBuilder,
    ops: &[Op],
    ever_per_shard: &[Vec<u64>],
) -> Vec<Vec<OracleState>> {
    let n_shards = ever_per_shard.len();
    ever_per_shard
        .iter()
        .enumerate()
        .map(|(s, ever_s)| {
            let mine: Vec<Entity> = SHAPE
                .base_entities()
                .into_iter()
                .filter(|e| shard_of(e.id, n_shards) == s)
                .collect();
            let mut v = b.build(mine, &[]);
            let mut states = vec![probe(v.as_mut(), ever_s, TOP_K)];
            // an op not routed to this shard does not advance its LSN
            for op in ops.iter().filter(|op| routed_to(op, s, n_shards)) {
                apply(v.as_mut(), op);
                states.push(probe(v.as_mut(), ever_s, TOP_K));
            }
            states
        })
        .collect()
}

/// Reader pinned to one shard; probes its pinned epoch against that
/// shard's prefix oracle over several scheduler steps.
struct Reader<'a> {
    shard: usize,
    cell: &'a EpochCell,
    pin: Option<(EpochPin<'a>, u64)>,
    phase: u8,
    rng: u64,
    cycles: u64,
}

impl<'a> Reader<'a> {
    fn step(&mut self, oracle: &[OracleState], ever_s: &[u64], shard_lsn: u64, ctx: &str) {
        match self.phase {
            0 => {
                let pin = self.cell.pin();
                let lsn = pin.lsn();
                assert_eq!(lsn, shard_lsn, "{ctx}/s{}: fresh pin is the latest epoch", self.shard);
                self.pin = Some((pin, lsn));
            }
            1 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 1 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}/s{}@lsn={lsn} (shard at {shard_lsn})", self.shard);
                assert_eq!(pin.count_positive(), want.count, "{ctx}: count_positive");
                assert_models_bit_identical(pin.model(), &want.model, &ctx);
            }
            2 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 2 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}/s{}@lsn={lsn} (shard at {shard_lsn})", self.shard);
                for _ in 0..4 {
                    if ever_s.is_empty() {
                        break;
                    }
                    let id = ever_s[(splitmix64(&mut self.rng) as usize) % ever_s.len()];
                    assert_eq!(pin.classify(id), want.labels[&id], "{ctx}: classify({id})");
                }
                assert_eq!(pin.positive_ids(), want.members, "{ctx}: scan_positive");
            }
            3 => {
                let (pin, lsn) = self.pin.as_ref().expect("phase 3 holds a pin");
                let want = &oracle[*lsn as usize];
                let ctx = format!("{ctx}/s{}@lsn={lsn} (shard at {shard_lsn})", self.shard);
                assert_ranked_bit_identical(&pin.top_k(TOP_K), &want.top_k, &ctx);
            }
            _ => {
                self.pin = None;
                self.cycles += 1;
            }
        }
        self.phase = (self.phase + 1) % 5;
    }
}

fn run_config(arch: Architecture, mode: Mode, n_shards: usize) {
    let seed = seed();
    let ctx = format!("{}/{}/shards={n_shards}/seed={seed}", arch.name(), mode.name());
    let (ops, ever) = script(seed, &SHAPE);
    let b = builder(arch, mode);
    let ever_per_shard: Vec<Vec<u64>> = (0..n_shards)
        .map(|s| ever.iter().copied().filter(|&id| shard_of(id, n_shards) == s).collect())
        .collect();
    let oracles = shard_oracles(&b, &ops, &ever_per_shard);

    let mut view = ShardedView::build(&b, n_shards, SHAPE.base_entities(), &[]);
    let cells: Vec<Arc<EpochCell>> = (0..n_shards).map(|s| view.shard_epochs(s)).collect();
    let mut shard_lsn = vec![0u64; n_shards];

    // two readers per shard so pins overlap within a shard too
    let mut readers: Vec<Reader<'_>> = (0..2 * n_shards)
        .map(|i| Reader {
            shard: i % n_shards,
            cell: &cells[i % n_shards],
            pin: None,
            phase: 0,
            rng: seed ^ ((i as u64 + 1) << 40),
            cycles: 0,
        })
        .collect();

    let mut sched = seed ^ 0x5CED_0000_0000_0002;
    let mut next = 0usize;
    while next < ops.len() {
        let pick = (splitmix64(&mut sched) as usize) % (readers.len() + 1);
        if pick == 0 {
            let op = &ops[next];
            next += 1;
            apply(&mut view, op);
            for (s, l) in shard_lsn.iter_mut().enumerate() {
                *l += u64::from(routed_to(op, s, n_shards));
            }
            for (s, cell) in cells.iter().enumerate() {
                assert_eq!(
                    cell.current_lsn(),
                    shard_lsn[s],
                    "{ctx}: shard {s} epoch LSN tracks its routed statements"
                );
            }
        } else {
            let r = &mut readers[pick - 1];
            let (s, lsn) = (r.shard, shard_lsn[r.shard]);
            r.step(&oracles[s], &ever_per_shard[s], lsn, &ctx);
        }
    }
    for r in &mut readers {
        while r.pin.is_some() || r.phase != 0 {
            let (s, lsn) = (r.shard, shard_lsn[r.shard]);
            r.step(&oracles[s], &ever_per_shard[s], lsn, &ctx);
        }
        assert!(r.cycles > 0, "{ctx}: a reader never completed a probe cycle");
    }
    drop(readers);

    // cross-shard merge consistency at quiescence: the global answers are
    // the k-way merge of the per-shard oracle finals
    let want_count: u64 = oracles.iter().map(|o| o.last().unwrap().count).sum();
    assert_eq!(ShardedView::count_positive(&view), want_count, "{ctx}: merged count");
    let mut want_members: Vec<u64> =
        oracles.iter().flat_map(|o| o.last().unwrap().members.iter().copied()).collect();
    want_members.sort_unstable();
    assert_eq!(ShardedView::scan_positive(&view), want_members, "{ctx}: merged scan");

    // reclamation drains every shard's retired chain once pins are gone
    for (s, cell) in cells.iter().enumerate() {
        let es = cell.stats();
        assert_eq!(es.published, shard_lsn[s] + 1, "{ctx}: shard {s} publications");
        assert_eq!(es.reclaimed, es.published - 1, "{ctx}: shard {s} reclamation");
        assert_eq!(es.retired_live, 0, "{ctx}: shard {s} retired chain drained");
    }
}

macro_rules! sharded_matrix {
    ($($name:ident => ($arch:expr, $mode:expr, $shards:expr);)*) => {
        $(
            #[test]
            fn $name() {
                run_config($arch, $mode, $shards);
            }
        )*
    };
}

sharded_matrix! {
    naive_mem_eager_1 => (Architecture::NaiveMem, Mode::Eager, 1);
    naive_mem_lazy_3 => (Architecture::NaiveMem, Mode::Lazy, 3);
    hazy_mem_eager_3 => (Architecture::HazyMem, Mode::Eager, 3);
    hazy_mem_lazy_1 => (Architecture::HazyMem, Mode::Lazy, 1);
    naive_disk_eager_3 => (Architecture::NaiveDisk, Mode::Eager, 3);
    hazy_disk_lazy_3 => (Architecture::HazyDisk, Mode::Lazy, 3);
    hybrid_eager_3 => (Architecture::Hybrid, Mode::Eager, 3);
    hybrid_lazy_1 => (Architecture::Hybrid, Mode::Lazy, 1);
}
