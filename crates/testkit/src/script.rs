//! One operation vocabulary and one table-driven script generator.

use hazy_core::{Architecture, ClassifierView, Entity, Mode};
use hazy_learn::TrainingExample;

use crate::{feature, splitmix64};

/// One logical statement — the superset of what any suite scripts. Every
/// variant is one WAL record on a durable view and one epoch LSN tick.
#[derive(Clone, Debug)]
pub enum Op {
    /// `update_batch` of 1–3 examples.
    Update(Vec<TrainingExample>),
    /// A fresh (or resurrected) entity arrives.
    Insert(Entity),
    /// A live entity is retracted.
    Remove(u64),
    /// `read_single` of a live id.
    Read(u64),
    /// `count_positive`.
    Count,
    /// `positive_ids`.
    Members,
    /// `top_k(k)`.
    TopK(usize),
    /// Forced reorganization.
    Reorg,
    /// Live architecture migration; only ever pinned, never rolled.
    SetArch(Architecture, Mode),
}

/// Percent weights of the rolled op kinds, in roll order; what is left of
/// 100 is `Reorg`. A zero weight means the kind never appears.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// [`Op::Update`].
    pub update: u64,
    /// [`Op::Insert`].
    pub insert: u64,
    /// [`Op::Remove`] — refused (the roll falls through to the next kind)
    /// while 8 or fewer entities are live.
    pub remove: u64,
    /// [`Op::Read`].
    pub read: u64,
    /// [`Op::Count`].
    pub count: u64,
    /// [`Op::Members`].
    pub members: u64,
    /// [`Op::TopK`].
    pub top_k: u64,
}

/// Everything that distinguishes one suite's script from another's.
#[derive(Clone, Debug)]
pub struct Shape {
    /// XORed into the seed, so suites sharing a seed draw unrelated scripts.
    pub salt: u64,
    /// Seed of the base corpus' feature stream.
    pub corpus: u64,
    /// Script length, pinned ops included.
    pub ops: usize,
    /// Base entities, ids `0..population`.
    pub population: usize,
    /// Id of the first entity an [`Op::Insert`] creates.
    pub first_fresh_id: u64,
    /// The op mix.
    pub mix: Mix,
    /// [`Op::TopK`] depths are drawn from `1..=top_k_mod`.
    pub top_k_mod: u64,
    /// Ops placed at fixed script positions (they consume no randomness).
    pub pinned: Vec<(usize, Op)>,
}

impl Shape {
    /// The crash suites' script: 520 operations (their acceptance floor is
    /// 500) of every kind but removals and migrations, over 72 entities.
    pub const CRASH_520: Shape = Shape {
        salt: 0x5C21_97A3_0000_0001,
        corpus: 0x00E1_7A11,
        ops: 520,
        population: 72,
        first_fresh_id: 10_000,
        mix: Mix { update: 45, insert: 8, remove: 0, read: 25, count: 8, members: 7, top_k: 5 },
        top_k_mod: 9,
        pinned: Vec::new(),
    };

    /// The base corpus this shape's scripts run over: entities
    /// `0..population`, features drawn from the stream seeded by `corpus`.
    pub fn base_entities(&self) -> Vec<Entity> {
        let mut r = self.corpus;
        (0..self.population as u64).map(|id| Entity::new(id, feature(&mut r))).collect()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Update,
    Insert,
    Remove,
    Read,
    Count,
    Members,
    TopK,
    Reorg,
}

/// Generates a concrete script (ids resolved, so the system under test and
/// every oracle apply byte-identical operations) plus every id that is ever
/// live, base corpus first.
pub fn script(seed: u64, shape: &Shape) -> (Vec<Op>, Vec<u64>) {
    let m = &shape.mix;
    let table = [
        (Kind::Update, m.update),
        (Kind::Insert, m.insert),
        (Kind::Remove, m.remove),
        (Kind::Read, m.read),
        (Kind::Count, m.count),
        (Kind::Members, m.members),
        (Kind::TopK, m.top_k),
    ];
    assert!(table.iter().map(|&(_, w)| w).sum::<u64>() <= 100, "mix exceeds 100%");
    let mut r = seed ^ shape.salt;
    let mut live: Vec<u64> = (0..shape.population as u64).collect();
    let mut dead: Vec<u64> = Vec::new();
    let mut ever = live.clone();
    let mut next_id = shape.first_fresh_id;
    let mut ops = Vec::with_capacity(shape.ops);
    for i in 0..shape.ops {
        if let Some((_, op)) = shape.pinned.iter().find(|(at, _)| *at == i) {
            ops.push(op.clone());
            continue;
        }
        let roll = splitmix64(&mut r) % 100;
        let mut bound = 0;
        let kind = table
            .iter()
            .find_map(|&(kind, w)| {
                bound += w;
                let refused = kind == Kind::Remove && live.len() <= 8;
                (w > 0 && roll < bound && !refused).then_some(kind)
            })
            .unwrap_or(Kind::Reorg);
        ops.push(match kind {
            Kind::Update => {
                let n = 1 + (splitmix64(&mut r) % 3) as usize;
                let batch = (0..n)
                    .map(|_| {
                        let f = feature(&mut r);
                        let y = if splitmix64(&mut r).is_multiple_of(2) { 1 } else { -1 };
                        TrainingExample::new(0, f, y)
                    })
                    .collect();
                Op::Update(batch)
            }
            Kind::Insert => {
                // mostly fresh ids; sometimes resurrect a removed one so an
                // epoch overlay's removed/added interaction is exercised
                let id = if !dead.is_empty() && splitmix64(&mut r).is_multiple_of(3) {
                    dead.swap_remove((splitmix64(&mut r) as usize) % dead.len())
                } else {
                    let id = next_id;
                    next_id += 1;
                    ever.push(id);
                    id
                };
                live.push(id);
                Op::Insert(Entity::new(id, feature(&mut r)))
            }
            Kind::Remove => {
                let id = live.swap_remove((splitmix64(&mut r) as usize) % live.len());
                dead.push(id);
                Op::Remove(id)
            }
            Kind::Read => Op::Read(live[(splitmix64(&mut r) as usize) % live.len()]),
            Kind::Count => Op::Count,
            Kind::Members => Op::Members,
            Kind::TopK => Op::TopK(1 + (splitmix64(&mut r) % shape.top_k_mod) as usize),
            Kind::Reorg => Op::Reorg,
        });
    }
    (ops, ever)
}

/// Executes one op against any view. Read answers are discarded: on a lazy
/// view their side effects (maintenance, waste accounting) are the point.
///
/// # Panics
/// When an [`Op::SetArch`] is refused — scripts only pin migrations on
/// deployments that have a migration path.
pub fn apply(v: &mut dyn ClassifierView, op: &Op) {
    match op {
        Op::Update(batch) => v.update_batch(batch),
        Op::Insert(e) => v.insert_entity(e.clone()),
        Op::Remove(id) => {
            let _ = v.remove_entity(*id);
        }
        Op::Read(id) => {
            let _ = v.read_single(*id);
        }
        Op::Count => {
            let _ = v.count_positive();
        }
        Op::Members => {
            let _ = v.positive_ids();
        }
        Op::TopK(k) => {
            let _ = v.top_k(*k);
        }
        Op::Reorg => v.reorganize(),
        Op::SetArch(arch, mode) => {
            assert!(v.set_architecture(*arch, *mode), "migration path must exist");
        }
    }
}
