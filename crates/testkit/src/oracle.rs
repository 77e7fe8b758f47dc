//! The oracle side: bit-exact comparisons against a plain view that
//! executed exactly a prefix of the script.

use std::collections::HashMap;

use hazy_core::{ClassifierView, ViewStats};
use hazy_learn::{Label, LinearModel};

use crate::script::{apply, Op};

/// Bias and every weight equal bit for bit — recovery, replication and
/// migration move a model only by replaying the same SGD steps.
pub fn assert_models_bit_identical(a: &LinearModel, b: &LinearModel, ctx: &str) {
    assert_eq!(a.b.to_bits(), b.b.to_bits(), "{ctx}: bias diverged");
    let (wa, wb) = (a.w.to_vec(), b.w.to_vec());
    assert_eq!(wa.len(), wb.len(), "{ctx}: weight dim diverged");
    for (i, (x, y)) in wa.iter().zip(wb.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: weight {i} diverged");
    }
}

/// Control state after replaying the same ops: the whole [`ViewStats`] for
/// an unsharded deployment (down to the Skiing accumulator and
/// reorganization counts). Shards share one virtual clock and the fan-out's
/// thread interleaving makes per-shard waste attribution — a cost
/// *measurement*, not an answer — host-dependent, so a sharded deployment
/// compares the counters that are not.
pub fn assert_stats_match(got: &ViewStats, want: &ViewStats, shards: usize, ctx: &str) {
    if shards <= 1 {
        assert_eq!(got, want, "{ctx}: ViewStats diverged");
    } else {
        assert_eq!(got.updates, want.updates, "{ctx}: update count diverged");
        assert_eq!(got.labels_changed, want.labels_changed, "{ctx}: label flips diverged");
        assert_eq!(got.migrations, want.migrations, "{ctx}: migration count diverged");
    }
}

/// Two ranked listings agree in length, order and margin bits.
pub fn assert_ranked_bit_identical(got: &[(u64, f64)], want: &[(u64, f64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: top_k length");
    for (i, ((ga, gm), (wa, wm))) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(ga, wa, "{ctx}: top_k rank {i} id");
        assert_eq!(gm.to_bits(), wm.to_bits(), "{ctx}: top_k rank {i} margin");
    }
}

/// Full differential probe: population size, count, members, the top `k`
/// ranking and the label of every id in `ids` must match the oracle's, and
/// an id that never existed stays absent.
pub fn assert_answers_match(
    got: &mut dyn ClassifierView,
    oracle: &mut dyn ClassifierView,
    ids: &[u64],
    k: usize,
    ctx: &str,
) {
    assert_eq!(got.entity_count(), oracle.entity_count(), "{ctx}: entity_count");
    assert_eq!(got.count_positive(), oracle.count_positive(), "{ctx}: count_positive");
    let (mut g, mut w) = (got.positive_ids(), oracle.positive_ids());
    g.sort_unstable();
    w.sort_unstable();
    assert_eq!(g, w, "{ctx}: scan_positive");
    assert_ranked_bit_identical(&got.top_k(k), &oracle.top_k(k), ctx);
    for &id in ids {
        assert_eq!(got.read_single(id), oracle.read_single(id), "{ctx}: classify({id})");
    }
    assert_eq!(got.read_single(u64::MAX - 7), None, "{ctx}: ghost id");
}

/// What an oracle answered immediately after some script prefix — what a
/// pinned epoch taken at that LSN must keep answering.
pub struct OracleState {
    /// `count_positive`.
    pub count: u64,
    /// `positive_ids`, ascending.
    pub members: Vec<u64>,
    /// `top_k` at the probed depth.
    pub top_k: Vec<(u64, f64)>,
    /// `read_single` of every probed id (`None` = absent).
    pub labels: HashMap<u64, Option<Label>>,
    /// The model.
    pub model: LinearModel,
}

/// Records `v`'s answers over `ids` with ranked depth `k`.
pub fn probe(v: &mut dyn ClassifierView, ids: &[u64], k: usize) -> OracleState {
    let mut members = v.positive_ids();
    members.sort_unstable();
    OracleState {
        count: v.count_positive(),
        members,
        top_k: v.top_k(k),
        labels: ids.iter().map(|&id| (id, v.read_single(id))).collect(),
        model: v.model().clone(),
    }
}

/// A plain view advanced incrementally to "the first `n` ops", so a walk
/// over every crash boundary replays the script once, not once per
/// boundary. Keep two when exact [`ViewStats`] are compared: differential
/// reads served by an oracle move its counters, so one stays clean and the
/// other takes the probes.
pub struct PrefixOracle<'a> {
    ops: &'a [Op],
    applied: usize,
    /// The view, having executed exactly `ops[..applied()]`.
    pub view: Box<dyn ClassifierView>,
}

impl<'a> PrefixOracle<'a> {
    /// An oracle over freshly built `view`, with nothing applied yet.
    pub fn new(ops: &'a [Op], view: Box<dyn ClassifierView>) -> PrefixOracle<'a> {
        PrefixOracle { ops, applied: 0, view }
    }

    /// Applies `ops[applied()..n]`.
    ///
    /// # Panics
    /// When `n` is behind the oracle (it cannot rewind) or past the script.
    pub fn advance_to(&mut self, n: usize) {
        assert!(self.applied <= n, "prefix oracle cannot rewind from {} to {n}", self.applied);
        for op in &self.ops[self.applied..n] {
            apply(self.view.as_mut(), op);
        }
        self.applied = n;
    }

    /// How many ops the view has executed.
    pub fn applied(&self) -> usize {
        self.applied
    }
}
