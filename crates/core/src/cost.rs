//! CPU cost accounting shared by every architecture.
//!
//! The simulated disk charges page I/O; this module charges the *CPU* side —
//! classifying a tuple costs one model dot product (O(nnz)), and every
//! operation against the view pays a fixed per-statement overhead standing in
//! for what PostgreSQL charged the paper: statement parse/plan, trigger
//! dispatch, and the socket IPC between PostgreSQL and the Hazy process
//! (Section 4, "Prototype Details"). The defaults are calibrated so the
//! *naive main-memory* architecture lands near the paper's measured rates
//! (e.g. lazy updates ≈ 1.6k–2.8k/s; single-entity reads ≈ 13k/s), leaving
//! the *relative* gains to come from the algorithms, as in the paper.

use hazy_learn::LinearModel;
use hazy_linalg::Features;
use hazy_storage::VirtualClock;

/// Per-operation fixed overheads (virtual nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct OpOverheads {
    /// One `INSERT` into the examples table: statement + trigger + IPC +
    /// one SGD step's bookkeeping (the paper measures retraining at ~100 µs).
    pub update_ns: u64,
    /// One single-entity read through the fast-path prepared statement.
    pub read_ns: u64,
    /// One All-Members scan statement (setup only; per-tuple costs are
    /// charged separately).
    pub scan_ns: u64,
}

impl OpOverheads {
    /// Defaults calibrated against Section 4's measured PostgreSQL rates.
    pub fn pg_2008() -> OpOverheads {
        OpOverheads { update_ns: 350_000, read_ns: 70_000, scan_ns: 1_000_000 }
    }

    /// Zero overheads (functional tests).
    pub fn free() -> OpOverheads {
        OpOverheads { update_ns: 0, read_ns: 0, scan_ns: 0 }
    }
}

impl Default for OpOverheads {
    fn default() -> Self {
        OpOverheads::pg_2008()
    }
}

/// CPU operations to classify one tuple: one multiply-add per stored
/// component plus a constant for the comparison and dispatch. Generic over
/// the representation — a borrowed page-byte vector costs the same virtual
/// work as an owned one (the zero-copy win is *wall-clock*, not simulated).
pub fn classify_cost<F: Features>(f: &F) -> u64 {
    f.nnz() as u64 + 4
}

/// Charges a batch of per-tuple work to the clock.
pub(crate) fn charge_classify<F: Features>(clock: &VirtualClock, f: &F) {
    clock.charge_cpu_ops(classify_cost(f));
}

/// One charged classification: the margin of `f` under `model`.
pub(crate) fn charged_margin<F: Features>(clock: &VirtualClock, model: &LinearModel, f: &F) -> f64 {
    charge_classify(clock, f);
    model.margin(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_linalg::FeatureVec;
    use hazy_storage::CostModel;

    #[test]
    fn classify_cost_tracks_nnz() {
        let sparse = FeatureVec::sparse(1000, vec![(1, 1.0), (2, 1.0)]);
        let dense = FeatureVec::dense(vec![0.0; 54]);
        assert_eq!(classify_cost(&sparse), 6);
        assert_eq!(classify_cost(&dense), 58);
    }

    #[test]
    fn charge_advances_clock() {
        let clock = VirtualClock::new(CostModel::sata_2008());
        let f = FeatureVec::dense(vec![1.0; 10]);
        charge_classify(&clock, &f);
        assert_eq!(clock.now_ns(), 14 * CostModel::sata_2008().cpu_op_ns);
    }
}
