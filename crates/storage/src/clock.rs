//! The deterministic virtual clock and its cost model.
//!
//! All performance numbers in the bench harness are ratios of work done to
//! *virtual* time elapsed. The Skiing strategy also consumes virtual costs:
//! the paper measures `c(i)` (the incremental-step cost) and `S` (the
//! reorganization cost) in wall-clock seconds; we measure them in virtual
//! nanoseconds so that runs are reproducible bit-for-bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Latency parameters, in nanoseconds, charged by the storage layer.
///
/// Defaults are calibrated to the paper's testbed (Core2 @ 2.4 GHz, SATA
/// disks): ~8 ms per random page access, ~100 µs per sequential 8 KiB page
/// (≈80 MB/s streaming), sub-microsecond buffer hits.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Sequential page read (the next physical page after the previous
    /// access).
    pub seq_read_ns: u64,
    /// Random page read (seek + rotational latency + transfer).
    pub rand_read_ns: u64,
    /// Sequential page write.
    pub seq_write_ns: u64,
    /// Random page write.
    pub rand_write_ns: u64,
    /// Buffer-pool hit (latch + memcpy-free access).
    pub pool_hit_ns: u64,
    /// One generic CPU operation (per nonzero of a dot product, per
    /// comparison of a sort, ...). Charged explicitly by the engine.
    pub cpu_op_ns: u64,
}

impl CostModel {
    /// The default simulation target: a 2008-era server with SATA disks.
    pub fn sata_2008() -> CostModel {
        CostModel {
            seq_read_ns: 100_000,
            rand_read_ns: 8_000_000,
            seq_write_ns: 100_000,
            rand_write_ns: 8_000_000,
            pool_hit_ns: 250,
            cpu_op_ns: 20,
        }
    }

    /// A zero-cost model: virtual time never advances. Useful in unit tests
    /// that only care about functional behaviour.
    pub fn free() -> CostModel {
        CostModel {
            seq_read_ns: 0,
            rand_read_ns: 0,
            seq_write_ns: 0,
            rand_write_ns: 0,
            pool_hit_ns: 0,
            cpu_op_ns: 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sata_2008()
    }
}

/// Monotone counters of physical accesses, shared across components.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Sequential page reads that went to the (simulated) platter.
    pub seq_reads: AtomicU64,
    /// Random page reads that went to the platter.
    pub rand_reads: AtomicU64,
    /// Sequential page writes.
    pub seq_writes: AtomicU64,
    /// Random page writes.
    pub rand_writes: AtomicU64,
    /// Buffer-pool hits (no disk access).
    pub pool_hits: AtomicU64,
    /// Buffer-pool misses (disk access charged separately).
    pub pool_misses: AtomicU64,
}

impl IoStats {
    /// Total platter reads (any locality).
    pub fn reads(&self) -> u64 {
        self.seq_reads.load(Ordering::Relaxed) + self.rand_reads.load(Ordering::Relaxed)
    }

    /// Total platter writes (any locality).
    pub fn writes(&self) -> u64 {
        self.seq_writes.load(Ordering::Relaxed) + self.rand_writes.load(Ordering::Relaxed)
    }

    /// Snapshot as `(seq_r, rand_r, seq_w, rand_w, hits, misses)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.seq_reads.load(Ordering::Relaxed),
            self.rand_reads.load(Ordering::Relaxed),
            self.seq_writes.load(Ordering::Relaxed),
            self.rand_writes.load(Ordering::Relaxed),
            self.pool_hits.load(Ordering::Relaxed),
            self.pool_misses.load(Ordering::Relaxed),
        )
    }
}

/// CPU operations a comparison-sort of `n` elements is charged: `n log2 n`,
/// nothing below two elements.
pub fn sort_ops(n: u64) -> u64 {
    if n > 1 {
        n * (64 - n.leading_zeros() as u64)
    } else {
        0
    }
}

/// A shared, monotone, deterministic clock measured in virtual nanoseconds.
#[derive(Clone, Debug)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
    model: CostModel,
}

impl VirtualClock {
    /// Fresh clock at t = 0 under `model`.
    pub fn new(model: CostModel) -> VirtualClock {
        VirtualClock { ns: Arc::new(AtomicU64::new(0)), model }
    }

    /// The cost model this clock charges by.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by raw nanoseconds.
    pub fn charge_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Charges `n` generic CPU operations.
    pub fn charge_cpu_ops(&self, n: u64) {
        self.charge_ns(n * self.model.cpu_op_ns);
    }

    /// Charges a comparison-sort of `n` elements (`n log2 n` CPU ops). This
    /// is what makes reorganization asymptotically dearer than a scan, the
    /// σ → 0 limit behind Theorem 3.3.
    pub fn charge_sort(&self, n: u64) {
        self.charge_cpu_ops(sort_ops(n));
    }

    /// Charges a linear merge of `n` elements (one comparison + one move
    /// each). The incremental reorganization folds a sorted tail of `t`
    /// entries into the ε-sorted run for `charge_sort(t)` +
    /// `charge_merge(n)` — proportional to the delta plus one pass, instead
    /// of [`charge_sort`](VirtualClock::charge_sort)`(n)`'s full `n log n`.
    pub fn charge_merge(&self, n: u64) {
        self.charge_cpu_ops(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_and_is_shared() {
        let c = VirtualClock::new(CostModel::sata_2008());
        let c2 = c.clone();
        c.charge_ns(100);
        c2.charge_ns(50);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c2.now_ns(), 150);
    }

    #[test]
    fn cpu_ops_use_model_rate() {
        let c = VirtualClock::new(CostModel::sata_2008());
        c.charge_cpu_ops(10);
        assert_eq!(c.now_ns(), 10 * CostModel::sata_2008().cpu_op_ns);
    }

    #[test]
    fn sort_charge_is_superlinear() {
        let m = CostModel::sata_2008();
        let a = VirtualClock::new(m);
        let b = VirtualClock::new(m);
        a.charge_sort(1 << 10);
        b.charge_sort(1 << 20);
        // doubling the exponent should more than double the cost ratio vs
        // linear scaling
        assert!(b.now_ns() > 1024 * a.now_ns() * 3 / 2);
    }

    #[test]
    fn free_model_never_advances() {
        let c = VirtualClock::new(CostModel::free());
        c.charge_cpu_ops(1_000_000);
        c.charge_sort(1_000_000);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn now_secs_converts() {
        let c = VirtualClock::new(CostModel::free());
        c.charge_ns(2_500_000_000);
        assert!((c.now_secs() - 2.5).abs() < 1e-12);
    }
}
