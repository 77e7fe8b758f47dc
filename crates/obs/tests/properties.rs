//! Property tests for the observability primitives.
//!
//! Two laws are pinned here because the rest of the workspace leans on
//! them: histogram snapshots must merge like a commutative monoid with
//! percentiles that stay honest (shard-local histograms are combined in
//! arbitrary order before `SHOW METRICS` reports p99), and the event
//! ring must account for every emitted event exactly once even while
//! concurrent writers displace each other under pressure.

use hazy_obs::{bucket_index, EventKind, EventRing, Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn merged(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
    let mut acc = HistogramSnapshot::empty();
    for p in parts {
        acc.merge(p);
    }
    acc
}

proptest! {
    /// Merge is commutative and associative, with `empty()` as identity —
    /// per-shard histograms can be folded in any order.
    #[test]
    fn histogram_merge_is_a_commutative_monoid(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
        c in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(merged(&[sa.clone(), sb.clone()]), merged(&[sb.clone(), sa.clone()]));
        let left = merged(&[merged(&[sa.clone(), sb.clone()]), sc.clone()]);
        let right = merged(&[sa.clone(), merged(&[sb, sc])]);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(merged(&[HistogramSnapshot::empty(), sa.clone()]), sa);
        prop_assert_eq!(left.count, (a.len() + b.len() + c.len()) as u64);
    }

    /// Percentiles recovered from a merge of shard-local snapshots land
    /// within one bucket of the exact sorted oracle over the union.
    #[test]
    fn merged_percentiles_stay_within_one_bucket_of_oracle(
        a in proptest::collection::vec(0u64..1_000_000_000, 1..60),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..60),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..60),
    ) {
        let snap = merged(&[snapshot_of(&a), snapshot_of(&b), snapshot_of(&c)]);
        let mut all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let oracle = all[rank - 1];
            let got = snap.quantile(q);
            let (bi, bo) = (bucket_index(got), bucket_index(oracle));
            prop_assert!(
                bi.abs_diff(bo) <= 1,
                "q={} recovered {} (bucket {}) vs oracle {} (bucket {})",
                q, got, bi, oracle, bo
            );
        }
    }

    /// Single-threaded loss accounting under arbitrary emit/pop
    /// interleavings and ring sizes: every emitted event is read,
    /// dropped, or still buffered — never double-counted, never lost.
    #[test]
    fn ring_accounts_for_every_event(
        cap in 2usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let ring = EventRing::new(cap);
        let mut emits = 0u64;
        for op in ops {
            if op {
                ring.emit(EventKind::FlowIngest, emits, 0, 0);
                emits += 1;
            } else {
                let _ = ring.pop();
            }
        }
        // the final drain folds everything still buffered into `read`,
        // so afterwards the ledger must close exactly
        let buffered = ring.drain(usize::MAX).len() as u64;
        prop_assert!(buffered <= cap as u64, "ring stayed bounded");
        prop_assert_eq!(ring.emitted(), emits);
        prop_assert_eq!(ring.read_count() + ring.dropped(), emits);
    }
}

/// The concurrent version of the ledger: writers racing a consumer, with
/// a ring small enough that displacement happens constantly. The consumer
/// sees sequence numbers strictly increasing, and after the dust settles,
/// `emitted == read + dropped` exactly.
#[test]
fn ring_loss_accounting_under_concurrent_writers() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 10_000;
    let ring = std::sync::Arc::new(EventRing::new(64));

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let consumer = {
        let ring = std::sync::Arc::clone(&ring);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = None;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match ring.pop() {
                    Some(ev) => {
                        assert!(last < Some(ev.seq), "seq {} popped after {last:?}", ev.seq);
                        last = Some(ev.seq);
                    }
                    None => std::thread::yield_now(),
                }
            }
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.emit(EventKind::FrontShed, w as u64, i, 0);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    consumer.join().expect("consumer");

    // no writers left: drain the remainder, then the ledger must close
    let leftover = ring.drain(usize::MAX).len() as u64;
    assert!(leftover <= 64, "bounded ring held {leftover}");
    assert_eq!(ring.emitted(), WRITERS as u64 * PER_WRITER);
    assert_eq!(
        ring.read_count() + ring.dropped(),
        ring.emitted(),
        "read {} + dropped {} != emitted {}",
        ring.read_count(),
        ring.dropped(),
        ring.emitted()
    );
}
