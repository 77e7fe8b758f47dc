//! A scoped worker pool driving a mixed read/update workload.
//!
//! This is the serving loop the `serve_throughput` bench measures: `R`
//! reader threads hammer [`ShardedView::classify`]
//! (with periodic All-Members counts and ranked reads mixed in) while one
//! writer thread drains a channel of training-example batches — the
//! paper's "training examples stream in" regime — applying each round
//! shard by shard and reorganizing periodically. Threads are `crossbeam`
//! scoped threads; the write stream and the result fan-in are `crossbeam`
//! channels.
//!
//! Reads are open-loop: readers run until the writer has drained its
//! stream *and* a configured duration floor has passed, so a report's
//! `reads_per_sec` is measured under write pressure for the whole window.
//! Readers answer from pinned epochs and are never blocked by the writer
//! (BENCH_PR8.md keeps the A/B against the retired lock-based read path).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hazy_learn::TrainingExample;

use crate::sharded::ShardedView;

/// Configuration for [`run_mixed_workload`].
pub struct WorkloadSpec {
    /// Reader threads to spawn.
    pub readers: usize,
    /// Single-entity reads target ids in `0..max_id` (spread by a per-reader
    /// splitmix stream).
    pub max_id: u64,
    /// Every `scan_every`-th read op is an All-Members count (0 = never).
    pub scan_every: u64,
    /// Every `top_k_every`-th read op is a ranked read (0 = never).
    pub top_k_every: u64,
    /// `k` for the ranked reads.
    pub top_k: usize,
    /// The write stream: batches applied in order by the single writer.
    pub batches: Vec<Vec<TrainingExample>>,
    /// Writer triggers a per-shard reorganization after every
    /// `reorganize_every` batches (0 = never).
    pub reorganize_every: usize,
    /// Readers keep running at least this long even if the writer finishes
    /// early (lets a pure-read workload use an empty write stream).
    pub duration_floor: Duration,
}

/// Base-2 latency histogram: bucket `i` counts observations in
/// `[2^(i−1), 2^i)` nanoseconds. Fixed-size and mergeable, so per-reader
/// recording is allocation-free and the pool can fold thread-local
/// histograms into one report.
#[derive(Clone, Copy, Debug)]
pub struct LatencyHisto {
    buckets: [u64; 64],
}

impl Default for LatencyHisto {
    fn default() -> LatencyHisto {
        LatencyHisto { buckets: [0; 64] }
    }
}

impl LatencyHisto {
    /// Records one observation of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.buckets[(64 - ns.max(1).leading_zeros() as usize).min(63)] += 1;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// An upper bound on the `q`-quantile (the top edge of the bucket the
    /// quantile falls in — conservative by at most 2×, which is all a
    /// stall-vs-no-stall comparison needs). Returns 0 with no data.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        u64::MAX
    }
}

/// What [`run_mixed_workload`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadReport {
    /// Single-entity reads completed.
    pub reads: u64,
    /// All-Members counts completed.
    pub scans: u64,
    /// Ranked reads completed.
    pub ranked: u64,
    /// Update batches the writer applied.
    pub update_rounds: u64,
    /// Individual training examples inside those batches.
    pub updates: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Worst single-entity read latency observed by any reader.
    pub max_read_latency: Duration,
    /// Single-entity reads that stalled longer than 1 ms (readers blocked
    /// behind a maintenance round on their target shard — should be noise
    /// only under snapshot reads).
    pub stalled_reads: u64,
    /// Wall-clock duration of the longest single write round (one batch
    /// applied to every shard, plus its reorganizations if the round
    /// triggered them) — the stall ceiling a lock-based reader can hit.
    pub max_write_round: Duration,
    /// Single-entity reads that completed while the writer was inside a
    /// write round. The discriminating progress metric: a lock-based
    /// reader scheduled mid-round blocks instead of reading (so this
    /// collapses toward zero), while a snapshot reader spends the same
    /// slice answering from its pinned epoch — robust even on a one-core
    /// host, where latency percentiles mostly measure preemption.
    pub reads_during_rounds: u64,
    /// Total wall-clock the writer spent inside write rounds.
    pub time_in_rounds: Duration,
    /// Distribution of single-entity read latencies.
    pub read_latency: LatencyHisto,
}

impl WorkloadReport {
    /// Single-entity reads per wall-clock second.
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Training examples per wall-clock second.
    pub fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Single-entity reads per second *inside write rounds* — reader
    /// progress while maintenance is in flight.
    pub fn reads_per_sec_during_rounds(&self) -> f64 {
        self.reads_during_rounds as f64 / self.time_in_rounds.as_secs_f64().max(1e-9)
    }
}

/// Per-reader deterministic id stream: a counter fed through the crate's
/// one `splitmix64` mixer.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(1);
    crate::sharded::splitmix64(*x)
}

/// Feeds the write stream into the writer's channel, stopping at a
/// disconnect: a receiver that is already gone (shutdown orderings in
/// embedding code can tear the consuming side down first) means nobody
/// will apply the rest of the stream — which must end the feed, not panic
/// the feeding thread and take the pool down with it. Returns how many
/// batches were actually handed over.
fn feed_batches<'a>(
    tx: &crossbeam::channel::Sender<&'a [TrainingExample]>,
    batches: &'a [Vec<TrainingExample>],
) -> usize {
    for (fed, b) in batches.iter().enumerate() {
        if tx.send(b).is_err() {
            return fed;
        }
    }
    batches.len()
}

/// What each reader thread hands back at the end of the run.
struct ReaderTally {
    reads: u64,
    scans: u64,
    ranked: u64,
    max_lat_ns: u64,
    stalled: u64,
    in_round: u64,
    histo: LatencyHisto,
}

/// Runs the mixed workload against `view` and reports throughput. Blocks
/// until every thread has drained; the view is quiescent afterwards (its
/// trait-side `model()` cache included — the `&mut` borrow exists so it can
/// be resynced after the `&self`-world writer ran), so callers can compare
/// its answers against a reference.
pub fn run_mixed_workload(view: &mut ShardedView, spec: &WorkloadSpec) -> WorkloadReport {
    let stop = AtomicBool::new(false);
    let writer_in_round = AtomicBool::new(false);
    let (batch_tx, batch_rx) = crossbeam::channel::unbounded::<&[TrainingExample]>();
    feed_batches(&batch_tx, &spec.batches);
    drop(batch_tx);
    let (count_tx, count_rx) = crossbeam::channel::unbounded::<ReaderTally>();
    let t0 = Instant::now();
    let mut report = WorkloadReport::default();
    let shared: &ShardedView = view;
    crossbeam::scope(|s| {
        // the single writer: drain the stream, then hold the floor
        let writer_rounds = s.spawn(|_| {
            let mut rounds = 0u64;
            let mut examples = 0u64;
            let mut max_round = Duration::ZERO;
            let mut in_rounds = Duration::ZERO;
            while let Ok(batch) = batch_rx.recv() {
                let t = Instant::now();
                writer_in_round.store(true, Ordering::Release);
                shared.broadcast_update_batch(batch);
                rounds += 1;
                examples += batch.len() as u64;
                if spec.reorganize_every != 0 && rounds.is_multiple_of(spec.reorganize_every as u64) {
                    shared.broadcast_reorganize();
                }
                writer_in_round.store(false, Ordering::Release);
                let round = t.elapsed();
                max_round = max_round.max(round);
                in_rounds += round;
            }
            while t0.elapsed() < spec.duration_floor {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Release);
            (rounds, examples, max_round, in_rounds)
        });
        for r in 0..spec.readers {
            let tx = count_tx.clone();
            let (stop, writer_in_round) = (&stop, &writer_in_round);
            s.spawn(move |_| {
                let mut seed = 0x5EED ^ (r as u64) << 32;
                let (mut reads, mut scans, mut ranked) = (0u64, 0u64, 0u64);
                let (mut max_lat_ns, mut stalled, mut in_round) = (0u64, 0u64, 0u64);
                let mut histo = LatencyHisto::default();
                let mut op = 0u64;
                while !stop.load(Ordering::Acquire) {
                    op += 1;
                    if spec.top_k_every != 0 && op.is_multiple_of(spec.top_k_every) {
                        let _ = shared.top_k(spec.top_k);
                        ranked += 1;
                    } else if spec.scan_every != 0 && op.is_multiple_of(spec.scan_every) {
                        let _ = shared.count_positive();
                        scans += 1;
                    } else {
                        let id = splitmix(&mut seed) % spec.max_id.max(1);
                        let t = Instant::now();
                        let _ = shared.classify(id);
                        let lat = t.elapsed().as_nanos() as u64;
                        max_lat_ns = max_lat_ns.max(lat);
                        histo.record(lat);
                        stalled += u64::from(lat > 1_000_000);
                        in_round += u64::from(writer_in_round.load(Ordering::Acquire));
                        reads += 1;
                    }
                }
                // the collector drains after the writer joins; if it is
                // already gone (scope unwinding on another failure) the
                // tally is simply lost — a reader must not add a second
                // panic on top
                let _ = tx.send(ReaderTally {
                    reads,
                    scans,
                    ranked,
                    max_lat_ns,
                    stalled,
                    in_round,
                    histo,
                });
            });
        }
        drop(count_tx);
        let (rounds, examples, max_round, in_rounds) =
            writer_rounds.join().expect("writer thread panicked");
        report.update_rounds = rounds;
        report.updates = examples;
        report.max_write_round = max_round;
        report.time_in_rounds = in_rounds;
        for tally in count_rx.iter() {
            report.reads += tally.reads;
            report.scans += tally.scans;
            report.ranked += tally.ranked;
            report.max_read_latency =
                report.max_read_latency.max(Duration::from_nanos(tally.max_lat_ns));
            report.stalled_reads += tally.stalled;
            report.reads_during_rounds += tally.in_round;
            report.read_latency.merge(&tally.histo);
        }
    })
    .expect("workload thread panicked");
    report.elapsed = t0.elapsed();
    view.refresh_model_cache();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazy_core::{Architecture, Entity, Mode, ViewBuilder};
    use hazy_learn::TrainingExample;

    fn dense2(x0: f32, x1: f32) -> hazy_linalg::FeatureVec {
        hazy_linalg::FeatureVec::dense(vec![x0, x1])
    }

    /// Regression: the feed used to `.expect("receiver alive")` — a
    /// consumer that shut down first (dropped its receiver) panicked the
    /// feeding thread and took the whole pool down. Disconnect now simply
    /// ends the stream.
    #[test]
    fn early_consumer_shutdown_ends_the_feed_instead_of_panicking() {
        let batches: Vec<Vec<TrainingExample>> =
            (0..4).map(|_| vec![TrainingExample::new(0, dense2(0.1, -0.1), 1)]).collect();

        // normal order: everything is handed over
        let (tx, rx) = crossbeam::channel::unbounded::<&[TrainingExample]>();
        assert_eq!(feed_batches(&tx, &batches), 4);
        drop(tx);
        assert_eq!(rx.iter().count(), 4);

        // shutdown order inverted: receiver gone before the feed runs
        let (tx, rx) = crossbeam::channel::unbounded::<&[TrainingExample]>();
        drop(rx);
        assert_eq!(feed_batches(&tx, &batches), 0, "disconnect must end the feed");
    }

    #[test]
    fn mixed_workload_reads_and_writes_complete() {
        let entities: Vec<Entity> = (0..200)
            .map(|k| Entity::new(k, dense2((k % 7) as f32 / 7.0 - 0.4, (k % 5) as f32 / 5.0 - 0.3)))
            .collect();
        let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
        let mut view = ShardedView::build(&builder, 4, entities, &[]);
        let batches: Vec<Vec<TrainingExample>> = (0..8)
            .map(|b| {
                (0..5)
                    .map(|k| {
                        let x = ((b * 5 + k) % 11) as f32 / 11.0 - 0.5;
                        TrainingExample::new(0, dense2(x, -x), if x >= 0.0 { 1 } else { -1 })
                    })
                    .collect()
            })
            .collect();
        let spec = WorkloadSpec {
            readers: 3,
            max_id: 200,
            scan_every: 50,
            top_k_every: 75,
            top_k: 5,
            batches,
            reorganize_every: 4,
            duration_floor: Duration::from_millis(50),
        };
        let report = run_mixed_workload(&mut view, &spec);
        assert_eq!(report.update_rounds, 8);
        assert_eq!(report.updates, 40);
        assert!(report.reads > 0, "no reads completed: {report:?}");
        assert!(report.reads_per_sec() > 0.0);
        // quiescent afterwards: answers match a single-threaded probe
        assert_eq!(view.count_positive(), view.scan_positive().len() as u64);
    }

    /// The PR 8 satellite: readers must make progress *during* a long
    /// reorganization, not just achieve throughput around it. A
    /// single-shard view (the worst case — a read path that shared the
    /// shard lock would contend with every maintenance round) takes
    /// heavyweight write rounds; the snapshot path must keep the worst
    /// observed read far below the longest write round, i.e. no reader
    /// ever waited out maintenance. A reader that did wait would show a
    /// latency approaching `max_write_round` (the retired lock-based
    /// path's behaviour, measured in BENCH_PR8.md).
    #[test]
    fn snapshot_reads_bound_latency_during_reorganization() {
        let n = 60_000u64;
        let entities: Vec<Entity> = (0..n)
            .map(|k| {
                Entity::new(k, dense2((k % 101) as f32 / 101.0 - 0.5, (k % 53) as f32 / 53.0 - 0.4))
            })
            .collect();
        // naive eager on one shard: every update round relabels the whole
        // population — deliberately the longest critical section we have
        let builder = ViewBuilder::new(Architecture::NaiveMem, Mode::Eager).dim(2);
        let mut view = ShardedView::build(&builder, 1, entities, &[]);
        let batches: Vec<Vec<TrainingExample>> = (0..10)
            .map(|b| {
                (0..3)
                    .map(|k| {
                        let x = ((b * 3 + k) % 17) as f32 / 17.0 - 0.5;
                        TrainingExample::new(0, dense2(x, x * 0.5), if x >= 0.0 { 1 } else { -1 })
                    })
                    .collect()
            })
            .collect();
        let spec = WorkloadSpec {
            readers: 2,
            max_id: n,
            scan_every: 0,
            top_k_every: 0,
            top_k: 0,
            batches,
            reorganize_every: 1,
            duration_floor: Duration::ZERO,
        };
        let report = run_mixed_workload(&mut view, &spec);
        assert_eq!(report.update_rounds, 10);
        assert!(report.reads > 0, "no reads completed: {report:?}");
        // The load-bearing assertion. Write rounds here are big (full
        // relabel + reorganization of 60k entities, plus epoch
        // republication); a reader that waited for one would show a read
        // latency near max_write_round. Snapshot reads are a pinned-epoch
        // probe — orders of magnitude below the round — so even with
        // scheduler noise the worst read stays under half a round.
        assert!(
            report.max_write_round > Duration::from_millis(2),
            "write rounds too small to prove anything: {:?}",
            report.max_write_round
        );
        assert!(
            report.max_read_latency < report.max_write_round / 2,
            "a reader stalled behind maintenance: max read {:?} vs max write round {:?}",
            report.max_read_latency,
            report.max_write_round
        );
        // p99 must be far tighter still: sub-millisecond even on a noisy
        // host — the stall *population* (not just the worst case) is gone
        assert!(
            report.read_latency.percentile_ns(0.99) < 1_000_000,
            "p99 read latency {}ns under write pressure",
            report.read_latency.percentile_ns(0.99)
        );
    }
}
