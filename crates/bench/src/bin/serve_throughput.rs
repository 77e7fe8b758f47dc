//! Serving-layer throughput: single-entity reads per wall-clock second at
//! 1/2/4/8 shards under a mixed read/update workload.
//!
//! Unlike the `figXX` bins (deterministic virtual-cost reproductions of the
//! paper), this measures the *real* concurrent serving path of
//! `hazy-serve`: reader threads calling `classify` (with periodic
//! All-Members counts and ranked reads) while a single writer streams
//! training-example batches through the shards. The measurement window is
//! exactly the writer-active period (`duration_floor = 0`): reads/sec is
//! read throughput *under write pressure*. Since PR 8 readers run on the
//! epoch snapshot path and never touch the shard locks, so sharding's read
//! lever is parallel fan-out of counts/ranked reads plus smaller per-shard
//! epoch republication (BENCH_PR8.md records the A/B against the old
//! writer-priority stall regime).
//!
//! Two architectures bracket the write-pressure spectrum: naive-mm eager
//! relabels its whole shard every round (the paper's state-of-the-art
//! baseline — long critical sections, the regime sharding exists for),
//! hazy-mm eager touches only the watermark band (short critical sections,
//! so sharding has little left to relieve — the two levers compose).
//!
//! Wall-clock numbers; run with `--release` and record in BENCH_PR3.md.
//! Pass `--quick` for a fast smoke run (CI).

use std::time::Duration;

use hazy_bench::common;
use hazy_core::{Architecture, Mode, ViewBuilder};
use hazy_datagen::{DatasetSpec, ExampleStream};
use hazy_learn::TrainingExample;
use hazy_serve::{run_mixed_workload, ShardedView, WorkloadSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const READERS: usize = 4;

fn spec_batches(spec: &DatasetSpec, rounds: usize, batch: usize) -> Vec<Vec<TrainingExample>> {
    let mut stream = ExampleStream::new(spec, 0xBEEF);
    (0..rounds).map(|_| stream.take_vec(batch)).collect()
}

fn run_table(spec: &DatasetSpec, arch: Architecture, rounds: usize, warm: &[TrainingExample]) {
    let ds = spec.generate();
    let builder =
        ViewBuilder::new(arch, Mode::Eager).norm_pair(spec.norm_pair()).dim(spec.dim);
    println!(
        "{} (eager), {} entities, {READERS} readers, writer streams {rounds} batches x 2:\n",
        arch.name(),
        ds.len()
    );
    println!(
        "{:>7} | {:>12} | {:>9} | {:>12} | {:>9} | {:>9} | {:>9}",
        "shards", "reads/sec", "reads", "updates/sec", "elapsed", "stalls", "max read"
    );
    println!("{}", "-".repeat(92));
    let mut baseline = 0.0f64;
    for n_shards in SHARD_COUNTS {
        let mut view = ShardedView::build(&builder, n_shards, common::entities_of(&ds), warm);
        let wl = WorkloadSpec {
            readers: READERS,
            max_id: spec.n_entities as u64,
            scan_every: 5000,
            top_k_every: 7500,
            top_k: 10,
            batches: spec_batches(spec, rounds, 2),
            reorganize_every: 0,
            // no floor: the window is exactly the writer-active period
            duration_floor: Duration::ZERO,
        };
        let report = run_mixed_workload(&mut view, &wl);
        if n_shards == SHARD_COUNTS[0] {
            baseline = report.reads_per_sec();
        }
        println!(
            "{:>7} | {:>12.0} | {:>9} | {:>12.0} | {:>7.2}s | {:>9} | {:>7.1}ms   ({:.2}x)",
            n_shards,
            report.reads_per_sec(),
            report.reads,
            report.updates_per_sec(),
            report.elapsed.as_secs_f64(),
            report.stalled_reads,
            report.max_read_latency.as_secs_f64() * 1e3,
            report.reads_per_sec() / baseline.max(1e-9),
        );
    }
    println!();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Forest-shaped corpus, scaled up: dense-54 features over enough
    // entities that one naive eager maintenance round is a critical section
    // in the tens of milliseconds — the long-write-lock regime sharding
    // exists for. The hazy table uses the paper's DBLife scale: its
    // incremental rounds are so short that there is little blocking left
    // for sharding to relieve (the two levers compose).
    let naive_spec =
        DatasetSpec::forest().scaled(if quick { 0.01 } else { 0.60 });
    let hazy_spec = DatasetSpec::dblife().scaled(if quick { 0.02 } else { 0.10 });
    let naive_warm = common::warm_examples(&naive_spec, if quick { 500 } else { common::WARM });
    let hazy_warm = common::warm_examples(&hazy_spec, if quick { 500 } else { common::WARM });
    let (naive_rounds, hazy_rounds) = if quick { (20, 400) } else { (150, 20000) };
    run_table(&naive_spec, Architecture::NaiveMem, naive_rounds, &naive_warm);
    run_table(&hazy_spec, Architecture::HazyMem, hazy_rounds, &hazy_warm);
}
