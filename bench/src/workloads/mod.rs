//! The four workloads and what they share: the forest corpus, the TCP
//! deployment, the from-scratch oracle, and the result record.

pub mod durable_train;
pub mod sql_mixed;
pub mod tcp_classify;
pub mod tcp_mixed;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hazy_core::{Architecture, DurableClassifierView, Entity, Mode, ViewBuilder};
use hazy_datagen::{DatasetSpec, ExampleStream};
use hazy_front::{Front, FrontConfig, FrontStats, Request, Response, TcpFront};
use hazy_learn::{Label, TrainingExample};
use hazy_serve::ShardedView;

use crate::client::{pipelined, Conn, PhaseCounts};
use crate::json::Value;
use crate::stats::{Cut, Estimate, Samples};
use crate::util::{sub_seed, StreamHash};

pub const NAMES: [&str; 4] = ["tcp_classify", "tcp_mixed", "durable_train", "sql_mixed"];

/// The corpora and warm-up streams are one fixed data set (this seed), as
/// the paper's are; `--seed` drives the traffic over it — ids, arrival
/// gaps, statement order, example streams, arriving entities. A new corpus
/// per seed would put the corpus-to-corpus differences in maintenance cost
/// (band population under another model) into every run-to-run spread.
pub const DATA_SEED: u64 = 0x4841_5A59;

/// Shards behind `Front::serve_sharded` on the TCP workloads.
pub const SHARDS: usize = 2;
/// Rounds a workload with several kinds of stretch (rungs, saturation)
/// repeats them in, so that each kind samples the whole run.
pub const CYCLES: usize = 10;
/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;
/// A closed-loop phase sized for `t` seconds is abandoned after this many
/// times `t` (the rest counts as failed), so a pathological build cannot
/// run into the driver's per-run limit.
pub const OVERRUN: f64 = 6.0;

/// Input sizes. `full` is what BENCHMARK.json measures; `quick` is the
/// smoke size (same code paths, every oracle on, numbers meaningless).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `DatasetSpec::forest().scaled(..)`.
    pub forest_scale: f64,
    pub warm_examples: usize,
    pub docs: usize,
    pub vocab: usize,
    pub warm_feedback: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        forest_scale: 0.05,
        warm_examples: 6_000,
        docs: 5_000,
        vocab: 3_000,
        warm_feedback: 3000,
    };
    pub const QUICK: Sizes = Sizes {
        forest_scale: 0.004,
        warm_examples: 500,
        docs: 1_500,
        vocab: 1_000,
        warm_feedback: 100,
    };

    pub fn json(&self) -> Value {
        Value::obj(vec![
            ("forest_scale", Value::Num(self.forest_scale)),
            ("warm_examples", Value::Num(self.warm_examples as f64)),
            ("docs", Value::Num(self.docs as f64)),
            ("vocab", Value::Num(self.vocab as f64)),
            ("warm_feedback", Value::Num(self.warm_feedback as f64)),
        ])
    }
}

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub seed: u64,
    /// The measuring budget; every phase length and operation count is a
    /// fixed multiple of it, so counts are equal on any two commits.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Idle pause between the last set-up and the first timed request.
    pub settle: Duration,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and rates).
    pub n: usize,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches found after the measured phases (also in `failed`).
    pub oracle_mismatches: u64,
    /// An open-loop phase whose generator ran more than 1 ms late at p99:
    /// its latencies describe the generator, not the system.
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sizes, stream hash, per-phase counts, program-side counts.
    pub info: Vec<(String, Value)>,
}

impl RunResult {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n: 0,
        });
    }

    pub fn put_timing(&mut self, name: &str, e: Estimate, unit: &'static str) {
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value: e.ns / scale,
            unit,
            n: e.n,
        });
    }

    pub fn note(&mut self, key: &str, v: Value) {
        self.info.push((key.into(), v));
    }

    pub fn count(&mut self, c: &PhaseCounts) {
        self.attempted += c.sent;
        self.failed += c.failed();
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// p50 and p99 of a series, cut into segments as `cut` says.
pub fn put_p50_p99(r: &mut RunResult, prefix: &str, s: &Samples, cut: Cut) {
    r.put_timing(&format!("{prefix}_p50_us"), s.estimate(0.5, cut), "us");
    r.put_timing(&format!("{prefix}_p99_us"), s.estimate(0.99, cut), "us");
}

pub fn counts_json(c: &PhaseCounts) -> Vec<(&'static str, Value)> {
    vec![
        ("sent", Value::Num(c.sent as f64)),
        ("ok", Value::Num(c.ok as f64)),
        ("shed", Value::Num(c.shed as f64)),
        ("error", Value::Num(c.error as f64)),
        ("wrong", Value::Num(c.wrong as f64)),
        ("io_failed", Value::Num(c.io_failed as f64)),
    ]
}

/// The forest corpus of the first three workloads: entities, a warm-up
/// stream and the builder that fits them.
pub struct Forest {
    pub spec: DatasetSpec,
    pub entities: Vec<Entity>,
    pub warm: Vec<TrainingExample>,
    pub builder: ViewBuilder,
}

impl Forest {
    pub fn generate(sizes: &Sizes) -> Forest {
        let seed = DATA_SEED;
        let mut spec = DatasetSpec::forest().scaled(sizes.forest_scale);
        spec.seed = sub_seed(seed, 0xC0);
        let ds = spec.generate();
        let entities = ds
            .entities
            .iter()
            .map(|e| Entity::new(e.id, e.f.clone()))
            .collect();
        let warm = ExampleStream::new(&spec, sub_seed(seed, 0xC1)).take_vec(sizes.warm_examples);
        let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
            .norm_pair(spec.norm_pair())
            .dim(spec.dim);
        Forest {
            spec,
            entities,
            warm,
            builder,
        }
    }

    /// The measured example stream for `--seed` (disjoint from the warm-up
    /// stream).
    pub fn stream(&self, seed: u64) -> ExampleStream {
        ExampleStream::new(&self.spec, sub_seed(seed, 0xC2))
    }

    pub fn n(&self) -> u64 {
        self.entities.len() as u64
    }

    /// The from-scratch oracle: an unsharded lazy `NaiveMem` view, which
    /// keeps no materialized labels at all — every read classifies the
    /// entity under the current model — so it shares no maintenance logic
    /// with the system under test.
    pub fn oracle(&self) -> Box<dyn DurableClassifierView + Send> {
        ViewBuilder::new(Architecture::NaiveMem, Mode::Lazy)
            .norm_pair(self.spec.norm_pair())
            .dim(self.spec.dim)
            .build(self.entities.clone(), &self.warm)
    }

    pub fn json(&self) -> Value {
        Value::obj(vec![
            ("dataset", Value::Str(self.spec.name.clone())),
            ("entities", Value::Num(self.entities.len() as f64)),
            ("dim", Value::Num(self.spec.dim as f64)),
            ("dense", Value::Bool(self.spec.dense)),
            ("warm_examples", Value::Num(self.warm.len() as f64)),
        ])
    }
}

/// `TcpFront` → `Front` over some engine, all in this process on loopback.
pub struct Deployment {
    pub front: Front,
    pub tcp: TcpFront,
}

impl Deployment {
    /// `Front::serve_sharded` over a fresh `SHARDS`-shard HazyMem view.
    pub fn sharded(forest: &Forest) -> Deployment {
        let view = ShardedView::build(
            &forest.builder,
            SHARDS,
            forest.entities.clone(),
            &forest.warm,
        );
        Deployment::over(Front::serve_sharded(view, FrontConfig::default()))
    }

    pub fn over(front: Front) -> Deployment {
        let tcp = TcpFront::bind("127.0.0.1:0", front.handle()).expect("bind loopback");
        Deployment { front, tcp }
    }

    pub fn connect(&self) -> Conn {
        Conn::connect(self.tcp.local_addr()).expect("connect loopback")
    }

    pub fn shutdown(self) -> FrontStats {
        self.tcp.shutdown();
        self.front.shutdown()
    }
}

/// Runs `setup` [`SETUPS`] times, keeps the last product, idles for `settle`
/// (the set-ups are a CPU burst) and returns the product with the median
/// set-up time. Earlier products are torn down (untimed) before the next
/// set-up so peak memory is one deployment's.
pub fn median_setup<T>(
    settle: Duration,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    std::thread::sleep(settle);
    (kept.expect("SETUPS > 0"), crate::stats::median(&times))
}

/// Set-up of the two sharded TCP workloads: the corpus and a fresh
/// deployment over it, with the median set-up time.
pub fn sharded_setup(spec: &RunSpec) -> ((Forest, Deployment), f64) {
    median_setup(
        spec.settle,
        || {
            let forest = Forest::generate(&spec.sizes);
            let dep = Deployment::sharded(&forest);
            (forest, dep)
        },
        |(_, dep)| {
            dep.shutdown();
        },
    )
}

/// Reads every id's label and the positive count from the live deployment
/// (pipelined over a fresh connection) and diffs them against the oracle.
/// Returns (answers checked, mismatches).
pub fn diff_against_oracle(
    dep: &Deployment,
    oracle: &mut (dyn DurableClassifierView + Send),
    ids: &[u64],
) -> (u64, u64) {
    let mut conn = dep.connect();
    let expected: Vec<Option<Label>> = ids.iter().map(|&id| oracle.read_single(id)).collect();
    let out = pipelined(
        &mut conn,
        ids.len(),
        256,
        |i| Request::Classify { id: ids[i] },
        |i, r| *r == Response::Label(expected[i]),
        Duration::from_secs(60),
    );
    let mut mismatches = out.counts.failed();
    let want = oracle.count_positive();
    let count = pipelined(
        &mut conn,
        1,
        1,
        |_| Request::CountPositive,
        |_, r| *r == Response::Count(want),
        Duration::from_secs(60),
    );
    mismatches += count.counts.failed();
    (ids.len() as u64 + 1, mismatches)
}

/// Hashes a request into the stream hash by its wire encoding.
pub fn hash_request(h: &mut StreamHash, req: &Request, scratch: &mut Vec<u8>) {
    scratch.clear();
    hazy_front::proto::encode_request(req, scratch);
    h.bytes(scratch);
}

/// Per-kind tallies kept by closed-loop writers.
#[derive(Debug, Default)]
pub struct WriterLog {
    pub counts: PhaseCounts,
    pub latency: BTreeMap<&'static str, Samples>,
    pub wall_s: f64,
}

impl WriterLog {
    pub fn record(&mut self, kind: &'static str, ns: u64) {
        self.latency.entry(kind).or_default().push(ns);
    }
}

pub fn front_stats_json(s: &FrontStats) -> Value {
    let mean = |reqs: u64, batches: u64| {
        if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        }
    };
    Value::obj(vec![
        ("admitted", Value::Num(s.admitted as f64)),
        ("shed", Value::Num(s.shed as f64)),
        ("errors", Value::Num(s.errors as f64)),
        ("panics_recovered", Value::Num(s.panics_recovered as f64)),
        (
            "mean_read_batch",
            Value::Num(mean(s.batched_reads, s.read_batches)),
        ),
        ("max_read_batch", Value::Num(s.max_read_batch as f64)),
        (
            "mean_write_batch",
            Value::Num(mean(s.batched_writes, s.write_batches)),
        ),
        (
            "read_queue_high_water",
            Value::Num(s.read_queue_high_water as f64),
        ),
        (
            "write_queue_high_water",
            Value::Num(s.write_queue_high_water as f64),
        ),
    ])
}
