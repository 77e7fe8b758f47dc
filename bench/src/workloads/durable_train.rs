//! `durable_train`: the write path with durability. `TcpFront` →
//! `Front::serve_engine(DurableView)` over a `DurableStore`: WAL append →
//! sync → maintain → checkpoint, plus the engine-lane read path. One
//! connection at depth 1, so WAL bytes, records, virtual-clock time and
//! reclassified tuples repeat exactly from run to run. Ends with a crash
//! (only stable bytes survive) and a timed recovery.
//!
//! I/O is `SimDisk` under a virtual clock: wall latencies here are the
//! sandbox's CPU cost of the durable path, not a device's.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hazy_core::{CoreRestorer, DurableView};
use hazy_front::{Front, FrontConfig, Request, Response, TcpClient};
use hazy_storage::DurableStore;

use super::{
    counts_json, hash_request, median_setup, put_p50_p99, Deployment, Forest, RunResult, RunSpec,
    CYCLES, OVERRUN,
};
use crate::client::{call_depth1, PhaseCounts};
use crate::json::Value;
use crate::stats::{highest_supported, median, Cut, Samples};
use crate::util::{Rng, StreamHash};

/// Checkpoint every this many logged operations (reads are logged too).
pub const CHECKPOINT_INTERVAL: u64 = 500;
/// `DurableView` appends and syncs one WAL record per operation.
pub const FLUSH_POLICY: &str = "sync-every-record";
/// Operations of the mix per second of `--seconds`.
const OPS_PER_S: f64 = 650.0;
/// One operation of the mix in this many is a `Classify`; the rest are
/// `Train{1}`. Half and half, not ISSUE 11's one in ten: a read p99 that
/// repeats from run to run needs some 8 000 reads, and reads cannot be
/// taken in a stretch of their own — after a read the poll loop is in
/// another phase of its idle sleep than after a write, and a run of reads
/// reads 250–450 µs at the median where reads among writes read 475 µs.
pub const READ_ONE_IN: u64 = 2;

pub struct Durable {
    pub forest: Forest,
    pub dep: Deployment,
    pub store: Arc<Mutex<DurableStore>>,
    pub clock: hazy_storage::VirtualClock,
}

pub fn setup(spec: &RunSpec) -> Durable {
    let forest = Forest::generate(&spec.sizes);
    let clock = forest.builder.new_clock();
    let inner =
        forest
            .builder
            .build_with_clock(forest.entities.clone(), &forest.warm, clock.clone());
    let store = Arc::new(Mutex::new(DurableStore::new(clock.clone())));
    let view = DurableView::create(inner, Arc::clone(&store), CHECKPOINT_INTERVAL);
    let dep = Deployment::over(Front::serve_engine(Box::new(view), FrontConfig::default()));
    Durable {
        forest,
        dep,
        store,
        clock,
    }
}

/// Client think time before each request: a spin of 0–`THINK_MAX_US`. A
/// depth-1 loop that re-sends the instant an answer arrives phase-locks
/// with the poll loop's 200 µs idle sleep, and which phase it locks into
/// differs from run to run (`read_p50_us` 330 or 420 µs, spread 19 %); a
/// think time spread over one sleep period samples every phase instead.
const THINK_MAX_US: u64 = 200;

fn think(rng: &mut Rng) {
    let until = Instant::now() + Duration::from_micros(rng.below(THINK_MAX_US + 1));
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Program-side counts of the durable path; equal across runs of one seed.
pub struct DurableCounts {
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub virtual_ns: u64,
    pub updates: u64,
    pub reclassified: u64,
    pub reorgs: u64,
    pub checkpoint_bytes: u64,
}

impl DurableCounts {
    pub fn json(&self) -> Value {
        Value::obj(vec![
            ("wal_bytes", Value::Num(self.wal_bytes as f64)),
            ("wal_records", Value::Num(self.wal_records as f64)),
            ("virtual_ns", Value::Num(self.virtual_ns as f64)),
            ("updates", Value::Num(self.updates as f64)),
            ("tuples_reclassified", Value::Num(self.reclassified as f64)),
            ("reorgs", Value::Num(self.reorgs as f64)),
            (
                "last_checkpoint_bytes",
                Value::Num(self.checkpoint_bytes as f64),
            ),
        ])
    }
}

pub fn run(spec: &RunSpec) -> RunResult {
    run_with_counts(spec).0
}

pub fn run_with_counts(spec: &RunSpec) -> (RunResult, DurableCounts) {
    let mut r = RunResult::default();
    let (d, setup_s) = median_setup(
        spec.settle,
        || setup(spec),
        |d| {
            d.dep.shutdown();
        },
    );
    r.put("setup_s", setup_s, "s");
    let Durable {
        forest,
        dep,
        store,
        clock,
    } = d;
    let n = forest.n();
    let mut oracle = forest.oracle();
    let mut hash = StreamHash::default();
    let mut scratch = Vec::new();
    let mut client = TcpClient::connect(dep.tcp.local_addr()).expect("connect loopback");

    // --- the mix: depth 1, every answer checked against the oracle in step --
    let stretch_ops = ((OPS_PER_S * spec.seconds) as usize).div_ceil(CYCLES);
    let mut rng = Rng::new(spec.seed, 0x300);
    let mut think_rng = Rng::new(spec.seed, 0x301);
    let mut stream = forest.stream(spec.seed);
    let (mut read_lat, mut write_lat) = (Samples::default(), Samples::default());
    let mut stalls = Vec::new();
    let mut mix = PhaseCounts::default();
    // goodput is taken stretch by stretch: the median stretch's is reported
    let mut rates = Vec::with_capacity(CYCLES);
    let limit = Duration::from_secs_f64(spec.seconds * OVERRUN);
    let start = Instant::now();
    for _ in 0..CYCLES {
        let (stretch_start, ok_before) = (Instant::now(), mix.ok);
        for _ in 0..stretch_ops {
            let req = if rng.below(READ_ONE_IN) == 0 {
                Request::Classify { id: rng.below(n) }
            } else {
                Request::Train {
                    batch: stream.take_vec(1),
                }
            };
            hash_request(&mut hash, &req, &mut scratch);
            if start.elapsed() > limit {
                mix.sent += 1;
                mix.io_failed += 1;
                continue;
            }
            think(&mut think_rng);
            let want = match &req {
                Request::Classify { id } => Response::Label(oracle.read_single(*id)),
                Request::Train { batch } => {
                    oracle.update_batch(batch);
                    Response::Done { applied: 1 }
                }
                _ => unreachable!("the mix holds classify and train only"),
            };
            if let Some(ns) = call_depth1(&mut client, &req, &mut mix, |got| *got == want) {
                if matches!(req, Request::Classify { .. }) {
                    &mut read_lat
                } else {
                    &mut write_lat
                }
                .push(ns);
                // every operation is logged, so every `CHECKPOINT_INTERVAL`th
                // one pays for a checkpoint before it is acknowledged
                if mix.sent.is_multiple_of(CHECKPOINT_INTERVAL) {
                    stalls.push(ns as f64 / 1e6);
                }
            }
        }
        rates.push((mix.ok - ok_before) as f64 / stretch_start.elapsed().as_secs_f64());
    }
    let mix_wall = start.elapsed().as_secs_f64();
    r.count(&mix);
    put_p50_p99(&mut r, "read", &read_lat, Cut::CLOSED_LOOP);
    put_p50_p99(&mut r, "write", &write_lat, Cut::CLOSED_LOOP);
    // checkpoint work never shows in the median: it is in the p99.9 (one
    // whole-run percentile, reported only with ten samples beyond it) and,
    // at any run length, in the operations known to have checkpointed
    if highest_supported(write_lat.len()) >= 0.999 {
        r.metrics.push(super::Metric {
            name: "write_p999_us".into(),
            value: write_lat.exact(0.999) as f64 / 1e3,
            unit: "us",
            n: write_lat.len(),
        });
    }
    r.metrics.push(super::Metric {
        name: "checkpoint_stall_ms".into(),
        value: median(&stalls),
        unit: "ms",
        n: stalls.len(),
    });
    let mix_per_s = median(&rates);
    r.put("ops_per_s", mix_per_s, "1/s");
    r.put(
        "write_per_s",
        mix_per_s * write_lat.len() as f64 / mix.ok.max(1) as f64,
        "1/s",
    );

    // --- live positive count, then the crash --------------------------------
    let want = oracle.count_positive();
    let live_count_ok =
        matches!(client.call(&Request::CountPositive), Ok(Response::Count(c)) if c == want);
    r.attempted += 1;
    r.failed += u64::from(!live_count_ok);
    let virtual_ns = clock.now_ns();
    // only synced bytes are in the image: what a power cut leaves behind
    let image = store.lock().expect("durable store lock").image();
    let fs = dep.shutdown();

    let t0 = Instant::now();
    let recovered =
        DurableView::recover_image(&forest.builder, &image, CHECKPOINT_INTERVAL, &CoreRestorer);
    let mut mismatches = 0u64;
    let mut checked = 1u64;
    let mut counts = DurableCounts {
        wal_bytes: image.wal_bytes().len() as u64,
        wal_records: 0,
        virtual_ns,
        updates: 0,
        reclassified: 0,
        reorgs: 0,
        checkpoint_bytes: 0,
    };
    match recovered {
        Err(_) => mismatches += 1,
        Ok(view) => {
            counts.wal_records = view.stable_records();
            counts.checkpoint_bytes = view
                .store()
                .lock()
                .expect("durable store lock")
                .checkpoints
                .latest()
                .map_or(0, |c| c.payload.len() as u64);
            // unwrap the logging shell: the diff below must not write
            let mut engine = view.into_inner();
            let first = engine.read_single(0);
            r.put("recovery_s", t0.elapsed().as_secs_f64(), "s");
            // durable-prefix guarantee: every acknowledged operation was
            // synced, so the recovered view must equal the oracle that
            // shadowed the live one — labels, count and model bits
            mismatches += u64::from(first != oracle.read_single(0));
            for id in 1..n {
                mismatches += u64::from(engine.read_single(id) != oracle.read_single(id));
            }
            mismatches += u64::from(engine.count_positive() != want);
            // `save_state` serializes (w, b) bit-exactly
            let (mut a, mut b) = (Vec::new(), Vec::new());
            engine.model().save_state(&mut a);
            oracle.model().save_state(&mut b);
            mismatches += u64::from(a != b);
            checked += n + 2;
            let stats = engine.stats();
            counts.updates = stats.updates;
            counts.reclassified = stats.tuples_reclassified;
            counts.reorgs = stats.reorgs;
        }
    }
    r.attempted += checked;
    r.failed += mismatches;
    r.oracle_mismatches = mismatches + u64::from(!live_count_ok);

    let mut a = vec![
        ("phase", Value::Str("mix_depth1".into())),
        ("wall_s", Value::Num(mix_wall)),
    ];
    a.extend(counts_json(&mix));
    r.note("corpus", forest.json());
    r.note("stream_hash", Value::Str(hash.hex()));
    r.note("flush_policy", Value::Str(FLUSH_POLICY.into()));
    r.note(
        "checkpoint_interval_ops",
        Value::Num(CHECKPOINT_INTERVAL as f64),
    );
    r.note("phases", Value::Arr(vec![Value::obj(a)]));
    r.note("front_stats", super::front_stats_json(&fs));
    r.note("durable_counts", counts.json());
    (r, counts)
}
