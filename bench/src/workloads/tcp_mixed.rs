//! `tcp_mixed`: writes beside reads on the `tcp_classify` deployment.
//! Connection A runs open loop (point reads plus a few full-scan ranked
//! reads); connection B is one closed-loop writer at depth 1. Shows whether
//! a read-side gain costs the write lane (or the reverse), head-of-line
//! blocking of point reads behind `TopK`, epoch publish/reclaim under live
//! pins — and is where `linalg`/`learn` kernel and band-maintenance work
//! reaches a number a user sees.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hazy_core::Entity;
use hazy_front::{Request, Response, TcpClient};

use super::{
    counts_json, diff_against_oracle, hash_request, put_p50_p99, sharded_setup, Forest, RunResult,
    RunSpec, WriterLog,
};
use crate::client::{call_depth1, open_loop, Scheduled};
use crate::json::Value;
use crate::stats::Cut;
use crate::util::{allowed_cpus, pin, poisson_schedule, threads_named, Rng, StreamHash};

/// Connection A's offered rate and its share of `--seconds`.
pub const READ_RATE: f64 = 10_000.0;
const READ_SHARE: f64 = 0.8;
/// Every this-many-th of A's requests is `TopK` (0.5 %). Evenly spaced, not
/// drawn: how many scans happen to arrive on top of one another decides the
/// read tail, and would differ from seed to seed.
const TOPK_ONE_IN: usize = 200;
/// Generator p99 lateness above which the run is flagged. Higher than the
/// 1 ms of `tcp_classify` because here both cores are busy (write lane +
/// scanning read lane) about a fifth of the time and a generator wake-up
/// then waits out a scheduler slice: 2.1–2.9 ms measured on 2 vCPUs.
const LATE_LIMIT_US: f64 = 5_000.0;
pub const TOP_K: u32 = 10;
/// Connection B's cycle: this many `Train` requests, one `Insert`, one
/// `Remove` of the entity inserted `REMOVE_LAG` cycles earlier.
const TRAINS_PER_CYCLE: usize = 8;
pub const TRAIN_BATCH: usize = 8;
const REMOVE_LAG: u64 = 50;

const KIND_CLASSIFY: usize = 0;
const KIND_TOPK: usize = 1;

/// Is `rows` a plausible `TopK` answer: `k` rows in rank order.
fn ranked_ok(rows: &[(u64, f64)], k: usize) -> bool {
    rows.len() == k
        && rows
            .windows(2)
            .all(|w| hazy_core::rank_order(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

/// The writer's request sequence is a pure function of the seed; only how
/// far it gets depends on the clock.
pub struct WriterScript {
    stream: hazy_datagen::ExampleStream,
    inserts: hazy_datagen::ExampleStream,
    first_new_id: u64,
    step: u64,
}

impl WriterScript {
    pub fn new(forest: &Forest, seed: u64) -> WriterScript {
        WriterScript {
            stream: forest.stream(seed),
            inserts: hazy_datagen::ExampleStream::new(
                &forest.spec,
                crate::util::sub_seed(seed, 0xC3),
            ),
            first_new_id: forest.n() + REMOVE_LAG,
            step: 0,
        }
    }

    pub fn next(&mut self) -> Request {
        let per_cycle = TRAINS_PER_CYCLE as u64 + 2;
        let (cycle, pos) = (self.step / per_cycle, self.step % per_cycle);
        self.step += 1;
        if pos < TRAINS_PER_CYCLE as u64 {
            Request::Train {
                batch: self.stream.take_vec(TRAIN_BATCH),
            }
        } else if pos == TRAINS_PER_CYCLE as u64 {
            Request::Insert {
                id: self.first_new_id + cycle,
                f: self.inserts.next_example().f,
            }
        } else {
            // `first_new_id` sits `REMOVE_LAG` above the corpus, so before
            // the lag has built up this names an id nobody holds: a remove
            // that finds nothing, answered `Done { applied: 0 }`
            Request::Remove {
                id: self.first_new_id + cycle - REMOVE_LAG,
            }
        }
    }
}

pub fn run(spec: &RunSpec) -> RunResult {
    let mut r = RunResult::default();
    let ((forest, dep), setup_s) = sharded_setup(spec);
    r.put("setup_s", setup_s, "s");
    let n = forest.n();
    let mut hash = StreamHash::default();
    let mut scratch = Vec::new();

    let mut rng = Rng::new(spec.seed, 0x200);
    let schedule: Vec<Scheduled> = poisson_schedule(&mut rng, READ_RATE, spec.seconds * READ_SHARE)
        .into_iter()
        .enumerate()
        .map(|(i, due_ns)| {
            if (i + 1) % TOPK_ONE_IN == 0 {
                Scheduled {
                    due_ns,
                    req: Request::TopK { k: TOP_K },
                    kind: KIND_TOPK,
                }
            } else {
                Scheduled {
                    due_ns,
                    req: Request::Classify { id: rng.below(n) },
                    kind: KIND_CLASSIFY,
                }
            }
        })
        .collect();
    for s in &schedule {
        hash.u64(s.due_ns);
        hash_request(&mut hash, &s.req, &mut scratch);
    }
    hash.u64(spec.seed); // the writer's script is a function of the seed alone

    let mut script = WriterScript::new(&forest, spec.seed);
    let stop = AtomicBool::new(false);
    let mut conn_a = dep.connect();
    let addr = dep.tcp.local_addr();

    // Placement: the write lane — CPU-bound here, one `Train{8}` after the
    // other — gets a CPU of its own; the poll loop, the read lane and both
    // generators share the other. Left to the scheduler, which of the
    // sleepers shares a CPU with the write lane differs from run to run and
    // stays for the run: over ten runs, alternating, `read_p50_us` spread
    // 12.6 % unpinned (451–642 µs) and 4.4 % pinned, `read_p99_us` 19 % and
    // 5 %, `ops_per_s` 10 % and 4 %.
    let cpus = allowed_cpus();
    let placement = (cpus.len() >= 2).then(|| (cpus[0], cpus[1]));
    if let Some((shared, own)) = placement {
        for (name, cpu) in [
            ("hazy-front-writ", own),
            ("hazy-front-read", shared),
            ("hazy-front-tcp", shared),
        ] {
            for tid in threads_named(name) {
                pin(tid, cpu);
            }
        }
    }
    let pin_generator = || {
        if let Some((shared, _)) = placement {
            pin(0, shared);
        }
    };
    let (reads, (writer, applied)) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            pin_generator();
            let out = open_loop(
                &mut conn_a,
                &schedule,
                2,
                |i, resp| match (&schedule[i].req, resp) {
                    (Request::Classify { .. }, Response::Label(Some(_))) => true,
                    (Request::TopK { k }, Response::Ranked(rows)) => ranked_ok(rows, *k as usize),
                    _ => false,
                },
                Duration::from_secs(10),
            );
            stop.store(true, Ordering::SeqCst);
            out
        });
        let b = s.spawn(|| {
            pin_generator();
            let mut client = TcpClient::connect(addr).expect("connect loopback");
            let mut log = WriterLog::default();
            let mut applied: Vec<Request> = Vec::new();
            let start = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                let req = script.next();
                let (kind, want) = match &req {
                    Request::Train { batch } => ("train", Some(batch.len() as u64)),
                    Request::Insert { .. } => ("insert", Some(1)),
                    _ => ("remove", None),
                };
                let ok = |r: &Response| matches!(r, Response::Done { applied: a } if want.is_none_or(|w| w == *a));
                if let Some(ns) = call_depth1(&mut client, &req, &mut log.counts, ok) {
                    log.record(kind, ns);
                }
                if log.counts.io_failed > 0 {
                    break;
                }
                applied.push(req);
            }
            log.wall_s = start.elapsed().as_secs_f64();
            (log, applied)
        });
        (
            a.join().expect("reader thread"),
            b.join().expect("writer thread"),
        )
    });

    r.count(&reads.counts);
    r.count(&writer.counts);
    // judged like the latencies it qualifies, segment by segment
    let late_p99_us = reads.lateness.estimate(0.99, Cut::OPEN_LOOP).ns / 1e3;
    if late_p99_us > LATE_LIMIT_US {
        r.invalid.push(format!(
            "open loop: generator p99 lateness {late_p99_us:.0} us"
        ));
    }
    put_p50_p99(
        &mut r,
        "read",
        &reads.latency[KIND_CLASSIFY],
        Cut::OPEN_LOOP,
    );
    r.put_timing(
        "scan_p50_us",
        reads.latency[KIND_TOPK].estimate(0.5, Cut::OPEN_LOOP),
        "us",
    );
    if let Some(train) = writer.latency.get("train") {
        put_p50_p99(&mut r, "write", train, Cut::CLOSED_LOOP);
    }
    for kind in ["insert", "remove"] {
        if let Some(s) = writer.latency.get(kind) {
            r.put_timing(
                &format!("{kind}_p50_us"),
                s.estimate(0.5, Cut::CLOSED_LOOP),
                "us",
            );
        }
    }
    let write_per_s = writer.counts.ok as f64 / writer.wall_s;
    r.put("write_per_s", write_per_s, "1/s");
    r.put("ops_per_s", write_per_s, "1/s");

    // --- oracle: replay the writer's operations in order, then diff --------
    let mut oracle = forest.oracle();
    let mut ids: Vec<u64> = (0..n).collect();
    for req in &applied {
        match req {
            Request::Train { batch } => oracle.update_batch(batch),
            Request::Insert { id, f } => {
                oracle.insert_entity(Entity::new(*id, f.clone()));
                ids.push(*id);
            }
            Request::Remove { id } => {
                oracle.remove_entity(*id);
            }
            _ => {}
        }
    }
    let (checked, mismatches) = diff_against_oracle(&dep, oracle.as_mut(), &ids);
    r.attempted += checked;
    r.failed += mismatches;
    r.oracle_mismatches = mismatches;

    let fs = dep.shutdown();
    let mut a = vec![
        ("phase", Value::Str("A_open_loop_10k".into())),
        ("offered_per_s", Value::Num(READ_RATE)),
        (
            "achieved_per_s",
            Value::Num(reads.counts.ok as f64 / reads.wall_s),
        ),
        ("gen_late_p99_us", Value::Num(late_p99_us)),
        ("valid", Value::Bool(late_p99_us <= LATE_LIMIT_US)),
        (
            "classify",
            Value::Num(reads.latency[KIND_CLASSIFY].len() as f64),
        ),
        ("top_k", Value::Num(reads.latency[KIND_TOPK].len() as f64)),
    ];
    a.extend(counts_json(&reads.counts));
    let mut b = vec![
        ("phase", Value::Str("B_closed_loop_depth1".into())),
        ("wall_s", Value::Num(writer.wall_s)),
    ];
    b.extend(counts_json(&writer.counts));
    r.note("corpus", forest.json());
    r.note("stream_hash", Value::Str(hash.hex()));
    r.note(
        "placement",
        match placement {
            Some((shared, own)) => Value::Str(format!(
                "write lane on cpu {own}; poll loop, read lane and generators on cpu {shared}"
            )),
            None => Value::Str("unpinned: fewer than two CPUs allowed".into()),
        },
    );
    r.note("phases", Value::Arr(vec![Value::obj(a), Value::obj(b)]));
    r.note("front_stats", super::front_stats_json(&fs));
    r
}
