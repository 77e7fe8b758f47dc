//! `tcp_classify`: the pure read path. `TcpFront` → `Front::serve_sharded`
//! (2 shards), 100 % `Classify` on uniform ids: framing → poll loop →
//! admission queue → read-lane batch → epoch pin → classify. Maintenance,
//! WAL and SQL do no work here, so kernel, maintenance, storage and rdbms
//! changes must leave its metrics alone.
//!
//! One connection. The run is `CYCLES` rounds of the same four stretches —
//! three open-loop rungs and a closed-loop saturation stretch (window 256) —
//! so that every metric samples the whole run and a few seconds of outside
//! interference cost a few stretches of each, not one metric.

use std::time::Duration;

use hazy_front::{Request, Response};
use hazy_learn::Label;

use super::{
    counts_json, diff_against_oracle, hash_request, sharded_setup, RunResult, RunSpec, CYCLES,
    OVERRUN,
};
use crate::client::{open_loop, pipelined, PhaseCounts, Scheduled};
use crate::json::Value;
use crate::stats::{median, Cut, Samples};
use crate::util::{poisson_schedule, Rng, StreamHash};

/// Offered rates of the open-loop rungs, requests per second.
pub const RUNGS: [f64; 3] = [5_000.0, 20_000.0, 80_000.0];
/// The rung `read_p50_us` / `read_p99_us` are taken at.
pub const READ_RUNG: usize = 1;
/// The share of `--seconds` each rung gets, in `CYCLES` stretches. The rung
/// the gated read metrics come from gets the most: a p99 needs the samples.
const RUNG_SHARE: [f64; 3] = [0.1, 0.4, 0.15];

/// One rung's tallies over its stretches.
#[derive(Default)]
struct Rung {
    counts: PhaseCounts,
    latency: Samples,
    lateness: Samples,
    wall_s: f64,
    /// Stretches that ended without a growing backlog.
    draining: usize,
}
/// Saturation requests per second of `--seconds` (about a tenth of the
/// budget at the ≈ 390 k/s one pipelined connection sustains here), sent in
/// `CYCLES` stretches. The reported rate is the median stretch's: the
/// pipeline has two regimes — lock step (each window waits out one idle
/// sleep of the poll loop, ≈ 390 k/s) and streaming (the poll loop never
/// idles, ≈ 1.3 M/s, seen after the machine has been busy) — and a run
/// reports the one most of its stretches were in.
const SAT_PER_S: f64 = 40_000.0;
pub const WINDOW: usize = 256;
/// The latency limit a rung must meet at p99 to count as in-SLO.
pub const SLO_P99_US: f64 = 2_000.0;
/// In-flight growth (end vs midpoint) tolerated before a rung counts as
/// building a backlog: under 1 ms of traffic at the top rung.
const BACKLOG_SLACK: usize = 64;

pub fn run(spec: &RunSpec) -> RunResult {
    let mut r = RunResult::default();
    let ((forest, dep), setup_s) = sharded_setup(spec);
    r.put("setup_s", setup_s, "s");

    let mut oracle = forest.oracle();
    let n = forest.n();
    let expected: Vec<Option<Label>> = (0..n).map(|id| oracle.read_single(id)).collect();
    let mut hash = StreamHash::default();
    let mut scratch = Vec::new();
    let mut conn = dep.connect();
    let mut phases = Vec::new();

    let mut rungs: Vec<Rung> = RUNGS.iter().map(|_| Rung::default()).collect();
    let sat_per_cycle = (SAT_PER_S * spec.seconds) as usize / CYCLES;
    let mut sat_counts = PhaseCounts::default();
    let (mut sat_rates, mut sat_wall_s) = (Vec::with_capacity(CYCLES), 0.0);
    let (mut sat_reads, mut sat_batches) = (0u64, 0u64);
    for cycle in 0..CYCLES {
        // --- open-loop rungs: 5k 20k 80k, 5k 20k 80k, ... --------------------
        for (k, &rate) in RUNGS.iter().enumerate() {
            let mut rng = Rng::new(spec.seed, 0x100 + (cycle * RUNGS.len() + k) as u64);
            let dur_s = spec.seconds * RUNG_SHARE[k] / CYCLES as f64;
            let schedule: Vec<Scheduled> = poisson_schedule(&mut rng, rate, dur_s)
                .into_iter()
                .map(|due_ns| Scheduled {
                    due_ns,
                    req: Request::Classify { id: rng.below(n) },
                    kind: 0,
                })
                .collect();
            for s in &schedule {
                hash.u64(s.due_ns);
                hash_request(&mut hash, &s.req, &mut scratch);
            }
            let out = open_loop(
                &mut conn,
                &schedule,
                1,
                |i, resp| match schedule[i].req {
                    Request::Classify { id } => *resp == Response::Label(expected[id as usize]),
                    _ => false,
                },
                Duration::from_secs(10),
            );
            let rung = &mut rungs[k];
            rung.counts.add(&out.counts);
            rung.latency.extend(&out.latency[0]);
            rung.lateness.extend(&out.lateness);
            rung.wall_s += out.wall_s;
            rung.draining += usize::from(out.backlog_end <= out.backlog_mid + BACKLOG_SLACK);
        }

        // --- closed-loop saturation ------------------------------------------
        let mut rng = Rng::new(spec.seed, 0x180 + cycle as u64);
        let sat_ids: Vec<u64> = (0..sat_per_cycle).map(|_| rng.below(n)).collect();
        for &id in &sat_ids {
            hash.u64(id);
        }
        let stats_before = dep.front.stats();
        let sat = pipelined(
            &mut conn,
            sat_per_cycle,
            WINDOW,
            |i| Request::Classify { id: sat_ids[i] },
            |i, resp| *resp == Response::Label(expected[sat_ids[i] as usize]),
            Duration::from_secs_f64(spec.seconds * OVERRUN / CYCLES as f64),
        );
        let stats_after = dep.front.stats();
        sat_counts.add(&sat.counts);
        sat_rates.push(sat.counts.ok as f64 / sat.wall_s);
        sat_wall_s += sat.wall_s;
        sat_reads += stats_after.batched_reads - stats_before.batched_reads;
        sat_batches += stats_after.read_batches - stats_before.read_batches;
    }
    drop(conn);

    let mut max_in_slo = 0.0f64;
    let mut in_slo_so_far = true;
    for (k, (&rate, rung)) in RUNGS.iter().zip(&rungs).enumerate() {
        r.count(&rung.counts);
        let p50 = rung.latency.estimate(0.5, Cut::OPEN_LOOP);
        let p99 = rung.latency.estimate(0.99, Cut::OPEN_LOOP);
        // judged like the latencies it qualifies, segment by segment
        let late_p99_us = rung.lateness.estimate(0.99, Cut::OPEN_LOOP).ns / 1e3;
        let valid = late_p99_us <= 1_000.0;
        if !valid {
            r.invalid.push(format!(
                "rung {rate}/s: generator p99 lateness {late_p99_us:.0} us"
            ));
        }
        // no growing backlog: in-flight at the end of a stretch within
        // `BACKLOG_SLACK` of in-flight at its midpoint, in most stretches
        let in_slo =
            rung.counts.failed() == 0 && p99.ns / 1e3 <= SLO_P99_US && rung.draining * 2 > CYCLES;
        // the highest rate in SLO with every lower rung in SLO too
        in_slo_so_far &= in_slo;
        if in_slo_so_far {
            max_in_slo = rate;
        }
        if k == READ_RUNG {
            r.put_timing("read_p50_us", p50, "us");
            r.put_timing("read_p99_us", p99, "us");
        }
        r.put_timing(&format!("rung{}k_p50_us", rate as u64 / 1000), p50, "us");
        r.put_timing(&format!("rung{}k_p99_us", rate as u64 / 1000), p99, "us");
        let mut phase = vec![
            (
                "phase",
                Value::Str(format!("open_loop_{}k", rate as u64 / 1000)),
            ),
            ("stretches", Value::Num(CYCLES as f64)),
            ("offered_per_s", Value::Num(rate)),
            (
                "achieved_per_s",
                Value::Num(rung.counts.ok as f64 / rung.wall_s),
            ),
            ("gen_late_p99_us", Value::Num(late_p99_us)),
            ("valid", Value::Bool(valid)),
            ("in_slo", Value::Bool(in_slo)),
            ("stretches_draining", Value::Num(rung.draining as f64)),
        ];
        phase.extend(counts_json(&rung.counts));
        phases.push(Value::obj(phase));
    }
    r.put("read_max_rate_in_slo", max_in_slo, "1/s");

    r.count(&sat_counts);
    let sat_per_s = median(&sat_rates);
    r.put("read_sat_per_s", sat_per_s, "1/s");
    r.put("ops_per_s", sat_per_s, "1/s");
    let mut phase = vec![
        ("phase", Value::Str("closed_loop_window256".into())),
        ("stretches", Value::Num(CYCLES as f64)),
        ("wall_s", Value::Num(sat_wall_s)),
        (
            "mean_read_batch",
            Value::Num(sat_reads as f64 / sat_batches.max(1) as f64),
        ),
    ];
    phase.extend(counts_json(&sat_counts));
    phases.push(Value::obj(phase));

    // --- oracle: every label and the positive count -------------------------
    let ids: Vec<u64> = (0..n).collect();
    let (checked, mismatches) = diff_against_oracle(&dep, oracle.as_mut(), &ids);
    r.attempted += checked;
    r.failed += mismatches;
    r.oracle_mismatches = mismatches;

    let fs = dep.shutdown();
    r.note("corpus", forest.json());
    r.note("stream_hash", Value::Str(hash.hex()));
    r.note("phases", Value::Arr(phases));
    r.note("front_stats", super::front_stats_json(&fs));
    r
}
