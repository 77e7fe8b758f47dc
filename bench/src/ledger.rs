//! The ledger: which metrics exist, their regression bounds, the JSON a run
//! set is written as, and `--compare`.

use crate::json::Value;
use crate::stats::{median, quartiles, spread};
use crate::workloads::{RunResult, NAMES};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As BENCHMARK.json spells it.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Per workload, in [`NAMES`] order: the share of the base median the
    /// metric may worsen by before it is a regression; `None` where the
    /// workload does not report it.
    pub bounds: [Option<f64>; 4],
}

impl MetricDef {
    pub fn bound_on(&self, workload: &str) -> Option<f64> {
        NAMES
            .iter()
            .position(|w| *w == workload)
            .and_then(|i| self.bounds[i])
    }

    /// Reported by every workload, so BENCHMARK.json lists it and the
    /// driver gates it — with one bound per metric, the loosest of the four.
    pub fn gated(&self) -> bool {
        self.bounds.iter().all(Option::is_some)
    }

    #[cfg(test)]
    pub fn driver_bound(&self) -> f64 {
        self.bounds.iter().flatten().cloned().fold(0.0, f64::max)
    }
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bounds: [Option<f64>; 4],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bounds,
    }
}

use Better::{Higher, Lower};

const NO: Option<f64> = None;
const fn all(b: f64) -> [Option<f64>; 4] {
    [Some(b); 4]
}

/// Every end-to-end metric. Bounds start from ISSUE 11's (10 % for medians
/// and rates, 25 % for tails, set-up and recovery) and are widened, per
/// workload, to about three times the widest spread (IQR / median) seen in
/// three ten-seed run sets on the 2-vCPU sandbox, capped at the 25 % the
/// driver allows; bench/README.md lists the spreads that forced each.
pub const END_TO_END: &[MetricDef] = &[
    //                                  tcp_classify tcp_mixed  durable_train sql_mixed
    def("setup_s", "s", Lower, all(0.25)),
    def(
        "peak_rss_mb",
        "MB",
        Lower,
        [Some(0.25), Some(0.10), Some(0.25), Some(0.10)],
    ),
    def(
        "read_p50_us",
        "us",
        Lower,
        [Some(0.20), Some(0.20), Some(0.10), Some(0.25)],
    ),
    def("read_p99_us", "us", Lower, all(0.25)),
    // on the workloads that write (`tcp_classify` only reads)
    def(
        "write_p50_us",
        "us",
        Lower,
        [NO, Some(0.25), Some(0.15), Some(0.25)],
    ),
    // on the interfaces with a full-scan read in their mix
    def("scan_p50_us", "us", Lower, [NO, Some(0.20), NO, Some(0.25)]),
    def(
        "ops_per_s",
        "1/s",
        Higher,
        [Some(0.10), Some(0.20), Some(0.10), Some(0.25)],
    ),
    def(
        "write_p99_us",
        "us",
        Lower,
        [NO, Some(0.25), Some(0.25), Some(0.25)],
    ),
    def("write_p999_us", "us", Lower, [NO, NO, Some(0.25), NO]),
    def("checkpoint_stall_ms", "ms", Lower, [NO, NO, Some(0.25), NO]),
    def("read_sat_per_s", "1/s", Higher, [Some(0.10), NO, NO, NO]),
    // a step function of the rung ladder: any drop is a whole rung
    def(
        "read_max_rate_in_slo",
        "1/s",
        Higher,
        [Some(0.0), NO, NO, NO],
    ),
    def(
        "write_per_s",
        "1/s",
        Higher,
        [NO, Some(0.20), Some(0.10), NO],
    ),
    def("stmts_per_s", "1/s", Higher, [NO, NO, NO, Some(0.25)]),
    def("recovery_s", "s", Lower, [NO, NO, Some(0.25), NO]),
];

/// `failed_pct` may rise by this many percentage points.
pub const FAILED_PCT_SLACK: f64 = 0.1;

/// Per-layer metrics every traced run reports (BENCHMARK.json `per_layer`).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("trace.overhead_pct", "%", Lower),
    ("front.tcp_overhead_us", "us", Lower),
    ("front.call_us", "us", Lower),
    ("front.durable_call_us", "us", Lower),
    ("front.wave_ns_per_req", "ns", Lower),
    ("front.mean_read_batch", "count", Higher),
    ("front.read_queue_high_water", "count", Lower),
    ("front.frame_bytes_per_classify", "count", Lower),
    ("front.frame_bytes_per_train8", "count", Lower),
    ("front.encode_request_classify_ns", "ns", Lower),
    ("front.decode_request_classify_ns", "ns", Lower),
    ("front.encode_response_classify_ns", "ns", Lower),
    ("front.decode_response_classify_ns", "ns", Lower),
    ("front.encode_request_train8_ns", "ns", Lower),
    ("front.decode_request_train8_ns", "ns", Lower),
    ("serve.classify_ns", "ns", Lower),
    ("serve.top_k_us", "us", Lower),
    ("serve.update_batch8_us", "us", Lower),
    ("core.epoch_pin_ns", "ns", Lower),
    ("core.epoch_classify_ns", "ns", Lower),
    ("core.epoch_top_k_us", "us", Lower),
    ("core.epoch_apply_update_us", "us", Lower),
    ("core.epochs_published", "count", Lower),
    ("core.epochs_reclaimed", "count", Higher),
    ("core.update_batch8_us", "us", Lower),
    ("core.update_us", "us", Lower),
    ("core.read_single_ns", "ns", Lower),
    ("core.reclassified_per_update", "count", Lower),
    ("core.reorgs_per_1k_updates", "count", Lower),
    ("core.virtual_ns_per_update", "vns", Lower),
    ("core.durable_update_us", "us", Lower),
    ("core.checkpoint_ms", "ms", Lower),
    ("core.recover_ms", "ms", Lower),
    ("storage.wal_append_ns", "ns", Lower),
    ("storage.wal_sync_ns", "ns", Lower),
    ("storage.wal_bytes_per_op", "count", Lower),
    ("storage.ckpt_bytes", "count", Lower),
    ("storage.ckpt_write_ms", "ms", Lower),
    ("storage.stable_bytes_per_user_byte", "count", Lower),
    ("learn.sgd_step_ns", "ns", Lower),
    ("linalg.margin_ns", "ns", Lower),
    ("rdbms.parse_select_ns", "ns", Lower),
    ("rdbms.parse_insert_ns", "ns", Lower),
    ("rdbms.select_ro_ns", "ns", Lower),
    ("rdbms.select_after_write_us", "us", Lower),
    ("rdbms.insert_example_us", "us", Lower),
    ("rdbms.insert_entity_us", "us", Lower),
    ("rdbms.feature_ns", "ns", Lower),
    ("obs.record_ns", "ns", Lower),
    ("obs.enabled_delta_pct", "%", Lower),
];

pub fn gated() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().filter(|d| d.gated())
}

/// `failed / attempted` in percent.
pub fn failed_pct(r: &RunResult) -> f64 {
    if r.attempted == 0 {
        100.0
    } else {
        r.failed as f64 * 100.0 / r.attempted as f64
    }
}

/// Everything one run produced, for `--detail` files and the ledger.
pub fn run_json(workload: &str, seed: u64, traced: bool, r: &RunResult) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
            ];
            if m.n > 0 {
                fields.push(("n", Value::Num(m.n as f64)));
            }
            (m.name.clone(), Value::obj(fields))
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Num(seed as f64)),
        ("traced", Value::Bool(traced)),
        ("correct", Value::Bool(r.failed == 0)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("failed_pct", Value::Num(failed_pct(r))),
        ("oracle_mismatches", Value::Num(r.oracle_mismatches as f64)),
        (
            "invalid",
            Value::Arr(r.invalid.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("metrics", Value::Obj(metrics)),
        ("info", Value::Obj(r.info.clone())),
    ])
}

/// The last line a driver-mode run prints: exactly `correct`, `attempted`,
/// `failed`, `metrics`, the metrics being the names in `wanted`. `Err`
/// names a wanted metric the run did not produce.
pub fn result_line(r: &RunResult, wanted: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let v = r
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((
            name.to_string(),
            Value::obj(vec![
                ("value", Value::Num(v)),
                ("unit", Value::Str((*unit).into())),
            ]),
        ));
    }
    Ok(Value::obj(vec![
        ("correct", Value::Bool(r.failed == 0)),
        ("attempted", Value::Num(r.attempted.max(1) as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_line())
}

/// Folds the runs of one workload into per-metric value lists with median,
/// quartiles and spread. Runs marked invalid are listed but not summarized.
pub fn summarize(runs: &[Value]) -> Value {
    let mut names: Vec<String> = Vec::new();
    for run in runs {
        for (k, _) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
    }
    names.push("failed_pct".into());
    let usable: Vec<&Value> = runs
        .iter()
        .filter(|r| {
            r.get("invalid")
                .and_then(Value::as_arr)
                .is_none_or(|a| a.is_empty())
        })
        .collect();
    let summary = names
        .into_iter()
        .filter_map(|name| {
            let mut unit = "%".to_string();
            let values: Vec<f64> = usable
                .iter()
                .filter_map(|r| {
                    if name == "failed_pct" {
                        return r.get("failed_pct").and_then(Value::as_f64);
                    }
                    let m = r.get("metrics")?.get(&name)?;
                    unit = m.get("unit")?.as_str()?.to_string();
                    m.get("value")?.as_f64()
                })
                .collect();
            if values.is_empty() {
                return None;
            }
            let (q1, q3) = quartiles(&values);
            Some((
                name,
                Value::obj(vec![
                    ("unit", Value::Str(unit)),
                    ("median", Value::Num(median(&values))),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("spread", Value::Num(spread(&values))),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ))
        })
        .collect();
    Value::Obj(summary)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Regression,
}

/// Judges one metric under `bound`: base runs `a`, new runs `b`.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // positive = worse, as a share of the base
    let worse_by = match def.better {
        Lower => (mb - ma) / ma,
        Higher => (ma - mb) / ma,
    };
    let noisy = spread(a) > bound || spread(b) > bound;
    let all_better = match def.better {
        Lower => {
            b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
        }
        Higher => {
            b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
        }
    };
    if noisy && bound > 0.0 {
        // too noisy to call either way — unless the two run sets do not even overlap
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if -worse_by > bound.max(spread(a)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values_of(ledger: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let vals = ledger
        .get("workloads")?
        .get(workload)?
        .get("summary")?
        .get(metric)?
        .get("values")?;
    Some(vals.as_arr()?.iter().filter_map(Value::as_f64).collect())
}

/// Prints workload × metric rows for two ledgers; returns whether `b`
/// regressed (a metric past its bound, or more failures).
pub fn compare(a: &Value, b: &Value, out: &mut impl std::fmt::Write) -> bool {
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>14} {:>14} {:>5}  {:>18} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "unit",
        "new/base",
        "iqr a",
        "iqr b",
        "bound"
    );
    for w in NAMES {
        for def in END_TO_END {
            let Some(bound) = def.bound_on(w) else {
                continue;
            };
            let (Some(va), Some(vb)) = (values_of(a, w, def.name), values_of(b, w, def.name))
            else {
                continue;
            };
            let verdict = judge(def, bound, &va, &vb);
            regressed |= verdict == Verdict::Regression;
            let (ma, mb) = (median(&va), median(&vb));
            let _ = writeln!(
                out,
                "{:<14} {:<22} {:>14.3} {:>14.3} {:>5}  {:>7.4} of {:>7.4e} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                w,
                def.name,
                ma,
                mb,
                def.unit,
                if ma == 0.0 { f64::NAN } else { mb / ma },
                ma,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        if let (Some(fa), Some(fb)) = (values_of(a, w, "failed_pct"), values_of(b, w, "failed_pct"))
        {
            let (ma, mb) = (median(&fa), median(&fb));
            let worse = mb > ma + FAILED_PCT_SLACK;
            regressed |= worse;
            let _ = writeln!(
                out,
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>5}  {:>+7.4} pt of {:>7.4}  {:>25}  {}",
                w,
                "failed_pct",
                ma,
                mb,
                "%",
                mb - ma,
                ma,
                format!("+{FAILED_PCT_SLACK} pt"),
                if worse { "REGRESSION" } else { "unchanged" }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def_of(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn judge_applies_the_bound_in_the_worse_direction() {
        let p50 = def_of("read_p50_us"); // lower is better, 10 %
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(p50, 0.10, &base, &[108.0, 109.0, 107.0, 108.5, 109.5]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(p50, 0.10, &base, &[112.0, 113.0, 111.0, 112.5, 111.5]),
            Verdict::Regression
        );
        assert_eq!(
            judge(p50, 0.10, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Improved
        );
        let rate = def_of("ops_per_s"); // higher is better
        assert_eq!(
            judge(rate, 0.10, &base, &[88.0, 89.0, 87.0, 88.5, 87.5]),
            Verdict::Regression
        );
        assert_eq!(
            judge(rate, 0.10, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Improved
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_not_unchanged() {
        let p50 = def_of("read_p50_us");
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0]; // spread 30 % > 10 %
        assert_eq!(
            judge(p50, 0.10, &noisy, &[100.0, 101.0, 99.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        // ... unless every new run beats every base run
        assert_eq!(
            judge(p50, 0.10, &noisy, &[50.0, 51.0, 49.0, 50.0, 50.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn the_rung_metric_may_not_drop_at_all() {
        let rung = def_of("read_max_rate_in_slo");
        assert_eq!(
            judge(rung, 0.0, &[80_000.0; 5], &[80_000.0; 5]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(rung, 0.0, &[80_000.0; 5], &[20_000.0; 5]),
            Verdict::Regression
        );
    }

    #[test]
    fn compare_flags_regressions_and_more_failures() {
        let ledger = |p50: f64, failed: f64| {
            let vals = |v: f64| {
                Value::obj(vec![(
                    "values",
                    Value::Arr(vec![
                        Value::Num(v),
                        Value::Num(v * 1.01),
                        Value::Num(v * 0.99),
                    ]),
                )])
            };
            Value::obj(vec![(
                "workloads",
                Value::obj(vec![(
                    "tcp_classify",
                    Value::obj(vec![(
                        "summary",
                        Value::obj(vec![
                            ("read_p50_us", vals(p50)),
                            ("failed_pct", vals(failed)),
                        ]),
                    )]),
                )]),
            )])
        };
        let mut text = String::new();
        assert!(!compare(
            &ledger(450.0, 0.0),
            &ledger(460.0, 0.0),
            &mut text
        ));
        assert!(
            text.contains("unchanged") && text.contains("of 4.5000e2"),
            "{text}"
        );
        assert!(compare(&ledger(450.0, 0.0), &ledger(560.0, 0.0), &mut text));
        assert!(text.contains("REGRESSION"));
        assert!(compare(
            &ledger(450.0, 0.0),
            &ledger(450.0, 1.0),
            &mut String::new()
        ));
    }

    #[test]
    fn summary_skips_invalid_runs_and_round_trips() {
        let run = |v: f64, invalid: bool| {
            Value::obj(vec![
                ("failed_pct", Value::Num(0.0)),
                (
                    "invalid",
                    Value::Arr(if invalid {
                        vec![Value::Str("late".into())]
                    } else {
                        vec![]
                    }),
                ),
                (
                    "metrics",
                    Value::obj(vec![(
                        "read_p50_us",
                        Value::obj(vec![
                            ("value", Value::Num(v)),
                            ("unit", Value::Str("us".into())),
                        ]),
                    )]),
                ),
            ])
        };
        let s = summarize(&[
            run(10.0, false),
            run(20.0, false),
            run(1_000.0, true),
            run(30.0, false),
        ]);
        let m = s.get("read_p50_us").unwrap();
        assert_eq!(m.get("median").unwrap().as_f64(), Some(20.0));
        assert_eq!(m.get("values").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(crate::json::parse(&s.to_pretty()).unwrap(), s);
    }
}
