//! `--trace 1`: replay the workload's own request stream at depth 1 through
//! its real entry path (answers checked, tracing overhead measured), then
//! walk every layer over the workload's corpus and write the spans out.

use std::path::Path;

use hazy_core::Entity;
use hazy_front::{Request, Response, TcpClient};

use crate::json::Value;
use crate::layers::{self, LayerInputs};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workloads::sql_mixed::{self, SqlCorpus};
use crate::workloads::tcp_mixed::WriterScript;
use crate::workloads::{durable_train, Deployment, Forest, RunResult, RunSpec};

/// Root-replay requests per second of `--seconds`: depth 1 at ≈ 0.5 ms a
/// request keeps the replay near a twentieth of the budget.
const ROOT_PER_S: f64 = 100.0;
/// Examples and read ids handed to the layer walks.
const WALK_EXAMPLES: usize = 600;
const WALK_IDS: usize = 2_048 * 5;

/// What the oracle says `req` must answer, applying it to the oracle.
fn expect(oracle: &mut (dyn hazy_core::DurableClassifierView + Send), req: &Request) -> Response {
    match req {
        Request::Classify { id } => Response::Label(oracle.read_single(*id)),
        Request::TopK { k } => Response::Ranked(oracle.top_k(*k as usize)),
        Request::CountPositive => Response::Count(oracle.count_positive()),
        Request::Train { batch } => {
            oracle.update_batch(batch);
            Response::Done {
                applied: batch.len() as u64,
            }
        }
        Request::Insert { id, f } => {
            oracle.insert_entity(Entity::new(*id, f.clone()));
            Response::Done { applied: 1 }
        }
        Request::Remove { id } => Response::Done {
            applied: u64::from(oracle.remove_entity(*id)),
        },
        Request::MetricsDump => unreachable!("no workload sends a metrics scrape"),
    }
}

/// Replays `reqs` at depth 1 over TCP against `dep`, half plainly timed and
/// half as spans, checking every answer against the oracle in step.
fn replay_tcp(
    dep: &Deployment,
    forest: &Forest,
    reqs: &[Request],
    t: &mut Tracer,
    r: &mut RunResult,
) -> (f64, f64) {
    let mut oracle = forest.oracle();
    let mut client = TcpClient::connect(dep.tcp.local_addr()).expect("connect loopback");
    let mut failed = 0u64;
    let out = layers::tracing_overhead(t, reqs.len(), |i| {
        let got = client.call(&reqs[i]);
        // checked inside the timed call on both sides alike, so it cancels
        let want = expect(oracle.as_mut(), &reqs[i]);
        failed += u64::from(!matches!(got, Ok(ref g) if *g == want));
    });
    r.attempted += reqs.len() as u64;
    r.failed += failed;
    out
}

pub fn run(workload: &str, spec: &RunSpec, out_dir: &Path) -> RunResult {
    let mut r = RunResult::default();
    let mut t = Tracer::default();
    std::thread::sleep(spec.settle);
    let n_root = (ROOT_PER_S * spec.seconds).ceil() as usize;
    let mut rng = Rng::new(spec.seed, 0x600);

    let (inputs, (plain_ns, traced_ns)) = match workload {
        "sql_mixed" => {
            let corpus = SqlCorpus::generate(spec);
            let mut db = corpus.load(sql_mixed::VIEW_DDL);
            let stream = sql_mixed::statements(spec, &corpus, n_root, 0);
            let mut failed = 0u64;
            let overhead = layers::tracing_overhead(&mut t, stream.len(), |i| {
                let (kind, sql) = &stream[i];
                let ok = kind.admits(&db.execute(sql));
                failed += u64::from(!ok);
            });
            r.attempted += stream.len() as u64;
            r.failed += failed;
            (
                LayerInputs::from_docs(spec, WALK_EXAMPLES, WALK_IDS),
                overhead,
            )
        }
        _ => {
            let forest = Forest::generate(&spec.sizes);
            let n = forest.n();
            // the workload's own request stream and the deployment it meets
            let (reqs, dep): (Vec<Request>, Deployment) = match workload {
                "tcp_classify" => (
                    (0..n_root)
                        .map(|_| Request::Classify { id: rng.below(n) })
                        .collect(),
                    Deployment::sharded(&forest),
                ),
                "tcp_mixed" => {
                    // connection A's mix with connection B's script woven in
                    // at about the ratio the untraced run sees (1 in 40)
                    let mut script = WriterScript::new(&forest, spec.seed);
                    let reqs = (0..n_root)
                        .map(|i| {
                            if i % 40 == 39 {
                                script.next()
                            } else if rng.below(200) == 0 {
                                Request::TopK { k: 10 }
                            } else {
                                Request::Classify { id: rng.below(n) }
                            }
                        })
                        .collect();
                    (reqs, Deployment::sharded(&forest))
                }
                _ => {
                    let mut stream = forest.stream(spec.seed);
                    let reqs = (0..n_root)
                        .map(|_| {
                            if rng.below(durable_train::READ_ONE_IN) == 0 {
                                Request::Classify { id: rng.below(n) }
                            } else {
                                Request::Train {
                                    batch: stream.take_vec(1),
                                }
                            }
                        })
                        .collect();
                    (reqs, durable_train::setup(spec).dep)
                }
            };
            let overhead = replay_tcp(&dep, &forest, &reqs, &mut t, &mut r);
            dep.shutdown();
            (
                LayerInputs::from_forest(spec, forest, WALK_EXAMPLES, WALK_IDS),
                overhead,
            )
        }
    };
    r.put("trace.root_untraced_us", plain_ns / 1e3, "us");
    r.put("trace.root_traced_us", traced_ns / 1e3, "us");
    r.put(
        "trace.overhead_pct",
        (traced_ns - plain_ns) / plain_ns * 100.0,
        "%",
    );

    layers::sharded_path(&inputs, &mut t, &mut r);
    layers::durable_path(&inputs, &mut t, &mut r);
    layers::sql_path(&inputs, &mut t, &mut r);

    let path = out_dir.join(format!("trace-{workload}.json"));
    let written =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, t.json().to_line()));
    match written {
        Ok(()) => r.note("trace_file", Value::Str(path.display().to_string())),
        Err(e) => eprintln!("ledger: could not write {}: {e}", path.display()),
    }
    r.note("spans", Value::Num(t.spans.len() as f64));
    r
}
