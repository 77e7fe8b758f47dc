//! `sql_mixed`: the paper's actual interface (Example 2.1) — SQL text
//! through embedded `Db::execute` on one thread. Bypasses `front` and
//! `serve` entirely; `rdbms` (parse, feature function, the `SnapshotCache`
//! republish after a write) does most of the work. The only workload where
//! read-plane work inside `rdbms` can show, and where front/TCP work must
//! show nothing.

use std::time::{Duration, Instant};

use hazy_datagen::{CorpusConfig, DocumentCorpus};
use hazy_rdbms::{Db, QueryResult};

use super::{put_p50_p99, RunResult, RunSpec, DATA_SEED, OVERRUN, SETUPS};
use crate::client::PhaseCounts;
use crate::json::Value;
use crate::stats::{median, Cut, Samples};
use crate::util::{sub_seed, Rng, StreamHash};

/// Statements per second of `--seconds` (throughput is bounded by the
/// O(view) republish behind the first `SELECT` after each write).
const STMTS_PER_S: f64 = 2000.0;
/// Statement mix, in percent: the rest are `SELECT class ... WHERE id=`.
const FEEDBACK_PCT: u64 = 10;
const NEW_PAPER_PCT: u64 = 1;
const COUNT_PCT: u64 = 1;

pub const VIEW_DDL: &str = "CREATE CLASSIFICATION VIEW V KEY id \
     ENTITIES FROM Papers KEY id \
     LABELS FROM Areas LABEL label \
     EXAMPLES FROM Feedback KEY id LABEL label \
     FEATURE FUNCTION tf_bag_of_words \
     USING SVM ARCHITECTURE HAZY_MM MODE EAGER";

/// The oracle's declaration: same tables, the naive architecture in lazy
/// mode, which stores no labels and classifies from scratch on every read.
const ORACLE_DDL: &str = "CREATE CLASSIFICATION VIEW V KEY id \
     ENTITIES FROM Papers KEY id \
     LABELS FROM Areas LABEL label \
     EXAMPLES FROM Feedback KEY id LABEL label \
     FEATURE FUNCTION tf_bag_of_words \
     USING SVM ARCHITECTURE NAIVE_MM MODE LAZY";

fn label_name(y: i8) -> &'static str {
    if y > 0 {
        "DB"
    } else {
        "NonDB"
    }
}

/// The generated inputs, all of the fixed data set: the base corpus, the
/// warm feedback rows and the papers that arrive later. What the view
/// learns, and in which order, is the same in every run — `--seed` decides
/// where in the statement stream each write falls and which ids are read
/// (see [`statements`]). With feedback drawn from `--seed` the model took
/// another path on every seed, and the cost of a write follows the path
/// (the band widens until the next reorganization): `write_p50_us` spread
/// 29 % over ten seeds and `read_p99_us` 25 %.
pub struct SqlCorpus {
    pub docs: DocumentCorpus,
    pub late: DocumentCorpus,
    pub warm: Vec<(u64, i8)>,
}

impl SqlCorpus {
    pub fn generate(spec: &RunSpec) -> SqlCorpus {
        let cfg = CorpusConfig {
            n_docs: spec.sizes.docs,
            vocab: spec.sizes.vocab,
            seed: sub_seed(DATA_SEED, 0xD0),
            ..CorpusConfig::default()
        };
        let docs = DocumentCorpus::generate(cfg.clone());
        let late = DocumentCorpus::generate(CorpusConfig {
            n_docs: (spec.sizes.docs / 20).max(50),
            seed: sub_seed(DATA_SEED, 0xD1),
            ..cfg
        });
        let mut rng = Rng::new(DATA_SEED, 0xD2);
        let warm = (0..spec.sizes.warm_feedback)
            .map(|_| {
                let d = &docs.docs[rng.below(docs.docs.len() as u64) as usize];
                (d.id, d.label)
            })
            .collect();
        SqlCorpus { docs, late, warm }
    }

    /// Loads tables and warm feedback, then declares the view with `ddl`.
    pub fn load(&self, ddl: &str) -> Db {
        let mut db = Db::new();
        let mut exec = |sql: &str| {
            db.execute(sql)
                .unwrap_or_else(|e| panic!("setup statement failed: {e:?}: {sql}"));
        };
        exec("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT, body TEXT)");
        exec("CREATE TABLE Areas (label TEXT)");
        exec("CREATE TABLE Feedback (id INT, label TEXT)");
        exec("INSERT INTO Areas VALUES ('DB')");
        exec("INSERT INTO Areas VALUES ('NonDB')");
        for d in &self.docs.docs {
            exec(&insert_paper(d.id, &d.title, &d.body));
        }
        for &(id, y) in &self.warm {
            exec(&insert_feedback(id, y));
        }
        exec(ddl);
        db
    }
}

pub fn insert_paper(id: u64, title: &str, body: &str) -> String {
    format!("INSERT INTO Papers VALUES ({id}, '{title}', '{body}')")
}

pub fn insert_feedback(id: u64, y: i8) -> String {
    format!("INSERT INTO Feedback VALUES ({id}, '{}')", label_name(y))
}

pub fn select_class(id: u64) -> String {
    format!("SELECT class FROM V WHERE id = {id}")
}

pub const COUNT_POSITIVE: &str = "SELECT COUNT(*) FROM V WHERE class = 1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Select,
    Feedback,
    NewPaper,
    Count,
}

impl Kind {
    /// Does `res` have the shape a statement of this kind must answer with?
    pub fn admits(self, res: &Result<QueryResult, hazy_rdbms::DbError>) -> bool {
        matches!(
            (self, res),
            (Kind::Select, Ok(QueryResult::Label(Some(_))))
                | (Kind::Count, Ok(QueryResult::Count(_)))
                | (Kind::Feedback | Kind::NewPaper, Ok(QueryResult::Done))
        )
    }
}

/// One round's statement stream: text plus kind, a function of the seed and
/// the round.
pub fn statements(
    spec: &RunSpec,
    corpus: &SqlCorpus,
    total: usize,
    round: usize,
) -> Vec<(Kind, String)> {
    let mut rng = Rng::new(spec.seed, 0x400 + round as u64);
    // which document each feedback row names: the fixed data set's order,
    // from its start in every round (each round's database is fresh)
    let mut feedback_rng = Rng::new(DATA_SEED, 0xD3);
    let base = corpus.docs.docs.len() as u64;
    let mut arrived = 0usize;
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let roll = rng.below(100);
        // ids of papers that have arrived so far are as readable as any
        let known = base + arrived as u64;
        let stmt = if roll < FEEDBACK_PCT {
            let d = &corpus.docs.docs[feedback_rng.below(base) as usize];
            (Kind::Feedback, insert_feedback(d.id, d.label))
        } else if roll < FEEDBACK_PCT + NEW_PAPER_PCT && arrived < corpus.late.docs.len() {
            let d = &corpus.late.docs[arrived];
            arrived += 1;
            (Kind::NewPaper, insert_paper(base + d.id, &d.title, &d.body))
        } else if roll < FEEDBACK_PCT + NEW_PAPER_PCT + COUNT_PCT {
            (Kind::Count, COUNT_POSITIVE.to_string())
        } else {
            (Kind::Select, select_class(rng.below(known)))
        };
        out.push(stmt);
    }
    out
}

/// Replays the writes of `stream` into a fresh `NAIVE_MM` database and diffs
/// the positive count and every entity's class against `db`. Returns
/// (answers checked, mismatches).
fn diff_against_oracle(corpus: &SqlCorpus, stream: &[(Kind, String)], db: &mut Db) -> (u64, u64) {
    let mut oracle = corpus.load(ORACLE_DDL);
    let mut ids: Vec<u64> = corpus.docs.docs.iter().map(|d| d.id).collect();
    let base = ids.len() as u64;
    let mut arrived = 0u64;
    for (kind, sql) in stream {
        if matches!(kind, Kind::Feedback | Kind::NewPaper) {
            oracle.execute(sql).expect("oracle replay");
        }
        if *kind == Kind::NewPaper {
            ids.push(base + arrived);
            arrived += 1;
        }
    }
    let mut mismatches = 0u64;
    mismatches += u64::from(db.execute(COUNT_POSITIVE).ok() != oracle.execute(COUNT_POSITIVE).ok());
    for &id in &ids {
        let sql = select_class(id);
        let (got, want) = (db.execute(&sql), oracle.execute(&sql));
        let agree = matches!((&got, &want), (Ok(QueryResult::Label(Some(a))), Ok(QueryResult::Label(Some(b)))) if a == b);
        mismatches += u64::from(!agree);
    }
    (ids.len() as u64 + 1, mismatches)
}

pub fn run(spec: &RunSpec) -> RunResult {
    let mut r = RunResult::default();
    let per_round = (STMTS_PER_S * spec.seconds) as usize / SETUPS;
    let mut hash = StreamHash::default();
    let (mut select, mut feedback, mut paper, mut count) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut c = PhaseCounts::default();
    let (mut setups, mut rates, mut wall) = (Vec::new(), Vec::new(), 0.0);
    let limit = Duration::from_secs_f64(spec.seconds * OVERRUN / SETUPS as f64);
    let mut corpus_note = None;
    // Every set-up's database takes its share of the statements, then meets
    // its oracle. A database's heap takes its own shape (each write makes
    // the next `SELECT` copy the whole view), and on one long-lived database
    // that shape decided the run: `read_p99_us` spread 18 % over ten seeds.
    for round in 0..SETUPS {
        let t0 = Instant::now();
        let corpus = SqlCorpus::generate(spec);
        let mut db = corpus.load(VIEW_DDL);
        setups.push(t0.elapsed().as_secs_f64());
        if round == 0 {
            std::thread::sleep(spec.settle);
        }
        let stream = statements(spec, &corpus, per_round, round);
        for (_, sql) in &stream {
            hash.bytes(sql.as_bytes());
        }
        let ok_before = c.ok;
        let start = Instant::now();
        for (kind, sql) in &stream {
            c.sent += 1;
            if start.elapsed() > limit {
                c.io_failed += 1;
                continue;
            }
            let t0 = Instant::now();
            let res = db.execute(sql);
            let ns = t0.elapsed().as_nanos() as u64;
            // shape check here; values are diffed against the oracle below
            let ok = kind.admits(&res);
            if ok {
                c.ok += 1;
                match kind {
                    Kind::Select => &mut select,
                    Kind::Feedback => &mut feedback,
                    Kind::NewPaper => &mut paper,
                    Kind::Count => &mut count,
                }
                .push(ns);
            } else if res.is_err() {
                c.error += 1;
            } else {
                c.wrong += 1;
            }
        }
        let round_wall = start.elapsed().as_secs_f64();
        wall += round_wall;
        rates.push((c.ok - ok_before) as f64 / round_wall);

        let (checked, mismatches) = diff_against_oracle(&corpus, &stream, &mut db);
        r.attempted += checked;
        r.failed += mismatches;
        r.oracle_mismatches += mismatches;
        corpus_note.get_or_insert_with(|| {
            Value::obj(vec![
                ("docs", Value::Num(corpus.docs.docs.len() as f64)),
                ("vocab", Value::Num(spec.sizes.vocab as f64)),
                ("late_docs", Value::Num(corpus.late.docs.len() as f64)),
                ("warm_feedback", Value::Num(corpus.warm.len() as f64)),
                ("view", Value::Str(VIEW_DDL.into())),
            ])
        });
    }
    r.put("setup_s", median(&setups), "s");
    r.count(&c);
    put_p50_p99(&mut r, "read", &select, Cut::CLOSED_LOOP);
    put_p50_p99(&mut r, "write", &feedback, Cut::CLOSED_LOOP);
    r.put_timing("scan_p50_us", count.estimate(0.5, Cut::CLOSED_LOOP), "us");
    r.put_timing(
        "insert_entity_p50_us",
        paper.estimate(0.5, Cut::CLOSED_LOOP),
        "us",
    );
    // the median round's rate
    let per_s = median(&rates);
    r.put("stmts_per_s", per_s, "1/s");
    r.put("ops_per_s", per_s, "1/s");

    let mut phase = vec![
        ("phase", Value::Str("embedded_one_thread".into())),
        ("databases", Value::Num(SETUPS as f64)),
        ("wall_s", Value::Num(wall)),
        ("select", Value::Num(select.len() as f64)),
        ("insert_feedback", Value::Num(feedback.len() as f64)),
        ("insert_paper", Value::Num(paper.len() as f64)),
        ("count", Value::Num(count.len() as f64)),
    ];
    phase.extend(super::counts_json(&c));
    r.note("corpus", corpus_note.unwrap_or(Value::Null));
    r.note("stream_hash", Value::Str(hash.hex()));
    r.note("phases", Value::Arr(vec![Value::obj(phase)]));
    r
}
