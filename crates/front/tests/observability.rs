//! Cross-subsystem observability acceptance: after driving storage,
//! epochs, serving, tuning, replication, dataflow, and the front end in
//! one process, `SHOW METRICS` and `SHOW EVENTS` surface live values
//! from every layer — the same registry the TCP `MetricsDump` scrape
//! reads.
//!
//! Everything here asserts `> 0`, never exact totals: the registry is
//! process-global and other tests in this binary record into it too.

use hazy_core::{Architecture, Entity, Mode, ViewBuilder};
use hazy_front::{Front, FrontConfig, Request, Response};
use hazy_learn::TrainingExample;
use hazy_linalg::FeatureVec;
use hazy_rdbms::{Db, QueryResult};
use hazy_serve::ShardedView;

fn metric(rows: &[(String, f64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} not registered; have {} rows", rows.len()))
        .1
}

/// Drives the serve tier + front end (which pins epochs underneath), writes
/// included.
fn drive_front() {
    let entities: Vec<Entity> = (0..40)
        .map(|id| Entity::new(id, FeatureVec::dense(vec![(id % 5) as f32 - 2.0, 0.5])))
        .collect();
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let view = ShardedView::build(&builder, 2, entities, &[]);
    let front = Front::serve_sharded(view, FrontConfig::default());
    let client = front.handle();
    for id in 0..20u64 {
        assert!(matches!(client.call(Request::Classify { id }), Response::Label(_)));
    }
    assert!(matches!(client.call(Request::CountPositive), Response::Count(_)));
    assert!(matches!(client.call(Request::TopK { k: 3 }), Response::Ranked(_)));
    for y in [1, -1, 1] {
        let batch = vec![TrainingExample::new(0, FeatureVec::dense(vec![f32::from(y), 0.5]), y)];
        assert!(matches!(client.call(Request::Train { batch }), Response::Done { .. }));
    }
    front.shutdown();
}

/// Drives the RDBMS: a durable replicated view (WAL + shipping), an
/// adaptive view (forced migration), and a dataflow-backed derived view.
fn drive_db() -> Db {
    let mut db = Db::new();
    db.execute("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)").unwrap();
    db.execute("CREATE TABLE Paper_Area (label TEXT)").unwrap();
    db.execute("CREATE TABLE Example_Papers (id INT, label TEXT)").unwrap();
    db.execute("INSERT INTO Paper_Area VALUES ('DB')").unwrap();
    db.execute("INSERT INTO Paper_Area VALUES ('NonDB')").unwrap();
    for (id, title) in [
        (1, "database systems transactions storage"),
        (2, "query optimization database index"),
        (3, "protein folding biology cells"),
        (4, "genome biology dna sequencing"),
    ] {
        db.execute(&format!("INSERT INTO Papers VALUES ({id}, '{title}')")).unwrap();
    }
    // storage + repl: WAL-backed view with one log-shipping replica
    db.execute(
        "CREATE CLASSIFICATION VIEW RepV KEY id \
         ENTITIES FROM Papers KEY id LABELS FROM Paper_Area LABEL label \
         EXAMPLES FROM Example_Papers KEY id LABEL label \
         FEATURE FUNCTION tf_bag_of_words USING SVM DURABLE REPLICAS 1",
    )
    .unwrap();
    // tune: an adaptive view we migrate by hand
    db.execute(
        "CREATE CLASSIFICATION VIEW TuneV KEY id \
         ENTITIES FROM Papers KEY id LABELS FROM Paper_Area LABEL label \
         EXAMPLES FROM Example_Papers KEY id LABEL label \
         FEATURE FUNCTION tf_bag_of_words USING SVM ADAPTIVE",
    )
    .unwrap();
    // flow: a derived view maintained by the delta-dataflow graph
    db.execute("CREATE TABLE Points (id INT PRIMARY KEY, x FLOAT, tag TEXT)").unwrap();
    db.execute(
        "CREATE CLASSIFICATION VIEW FlowV ON (SELECT id, x, tag FROM Points) \
         LABELS ('P', 'N') FEATURE FUNCTION numeric_columns USING SVM",
    )
    .unwrap();
    for (id, x, tag) in [(1, 1.0, "'P'"), (2, -1.0, "'N'"), (3, 0.9, "NULL")] {
        db.execute(&format!("INSERT INTO Points VALUES ({id}, {x:?}, {tag})")).unwrap();
    }
    // teach both text views (each insert WAL-logs + ships on RepV)
    for _ in 0..3 {
        for (id, l) in [(1, "DB"), (3, "NonDB"), (2, "DB"), (4, "NonDB")] {
            db.execute(&format!("INSERT INTO Example_Papers VALUES ({id}, '{l}')")).unwrap();
        }
    }
    db.execute("CHECKPOINT CLASSIFICATION VIEW RepV").unwrap();
    db.execute("ALTER CLASSIFICATION VIEW TuneV SET ARCH NAIVE_MM").unwrap();
    db.execute("SELECT class FROM RepV WHERE id = 1").unwrap();
    db
}

#[test]
fn show_metrics_and_events_cover_every_subsystem() {
    drive_front();
    let mut db = drive_db();

    let QueryResult::Metrics(rows) = db.execute("SHOW METRICS").unwrap() else {
        panic!("SHOW METRICS must return metric rows")
    };
    // one live metric per subsystem: storage, core/epoch, serve, tune,
    // repl, flow, front (the PR's acceptance bar)
    for name in [
        "storage_wal_fsync_total",
        "storage_checkpoint_total",
        "core_epoch_pins_total",
        "serve_snapshot_reads_total",
        "tune_migrations_total",
        "repl_shipments_total",
        "flow_deltas_in_total",
        "front_admitted_total",
    ] {
        assert!(metric(&rows, name) > 0.0, "{name} should be live, rows: {rows:?}");
    }
    // the publisher's Lemma 3.1 / Skiing quantities: band and waste are
    // registered (both may read zero right after a re-score), S is live
    // once a model round has been published
    assert!(metric(&rows, "core_epoch_band_tuples") >= 0.0);
    assert!(metric(&rows, "core_epoch_skiing_waste") >= 0.0);
    assert!(metric(&rows, "core_epoch_skiing_s") > 0.0);
    // ranked reads and the tuples their bound-pruned walks scored
    assert!(metric(&rows, "core_epoch_topk_total") > 0.0);
    assert!(metric(&rows, "core_epoch_topk_scored_total") > 0.0);
    // every model round above — SQL statements, the sharded front's write
    // lane, replica replay — bounded its drift from the engine's SGD steps:
    // none paid the exact O(d) norm
    assert_eq!(metric(&rows, "core_epoch_exact_drift_total"), 0.0);
    // histograms surface as percentile sub-rows
    assert!(rows.iter().any(|(n, _)| n == "front_request_ns_p99"), "histogram expansion");

    // LIKE filters by name
    let QueryResult::Metrics(filtered) = db.execute("SHOW METRICS LIKE 'repl_%'").unwrap()
    else {
        panic!("expected metric rows")
    };
    assert!(!filtered.is_empty());
    assert!(filtered.iter().all(|(n, _)| n.starts_with("repl_")), "{filtered:?}");

    // SHOW EVENTS: bounded, oldest-first, strictly increasing seqs,
    // spanning more than one subsystem
    let QueryResult::Events(events) = db.execute("SHOW EVENTS LIMIT 200").unwrap() else {
        panic!("SHOW EVENTS must return event rows")
    };
    assert!(!events.is_empty() && events.len() <= 200);
    assert!(events.windows(2).all(|w| w[0].0 < w[1].0), "seqs strictly increase");
    let kinds: std::collections::HashSet<&str> =
        events.iter().map(|(_, _, k, _)| k.as_str()).collect();
    assert!(kinds.contains("wal-fsync") || kinds.contains("wal-checkpoint"), "{kinds:?}");
    assert!(kinds.contains("migration-finish"), "{kinds:?}");
    assert!(kinds.len() >= 3, "events from several subsystems: {kinds:?}");

    let QueryResult::Events(limited) = db.execute("SHOW EVENTS LIMIT 2").unwrap() else {
        panic!("expected event rows")
    };
    assert!(limited.len() <= 2);
}
