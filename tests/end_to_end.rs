//! Workspace-level integration tests: the whole stack — datagen → feature
//! functions → RDBMS DDL/triggers → view maintenance on the storage
//! substrate — exercised together.

use hazy::datagen::{CorpusConfig, DocumentCorpus};
use hazy::rdbms::{Db, DbError, QueryResult};

/// Builds a database with a generated document corpus loaded and a
/// classification view over it.
fn portal_db(n_docs: usize, arch: &str, mode: &str) -> (Db, DocumentCorpus) {
    let corpus = DocumentCorpus::generate(CorpusConfig {
        n_docs,
        vocab: 3000,
        abstract_len: 40,
        ..CorpusConfig::default()
    });
    let mut db = Db::new();
    db.execute("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT, body TEXT)").unwrap();
    db.execute("CREATE TABLE Areas (label TEXT)").unwrap();
    db.execute("CREATE TABLE Feedback (id INT, label TEXT)").unwrap();
    db.execute("INSERT INTO Areas VALUES ('DB')").unwrap();
    db.execute("INSERT INTO Areas VALUES ('Other')").unwrap();
    for d in &corpus.docs {
        db.execute(&format!("INSERT INTO Papers VALUES ({}, '{}', '{}')", d.id, d.title, d.body))
            .unwrap();
    }
    db.execute(&format!(
        "CREATE CLASSIFICATION VIEW V KEY id \
         ENTITIES FROM Papers KEY id \
         LABELS FROM Areas LABEL label \
         EXAMPLES FROM Feedback KEY id LABEL label \
         FEATURE FUNCTION tf_bag_of_words \
         USING SVM ARCHITECTURE {arch} MODE {mode}"
    ))
    .unwrap();
    (db, corpus)
}

fn teach(db: &mut Db, corpus: &DocumentCorpus, n: usize) {
    for (k, d) in corpus.docs.iter().cycle().take(n).enumerate() {
        let _ = k;
        let label = if d.label > 0 { "DB" } else { "Other" };
        db.execute(&format!("INSERT INTO Feedback VALUES ({}, '{label}')", d.id)).unwrap();
    }
}

#[test]
fn sql_trained_view_recovers_topic_labels() {
    let (mut db, corpus) = portal_db(300, "HAZY_MM", "EAGER");
    teach(&mut db, &corpus, 900);
    let mut correct = 0;
    for d in &corpus.docs {
        if let QueryResult::Label(Some(class)) =
            db.execute(&format!("SELECT class FROM V WHERE id = {}", d.id)).unwrap()
        {
            if class == d.label {
                correct += 1;
            }
        }
    }
    let acc = correct as f64 / corpus.len() as f64;
    assert!(acc > 0.9, "accuracy {acc} (topic words carry strong signal)");
}

/// One input of the differential test: the statements that load the base
/// tables, the view declaration (minus its physical-design clauses), and a
/// script of mutating statements.
struct Differential {
    view: &'static str,
    load: Vec<String>,
    ddl: String,
    script: Vec<String>,
    /// Ids probed with `SELECT class ... WHERE id =` after every statement:
    /// every id the script ever mentions, plus one that never exists.
    ids: Vec<u64>,
}

/// All three `SELECT` shapes (both classes of the count and member shapes),
/// in a comparable form.
fn answers(db: &mut Db, d: &Differential) -> Vec<QueryResult> {
    let v = d.view;
    let mut out: Vec<QueryResult> = d
        .ids
        .iter()
        .map(|id| db.execute(&format!("SELECT class FROM {v} WHERE id = {id}")).unwrap())
        .collect();
    for sql in [
        format!("SELECT COUNT(*) FROM {v}"),
        format!("SELECT COUNT(*) FROM {v} WHERE class = 1"),
        format!("SELECT COUNT(*) FROM {v} WHERE class = -1"),
    ] {
        out.push(db.execute(&sql).unwrap());
    }
    for class in [1, -1] {
        let QueryResult::Ids(mut ids) =
            db.execute(&format!("SELECT id FROM {v} WHERE class = {class}")).unwrap()
        else {
            panic!("expected ids")
        };
        ids.sort_unstable();
        out.push(QueryResult::Ids(ids));
    }
    out
}

fn epoch_rebases(db: &mut Db) -> f64 {
    let QueryResult::Metrics(rows) =
        db.execute("SHOW METRICS LIKE 'core_epoch_rebases_total'").unwrap()
    else {
        panic!("expected metrics")
    };
    rows[0].1
}

/// Declares the view with `clauses` in one database and as the from-scratch
/// oracle (`NAIVE_MM`/`LAZY`: stores no labels, classifies on every read) in
/// a second, then diffs every answer after **every** mutating statement —
/// so the epoch overlays SQL reads (flips, added, removed, and the rebase
/// that folds them) are all checked against an engine that has none. The
/// oracle is also declared `DURABLE REPLICAS 1`: a replicated view routes
/// its reads through the group to an engine, the one SQL read path that
/// never pins an epoch — an oracle that pinned one too would share every
/// publisher bug with the view under test.
fn agrees_with_oracle(d: &Differential, clauses: &str) {
    let open = |clauses: &str| {
        let mut db = Db::new();
        for sql in &d.load {
            db.execute(sql).unwrap();
        }
        db.execute(&format!("{} {clauses}", d.ddl)).unwrap();
        db
    };
    let mut db = open(clauses);
    let mut oracle = open("ARCHITECTURE NAIVE_MM MODE LAZY DURABLE REPLICAS 1");
    let rebases = epoch_rebases(&mut db);
    assert_eq!(answers(&mut db, d), answers(&mut oracle, d), "{clauses}: at creation");
    for (step, sql) in d.script.iter().enumerate() {
        db.execute(sql).unwrap();
        oracle.execute(sql).unwrap();
        assert_eq!(
            answers(&mut db, d),
            answers(&mut oracle, d),
            "{clauses}: after step {step}: {sql}"
        );
    }
    assert!(epoch_rebases(&mut db) > rebases, "{clauses}: the script never forced a rebase");
}

/// Sparse text through the paper's declaration form: feedback, arriving
/// papers (more than the overlay budget max(64, n/4), so the epoch base
/// rebases at least once), deleted and re-titled papers.
fn text_input() -> Differential {
    let corpus = DocumentCorpus::generate(CorpusConfig {
        n_docs: 120,
        vocab: 3000,
        abstract_len: 40,
        ..CorpusConfig::default()
    });
    let mut load = vec![
        "CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT, body TEXT)".to_string(),
        "CREATE TABLE Areas (label TEXT)".into(),
        "CREATE TABLE Feedback (id INT, label TEXT)".into(),
        "INSERT INTO Areas VALUES ('DB')".into(),
        "INSERT INTO Areas VALUES ('Other')".into(),
    ];
    let docs = &corpus.docs;
    for d in docs {
        load.push(format!("INSERT INTO Papers VALUES ({}, '{}', '{}')", d.id, d.title, d.body));
    }
    let mut script = Vec::new();
    let mut ids: Vec<u64> = docs.iter().map(|d| d.id).collect();
    for k in 0..80usize {
        // feedback only ever names the first 60 papers, which stay put
        for d in [&docs[(2 * k) % 60], &docs[(2 * k + 1) % 60]] {
            let label = if d.label > 0 { "DB" } else { "Other" };
            script.push(format!("INSERT INTO Feedback VALUES ({}, '{label}')", d.id));
        }
        let src = &docs[(7 * k) % docs.len()];
        let id = 9000 + k as u64;
        ids.push(id);
        script.push(format!("INSERT INTO Papers VALUES ({id}, '{}', '{}')", src.title, src.body));
        if k % 8 == 3 {
            script.push(format!("DELETE FROM Papers WHERE id = {}", docs[100 + k / 8].id));
            script.push(format!(
                "UPDATE Papers SET title = '{}' WHERE id = {}",
                docs[119 - k / 8].title,
                docs[60 + k / 8].id
            ));
        }
    }
    ids.push(777_777);
    Differential {
        view: "V",
        load,
        ddl: "CREATE CLASSIFICATION VIEW V KEY id \
              ENTITIES FROM Papers KEY id \
              LABELS FROM Areas LABEL label \
              EXAMPLES FROM Feedback KEY id LABEL label \
              FEATURE FUNCTION tf_bag_of_words USING SVM"
            .into(),
        script,
        ids,
    }
}

/// A dense feature function (the Euclidean watermark band) under a derived
/// view: labelled inserts train through the graph, unlabelled ones only
/// classify, and points are deleted and moved across the boundary.
fn dense_input() -> Differential {
    let point = |k: u64| {
        // a fixed scatter in [-1.2, 1.2]²; the class is the sign of x
        let x = ((k * 37) % 49) as f64 / 20.0 - 1.2;
        let y = ((k * 11) % 23) as f64 / 10.0 - 1.1;
        (x, y, if x >= 0.0 { "'P'" } else { "'N'" })
    };
    let mut load =
        vec!["CREATE TABLE Points (id INT PRIMARY KEY, x FLOAT, y FLOAT, tag TEXT)".to_string()];
    for k in 0..40u64 {
        let (x, y, tag) = point(k);
        let tag = if k % 3 == 0 { "NULL" } else { tag };
        load.push(format!("INSERT INTO Points VALUES ({k}, {x:?}, {y:?}, {tag})"));
    }
    let mut script = Vec::new();
    for k in 40..130u64 {
        let (x, y, tag) = point(k);
        let tag = if k % 4 == 0 { "NULL" } else { tag };
        script.push(format!("INSERT INTO Points VALUES ({k}, {x:?}, {y:?}, {tag})"));
        if k % 9 == 0 {
            script.push(format!("DELETE FROM Points WHERE id = {}", k - 35));
            script.push(format!("UPDATE Points SET x = {:?} WHERE id = {}", -x, k - 20));
        }
    }
    let mut ids: Vec<u64> = (0..130).collect();
    ids.push(777_777);
    Differential {
        view: "PV",
        load,
        ddl: "CREATE CLASSIFICATION VIEW PV ON (SELECT id, x, y, tag FROM Points) \
              LABELS ('P', 'N') FEATURE FUNCTION numeric_columns USING SVM"
            .into(),
        script,
        ids,
    }
}

#[test]
fn all_architectures_agree_through_sql() {
    let (text, dense) = (text_input(), dense_input());
    for clauses in [
        "ARCHITECTURE HAZY_MM MODE EAGER",
        "ARCHITECTURE NAIVE_MM MODE EAGER",
        "ARCHITECTURE HAZY_OD MODE LAZY",
        "ARCHITECTURE NAIVE_OD MODE LAZY",
        "ARCHITECTURE HYBRID MODE EAGER",
        // engine kinds: each puts a different stack under the one read plane
        "DURABLE",
        "SHARDS 3",
        "ADAPTIVE",
    ] {
        agrees_with_oracle(&text, clauses);
        agrees_with_oracle(&dense, clauses);
    }
}

#[test]
fn view_stays_consistent_under_interleaved_dynamics() {
    // both kinds of dynamic data at once: new entities and new examples
    let (mut db, corpus) = portal_db(200, "HAZY_MM", "EAGER");
    teach(&mut db, &corpus, 400);
    // insert brand-new papers with known topic words
    db.execute("INSERT INTO Papers VALUES (9001, 'tp0 tp1 tp2 tp3', 'tp1 tp4 tp2 tp0 tp5')")
        .unwrap();
    db.execute("INSERT INTO Papers VALUES (9002, 'tn0 tn1 tn2 tn3', 'tn1 tn4 tn2 tn0 tn5')")
        .unwrap();
    teach(&mut db, &corpus, 200);
    let QueryResult::Label(Some(pos)) =
        db.execute("SELECT class FROM V WHERE id = 9001").unwrap()
    else {
        panic!("9001 missing")
    };
    let QueryResult::Label(Some(neg)) =
        db.execute("SELECT class FROM V WHERE id = 9002").unwrap()
    else {
        panic!("9002 missing")
    };
    assert_eq!(pos, 1, "pure positive-topic paper");
    assert_eq!(neg, -1, "pure negative-topic paper");
    // the counts include the new entities
    let QueryResult::Count(total) = db.execute("SELECT COUNT(*) FROM V").unwrap() else {
        panic!()
    };
    assert_eq!(total, 202);
}

#[test]
fn member_lists_partition_the_entities() {
    let (mut db, corpus) = portal_db(120, "HYBRID", "LAZY");
    teach(&mut db, &corpus, 360);
    let QueryResult::Ids(pos) = db.execute("SELECT id FROM V WHERE class = 1").unwrap() else {
        panic!()
    };
    let QueryResult::Ids(neg) = db.execute("SELECT id FROM V WHERE class = -1").unwrap() else {
        panic!()
    };
    assert_eq!(pos.len() + neg.len(), corpus.len());
    let pos_set: std::collections::HashSet<u64> = pos.iter().copied().collect();
    assert!(neg.iter().all(|id| !pos_set.contains(id)), "classes overlap");
}

#[test]
fn errors_do_not_corrupt_state() {
    let (mut db, corpus) = portal_db(100, "HAZY_MM", "EAGER");
    teach(&mut db, &corpus, 100);
    // bad example (missing entity) fails...
    assert_eq!(
        db.execute("INSERT INTO Feedback VALUES (777777, 'DB')").unwrap_err(),
        DbError::MissingEntity(777777)
    );
    // ...but the view keeps serving
    let QueryResult::Count(n) = db.execute("SELECT COUNT(*) FROM V").unwrap() else {
        panic!()
    };
    assert_eq!(n, 100);
    teach(&mut db, &corpus, 50);
    assert!(db.view_stats("V").unwrap().updates >= 150);
}
