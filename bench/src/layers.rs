//! The traced run: per-layer metrics. The harness drives a workload's
//! generated inputs straight into each layer's public entry points and
//! records a span per call (or per batch of calls, for nanosecond-scale
//! ones). Entry points nest — `TcpClient::call` ⊃ `FrontHandle::call` ⊃
//! `ReadHandle::classify` ⊃ `EpochCell::pin` + `ModelEpoch::classify` — so
//! a layer's own share is its median minus the next layer in. Each layer
//! gets its own shadow copy of the state, so a write driven into one layer
//! is not applied twice to another.
//!
//! Every traced run walks all three request paths (sharded TCP, durable,
//! SQL) over the workload's own corpus, so every per-layer metric exists on
//! every workload; `bench/README.md` says which workload each one matters
//! on.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hazy_core::{ClassifierView, CoreRestorer, DurableView, Entity, EpochPublisher, ViewBuilder};
use hazy_front::proto::{
    decode_request, decode_response, encode_request, encode_response, write_frame,
};
use hazy_front::{Front, FrontConfig, Request, Response, TcpClient};
use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
use hazy_linalg::{encode_fvec, NormPair};
use hazy_rdbms::features::by_name;
use hazy_rdbms::{parse_statement, ColumnType, Row, Schema, Value as SqlValue};
use hazy_serve::ShardedView;
use hazy_storage::{CheckpointStore, DurableStore, Wal};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::durable_train::CHECKPOINT_INTERVAL;
use crate::workloads::sql_mixed::{self, SqlCorpus};
use crate::workloads::{Deployment, Forest, RunResult, RunSpec, Sizes, SHARDS};

/// Calls per span for nanosecond-scale entry points.
const BATCH: usize = 256;

/// What the layer walks run on: one workload's generated inputs.
pub struct LayerInputs {
    pub builder: ViewBuilder,
    pub pair: NormPair,
    pub dim: usize,
    pub entities: Vec<Entity>,
    pub warm: Vec<TrainingExample>,
    /// The measured example stream.
    pub examples: Vec<TrainingExample>,
    /// Ids to read, in request order.
    pub ids: Vec<u64>,
    pub docs: SqlCorpus,
    pub doc_spec: RunSpec,
}

/// The SQL path on the forest workloads runs on a small seed-derived
/// document corpus: those workloads generate no text of their own.
const SIDE_DOCS: Sizes = Sizes {
    docs: 2_000,
    vocab: 3_000,
    warm_feedback: 200,
    ..Sizes::QUICK
};

impl LayerInputs {
    pub fn from_forest(
        spec: &RunSpec,
        forest: Forest,
        n_examples: usize,
        n_ids: usize,
    ) -> LayerInputs {
        let mut rng = crate::util::Rng::new(spec.seed, 0x500);
        let n = forest.n();
        let doc_spec = RunSpec {
            sizes: Sizes { ..SIDE_DOCS },
            ..*spec
        };
        LayerInputs {
            pair: forest.spec.norm_pair(),
            dim: forest.spec.dim,
            examples: forest.stream(spec.seed).take_vec(n_examples),
            ids: (0..n_ids).map(|_| rng.below(n)).collect(),
            docs: SqlCorpus::generate(&doc_spec),
            doc_spec,
            builder: forest.builder,
            entities: forest.entities,
            warm: forest.warm,
        }
    }

    /// `sql_mixed`: entities and examples are its documents under
    /// `tf_bag_of_words`, the vectors its view maintains.
    pub fn from_docs(spec: &RunSpec, n_examples: usize, n_ids: usize) -> LayerInputs {
        let docs = SqlCorpus::generate(spec);
        let schema = doc_schema();
        let rows: Vec<Row> = docs
            .docs
            .docs
            .iter()
            .map(|d| doc_row(d.id, &d.title, &d.body))
            .collect();
        let mut ff = by_name("tf_bag_of_words", 1 << 16).expect("registered feature function");
        ff.compute_stats(&rows.iter().collect::<Vec<_>>(), &schema);
        let feat = |i: usize| ff.compute_feature(&rows[i], &schema);
        let entities: Vec<Entity> = (0..rows.len())
            .map(|i| Entity::new(docs.docs.docs[i].id, feat(i)))
            .collect();
        let mut rng = crate::util::Rng::new(spec.seed, 0x501);
        let n = rows.len() as u64;
        let mut example = |_| {
            let i = rng.below(n) as usize;
            TrainingExample::new(docs.docs.docs[i].id, feat(i), docs.docs.docs[i].label)
        };
        let warm: Vec<TrainingExample> = (0..spec.sizes.warm_feedback).map(&mut example).collect();
        let examples: Vec<TrainingExample> = (0..n_examples).map(&mut example).collect();
        let pair = NormPair::TEXT;
        let dim = ff.dim();
        let builder = ViewBuilder::new(hazy_core::Architecture::HazyMem, hazy_core::Mode::Eager)
            .norm_pair(pair)
            .dim(dim);
        let mut rng = crate::util::Rng::new(spec.seed, 0x502);
        LayerInputs {
            builder,
            pair,
            dim,
            entities,
            warm,
            examples,
            ids: (0..n_ids).map(|_| rng.below(n)).collect(),
            docs,
            doc_spec: *spec,
        }
    }
}

fn doc_schema() -> Schema {
    Schema::new(vec![
        ("id".into(), ColumnType::Int),
        ("title".into(), ColumnType::Text),
        ("body".into(), ColumnType::Text),
    ])
}

fn doc_row(id: u64, title: &str, body: &str) -> Row {
    vec![
        SqlValue::Int(id as i64),
        SqlValue::Text(title.into()),
        SqlValue::Text(body.into()),
    ]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The sharded TCP path: `front` ⊃ `serve` ⊃ `core::epoch` / `core` view ⊃
/// `learn` ⊃ `linalg`, plus the framing functions and `obs`.
pub fn sharded_path(inp: &LayerInputs, t: &mut Tracer, m: &mut RunResult) {
    let build = || ShardedView::build(&inp.builder, SHARDS, inp.entities.clone(), &inp.warm);
    let tcp_dep = Deployment::over(Front::serve_sharded(build(), FrontConfig::default()));
    let mut client = TcpClient::connect(tcp_dep.tcp.local_addr()).expect("connect loopback");
    let (front_rh, front_wh) = build().into_handles();
    let front = Front::serve_handles(front_rh.clone(), front_wh, FrontConfig::default());
    let handle = front.handle();
    let (rh, mut wh) = build().into_handles();
    let mut view = inp.builder.build(inp.entities.clone(), &inp.warm);
    let mut publisher =
        EpochPublisher::new(inp.entities.clone(), view.model().clone(), inp.pair, 0);
    let cell = publisher.handle();
    let mut trainer = SgdTrainer::new(SgdConfig::svm(), inp.dim);
    for ex in &inp.warm {
        trainer.step(&ex.f, ex.y);
    }

    // --- point reads: one span per request down to the front, then batches --
    let reads = inp.ids.len().min(600);
    for (i, &id) in inp.ids[..reads].iter().enumerate() {
        let req = Request::Classify { id };
        let (_, a) = t.span("tcp.call.classify", i as u32, None, 1, || client.call(&req));
        let req = req.clone();
        t.span("front.call.classify", i as u32, Some(a), 1, || {
            handle.call(req)
        });
    }
    for (b, ids) in inp.ids.chunks(BATCH).enumerate() {
        let n = ids.len() as u32;
        let (_, c) = t.span("serve.classify", b as u32, None, n, || {
            for &id in ids {
                black_box(rh.classify(id));
            }
        });
        t.span("core.epoch_pin", b as u32, Some(c), n, || {
            for _ in ids {
                drop(black_box(cell.pin()));
            }
        });
        let pin = cell.pin();
        t.span("core.epoch_classify", b as u32, Some(c), n, || {
            for &id in ids {
                black_box(pin.classify(id));
            }
        });
    }

    // --- ranked reads --------------------------------------------------------
    for i in 0..30u32 {
        let req = Request::TopK { k: 10 };
        let (_, a) = t.span("tcp.call.top_k", i, None, 1, || client.call(&req));
        let (_, b) = t.span("front.call.top_k", i, Some(a), 1, || {
            handle.call(Request::TopK { k: 10 })
        });
        let (_, c) = t.span("serve.top_k", i, Some(b), 1, || rh.top_k(10));
        for s in 0..SHARDS {
            let pin = rh.pin_shard(s);
            t.span("core.epoch_top_k", i, Some(c), 1, || pin.top_k(10));
        }
    }

    // --- writes: Train{8} down to the SGD step -------------------------------
    for (i, batch) in inp.examples.chunks_exact(8).take(60).enumerate() {
        let i = i as u32;
        let req = Request::Train {
            batch: batch.to_vec(),
        };
        let (_, a) = t.span("tcp.call.train8", i, None, 1, || client.call(&req));
        let (_, b) = t.span("front.call.train8", i, Some(a), 1, || handle.call(req));
        let (_, c) = t.span("serve.update_batch8", i, Some(b), 1, || {
            wh.update_batch(batch)
        });
        let (_, d) = t.span("core.update_batch8", i, Some(c), 1, || {
            view.update_batch(batch)
        });
        t.span("learn.sgd_step", i, Some(d), 8, || {
            for ex in batch {
                black_box(trainer.step(&ex.f, ex.y));
            }
        });
        t.span("core.epoch_apply_update", i, Some(c), 1, || {
            publisher.apply_update(view.model())
        });
    }
    let model = view.model().clone();
    for (b, ents) in inp.entities.chunks(BATCH).take(40).enumerate() {
        t.span("linalg.margin", b as u32, None, ents.len() as u32, || {
            for e in ents {
                black_box(model.margin(&e.f));
            }
        });
    }

    // --- a 256-wide in-process wave: what batching buys -----------------------
    let before = front.stats();
    for (w, ids) in inp.ids.chunks_exact(BATCH).take(40).enumerate() {
        t.span("front.wave", w as u32, None, BATCH as u32, || {
            let tickets: Vec<_> = ids
                .iter()
                .map(|&id| handle.submit(Request::Classify { id }))
                .collect();
            for ticket in tickets {
                black_box(ticket.wait());
            }
        });
    }
    let after = front.stats();

    // --- obs: cost of a record, and of recording being on at all -------------
    let (hist, counter) = (
        hazy_obs::histogram("ledger_probe_ns"),
        hazy_obs::counter("ledger_probe_total"),
    );
    for b in 0..20u32 {
        t.span("obs.record", b, None, 1024, || {
            for v in 0..1024u64 {
                hist.record(black_box(v * 37));
                counter.inc();
            }
        });
    }
    let timed = |on: bool, t: &mut Tracer| {
        hazy_obs::set_enabled(on);
        let name = if on {
            "front.call.obs_on"
        } else {
            "front.call.obs_off"
        };
        for (i, &id) in inp.ids.iter().take(100).enumerate() {
            t.span(name, i as u32, None, 1, || {
                handle.call(Request::Classify { id })
            });
        }
    };
    for _ in 0..4 {
        timed(false, t);
        timed(true, t);
    }

    // --- framing ---------------------------------------------------------------
    let classify = Request::Classify { id: inp.ids[0] };
    let train8 = Request::Train {
        batch: inp.examples[..8].to_vec(),
    };
    for (tag, req, resp) in [
        ("classify", &classify, Response::Label(Some(1))),
        ("train8", &train8, Response::Done { applied: 8 }),
    ] {
        let (mut wire_req, mut wire_resp, mut frame) = (Vec::new(), Vec::new(), Vec::new());
        encode_request(req, &mut wire_req);
        encode_response(&resp, &mut wire_resp);
        write_frame(&mut frame, &wire_req);
        m.put(
            &format!("front.frame_bytes_per_{tag}"),
            frame.len() as f64,
            "count",
        );
        let mut per_call = |what: &str, f: &mut dyn FnMut()| {
            let mut samples = Vec::new();
            for _ in 0..20 {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    f();
                }
                samples.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            }
            m.put(&format!("front.{what}_{tag}_ns"), median(&samples), "ns");
        };
        let mut out = Vec::new();
        per_call("encode_request", &mut || {
            out.clear();
            encode_request(black_box(req), &mut out);
        });
        per_call("decode_request", &mut || {
            black_box(decode_request(&mut black_box(wire_req.as_slice())));
        });
        per_call("encode_response", &mut || {
            out.clear();
            encode_response(black_box(&resp), &mut out);
        });
        per_call("decode_response", &mut || {
            black_box(decode_response(&mut black_box(wire_resp.as_slice())));
        });
    }

    // --- named metrics ---------------------------------------------------------
    let us = |t: &Tracer, name: &str| t.median_ns(name) / 1e3;
    m.put(
        "front.tcp_overhead_us",
        us(t, "tcp.call.classify") - us(t, "front.call.classify"),
        "us",
    );
    m.put("front.call_us", us(t, "front.call.classify"), "us");
    m.put("front.wave_ns_per_req", t.median_ns("front.wave"), "ns");
    let batches = after.read_batches - before.read_batches;
    m.put(
        "front.mean_read_batch",
        ratio(after.batched_reads - before.batched_reads, batches),
        "count",
    );
    m.put(
        "front.read_queue_high_water",
        after.read_queue_high_water as f64,
        "count",
    );
    m.put("serve.classify_ns", t.median_ns("serve.classify"), "ns");
    m.put("serve.top_k_us", us(t, "serve.top_k"), "us");
    m.put("serve.update_batch8_us", us(t, "serve.update_batch8"), "us");
    m.put("core.epoch_pin_ns", t.median_ns("core.epoch_pin"), "ns");
    m.put(
        "core.epoch_classify_ns",
        t.median_ns("core.epoch_classify"),
        "ns",
    );
    m.put("core.epoch_top_k_us", us(t, "core.epoch_top_k"), "us");
    m.put(
        "core.epoch_apply_update_us",
        us(t, "core.epoch_apply_update"),
        "us",
    );
    m.put("core.update_batch8_us", us(t, "core.update_batch8"), "us");
    m.put("learn.sgd_step_ns", t.median_ns("learn.sgd_step"), "ns");
    m.put("linalg.margin_ns", t.median_ns("linalg.margin"), "ns");
    m.put("obs.record_ns", t.median_ns("obs.record"), "ns");
    let (on, off) = (
        t.median_ns("front.call.obs_on"),
        t.median_ns("front.call.obs_off"),
    );
    m.put("obs.enabled_delta_pct", (on - off) / off * 100.0, "%");
    // epoch life cycle under the front's own write lane (60 Train{8} rounds)
    let epochs = front_rh.epoch_stats();
    m.put(
        "core.epochs_published",
        epochs.iter().map(|e| e.published).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "core.epochs_reclaimed",
        epochs.iter().map(|e| e.reclaimed).sum::<u64>() as f64,
        "count",
    );
    m.put("core.epoch_rebases", publisher.rebases() as f64, "count");
    let fs = after;
    m.put(
        "front.mean_write_batch",
        ratio(fs.batched_writes, fs.write_batches),
        "count",
    );

    drop(client);
    tcp_dep.shutdown();
    front.shutdown();
}

/// The durable path: `front` engine lane ⊃ `core::durable` ⊃ `storage` WAL
/// and checkpoints + the plain view ⊃ `learn`.
pub fn durable_path(inp: &LayerInputs, t: &mut Tracer, m: &mut RunResult) {
    let durable = |clock: &hazy_storage::VirtualClock| {
        let inner = inp
            .builder
            .build_with_clock(inp.entities.clone(), &inp.warm, clock.clone());
        let store = Arc::new(Mutex::new(DurableStore::new(clock.clone())));
        DurableView::create(inner, store, CHECKPOINT_INTERVAL)
    };
    let tcp_dep = Deployment::over(Front::serve_engine(
        Box::new(durable(&inp.builder.new_clock())),
        FrontConfig::default(),
    ));
    let mut client = TcpClient::connect(tcp_dep.tcp.local_addr()).expect("connect loopback");
    let front = Front::serve_engine(
        Box::new(durable(&inp.builder.new_clock())),
        FrontConfig::default(),
    );
    let handle = front.handle();
    let direct_clock = inp.builder.new_clock();
    let mut direct = durable(&direct_clock);
    let view_clock = inp.builder.new_clock();
    let mut view =
        inp.builder
            .build_with_clock(inp.entities.clone(), &inp.warm, view_clock.clone());
    let wal_clock = inp.builder.new_clock();
    let mut wal = Wal::new(wal_clock.clone());

    let ops = inp.examples.len().min(600);
    let (mut user_bytes, mut sync_virtual) = (0u64, Vec::new());
    let mut payload = Vec::new();
    for (i, ex) in inp.examples[..ops].iter().enumerate() {
        let i = i as u32;
        if i % 10 == 9 {
            let id = inp.ids[i as usize % inp.ids.len()];
            let req = Request::Classify { id };
            let (_, a) = t.span("tcp.durable.classify", i, None, 1, || client.call(&req));
            let (_, b) = t.span("front.durable.classify", i, Some(a), 1, || handle.call(req));
            let (_, c) = t.span("core.durable_read", i, Some(b), 1, || {
                direct.read_single(id)
            });
            t.span("core.read_single", i, Some(c), 1, || view.read_single(id));
            user_bytes += 8;
            continue;
        }
        let req = Request::Train {
            batch: vec![ex.clone()],
        };
        let (_, a) = t.span("tcp.durable.train", i, None, 1, || client.call(&req));
        let (_, b) = t.span("front.durable.train", i, Some(a), 1, || handle.call(req));
        let (_, c) = t.span("core.durable_update", i, Some(b), 1, || direct.update(ex));
        // the record `DurableView` logs for this update: [n][id][y][fvec]
        payload.clear();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&ex.id.to_le_bytes());
        payload.push(ex.y as u8);
        encode_fvec(&ex.f, &mut payload);
        user_bytes += payload.len() as u64 - 4;
        t.span("storage.wal_append", i, Some(c), 1, || {
            wal.append(1, &payload)
        });
        let v0 = wal_clock.now_ns();
        t.span("storage.wal_sync", i, Some(c), 1, || wal.sync());
        sync_virtual.push((wal_clock.now_ns() - v0) as f64);
        t.span("core.update", i, Some(c), 1, || view.update(ex));
    }
    let stats = view.stats();
    let (wal_bytes, wal_records, auto_ckpt_bytes) = {
        let store = direct.store();
        let s = store.lock().expect("durable store lock");
        let ckpt = s.checkpoints.latest().map_or(0, |c| c.payload.len() as u64);
        // genesis + one checkpoint per `CHECKPOINT_INTERVAL` logged operations
        (
            s.wal.stable_len(),
            s.wal.stable_records(),
            ckpt * (1 + ops as u64 / CHECKPOINT_INTERVAL),
        )
    };

    let mut state = Vec::new();
    view.save_state(&mut state);
    let mut ckpt_store = CheckpointStore::new(inp.builder.new_clock());
    for i in 0..5u32 {
        let (_, a) = t.span("core.checkpoint", i, None, 1, || direct.checkpoint());
        t.span("storage.ckpt_write", i, Some(a), 1, || {
            ckpt_store.write(0, &state)
        });
    }
    let image = direct.durable_image();
    for i in 0..3u32 {
        t.span("core.recover", i, None, 1, || {
            DurableView::recover_image(&inp.builder, &image, CHECKPOINT_INTERVAL, &CoreRestorer)
                .is_ok()
        });
    }

    let us = |t: &Tracer, name: &str| t.median_ns(name) / 1e3;
    m.put("core.durable_update_us", us(t, "core.durable_update"), "us");
    m.put("core.update_us", us(t, "core.update"), "us");
    m.put("core.read_single_ns", t.median_ns("core.read_single"), "ns");
    m.put(
        "core.checkpoint_ms",
        t.median_ns("core.checkpoint") / 1e6,
        "ms",
    );
    m.put("core.recover_ms", t.median_ns("core.recover") / 1e6, "ms");
    m.put(
        "core.reclassified_per_update",
        ratio(stats.tuples_reclassified, stats.updates),
        "count",
    );
    m.put(
        "core.reorgs_per_1k_updates",
        ratio(stats.reorgs * 1000, stats.updates),
        "count",
    );
    m.put(
        "core.virtual_ns_per_update",
        ratio(view_clock.now_ns(), stats.updates),
        "vns",
    );
    m.put(
        "storage.wal_append_ns",
        t.median_ns("storage.wal_append"),
        "ns",
    );
    m.put("storage.wal_sync_ns", t.median_ns("storage.wal_sync"), "ns");
    m.put("storage.wal_sync_virtual_ns", median(&sync_virtual), "vns");
    m.put(
        "storage.wal_bytes_per_op",
        ratio(wal_bytes, wal_records),
        "count",
    );
    m.put("storage.ckpt_bytes", state.len() as f64, "count");
    m.put(
        "storage.ckpt_write_ms",
        t.median_ns("storage.ckpt_write") / 1e6,
        "ms",
    );
    m.put(
        "storage.stable_bytes_per_user_byte",
        ratio(wal_bytes + auto_ckpt_bytes, user_bytes),
        "count",
    );
    m.put("front.durable_call_us", us(t, "front.durable.train"), "us");

    drop(client);
    tcp_dep.shutdown();
    front.shutdown();
}

/// The SQL path: `Db::execute` ⊃ parse + feature function (+ the view).
pub fn sql_path(inp: &LayerInputs, t: &mut Tracer, m: &mut RunResult) {
    let docs = &inp.docs;
    let mut db = docs.load(sql_mixed::VIEW_DDL);
    let n = docs.docs.docs.len() as u64;
    let mut rng = crate::util::Rng::new(inp.doc_spec.seed, 0x503);
    let selects: Vec<String> = (0..BATCH * 8)
        .map(|_| sql_mixed::select_class(rng.below(n)))
        .collect();
    let feedback: Vec<String> = (0..BATCH)
        .map(|_| {
            let d = &docs.docs.docs[rng.below(n) as usize];
            sql_mixed::insert_feedback(d.id, d.label)
        })
        .collect();
    for (b, chunk) in selects.chunks(BATCH).enumerate() {
        let calls = chunk.len() as u32;
        let (_, a) = t.span("rdbms.select_ro", b as u32, None, calls, || {
            for sql in chunk {
                black_box(db.execute(sql).is_ok());
            }
        });
        t.span("rdbms.parse_select", b as u32, Some(a), calls, || {
            for sql in chunk {
                black_box(parse_statement(sql).is_ok());
            }
        });
    }
    for b in 0..8u32 {
        t.span("rdbms.parse_insert", b, None, feedback.len() as u32, || {
            for sql in &feedback {
                black_box(parse_statement(sql).is_ok());
            }
        });
    }
    for (i, sql) in feedback.iter().take(60).enumerate() {
        t.span("rdbms.insert_example", i as u32, None, 1, || {
            db.execute(sql).is_ok()
        });
        t.span("rdbms.select_after_write", i as u32, None, 1, || {
            db.execute(&selects[i]).is_ok()
        });
    }
    for (i, d) in docs.late.docs.iter().take(30).enumerate() {
        let sql = sql_mixed::insert_paper(n + d.id, &d.title, &d.body);
        t.span("rdbms.insert_entity", i as u32, None, 1, || {
            db.execute(&sql).is_ok()
        });
        t.span(
            "rdbms.select_after_write",
            1_000 + i as u32,
            None,
            1,
            || db.execute(&selects[i]).is_ok(),
        );
    }
    let schema = doc_schema();
    let rows: Vec<Row> = docs
        .docs
        .docs
        .iter()
        .take(BATCH * 4)
        .map(|d| doc_row(d.id, &d.title, &d.body))
        .collect();
    let mut ff = by_name("tf_bag_of_words", 1 << 16).expect("registered feature function");
    ff.compute_stats(&rows.iter().collect::<Vec<_>>(), &schema);
    for (b, chunk) in rows.chunks(BATCH).enumerate() {
        t.span("rdbms.feature", b as u32, None, chunk.len() as u32, || {
            for row in chunk {
                black_box(ff.compute_feature(row, &schema));
            }
        });
    }
    m.put(
        "rdbms.parse_select_ns",
        t.median_ns("rdbms.parse_select"),
        "ns",
    );
    m.put(
        "rdbms.parse_insert_ns",
        t.median_ns("rdbms.parse_insert"),
        "ns",
    );
    m.put("rdbms.select_ro_ns", t.median_ns("rdbms.select_ro"), "ns");
    m.put(
        "rdbms.select_after_write_us",
        t.median_ns("rdbms.select_after_write") / 1e3,
        "us",
    );
    m.put(
        "rdbms.insert_example_us",
        t.median_ns("rdbms.insert_example") / 1e3,
        "us",
    );
    m.put(
        "rdbms.insert_entity_us",
        t.median_ns("rdbms.insert_entity") / 1e3,
        "us",
    );
    m.put("rdbms.feature_ns", t.median_ns("rdbms.feature"), "ns");
}

/// Median latency of `issue(i)` over `n` requests, timed plainly and timed
/// as spans, in alternating blocks so drift hits both alike; returns
/// (untraced median ns, traced median ns). The difference is what tracing
/// costs.
pub fn tracing_overhead(t: &mut Tracer, n: usize, mut issue: impl FnMut(usize)) -> (f64, f64) {
    let mut plain = Vec::new();
    for (block, idx) in (0..n).collect::<Vec<_>>().chunks(50).enumerate() {
        for &i in idx {
            if block % 2 == 0 {
                let t0 = Instant::now();
                issue(i);
                plain.push(t0.elapsed().as_nanos() as f64);
            } else {
                t.span("root.request", i as u32, None, 1, || issue(i));
            }
        }
    }
    (median(&plain), t.median_ns("root.request"))
}
