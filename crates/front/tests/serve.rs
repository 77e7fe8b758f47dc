//! Front-end serving semantics: batched answers must equal direct-view
//! answers, a panicking backend must not take the serve path down, and the
//! TCP adapter must carry the same traffic with per-connection ordering.

use hazy_core::{
    Architecture, ClassifierView, Durable, DurableClassifierView, Entity, Mode, ViewBuilder,
};
use hazy_front::{Front, FrontConfig, Request, Response, TcpClient, TcpFront};
use hazy_learn::{Label, LinearModel, TrainingExample};
use hazy_linalg::FeatureVec;
use hazy_serve::ShardedView;

fn dense2(a: f32, b: f32) -> FeatureVec {
    FeatureVec::dense(vec![a, b])
}

fn entities(n: u64) -> Vec<Entity> {
    (0..n).map(|id| Entity::new(id, dense2((id % 19) as f32 / 19.0 - 0.5, (id % 7) as f32 / 7.0 - 0.4))).collect()
}

fn train_batches(rounds: usize, per: usize) -> Vec<Vec<TrainingExample>> {
    (0..rounds)
        .map(|r| {
            (0..per)
                .map(|k| {
                    let x = ((r * per + k) % 23) as f32 / 23.0 - 0.5;
                    TrainingExample::new(0, dense2(x, -0.3 * x), if x >= 0.0 { 1 } else { -1 })
                })
                .collect()
        })
        .collect()
}

/// The front's batched, epoch-pinned, coalesced serving must be
/// observationally equivalent to driving one view directly: same labels,
/// same count, same ranked list.
#[test]
fn front_answers_equal_direct_view_answers() {
    let n = 300u64;
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let batches = train_batches(6, 4);

    // reference: a plain view driven directly
    let mut direct = ShardedView::build(&builder, 3, entities(n), &[]);
    for b in &batches {
        direct.update_batch(b);
    }
    let want: Vec<Option<Label>> = (0..n).map(|id| direct.classify(id)).collect();
    let want_count = direct.count_positive();
    let want_top = direct.top_k(10);

    // same construction, served through the front; Train tickets are all
    // submitted before any is awaited, so the write lane actually
    // exercises its coalescing path
    let view = ShardedView::build(&builder, 3, entities(n), &[]);
    let front = Front::serve_sharded(view, FrontConfig { write_queue: 64, ..Default::default() });
    let client = front.handle();
    let tickets: Vec<_> =
        batches.iter().map(|b| client.submit(Request::Train { batch: b.clone() })).collect();
    for (t, b) in tickets.into_iter().zip(&batches) {
        assert_eq!(t.wait(), Response::Done { applied: b.len() as u64 });
    }
    for id in 0..n {
        assert_eq!(
            client.call(Request::Classify { id }),
            Response::Label(want[id as usize]),
            "entity {id} diverged behind the front"
        );
    }
    assert_eq!(client.call(Request::CountPositive), Response::Count(want_count));
    match client.call(Request::TopK { k: 10 }) {
        Response::Ranked(got) => assert_eq!(got, want_top),
        other => panic!("{other:?}"),
    }

    let stats = front.shutdown();
    assert_eq!(stats.completed, stats.admitted);
    assert!(stats.batched_writes >= batches.len() as u64);
}

/// The deepest ranked read the protocol can express answers every live
/// entity in rank order: per-shard pruned walks and the cross-shard merge
/// size their buffers by the population, never by `k` (a 4-billion-row
/// reservation would abort the process).
#[test]
fn sharded_top_k_of_u32_max_ranks_every_live_entity() {
    let n = 120u64;
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let mut direct = ShardedView::build(&builder, 3, entities(n), &[]);
    let view = ShardedView::build(&builder, 3, entities(n), &[]);
    let front = Front::serve_sharded(view, FrontConfig::default());
    let client = front.handle();
    for batch in train_batches(4, 4) {
        direct.update_batch(&batch);
        assert_eq!(client.call(Request::Train { batch }), Response::Done { applied: 4 });
    }
    direct.remove_entity(7);
    assert_eq!(client.call(Request::Remove { id: 7 }), Response::Done { applied: 1 });
    let ranked = match client.call(Request::TopK { k: u32::MAX }) {
        Response::Ranked(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(ranked.len() as u64, n - 1, "every live entity, once");
    assert!(ranked.windows(2).all(|w| hazy_core::rank_order(&w[0], &w[1]).is_lt()));
    assert_eq!(ranked, direct.top_k(u32::MAX as usize));
    let stats = front.shutdown();
    assert_eq!(stats.errors, 0);
}

/// A delegating engine wrapper that panics on poisoned inputs — the fault
/// injection for the panic-free-serving guarantee.
struct PanickingView {
    inner: Box<dyn DurableClassifierView + Send>,
}

const POISON_ID: u64 = 0xDEAD;

impl ClassifierView for PanickingView {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn mode(&self) -> Mode {
        self.inner.mode()
    }
    fn update(&mut self, ex: &TrainingExample) {
        assert!(ex.id != POISON_ID, "poisoned training example");
        self.inner.update(ex);
    }
    fn update_batch(&mut self, batch: &[TrainingExample]) {
        assert!(batch.iter().all(|ex| ex.id != POISON_ID), "poisoned training batch");
        self.inner.update_batch(batch);
    }
    fn read_single(&mut self, id: u64) -> Option<Label> {
        assert!(id != POISON_ID, "poisoned read");
        self.inner.read_single(id)
    }
    fn entity_count(&self) -> u64 {
        self.inner.entity_count()
    }
    fn count_positive(&mut self) -> u64 {
        self.inner.count_positive()
    }
    fn positive_ids(&mut self) -> Vec<u64> {
        self.inner.positive_ids()
    }
    fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        self.inner.top_k(k)
    }
    fn insert_entity(&mut self, e: Entity) {
        self.inner.insert_entity(e);
    }
    fn remove_entity(&mut self, id: u64) -> bool {
        self.inner.remove_entity(id)
    }
    fn model(&self) -> &LinearModel {
        self.inner.model()
    }
    fn stats(&self) -> hazy_core::ViewStats {
        self.inner.stats()
    }
    fn memory(&self) -> hazy_core::MemoryFootprint {
        self.inner.memory()
    }
    fn clock(&self) -> &hazy_storage::VirtualClock {
        self.inner.clock()
    }
}

impl Durable for PanickingView {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }
}

/// A backend panic answers the affected request with `Error` and the front
/// keeps serving — on both the read path and the write path.
#[test]
fn backend_panics_are_recovered_per_request() {
    let builder = ViewBuilder::new(Architecture::NaiveMem, Mode::Eager).dim(2);
    let engine = PanickingView { inner: builder.build(entities(50), &[]) };
    let front = Front::serve_engine(Box::new(engine), FrontConfig::default());
    let client = front.handle();

    // healthy before
    assert!(matches!(client.call(Request::Classify { id: 1 }), Response::Label(Some(_))));

    // read-path panic: structured error, not a dead lane
    assert!(matches!(client.call(Request::Classify { id: POISON_ID }), Response::Error(_)));
    // the lane survived: the very next read answers
    assert!(matches!(client.call(Request::Classify { id: 2 }), Response::Label(Some(_))));

    // write-path panic inside a coalesced update_batch round
    let bad = Request::Train {
        batch: vec![TrainingExample::new(POISON_ID, dense2(0.1, 0.1), 1)],
    };
    assert!(matches!(client.call(bad), Response::Error(_)));
    // and a good write still lands afterwards
    assert_eq!(
        client.call(Request::Train {
            batch: vec![TrainingExample::new(0, dense2(0.2, -0.1), 1)],
        }),
        Response::Done { applied: 1 }
    );
    assert!(matches!(client.call(Request::CountPositive), Response::Count(_)));

    let stats = front.shutdown();
    assert_eq!(stats.panics_recovered, 2);
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.completed, stats.admitted, "panics must not eat responses");
}

/// The same traffic over real sockets: pipelined requests on one
/// connection come back in order; a second connection is independent; a
/// protocol violation closes only the offending connection.
#[test]
fn tcp_round_trip_with_pipelining() {
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let view = ShardedView::build(&builder, 2, entities(40), &[]);
    let front = Front::serve_sharded(view, FrontConfig::default());
    let server = TcpFront::bind("127.0.0.1:0", front.handle()).expect("bind");
    let addr = server.local_addr();

    let mut a = TcpClient::connect(addr).expect("connect");
    // pipeline: many frames before the first read; responses in order
    for id in 0..20u64 {
        a.send(&Request::Classify { id }).expect("send");
    }
    a.send(&Request::CountPositive).expect("send");
    let mut labels = Vec::new();
    for _ in 0..20 {
        match a.recv().expect("recv") {
            Response::Label(l) => labels.push(l),
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(labels.len(), 20);
    assert!(labels.iter().all(|l| l.is_some()), "all 20 entities exist");
    assert!(matches!(a.recv().expect("recv"), Response::Count(_)));

    // an independent, interleaved connection
    let mut b = TcpClient::connect(addr).expect("connect");
    assert!(matches!(b.call(&Request::TopK { k: 5 }).expect("call"), Response::Ranked(_)));
    assert!(matches!(a.call(&Request::Classify { id: 3 }).expect("call"), Response::Label(_)));

    // a violating connection (oversized length prefix) gets closed without
    // disturbing the healthy ones
    {
        use std::io::{Read, Write};
        let mut evil = std::net::TcpStream::connect(addr).expect("connect");
        evil.write_all(&u32::MAX.to_le_bytes()).expect("write");
        let mut buf = [0u8; 1];
        // the server closes: read returns Ok(0) (EOF) or a reset error
        match evil.read(&mut buf) {
            Ok(0) => {}
            Ok(_) => panic!("server answered a violating frame"),
            Err(_) => {}
        }
    }
    assert!(matches!(a.call(&Request::Classify { id: 4 }).expect("call"), Response::Label(_)));

    server.shutdown();
    let stats = front.shutdown();
    assert_eq!(stats.completed, stats.admitted);
    assert_eq!(stats.errors, 0);
}

/// Inserting a live id replaces the entity: the same `Insert` sent twice
/// over a socket is acknowledged twice and the second changes nothing —
/// not the positive count, not the population a full-depth `TopK` ranks —
/// whether reads are served from epochs (sharded) or by the engine itself.
#[test]
fn tcp_insert_of_a_live_id_replaces_it() {
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let sharded = ShardedView::build(&builder, 2, entities(20), &[]);
    let mut seen = Vec::new();
    for front in [
        Front::serve_sharded(sharded, FrontConfig::default()),
        Front::serve_engine(builder.build(entities(20), &[]), FrontConfig::default()),
    ] {
        let server = TcpFront::bind("127.0.0.1:0", front.handle()).expect("bind");
        let mut c = TcpClient::connect(server.local_addr()).expect("connect");
        for batch in train_batches(3, 4) {
            let applied = batch.len() as u64;
            assert_eq!(c.call(&Request::Train { batch }).expect("call"), Response::Done { applied });
        }
        for _ in 0..2 {
            let insert = Request::Insert { id: 3, f: dense2(0.45, -0.2) };
            assert_eq!(c.call(&insert).expect("call"), Response::Done { applied: 1 });
            let count = c.call(&Request::CountPositive).expect("call");
            assert!(matches!(count, Response::Count(_)), "{count:?}");
            let ranked = match c.call(&Request::TopK { k: 64 }).expect("call") {
                Response::Ranked(r) => r,
                other => panic!("{other:?}"),
            };
            assert_eq!(ranked.len(), 20, "a replaced entity is still one entity");
            seen.push((count, ranked, c.call(&Request::Classify { id: 3 }).expect("call")));
        }
        server.shutdown();
        let stats = front.shutdown();
        assert_eq!(stats.completed, stats.admitted);
        assert_eq!(stats.errors, 0);
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]), "a repeated insert changed an answer: {seen:?}");
}

/// A metrics scrape is an ordinary protocol request: a `MetricsDump`
/// frame over a real socket comes back as Prometheus-style text carrying
/// live front-end counters — and it is answered at admission, so it also
/// counts in the exactly-once ledger.
#[test]
fn tcp_metrics_dump_scrapes_exposition_text() {
    let builder = ViewBuilder::new(Architecture::HazyMem, Mode::Eager).dim(2);
    let view = ShardedView::build(&builder, 2, entities(30), &[]);
    let front = Front::serve_sharded(view, FrontConfig::default());
    let server = TcpFront::bind("127.0.0.1:0", front.handle()).expect("bind");

    let mut c = TcpClient::connect(server.local_addr()).expect("connect");
    // generate some traffic so the scrape has live values to report
    for id in 0..10u64 {
        assert!(matches!(c.call(&Request::Classify { id }).expect("call"), Response::Label(_)));
    }
    let text = match c.call(&Request::MetricsDump).expect("call") {
        Response::Metrics(text) => text,
        other => panic!("{other:?}"),
    };
    assert!(text.contains("# TYPE front_admitted_total counter"), "exposition: {text}");
    let admitted: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("front_admitted_total "))
        .expect("front_admitted_total sample present")
        .parse()
        .expect("counter value parses");
    assert!(admitted >= 10, "scrape must see the classify traffic, got {admitted}");
    // reads behind this front went through the epoch-pinned serve tier
    assert!(text.contains("serve_snapshot_reads_total"), "serve metrics in scrape");

    server.shutdown();
    let stats = front.shutdown();
    assert_eq!(stats.completed, stats.admitted, "MetricsDump balances the ledger");
}
