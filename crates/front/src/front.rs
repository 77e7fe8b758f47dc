//! The front end proper: admission → batch → epoch-read pipeline.
//!
//! A [`Front`] owns the serving threads ("lanes") behind a cloneable
//! [`FrontHandle`]. Submitting a request either admits it into a bounded
//! queue (returning a [`Ticket`] that resolves to exactly one
//! [`Response`]) or sheds it immediately with
//! [`Response::Rejected`] — the queue can never grow without bound, so
//! overload degrades into an explicit, client-visible retry signal
//! instead of unbounded tail latency.
//!
//! Batching is where the engine's amortization is recovered: the paper
//! maintains the view once per *statement*, and `update_batch` (PR 2)
//! makes one maintenance round serve a whole batch. The write lane
//! therefore coalesces every queued `Train` run into a single
//! `update_batch` call, and the read lane groups queued `Classify`
//! requests **per shard** and answers each shard's group from one pinned
//! epoch (PR 8) — one pin, many lookups, zero locks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hazy_core::{DurableClassifierView, Entity};
use hazy_serve::{shard_of, ReadHandle, ShardedView, WriteHandle};

use crate::proto::{Request, Response};
use crate::queue::Bounded;

/// Registered-once metric handles for the front end (see `hazy-obs`):
/// admission counters, queue depth/high-water gauges, batch-size and
/// per-request latency histograms, and the drain-rate gauge backing the
/// `retry_after_ms` hint.
struct FrontObs {
    admitted: &'static hazy_obs::Counter,
    shed: &'static hazy_obs::Counter,
    batches: &'static hazy_obs::Counter,
    batch_size: &'static hazy_obs::Histogram,
    request_ns: &'static hazy_obs::Histogram,
    drain_ns_per_req: &'static hazy_obs::Gauge,
    read_queue_depth: &'static hazy_obs::Gauge,
    write_queue_depth: &'static hazy_obs::Gauge,
    read_queue_high_water: &'static hazy_obs::Gauge,
    write_queue_high_water: &'static hazy_obs::Gauge,
}

fn front_obs() -> &'static FrontObs {
    static OBS: std::sync::OnceLock<FrontObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| FrontObs {
        admitted: hazy_obs::counter("front_admitted_total"),
        shed: hazy_obs::counter("front_shed_total"),
        batches: hazy_obs::counter("front_batches_total"),
        batch_size: hazy_obs::histogram("front_batch_size"),
        request_ns: hazy_obs::histogram("front_request_ns"),
        drain_ns_per_req: hazy_obs::gauge("front_drain_ns_per_req"),
        read_queue_depth: hazy_obs::gauge("front_read_queue_depth"),
        write_queue_depth: hazy_obs::gauge("front_write_queue_depth"),
        read_queue_high_water: hazy_obs::gauge("front_read_queue_high_water"),
        write_queue_high_water: hazy_obs::gauge("front_write_queue_high_water"),
    })
}

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Bound on the read-lane admission queue; a `Classify` / `Count` /
    /// `TopK` arriving while it holds this many requests is shed.
    pub read_queue: usize,
    /// Bound on the write-lane admission queue.
    pub write_queue: usize,
    /// Most requests one lane iteration drains — the batch the per-shard
    /// pinned reads and the coalesced `update_batch` rounds amortize over.
    /// `1` degenerates to per-request dispatch (the A/B baseline the
    /// `slo_front` bench measures against).
    pub batch_max: usize,
    /// Backoff hint carried by [`Response::Rejected`].
    pub retry_after_ms: u32,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig { read_queue: 1024, write_queue: 1024, batch_max: 256, retry_after_ms: 1 }
    }
}

/// Counters describing a front end's admission and batching behavior.
/// Snapshot via [`FrontHandle::stats`]; all counters are cumulative.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Requests admitted into a queue.
    pub admitted: u64,
    /// Requests shed at admission ([`Response::Rejected`]).
    pub shed: u64,
    /// Responses delivered to tickets (every admitted request gets exactly
    /// one; at quiescence `completed == admitted`).
    pub completed: u64,
    /// Responses that were [`Response::Error`] (structural failures the
    /// front survived).
    pub errors: u64,
    /// Panics recovered inside a serve lane (the request got an `Error`
    /// response; the lane kept serving).
    pub panics_recovered: u64,
    /// Read-lane batches drained.
    pub read_batches: u64,
    /// Requests inside those read batches.
    pub batched_reads: u64,
    /// Largest read batch drained at once.
    pub max_read_batch: u64,
    /// Write-lane batches drained.
    pub write_batches: u64,
    /// Requests inside those write batches.
    pub batched_writes: u64,
    /// Largest write batch drained at once.
    pub max_write_batch: u64,
    /// Current read-queue depth.
    pub read_queue_depth: u64,
    /// Current write-queue depth.
    pub write_queue_depth: u64,
    /// Deepest the read queue ever got (always ≤ the configured bound).
    pub read_queue_high_water: u64,
    /// Deepest the write queue ever got (always ≤ the configured bound).
    pub write_queue_high_water: u64,
    /// EWMA of per-request service time observed by the lanes, in
    /// nanoseconds (0 until the first batch drains). Feeds the
    /// [`Response::Rejected`] backoff hint via [`estimate_retry_after_ms`].
    pub drain_ns_per_req: u64,
}

impl FrontStats {
    /// Fraction of arrivals shed at admission.
    pub fn shed_rate(&self) -> f64 {
        let total = self.admitted + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    /// Mean requests per drained read batch — how much amortization the
    /// arrival pattern actually bought.
    pub fn mean_read_batch(&self) -> f64 {
        if self.read_batches == 0 {
            0.0
        } else {
            self.batched_reads as f64 / self.read_batches as f64
        }
    }
}

#[derive(Default)]
struct StatsInner {
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    read_batches: AtomicU64,
    batched_reads: AtomicU64,
    max_read_batch: AtomicU64,
    write_batches: AtomicU64,
    batched_writes: AtomicU64,
    max_write_batch: AtomicU64,
    /// EWMA of lane service time per request (ns); see
    /// [`StatsInner::observe_drain`].
    drain_ns_per_req: AtomicU64,
}

impl StatsInner {
    /// Folds one drained batch's wall time into the per-request drain
    /// EWMA (weight 1/8 on the new sample — jitter-tolerant but converges
    /// within a few batches after a load shift).
    fn observe_drain(&self, batch_len: usize, elapsed_ns: u64) {
        if batch_len == 0 {
            return;
        }
        let sample = elapsed_ns / batch_len as u64;
        let old = self.drain_ns_per_req.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { old.saturating_mul(7).saturating_add(sample) / 8 };
        self.drain_ns_per_req.store(new, Ordering::Relaxed);
    }
}

/// The backoff hint for a shed request: the time the lanes would need to
/// drain the queue standing between the client and service, from the
/// observed per-request drain EWMA. Clamped to `[floor_ms, 60_000]`;
/// `floor_ms` alone while the drain rate is still unmeasured. Monotone in
/// `queue_depth` (unit-tested): a deeper queue never hints a shorter wait.
pub fn estimate_retry_after_ms(queue_depth: u64, drain_ns_per_req: u64, floor_ms: u32) -> u32 {
    let floor = u64::from(floor_ms.max(1));
    if drain_ns_per_req == 0 {
        return floor as u32;
    }
    let drain_ns = queue_depth.saturating_mul(drain_ns_per_req);
    drain_ns.div_ceil(1_000_000).clamp(floor, floor.max(60_000)) as u32
}

fn fetch_max(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > cur {
        match cell.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

/// One response slot, completed exactly once. The mutex is uncontended
/// (one producer, one consumer, one hand-off).
struct Slot {
    state: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(None), ready: Condvar::new() })
    }

    /// First completion wins; a second is dropped (and reported by the
    /// `false` return so lanes can count it as a bug instead of
    /// overwriting a delivered answer).
    fn fill(&self, resp: Response) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.is_some() {
            return false;
        }
        *s = Some(resp);
        drop(s);
        self.ready.notify_all();
        true
    }
}

/// A pending response: resolves to exactly one [`Response`] — the
/// completion side of a submitted request. Obtained from
/// [`FrontHandle::submit`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Response {
        let mut s = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(resp) = s.take() {
                return resp;
            }
            s = self.slot.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking poll: the response if it has arrived. After `Some`,
    /// the ticket is spent (a second call returns `None`).
    pub fn try_take(&self) -> Option<Response> {
        self.slot.state.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// One queued unit of work: the request plus its completion slot.
struct Job {
    req: Request,
    slot: Arc<Slot>,
    /// Admission timestamp (obs clock, ns); 0 when recording was off at
    /// submit, so completion knows not to record a latency sample.
    t0_ns: u64,
}

/// Completes `job`, counting the delivery (and double-completion bugs)
/// and recording queue+service latency when the job was stamped.
fn complete(job: Job, resp: Response, stats: &StatsInner) {
    if matches!(resp, Response::Error(_)) {
        stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    if job.slot.fill(resp) {
        stats.completed.fetch_add(1, Ordering::Relaxed);
        if job.t0_ns != 0 {
            front_obs().request_ns.record(hazy_obs::now_ns().saturating_sub(job.t0_ns));
        }
    }
}

/// The client side of a [`Front`]: clone one per client thread (or hand it
/// to the TCP adapter). Submission never blocks on the serving lanes —
/// it either enqueues or sheds.
#[derive(Clone)]
pub struct FrontHandle {
    read_q: Arc<Bounded<Job>>,
    write_q: Arc<Bounded<Job>>,
    stats: Arc<StatsInner>,
    retry_after_ms: u32,
    /// Engine mode: one lane serves both request classes, so everything
    /// routes through `read_q` (one queue, one bound).
    unified: bool,
}

impl FrontHandle {
    /// Submits a request; the returned [`Ticket`] resolves to exactly one
    /// [`Response`]. When the admission queue is full the ticket is
    /// already resolved to [`Response::Rejected`] — the request was never
    /// queued and will not be executed.
    pub fn submit(&self, req: Request) -> Ticket {
        let slot = Slot::new();
        let ticket = Ticket { slot: Arc::clone(&slot) };
        if matches!(req, Request::MetricsDump) {
            // answered at admission, bypassing both queues: the metrics
            // plane stays scrapeable while the serving plane saturates.
            // Counted as admitted + completed so the exactly-once ledger
            // (`completed == admitted` at quiescence) still balances.
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            front_obs().admitted.inc();
            slot.fill(Response::Metrics(hazy_obs::render_prometheus()));
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        let q = if req.is_read() || self.unified { &self.read_q } else { &self.write_q };
        let t0_ns = if hazy_obs::enabled() { hazy_obs::now_ns() } else { 0 };
        match q.try_push(Job { req, slot, t0_ns }) {
            Ok(()) => {
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                front_obs().admitted.inc();
            }
            Err(job) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                let depth = q.depth() as u64;
                let hint = estimate_retry_after_ms(
                    depth,
                    self.stats.drain_ns_per_req.load(Ordering::Relaxed),
                    self.retry_after_ms,
                );
                front_obs().shed.inc();
                hazy_obs::emit(hazy_obs::EventKind::FrontShed, depth, u64::from(hint), 0);
                job.slot.fill(Response::Rejected { retry_after_ms: hint });
            }
        }
        ticket
    }

    /// Synchronous convenience: submit and wait.
    pub fn call(&self, req: Request) -> Response {
        self.submit(req).wait()
    }

    /// Cumulative admission / batching counters.
    pub fn stats(&self) -> FrontStats {
        let s = &self.stats;
        FrontStats {
            admitted: s.admitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            panics_recovered: s.panics.load(Ordering::Relaxed),
            read_batches: s.read_batches.load(Ordering::Relaxed),
            batched_reads: s.batched_reads.load(Ordering::Relaxed),
            max_read_batch: s.max_read_batch.load(Ordering::Relaxed),
            write_batches: s.write_batches.load(Ordering::Relaxed),
            batched_writes: s.batched_writes.load(Ordering::Relaxed),
            max_write_batch: s.max_write_batch.load(Ordering::Relaxed),
            read_queue_depth: self.read_q.depth() as u64,
            write_queue_depth: self.write_q.depth() as u64,
            read_queue_high_water: self.read_q.high_water() as u64,
            write_queue_high_water: self.write_q.high_water() as u64,
            drain_ns_per_req: s.drain_ns_per_req.load(Ordering::Relaxed),
        }
    }
}

/// A running front end: serving lanes over a classification view. Create
/// with [`Front::serve_sharded`] (read lane + write lane over the
/// epoch-read serving tier) or [`Front::serve_engine`] (one lane over any
/// single engine — e.g. one detached from an RDBMS catalog). Dropping the
/// `Front` without [`shutdown`](Front::shutdown) detaches the lanes; they
/// keep serving for as long as handles feed them.
pub struct Front {
    handle: FrontHandle,
    lanes: Vec<JoinHandle<()>>,
}

impl Front {
    /// Serves a [`ShardedView`] with two independent lanes: the read lane
    /// answers `Classify`/`Count`/`TopK` batches from pinned per-shard
    /// epochs (never blocked by maintenance — a live migration inside the
    /// write lane does not move read tail latency), and the write lane
    /// applies coalesced `update_batch` rounds through the unique
    /// [`WriteHandle`], preserving the single-writer discipline by
    /// construction.
    pub fn serve_sharded(view: ShardedView, cfg: FrontConfig) -> Front {
        let (rh, wh) = view.into_handles();
        Front::serve_handles(rh, wh, cfg)
    }

    /// [`serve_sharded`](Front::serve_sharded) with the handle split done
    /// by the caller — who can therefore keep a [`ReadHandle`] clone as an
    /// out-of-band probe (the `slo_front` bench watches
    /// `ViewStats::migrations` through one while the front serves).
    pub fn serve_handles(rh: ReadHandle, wh: WriteHandle, cfg: FrontConfig) -> Front {
        let (front, read_q, write_q, stats) = Front::skeleton(cfg, false);
        let mut front = front;
        let s = Arc::clone(&stats);
        front.lanes.push(
            std::thread::Builder::new()
                .name("hazy-front-read".into())
                .spawn(move || read_lane(rh, read_q, s, cfg.batch_max))
                .expect("spawn read lane"),
        );
        front.lanes.push(
            std::thread::Builder::new()
                .name("hazy-front-write".into())
                .spawn(move || write_lane(wh, write_q, stats, cfg.batch_max))
                .expect("spawn write lane"),
        );
        front
    }

    /// Serves any single engine — the route by which a view declared in
    /// SQL and detached from the RDBMS catalog
    /// (`Db::detach_view_engine`) goes behind the front end. One lane,
    /// one queue (the engine is a single-threaded object): reads and
    /// writes are served in arrival order, `Train` runs still coalesce
    /// into one maintenance round.
    pub fn serve_engine(engine: Box<dyn DurableClassifierView + Send>, cfg: FrontConfig) -> Front {
        let (front, read_q, _write_q, stats) = Front::skeleton(cfg, true);
        let mut front = front;
        front.lanes.push(
            std::thread::Builder::new()
                .name("hazy-front-engine".into())
                .spawn(move || engine_lane(engine, read_q, stats, cfg.batch_max))
                .expect("spawn engine lane"),
        );
        front
    }

    #[allow(clippy::type_complexity)]
    fn skeleton(
        cfg: FrontConfig,
        unified: bool,
    ) -> (Front, Arc<Bounded<Job>>, Arc<Bounded<Job>>, Arc<StatsInner>) {
        let read_q = Arc::new(Bounded::new(cfg.read_queue));
        let write_q = Arc::new(Bounded::new(cfg.write_queue));
        let stats = Arc::new(StatsInner::default());
        let handle = FrontHandle {
            read_q: Arc::clone(&read_q),
            write_q: Arc::clone(&write_q),
            stats: Arc::clone(&stats),
            retry_after_ms: cfg.retry_after_ms,
            unified,
        };
        (Front { handle, lanes: Vec::new() }, read_q, write_q, stats)
    }

    /// A client handle (clone freely).
    pub fn handle(&self) -> FrontHandle {
        self.handle.clone()
    }

    /// See [`FrontHandle::stats`].
    pub fn stats(&self) -> FrontStats {
        self.handle.stats()
    }

    /// Graceful shutdown: closes admission (new arrivals are shed), drains
    /// every queued request through its lane — no admitted request is
    /// dropped — then joins the lanes and returns the final counters.
    pub fn shutdown(self) -> FrontStats {
        self.handle.read_q.close();
        self.handle.write_q.close();
        for lane in self.lanes {
            // a lane that panicked outside a recovered region is a bug,
            // but shutdown still must not propagate: report via stats
            let _ = lane.join();
        }
        self.handle.stats()
    }
}

/// Lane tags carried in [`hazy_obs::EventKind::FrontBatch`] events.
const LANE_READ: u64 = 0;
const LANE_WRITE: u64 = 1;
const LANE_ENGINE: u64 = 2;

/// Per-batch bookkeeping shared by every lane: feeds the drain-rate EWMA
/// behind the `retry_after_ms` hint, then (when recording is on) the
/// batch-size histogram, queue gauges, and a `FrontBatch` trace event.
fn observe_batch(stats: &StatsInner, q: &Bounded<Job>, len: usize, t0_ns: u64, lane: u64) {
    stats.observe_drain(len, hazy_obs::now_ns().saturating_sub(t0_ns));
    if !hazy_obs::enabled() {
        return;
    }
    let obs = front_obs();
    obs.batches.inc();
    obs.batch_size.record(len as u64);
    obs.drain_ns_per_req.set(stats.drain_ns_per_req.load(Ordering::Relaxed) as f64);
    let (depth_g, hw_g) = if lane == LANE_WRITE {
        (obs.write_queue_depth, obs.write_queue_high_water)
    } else {
        (obs.read_queue_depth, obs.read_queue_high_water)
    };
    let depth = q.depth();
    depth_g.set(depth as f64);
    hw_g.set(q.high_water() as f64);
    hazy_obs::emit(hazy_obs::EventKind::FrontBatch, len as u64, lane, depth as u64);
}

/// Runs `f`, converting a panic into a structured [`Response::Error`] —
/// the serve path must outlive any single bad request.
fn guarded(stats: &StatsInner, what: &str, f: impl FnOnce() -> Response) -> Response {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(resp) => resp,
        Err(_) => {
            stats.panics.fetch_add(1, Ordering::Relaxed);
            Response::Error(format!("serve path panicked during {what}"))
        }
    }
}

/// The read lane: drain a batch, group `Classify` requests by home shard,
/// answer each group from **one** pinned epoch, then serve the fan-out
/// reads. Per-request cost under load collapses to a hash + a pinned
/// binary search; the pin's three atomics amortize across the group.
fn read_lane(rh: ReadHandle, q: Arc<Bounded<Job>>, stats: Arc<StatsInner>, batch_max: usize) {
    let n = rh.n_shards();
    while let Some(jobs) = q.pop_batch(batch_max) {
        let t0_ns = hazy_obs::now_ns();
        let batch_len = jobs.len();
        stats.read_batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_reads.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        fetch_max(&stats.max_read_batch, jobs.len() as u64);
        let mut answers: Vec<Option<Response>> = jobs.iter().map(|_| None).collect();
        let mut per_shard: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        for (i, job) in jobs.iter().enumerate() {
            if let Request::Classify { id } = job.req {
                per_shard[shard_of(id, n)].push(i);
            }
        }
        for (s, group) in per_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let batch = catch_unwind(AssertUnwindSafe(|| {
                let pin = rh.pin_shard(s);
                group
                    .iter()
                    .map(|&i| match jobs[i].req {
                        Request::Classify { id } => Response::Label(pin.classify(id)),
                        _ => unreachable!("group holds classify requests only"),
                    })
                    .collect::<Vec<Response>>()
            }));
            match batch {
                Ok(resps) => {
                    for (&i, resp) in group.iter().zip(resps) {
                        answers[i] = Some(resp);
                    }
                }
                Err(_) => {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                    for &i in group {
                        answers[i] =
                            Some(Response::Error("serve path panicked during classify".into()));
                    }
                }
            }
        }
        for (i, job) in jobs.into_iter().enumerate() {
            let resp = match answers[i].take() {
                Some(resp) => resp,
                None => match &job.req {
                    Request::CountPositive => {
                        guarded(&stats, "count", || Response::Count(rh.count_positive()))
                    }
                    Request::TopK { k } => {
                        let k = *k as usize;
                        guarded(&stats, "top_k", || Response::Ranked(rh.top_k(k)))
                    }
                    _ => Response::Error("write request reached the read lane".into()),
                },
            };
            complete(job, resp, &stats);
        }
        // fold the batch's pin-derived read counts into the registry so a
        // metrics scrape is at most one batch stale
        rh.sync_obs();
        observe_batch(&stats, &q, batch_len, t0_ns, LANE_READ);
    }
}

/// The write lane: drain a batch and apply it in arrival order, with every
/// maximal run of consecutive `Train` requests coalesced into **one**
/// `update_batch` maintenance round — the amortization the engine already
/// implements (one watermark-band pass per batch), now recovered from
/// concurrent client traffic.
fn write_lane(mut wh: WriteHandle, q: Arc<Bounded<Job>>, stats: Arc<StatsInner>, batch_max: usize) {
    while let Some(jobs) = q.pop_batch(batch_max) {
        let t0_ns = hazy_obs::now_ns();
        let batch_len = jobs.len();
        stats.write_batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_writes.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        fetch_max(&stats.max_write_batch, jobs.len() as u64);
        serve_writes(jobs, &stats, &mut wh);
        observe_batch(&stats, &q, batch_len, t0_ns, LANE_WRITE);
    }
}

/// The three write entry points, abstracted so the sharded write lane
/// (handle-based) and the engine lane (trait-object-based) share the
/// coalescing walk in [`serve_writes`] and its panic recovery.
trait WriteSink {
    fn apply_batch(&mut self, batch: &[hazy_learn::TrainingExample]);
    fn apply_insert(&mut self, e: Entity);
    fn apply_remove(&mut self, id: u64) -> bool;
}

impl WriteSink for WriteHandle {
    fn apply_batch(&mut self, batch: &[hazy_learn::TrainingExample]) {
        self.update_batch(batch);
    }
    fn apply_insert(&mut self, e: Entity) {
        self.insert_entity(e);
    }
    fn apply_remove(&mut self, id: u64) -> bool {
        self.remove_entity(id)
    }
}

impl WriteSink for Box<dyn DurableClassifierView + Send> {
    fn apply_batch(&mut self, batch: &[hazy_learn::TrainingExample]) {
        self.update_batch(batch);
    }
    fn apply_insert(&mut self, e: Entity) {
        self.insert_entity(e);
    }
    fn apply_remove(&mut self, id: u64) -> bool {
        self.remove_entity(id)
    }
}

/// Applies one drained write batch in arrival order with `Train` runs
/// coalesced; shared by both write-capable lanes.
fn serve_writes(jobs: Vec<Job>, stats: &StatsInner, sink: &mut impl WriteSink) {
    let mut it = jobs.into_iter().peekable();
    while let Some(job) = it.next() {
        match job.req {
            Request::Train { .. } => {
                // maximal run of consecutive Train requests → one round
                let mut run = vec![job];
                while matches!(it.peek(), Some(j) if matches!(j.req, Request::Train { .. })) {
                    run.push(it.next().expect("peeked"));
                }
                let mut examples = Vec::new();
                let mut sizes = Vec::with_capacity(run.len());
                for j in &run {
                    if let Request::Train { batch } = &j.req {
                        sizes.push(batch.len() as u64);
                        examples.extend(batch.iter().cloned());
                    }
                }
                let ok = catch_unwind(AssertUnwindSafe(|| sink.apply_batch(&examples))).is_ok();
                if !ok {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                }
                for (j, applied) in run.into_iter().zip(sizes) {
                    let resp = if ok {
                        Response::Done { applied }
                    } else {
                        Response::Error("serve path panicked during update_batch".into())
                    };
                    complete(j, resp, stats);
                }
            }
            Request::Insert { id, ref f } => {
                let e = Entity::new(id, f.clone());
                let resp = guarded(stats, "insert", || {
                    sink.apply_insert(e);
                    Response::Done { applied: 1 }
                });
                complete(job, resp, stats);
            }
            Request::Remove { id } => {
                let resp = guarded(stats, "remove", || Response::Done {
                    applied: u64::from(sink.apply_remove(id)),
                });
                complete(job, resp, stats);
            }
            _ => complete(job, Response::Error("read request reached the write lane".into()), stats),
        }
    }
}

/// The engine lane: one thread, one queue, any [`DurableClassifierView`].
fn engine_lane(
    mut engine: Box<dyn DurableClassifierView + Send>,
    q: Arc<Bounded<Job>>,
    stats: Arc<StatsInner>,
    batch_max: usize,
) {
    while let Some(jobs) = q.pop_batch(batch_max) {
        let t0_ns = hazy_obs::now_ns();
        let batch_len = jobs.len();
        stats.read_batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_reads.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        fetch_max(&stats.max_read_batch, jobs.len() as u64);
        serve_engine_batch(&mut engine, jobs, &stats);
        observe_batch(&stats, &q, batch_len, t0_ns, LANE_ENGINE);
    }
}

/// Serves one drained engine-lane batch in arrival order. Reads are
/// answered from the engine inline (its `read_single` is stateful — lazy
/// modes do maintenance on read, exactly as inside the RDBMS); the writes
/// queued ahead of a read are applied before it, so a pipelined
/// `[Train, Classify]` reads post-`Train` state. Between reads, `Train`
/// runs coalesce the same way as in the write lane.
fn serve_engine_batch(
    engine: &mut Box<dyn DurableClassifierView + Send>,
    jobs: Vec<Job>,
    stats: &StatsInner,
) {
    let mut writes = Vec::new();
    for job in jobs {
        if !job.req.is_read() {
            writes.push(job);
            continue;
        }
        serve_writes(std::mem::take(&mut writes), stats, engine);
        let resp = match job.req {
            Request::Classify { id } => {
                guarded(stats, "classify", || Response::Label(engine.read_single(id)))
            }
            Request::CountPositive => {
                guarded(stats, "count", || Response::Count(engine.count_positive()))
            }
            Request::TopK { k } => {
                guarded(stats, "top_k", || Response::Ranked(engine.top_k(k as usize)))
            }
            _ => unreachable!("is_read() is exactly the three read requests"),
        };
        complete(job, resp, stats);
    }
    serve_writes(writes, stats, engine);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[Train, Classify, Train, Train, Count]` drained as one batch: each
    /// read sees every write queued ahead of it and none queued behind.
    #[test]
    fn engine_batch_reads_see_the_writes_queued_ahead_of_them() {
        use hazy_core::{Architecture, Mode, ViewBuilder};
        use hazy_learn::TrainingExample;
        use hazy_linalg::FeatureVec;

        let f = FeatureVec::dense(vec![1.0, 0.5]);
        let build = || {
            ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
                .build(vec![Entity::new(7, f.clone())], &[])
        };
        // the reference: the same statements applied directly, in order
        let mut reference = build();
        let before = reference.read_single(7).expect("entity 7 exists");
        let flip = |y| vec![TrainingExample::new(0, f.clone(), y); 4];
        reference.update_batch(&flip(-before));
        assert_eq!(reference.read_single(7), Some(-before), "training must flip the label");
        reference.update_batch(&flip(before));
        reference.update_batch(&flip(before));
        let after = reference.count_positive();
        assert_eq!(reference.read_single(7), Some(before), "and flip it back");

        let reqs = [
            Request::Train { batch: flip(-before) },
            Request::Classify { id: 7 },
            Request::Train { batch: flip(before) },
            Request::Train { batch: flip(before) },
            Request::CountPositive,
        ];
        let tickets: Vec<Ticket> = reqs.iter().map(|_| Ticket { slot: Slot::new() }).collect();
        let jobs = reqs
            .iter()
            .zip(&tickets)
            .map(|(req, t)| Job { req: req.clone(), slot: Arc::clone(&t.slot), t0_ns: 0 })
            .collect();
        let stats = StatsInner::default();
        let mut engine = build();
        serve_engine_batch(&mut engine, jobs, &stats);
        let got: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(
            got,
            [
                Response::Done { applied: 4 },
                Response::Label(Some(-before)),
                Response::Done { applied: 4 },
                Response::Done { applied: 4 },
                Response::Count(after),
            ]
        );
        // the two adjacent Train requests still coalesced into one round
        assert_eq!(engine.stats().updates, reference.stats().updates);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn retry_hint_is_monotone_in_queue_depth() {
        // fixed drain rate: a deeper queue never hints a shorter wait
        let drain = 750_000; // 0.75 ms per queued request
        let mut prev = 0;
        for depth in [0u64, 1, 2, 3, 10, 100, 1_000, 10_000, 1 << 40, u64::MAX] {
            let hint = estimate_retry_after_ms(depth, drain, 1);
            assert!(hint >= prev, "depth {depth} hinted {hint} < {prev}");
            prev = hint;
        }
    }

    #[test]
    fn retry_hint_tracks_drain_rate_and_clamps() {
        // 100 queued × 2ms each = 200ms of backlog
        assert_eq!(estimate_retry_after_ms(100, 2_000_000, 1), 200);
        // sub-millisecond backlog rounds up, never to zero
        assert_eq!(estimate_retry_after_ms(1, 10_000, 1), 1);
        // unmeasured drain rate falls back to the configured floor
        assert_eq!(estimate_retry_after_ms(1_000_000, 0, 7), 7);
        // the hint never exceeds the 60 s ceiling
        assert_eq!(estimate_retry_after_ms(u64::MAX, u64::MAX, 1), 60_000);
        // a floor above the ceiling wins (degenerate config, still total)
        assert_eq!(estimate_retry_after_ms(10, 1_000_000, 100_000), 100_000);
    }

    #[test]
    fn ewma_converges_toward_observed_drain() {
        let stats = StatsInner::default();
        // first sample seeds the EWMA directly
        stats.observe_drain(10, 10_000);
        assert_eq!(stats.drain_ns_per_req.load(Ordering::Relaxed), 1_000);
        // repeated faster batches pull the estimate down toward 100ns
        for _ in 0..64 {
            stats.observe_drain(10, 1_000);
        }
        let est = stats.drain_ns_per_req.load(Ordering::Relaxed);
        assert!(est < 200, "EWMA failed to converge: {est}");
        // empty batches are ignored
        stats.observe_drain(0, 999_999);
        assert_eq!(stats.drain_ns_per_req.load(Ordering::Relaxed), est);
    }
}
