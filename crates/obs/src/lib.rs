//! Unified observability for the Hazy workspace.
//!
//! The paper's argument is a cost argument — lazy vs eager maintenance
//! trades read-time work against update-time work — so the system's costs
//! must be visible from *outside* the process, not only from stats structs
//! returned inside Rust tests. This crate is the one place every subsystem
//! reports through:
//!
//! * [`metrics`] — hand-rolled atomic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed mergeable [`Histogram`]s (exact-count percentile
//!   recovery for p50/p99/p999).
//! * [`mod@registry`] — a process-global name → metric table. Handles are
//!   `&'static`, so a call site registers once and records forever with a
//!   single relaxed atomic op.
//! * [`events`] — a bounded, mutex-guarded ring of structured trace events
//!   (WAL fsyncs, epoch publishes, migrations, failovers, sheds, …) with
//!   sequence numbers increasing in ring order. Under pressure old events
//!   are displaced and counted in a drop counter; a writer never waits
//!   for a consumer, only for another thread's O(1) push or pop.
//!
//! # Hot-path cost
//!
//! Every record/emit first checks [`enabled`] — one relaxed load and a
//! predictable branch. With recording enabled a counter bump is one
//! relaxed `fetch_add`. Building with the `noop` cargo feature compiles
//! the bodies out entirely. The `obs_overhead` bench bin in `hazy-bench`
//! measures the enabled-vs-disabled delta on the classify and update hot
//! paths and asserts the ceiling recorded in BENCH_PR10.md.
//!
//! # Global state caveat
//!
//! The registry and event ring are process-global: tests sharing a
//! process accumulate into the same counters. Assert deltas or `> 0`,
//! never exact process-wide totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod registry;

pub use events::{Event, EventKind, EventRing};
pub use metrics::{bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{like_match, MetricValue, Registry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide recording switch (default on). Unused when the crate is
/// built with the `noop` feature, which hard-wires [`enabled`] to false.
#[allow(dead_code)]
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is live. Inlined into every record/emit: a relaxed
/// load plus a branch when runtime-gated, a constant `false` under the
/// `noop` feature (the optimizer then deletes the record body).
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Turns recording on or off process-wide. A no-op under the `noop`
/// feature. Disabling does not clear anything already recorded.
pub fn set_enabled(on: bool) {
    let _ = on;
    #[cfg(not(feature = "noop"))]
    ENABLED.store(on, Ordering::SeqCst);
}

static START: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first observability call in this
/// process. Real (wall) time, deliberately independent of the storage
/// layer's virtual clock: trace timestamps order events for an operator,
/// they do not participate in simulated cost accounting.
#[inline]
pub fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The process-global registry ([`Registry::global`]).
#[inline]
pub fn registry() -> &'static Registry {
    Registry::global()
}

/// Registers (or fetches) the global counter `name`.
#[inline]
pub fn counter(name: &str) -> &'static Counter {
    Registry::global().counter(name)
}

/// Registers (or fetches) the global gauge `name`.
#[inline]
pub fn gauge(name: &str) -> &'static Gauge {
    Registry::global().gauge(name)
}

/// Registers (or fetches) the global histogram `name`.
#[inline]
pub fn histogram(name: &str) -> &'static Histogram {
    Registry::global().histogram(name)
}

/// Emits a trace event into the process-global ring
/// ([`events::global`]). Never blocks; see [`EventRing::emit`].
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64, c: u64) {
    events::global().emit(kind, a, b, c);
}

/// The last `limit` events still retained, oldest first. Drains the
/// global ring into a bounded side log so repeated calls (e.g. SQL
/// `SHOW EVENTS`) see a stable, growing history instead of consuming
/// each other's view.
pub fn recent_events(limit: usize) -> Vec<Event> {
    events::recent(limit)
}

/// Renders every registered metric as Prometheus-style text exposition.
pub fn render_prometheus() -> String {
    Registry::global().render_prometheus()
}
