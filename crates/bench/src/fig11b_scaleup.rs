//! Figure 11(B): scale-up — Single-Entity reads/s vs reader threads.
//!
//! The one wall-clock experiment: Hazy-MM's single-entity read path is
//! pure (`&self`), so reader threads need no locking at all. The paper
//! reaches 42.7k reads/s at 16 threads on an 8-core machine; the shape to
//! reproduce is near-linear scaling to the core count, then a plateau.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hazy_core::{Architecture, Mode, ViewBuilder};
use hazy_datagen::DatasetSpec;

use crate::common::{entities_of, fmt_rate, render_table, warm_examples, DB_SCALE};

const READS_PER_THREAD: u64 = 5_000;

/// Real (wall-clock) per-statement cost: the paper's 42.7k peak includes
/// PostgreSQL's statement dispatch, which is what saturates; a pure HashMap
/// lookup would only measure memory bandwidth. Spin for the same ~70 µs the
/// virtual model charges.
fn spin_statement_overhead() {
    let t0 = Instant::now();
    while t0.elapsed() < std::time::Duration::from_micros(70) {
        std::hint::spin_loop();
    }
}

/// Runs the scale-up sweep (wall clock).
pub fn run() -> String {
    let spec = DatasetSpec::dblife().scaled(DB_SCALE);
    let ds = spec.generate();
    let warm = warm_examples(&spec, 12_000);
    let view = ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
        .norm_pair(spec.norm_pair())
        .dim(spec.dim)
        .build_hazy_mem(entities_of(&ds), &warm);
    let n = ds.len() as u64;

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let total = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let view = &view;
                let total = &total;
                s.spawn(move || {
                    // cheap deterministic per-thread id sequence
                    let mut x = 0x9E3779B9u64.wrapping_mul(t as u64 + 1) | 1;
                    let mut served = 0;
                    for _ in 0..READS_PER_THREAD {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        spin_statement_overhead();
                        if view.read_single_shared(x % n).is_some() {
                            served += 1;
                        }
                    }
                    total.fetch_add(served, Ordering::Relaxed);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let served = total.load(Ordering::Relaxed);
        rows.push(vec![
            threads.to_string(),
            fmt_rate(served as f64 / wall),
            format!("{:.2}s", wall),
        ]);
    }
    let mut out = render_table(
        "Figure 11(B) — scale-up: Hazy-MM single-entity reads/s vs threads (wall clock)",
        &["Threads", "reads/s", "wall"],
        &rows,
    );
    out.push_str(
        "Paper: near-linear to the core count, peak 42.7k reads/s at 16 threads on 8 cores.\n",
    );
    out
}
