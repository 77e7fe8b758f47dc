//! Tests that run the workloads themselves (at toy size): determinism of
//! the generated inputs and of `durable_train`'s program-side counts, and
//! the open-loop driver's accounting.

use std::time::Duration;

use hazy_front::{Request, Response};

use crate::client::{open_loop, Scheduled};
use crate::workloads::{
    durable_train, sql_mixed, tcp_mixed, Deployment, Forest, RunResult, RunSpec, Sizes,
};

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        seed,
        seconds: 0.4,
        sizes: Sizes::QUICK,
        settle: Duration::ZERO,
    }
}

fn hash_of(r: &RunResult) -> String {
    let (_, v) = r
        .info
        .iter()
        .find(|(k, _)| k == "stream_hash")
        .expect("stream_hash recorded");
    v.as_str().expect("hash is a string").to_string()
}

#[test]
fn stream_hash_is_equal_for_equal_seeds_and_differs_across_seeds() {
    // tcp_mixed's writer gets a different distance each run; the hash is of
    // the generated inputs, not of how far the clock let them go
    let (a, b, c) = (
        tcp_mixed::run(&spec(5)),
        tcp_mixed::run(&spec(5)),
        tcp_mixed::run(&spec(6)),
    );
    assert_eq!(hash_of(&a), hash_of(&b));
    assert_ne!(hash_of(&a), hash_of(&c));
    assert_eq!(
        (a.failed, b.failed, c.failed),
        (0, 0, 0),
        "oracle disagreed"
    );

    let (a, b, c) = (
        sql_mixed::run(&spec(5)),
        sql_mixed::run(&spec(5)),
        sql_mixed::run(&spec(6)),
    );
    assert_eq!(hash_of(&a), hash_of(&b));
    assert_ne!(hash_of(&a), hash_of(&c));
    assert_eq!((a.failed, b.failed, c.failed), (0, 0, 0));
}

#[test]
fn durable_train_counts_repeat_exactly() {
    let (ra, a) = durable_train::run_with_counts(&spec(9));
    let (rb, b) = durable_train::run_with_counts(&spec(9));
    assert_eq!(hash_of(&ra), hash_of(&rb));
    assert_eq!((ra.failed, rb.failed), (0, 0));
    assert!(a.wal_records > 0 && a.updates > 0);
    // storage.wal_bytes_per_op, core.reclassified_per_update and
    // core.virtual_ns_per_update are ratios of these
    assert_eq!((a.wal_bytes, a.wal_records), (b.wal_bytes, b.wal_records));
    assert_eq!(
        (a.reclassified, a.updates, a.reorgs),
        (b.reclassified, b.updates, b.reorgs)
    );
    assert_eq!(a.virtual_ns, b.virtual_ns);
    assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes);
    assert_eq!(a.json().to_line(), b.json().to_line());
    let (_, c) = durable_train::run_with_counts(&spec(10));
    assert_ne!(a.wal_bytes, c.wal_bytes, "another seed logs other bytes");
}

#[test]
fn open_loop_sends_on_schedule_and_times_from_the_due_time() {
    let forest = Forest::generate(&Sizes::QUICK);
    let dep = Deployment::sharded(&forest);
    let mut conn = dep.connect();
    // a burst of 300 due at once, then one straggler 30 ms later
    let mut schedule: Vec<Scheduled> = (0..300)
        .map(|i| Scheduled {
            due_ns: 1_000_000,
            req: Request::Classify { id: i % forest.n() },
            kind: 0,
        })
        .collect();
    schedule.push(Scheduled {
        due_ns: 31_000_000,
        req: Request::CountPositive,
        kind: 1,
    });
    let out = open_loop(
        &mut conn,
        &schedule,
        2,
        |i, resp| match resp {
            Response::Label(Some(_)) => i < 300,
            Response::Count(_) => i == 300,
            _ => false,
        },
        Duration::from_secs(5),
    );
    dep.shutdown();
    assert_eq!(
        (out.counts.sent, out.counts.ok, out.counts.failed()),
        (301, 301, 0)
    );
    assert_eq!(
        (
            out.latency[0].len(),
            out.latency[1].len(),
            out.lateness.len()
        ),
        (300, 1, 301)
    );
    // nothing leaves early: the straggler was not sent with the burst, so
    // the run lasted past its due time and it saw an empty pipe
    assert!(out.wall_s >= 0.031, "wall {}", out.wall_s);
    assert!(
        out.backlog_mid >= 1 && out.backlog_end == 1,
        "{} {}",
        out.backlog_mid,
        out.backlog_end
    );
    // a late generator shows as lateness and is inside the latency too:
    // every latency is taken from the due time, so none can undercut the
    // smallest lateness
    assert!(out.latency[0].exact(0.0) >= out.lateness.exact(0.0));
}
