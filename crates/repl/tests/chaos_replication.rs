//! Chaos differential suite for log-shipping replication: run a long
//! random operation script against a replicated group whose transport
//! injects every fault kind at shipment boundaries — dropped, torn,
//! duplicated and delayed shipments, replica-store `EIO`/`ENOSPC`, replica
//! crashes mid-replay, primary crashes mid-ship — and prove that
//!
//! * a fully caught-up replica serves the same answers as a clean view
//!   that executed the primary's logged prefix, and
//! * the replica **promoted at failover** has the same model bits, the
//!   same classify / scan / top_k answers, and the same [`ViewStats`] as a
//!   clean view that executed exactly the durable prefix shipping
//!   truncated to (the durable-prefix oracle).
//!
//! The script, fault schedule and backoff jitter are all seeded
//! (`HAZY_CRASH_SEED`), so CI replays a deterministic seed matrix.
//!
//! [`ViewStats`]: hazy_core::ViewStats

use hazy_core::{Architecture, ClassifierView, Mode, ViewBuilder, ViewRestorer};
use hazy_repl::{FaultPlan, GroupConfig, ReplicaView, ReplicationGroup, ShipFault};
use hazy_testkit::{
    apply, assert_answers_match, assert_models_bit_identical, assert_ranked_bit_identical,
    assert_stats_match, build_plain, builder, durable, restorer, script, seed, BoxedView, Mix, Op, PrefixOracle, Shape,
};
use hazy_tune::{build_sharded_adaptive, AdvisorConfig, TuneRestorer};

const CKPT_INTERVAL: u64 = 48;
/// Ranked-read depth of the differential probes.
const TOP_K: usize = 7;

/// What one matrix row replicates: the primary's deployment (the oracle is
/// the same deployment, minus durability and replication) and its script.
struct Deployment {
    label: String,
    b: ViewBuilder,
    shape: Shape,
    shards: usize,
    /// Every shard wrapped in an `AdaptiveView` (manual advisor: the script
    /// orders the migrations).
    adaptive: bool,
}

impl Deployment {
    fn plain(arch: Architecture, mode: Mode, shards: usize) -> Deployment {
        let label = format!("{}/{}/shards={shards}", arch.name(), mode.name());
        let shape = Shape::CRASH_520;
        Deployment { label, b: builder(arch, mode), shape, shards, adaptive: false }
    }

    /// The composed stack: 3 adaptive shards that migrate away at one third
    /// of the script and home at two thirds (each a logged, shipped,
    /// replayed `MIGRATE` record), under a mix that also retracts entities.
    fn sharded_adaptive() -> Deployment {
        let (home, away) =
            ((Architecture::HazyMem, Mode::Eager), (Architecture::HazyDisk, Mode::Lazy));
        let base = Shape::CRASH_520;
        let shape = Shape {
            mix: Mix { update: 45, insert: 8, remove: 6, read: 19, count: 8, members: 7, top_k: 5 },
            pinned: vec![
                (base.ops / 3, Op::SetArch(away.0, away.1)),
                (2 * base.ops / 3, Op::SetArch(home.0, home.1)),
            ],
            ..base
        };
        let label = "sharded-adaptive/shards=3".to_string();
        Deployment { label, b: builder(home.0, home.1), shape, shards: 3, adaptive: true }
    }

    fn build(&self) -> BoxedView {
        let entities = self.shape.base_entities();
        if self.adaptive {
            let cfg = AdvisorConfig::manual();
            Box::new(build_sharded_adaptive(&self.b, cfg, self.shards, entities, &[]))
        } else {
            build_plain(&self.b, self.shards, entities)
        }
    }

    fn group(&self, replicas: usize, plan: FaultPlan, seed: u64) -> ReplicationGroup {
        let restorer: &'static dyn ViewRestorer =
            if self.adaptive { &TuneRestorer } else { restorer(self.shards) };
        let cfg = GroupConfig {
            replicas,
            max_lag: 6,
            interval: CKPT_INTERVAL,
            chunk_frames: 3,
            seed,
        };
        let primary = durable(self.build(), CKPT_INTERVAL);
        ReplicationGroup::new(self.b.clone(), primary, cfg, plan, restorer).expect("bootstrap")
    }

    /// The promoted primary against a clean execution of what survived:
    /// stats, model bits, every answer.
    fn assert_promoted_matches(
        &self,
        promoted: &mut dyn ClassifierView,
        clean: &mut dyn ClassifierView,
        population: &[u64],
        ctx: &str,
    ) {
        assert_stats_match(&promoted.stats(), &clean.stats(), self.shards, ctx);
        assert_eq!(clean.stats().migrations > 0, self.adaptive, "{ctx}: scripted migrations ran");
        assert_models_bit_identical(promoted.model(), clean.model(), ctx);
        assert_answers_match(promoted, clean, population, TOP_K, ctx);
    }
}

/// Serving probe for a live (not promoted) replica: answers at its applied
/// LSN must equal the oracle's. Model bits too — replication moves the
/// model only through replayed records.
fn assert_replica_serves_prefix(
    replica: &mut ReplicaView,
    oracle: &mut dyn ClassifierView,
    population: &[u64],
    ctx: &str,
) {
    assert_models_bit_identical(replica.model(), oracle.model(), ctx);
    assert_eq!(replica.count_positive(), oracle.count_positive(), "{ctx}: count_positive");
    let (mut g, mut w) = (replica.positive_ids(), oracle.positive_ids());
    g.sort_unstable();
    w.sort_unstable();
    assert_eq!(g, w, "{ctx}: scan_positive");
    assert_ranked_bit_identical(&replica.top_k(TOP_K), &oracle.top_k(TOP_K), ctx);
    for &id in population.iter().step_by(9) {
        assert_eq!(replica.read_single(id), oracle.read_single(id), "{ctx}: classify({id})");
    }
}

/// A hostile transport: every fault kind, cycling, at every 13th shipment.
fn hostile_plan(until: u64) -> FaultPlan {
    let kinds = [
        ShipFault::Drop,
        ShipFault::Torn,
        ShipFault::Duplicate,
        ShipFault::Delay(2),
        ShipFault::StoreEio(2),
        ShipFault::StoreNoSpace(2),
        ShipFault::ReplicaCrash,
    ];
    let mut plan = FaultPlan::none();
    let mut ord = 5u64;
    let mut k = 0usize;
    while ord < until {
        plan = plan.inject(ord, kinds[k % kinds.len()]);
        k += 1;
        ord += 13;
    }
    plan
}

/// The main differential: drive the script through a replicated group over
/// a hostile transport, probe caught-up replicas against an incrementally
/// advanced oracle, then fail over and diff the promoted replica against a
/// clean execution of the durable prefix.
fn run_chaos(d: &Deployment, replicas: usize) {
    let seed = seed();
    let (ops, population) = script(seed, &d.shape);
    let ctx_base = format!("{}/seed={seed}", d.label);
    let mut group = d.group(replicas, hostile_plan(1400), seed);

    let mut oracle = PrefixOracle::new(&ops, d.build());
    let mut probes = 0usize;
    for (i, op) in ops.iter().enumerate() {
        apply(group.primary_mut(), op);
        group.pump();
        // every op logs exactly one record, so LSN == script position
        assert_eq!(
            group.primary_next_lsn() as usize,
            i + 1,
            "{ctx_base}: primary stream drifted from the script"
        );
        if i % 31 == 0 {
            let target = group.primary_next_lsn();
            for ri in 0..group.replica_count() {
                if group.replica(ri).next_lsn() == target {
                    oracle.advance_to(i + 1);
                    let ctx = format!("{ctx_base}@op{i}/replica{ri}");
                    assert_replica_serves_prefix(
                        group.replica_mut(ri),
                        oracle.view.as_mut(),
                        &population,
                        &ctx,
                    );
                    probes += 1;
                    break;
                }
            }
        }
    }
    assert!(probes > 4, "{ctx_base}: too few caught-up replicas to probe ({probes})");

    // drain injected delays so failover happens from a caught-up group
    for _ in 0..12 {
        group.pump();
    }
    let ship = group.shipper_stats();
    assert!(ship.dropped > 0, "{ctx_base}: Drop never fired");
    assert!(ship.torn_shipments > 0, "{ctx_base}: Torn never fired");
    assert!(ship.torn_tails > 0, "{ctx_base}: replicas never observed a torn tail");
    assert!(ship.duplicated > 0, "{ctx_base}: Duplicate never fired");
    assert!(ship.duplicates_absorbed > 0, "{ctx_base}: duplicates were not absorbed");
    assert!(ship.delayed > 0, "{ctx_base}: Delay never fired");
    assert!(ship.store_faults > 0, "{ctx_base}: store faults never fired");
    assert!(ship.replica_crashes > 0, "{ctx_base}: ReplicaCrash never fired");
    let retry = group.retry_stats();
    assert!(retry.retries > 0, "{ctx_base}: store faults never exercised backoff");
    assert!(retry.backoff_ns > 0, "{ctx_base}: backoff never charged the clock");
    assert_eq!(retry.exhausted, 0, "{ctx_base}: finite faults must stay within the budget");

    // ---- failover: the promoted replica against the durable-prefix oracle
    let report = group.fail_over().unwrap_or_else(|e| panic!("{ctx_base}: failover failed: {e}"));
    let prefix = report.promoted_lsn as usize;
    assert!(
        prefix + 8 >= ops.len(),
        "{ctx_base}: promoted replica too far behind ({prefix}/{})",
        ops.len()
    );
    let mut clean = PrefixOracle::new(&ops, d.build());
    clean.advance_to(prefix);
    let ctx = format!("{ctx_base}@promoted/{prefix}");
    d.assert_promoted_matches(group.primary_mut(), clean.view.as_mut(), &population, &ctx);
}

macro_rules! chaos_matrix {
    ($($name:ident => ($arch:expr, $mode:expr, $shards:expr, $replicas:expr);)*) => {
        $(
            #[test]
            fn $name() {
                run_chaos(&Deployment::plain($arch, $mode, $shards), $replicas);
            }
        )*
    };
}

chaos_matrix! {
    naive_mem_eager_unsharded => (Architecture::NaiveMem, Mode::Eager, 1, 2);
    hazy_mem_lazy_unsharded => (Architecture::HazyMem, Mode::Lazy, 1, 2);
    naive_disk_lazy_unsharded => (Architecture::NaiveDisk, Mode::Lazy, 1, 2);
    hazy_disk_eager_unsharded => (Architecture::HazyDisk, Mode::Eager, 1, 2);
    hybrid_lazy_unsharded => (Architecture::Hybrid, Mode::Lazy, 1, 3);
    hazy_mem_eager_sharded => (Architecture::HazyMem, Mode::Eager, 3, 2);
    hybrid_eager_sharded => (Architecture::Hybrid, Mode::Eager, 3, 2);
}

/// Primary crash mid-ship: the fault plan kills the primary at a shipment
/// boundary while both replicas are stalled behind delayed shipments, the
/// group auto-promotes the furthest-ahead replica, the logged tail past its
/// LSN is truncated, and the system keeps executing the rest of the script
/// on the new primary. The final state must equal a clean view that
/// executed exactly the surviving operation sequence: the promoted prefix
/// plus everything after the crash.
fn run_primary_crash(d: &Deployment) {
    let seed = seed();
    let (ops, population) = script(seed, &d.shape);
    let ctx = format!("primary-crash/{}/seed={seed}", d.label);
    // stall both replicas, then kill the primary on the catch-up shipment
    let plan = FaultPlan::none()
        .inject(400, ShipFault::Delay(6))
        .inject(401, ShipFault::Delay(6))
        .inject(402, ShipFault::PrimaryCrash);
    let mut group = d.group(2, plan, seed);

    let mut survived: Vec<usize> = Vec::with_capacity(ops.len());
    let mut crashes_seen = 0u64;
    for (i, op) in ops.iter().enumerate() {
        // a Remove lost with the truncated tail leaves its id live; the
        // script's later resurrection of that id then replaces the entity
        apply(group.primary_mut(), op);
        survived.push(i);
        group.pump();
        let promotions = group.stats().promotions;
        if promotions > crashes_seen {
            crashes_seen = promotions;
            let prefix = group.primary_next_lsn() as usize;
            assert!(
                prefix < survived.len(),
                "{ctx}: a crash behind stalled replicas must truncate the log"
            );
            survived.truncate(prefix);
        }
    }
    assert_eq!(crashes_seen, 1, "{ctx}: the injected primary crash never fired");
    assert_eq!(group.shipper_stats().primary_crashes, 1, "{ctx}");
    for _ in 0..12 {
        group.pump();
    }
    // the surviving replica must have been re-pointed and caught up
    assert_eq!(group.replica_count(), 1, "{ctx}");
    assert_eq!(
        group.replica(0).next_lsn(),
        group.primary_next_lsn(),
        "{ctx}: survivor not re-pointed to the new primary"
    );

    let mut clean = d.build();
    for &idx in &survived {
        apply(clean.as_mut(), &ops[idx]);
    }
    d.assert_promoted_matches(group.primary_mut(), clean.as_mut(), &population, &ctx);
}

#[test]
fn primary_crash_mid_ship_fails_over_unsharded() {
    run_primary_crash(&Deployment::plain(Architecture::HazyMem, Mode::Lazy, 1));
}

#[test]
fn primary_crash_mid_ship_fails_over_sharded() {
    run_primary_crash(&Deployment::plain(Architecture::NaiveMem, Mode::Eager, 3));
}

/// The composed stack — sharding + live migration + durability +
/// replication + transport faults in one process — over the hostile
/// transport, then through failover.
#[test]
fn sharded_adaptive_migrating_primary() {
    run_chaos(&Deployment::sharded_adaptive(), 2);
}

/// The same stack with the primary killed mid-ship.
#[test]
fn primary_crash_mid_ship_fails_over_sharded_adaptive() {
    run_primary_crash(&Deployment::sharded_adaptive());
}
