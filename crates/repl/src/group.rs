//! The replication group: staleness-bounded read routing, health checks,
//! graceful degradation, and failover by promotion.

use hazy_core::{ClassifierView, DurableView, ViewBuilder, ViewRestorer, ViewStats};
use hazy_learn::{Label, LinearModel, TrainingExample};
use hazy_storage::{Retrier, RetryPolicy, RetryStats, StorageError, WalEnd};

use crate::fault::FaultPlan;
use crate::replica::ReplicaView;
use crate::shipper::{LogShipper, ShipOutcome, ShipperStats};

/// Global replication metrics: shipment/eviction/failover counts and the
/// current worst replica lag, across every group in the process.
struct ReplObs {
    shipments: &'static hazy_obs::Counter,
    evictions: &'static hazy_obs::Counter,
    readmissions: &'static hazy_obs::Counter,
    failovers: &'static hazy_obs::Counter,
    transport_errors: &'static hazy_obs::Counter,
    replica_reads: &'static hazy_obs::Counter,
    primary_fallbacks: &'static hazy_obs::Counter,
    max_lag: &'static hazy_obs::Gauge,
}

fn repl_obs() -> &'static ReplObs {
    static OBS: std::sync::OnceLock<ReplObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ReplObs {
        shipments: hazy_obs::counter("repl_shipments_total"),
        evictions: hazy_obs::counter("repl_evictions_total"),
        readmissions: hazy_obs::counter("repl_readmissions_total"),
        failovers: hazy_obs::counter("repl_failovers_total"),
        transport_errors: hazy_obs::counter("repl_transport_errors_total"),
        replica_reads: hazy_obs::counter("repl_replica_reads_total"),
        primary_fallbacks: hazy_obs::counter("repl_primary_fallbacks_total"),
        max_lag: hazy_obs::gauge("repl_max_observed_lag"),
    })
}


/// Sizing and policy for a [`ReplicationGroup`].
#[derive(Clone, Copy, Debug)]
pub struct GroupConfig {
    /// Read replicas to bootstrap.
    pub replicas: usize,
    /// Staleness bound in LSN: a replica lagging further than this after a
    /// pump is health-checked out of read rotation until it catches up.
    /// Zero means "must be fully caught up".
    pub max_lag: u64,
    /// Auto-checkpoint interval handed to a promoted primary.
    pub interval: u64,
    /// Frames per shipment (the chunking unit faults act on).
    pub chunk_frames: usize,
    /// Seed for the per-replica backoff jitter (deterministic chaos).
    pub seed: u64,
}

impl Default for GroupConfig {
    fn default() -> GroupConfig {
        GroupConfig { replicas: 2, max_lag: 0, interval: 256, chunk_frames: 4, seed: 1 }
    }
}

/// What a promotion did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromotionReport {
    /// The new primary's next LSN — shipping is truncated here: operations
    /// the old primary logged past the promoted replica's applied LSN are
    /// gone, exactly like a lost unsynced WAL tail.
    pub promoted_lsn: u64,
    /// Records the promotion replayed over the replica's bootstrap
    /// checkpoint.
    pub replayed: u64,
    /// How the promoted replica's log ended (a non-clean end means the
    /// last shipment tore and recovery truncated it).
    pub wal_end: WalEnd,
    /// Replicas still in the group after promotion.
    pub remaining_replicas: usize,
}

/// Group-level counters (transport counters live in [`ShipperStats`],
/// backoff counters in [`RetryStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Reads served by a replica within the staleness bound.
    pub replica_reads: u64,
    /// Reads that fell back to the primary because no replica was healthy
    /// — the graceful-degradation path, reported rather than silent.
    pub primary_fallbacks: u64,
    /// Healthy-to-unhealthy transitions (lag bound exceeded or transport
    /// gave up).
    pub evictions: u64,
    /// Unhealthy-to-healthy transitions after catch-up.
    pub readmissions: u64,
    /// Failovers performed.
    pub promotions: u64,
    /// Replicas rebuilt from a fresh snapshot (cursor unrecoverable).
    pub rebootstraps: u64,
    /// Largest post-pump lag ever observed, in LSN (monotone).
    pub max_observed_lag: u64,
    /// Shipments abandoned after the retry budget was exhausted.
    pub transport_errors: u64,
}

struct ReplicaSlot {
    view: ReplicaView,
    retrier: Retrier,
    healthy: bool,
    /// Pump rounds a delayed shipment still blocks this replica.
    delay: u32,
}

/// A primary plus N log-shipped read replicas behind one routing facade.
///
/// Writes go to the primary (WAL-logged as always); [`pump`] ships the
/// stable log outward; reads are routed round-robin across replicas whose
/// lag is within bound, falling back to the primary — counted in
/// [`GroupStats::primary_fallbacks`] — when none qualifies. Failover
/// ([`fail_over`]) promotes the furthest-ahead replica by running crash
/// recovery over its own store.
///
/// A primary read is a logged operation (reads do maintenance in this
/// engine); a replica read is not. Routing therefore changes the
/// primary's logged stream — which is fine, because the stream stays
/// deterministic and replicas replay whatever was actually logged.
///
/// [`pump`]: ReplicationGroup::pump
/// [`fail_over`]: ReplicationGroup::fail_over
pub struct ReplicationGroup {
    builder: ViewBuilder,
    restorer: &'static dyn ViewRestorer,
    primary: DurableView,
    replicas: Vec<ReplicaSlot>,
    shipper: LogShipper,
    max_lag: u64,
    interval: u64,
    rr: usize,
    stats: GroupStats,
}

impl std::fmt::Debug for ReplicationGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationGroup")
            .field("primary", &self.primary)
            .field("replicas", &self.replicas.len())
            .field("healthy", &self.healthy_count())
            .field("max_lag", &self.max_lag)
            .finish()
    }
}

impl ReplicationGroup {
    /// Wraps `primary` and bootstraps `config.replicas` replicas from it,
    /// shipping through a transport that injects `plan`.
    ///
    /// # Errors
    /// Propagates a bootstrap failure (see [`ReplicaView::bootstrap`]).
    pub fn new(
        builder: ViewBuilder,
        primary: DurableView,
        config: GroupConfig,
        plan: FaultPlan,
        restorer: &'static dyn ViewRestorer,
    ) -> Result<ReplicationGroup, StorageError> {
        let mut replicas = Vec::with_capacity(config.replicas);
        for i in 0..config.replicas {
            let view = ReplicaView::bootstrap(&builder, &primary, restorer)?;
            let retrier =
                Retrier::new(RetryPolicy::shipping(), config.seed.wrapping_add(i as u64));
            replicas.push(ReplicaSlot { view, retrier, healthy: true, delay: 0 });
        }
        Ok(ReplicationGroup {
            builder,
            restorer,
            primary,
            replicas,
            shipper: LogShipper::new(config.chunk_frames, plan),
            max_lag: config.max_lag,
            interval: config.interval,
            rr: 0,
            stats: GroupStats::default(),
        })
    }

    // ---- shipping -----------------------------------------------------------------

    /// One replication round: ship to every replica until it is caught up
    /// or a fault stops it, then refresh health. If the fault plan kills
    /// the primary mid-ship, the group fails over before returning.
    pub fn pump(&mut self) {
        let mut primary_crashed = false;
        for i in 0..self.replicas.len() {
            if self.pump_slot(i) {
                // a dead primary ships nothing more this round
                primary_crashed = true;
                break;
            }
        }
        if primary_crashed {
            // the plan killed the primary mid-ship; promotion is the only
            // way forward (an empty group would have refused — a group is
            // created with at least one replica when failover matters)
            let _ = self.fail_over();
        }
    }

    /// Ships to slot `i` until it is caught up or blocked. Returns true if
    /// the fault plan crashed the primary.
    fn pump_slot(&mut self, i: usize) -> bool {
        if self.replicas[i].delay > 0 {
            self.replicas[i].delay -= 1;
            self.refresh_health(i, true);
            return false;
        }
        let mut transport_ok = true;
        loop {
            let slot = &mut self.replicas[i];
            match self.shipper.ship(&self.primary, &mut slot.view, &mut slot.retrier) {
                Ok(ShipOutcome::Advanced { .. }) => {
                    repl_obs().shipments.inc();
                    hazy_obs::emit(
                        hazy_obs::EventKind::ReplShipment,
                        i as u64,
                        slot.view.next_lsn(),
                        0,
                    );
                    continue;
                }
                Ok(ShipOutcome::UpToDate) | Ok(ShipOutcome::Dropped) => break,
                Ok(ShipOutcome::Delayed(rounds)) => {
                    slot.delay = rounds;
                    break;
                }
                Ok(ShipOutcome::NeedsBootstrap) => {
                    match ReplicaView::bootstrap(&self.builder, &self.primary, self.restorer) {
                        Ok(fresh) => {
                            slot.view = fresh;
                            self.stats.rebootstraps += 1;
                        }
                        Err(_) => transport_ok = false,
                    }
                    break;
                }
                Ok(ShipOutcome::PrimaryCrashed) => return true,
                Err(_) => {
                    // retry budget exhausted (or a corrupt shipment): leave
                    // the replica where it is; the next pump retries with a
                    // fresh budget
                    self.stats.transport_errors += 1;
                    repl_obs().transport_errors.inc();
                    transport_ok = false;
                    break;
                }
            }
        }
        self.refresh_health(i, transport_ok);
        false
    }

    /// Recomputes slot `i`'s health from its post-pump lag, counting
    /// eviction/readmission transitions.
    fn refresh_health(&mut self, i: usize, transport_ok: bool) {
        let lag = self.replica_lag(i);
        self.stats.max_observed_lag = self.stats.max_observed_lag.max(lag);
        repl_obs().max_lag.set_max(lag as f64);
        let now_healthy = transport_ok && lag <= self.max_lag;
        let was = self.replicas[i].healthy;
        if was && !now_healthy {
            self.stats.evictions += 1;
            repl_obs().evictions.inc();
            hazy_obs::emit(hazy_obs::EventKind::ReplEviction, i as u64, lag, 0);
        } else if !was && now_healthy {
            self.stats.readmissions += 1;
            repl_obs().readmissions.inc();
            hazy_obs::emit(hazy_obs::EventKind::ReplReadmission, i as u64, 0, 0);
        }
        self.replicas[i].healthy = now_healthy;
    }

    // ---- failover -----------------------------------------------------------------

    /// Fails over: promote the furthest-ahead replica (preferring healthy
    /// ones), truncate shipping to its LSN, and re-point the rest. A
    /// replica that had applied *more* log than the promoted one cannot be
    /// re-pointed — the new primary will assign those LSNs to different
    /// operations — so it is re-bootstrapped instead of being allowed to
    /// diverge.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the group has no replica left, or
    /// when the chosen replica's store fails to recover.
    pub fn fail_over(&mut self) -> Result<PromotionReport, StorageError> {
        let pick = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, s)| s.healthy)
            .max_by_key(|(_, s)| s.view.next_lsn())
            .map(|(i, _)| i)
            .or_else(|| {
                self.replicas
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, s)| s.view.next_lsn())
                    .map(|(i, _)| i)
            })
            .ok_or(StorageError::Corrupt("no replica to promote"))?;
        let slot = self.replicas.remove(pick);
        let (new_primary, info) = slot.view.promote(self.interval)?;
        self.primary = new_primary;
        self.stats.promotions += 1;
        self.rr = 0;
        let promoted_lsn = self.primary_next_lsn();
        repl_obs().failovers.inc();
        hazy_obs::emit(hazy_obs::EventKind::ReplFailover, pick as u64, promoted_lsn, 0);
        for i in 0..self.replicas.len() {
            if self.replicas[i].view.next_lsn() > promoted_lsn {
                if let Ok(fresh) =
                    ReplicaView::bootstrap(&self.builder, &self.primary, self.restorer)
                {
                    self.replicas[i].view = fresh;
                    self.replicas[i].healthy = true;
                    self.stats.rebootstraps += 1;
                }
            }
        }
        Ok(PromotionReport {
            promoted_lsn,
            replayed: info.replayed,
            wal_end: info.wal_end,
            remaining_replicas: self.replicas.len(),
        })
    }

    // ---- writes (primary only) ----------------------------------------------------

    /// Applies a training batch on the primary (WAL-logged).
    pub fn update_batch(&mut self, batch: &[TrainingExample]) {
        self.primary.update_batch(batch);
    }

    /// Inserts an entity on the primary (WAL-logged).
    pub fn insert_entity(&mut self, e: hazy_core::Entity) {
        self.primary.insert_entity(e);
    }

    /// Removes an entity on the primary (WAL-logged).
    pub fn remove_entity(&mut self, id: u64) -> bool {
        self.primary.remove_entity(id)
    }

    /// Forces a reorganization on the primary (WAL-logged).
    pub fn reorganize(&mut self) {
        self.primary.reorganize();
    }

    /// Checkpoints the primary now.
    pub fn checkpoint(&mut self) {
        self.primary.checkpoint();
    }

    // ---- reads (routed) -----------------------------------------------------------

    /// Routes a single-entity read: a healthy replica if one exists (not
    /// logged, served at its applied LSN), else the primary (logged).
    pub fn read_single(&mut self, id: u64) -> Option<Label> {
        match self.pick_replica() {
            Some(i) => self.replicas[i].view.read_single(id),
            None => self.primary.read_single(id),
        }
    }

    /// Routes an All-Members count.
    pub fn count_positive(&mut self) -> u64 {
        match self.pick_replica() {
            Some(i) => self.replicas[i].view.count_positive(),
            None => self.primary.count_positive(),
        }
    }

    /// Routes an All-Members id listing.
    pub fn positive_ids(&mut self) -> Vec<u64> {
        match self.pick_replica() {
            Some(i) => self.replicas[i].view.positive_ids(),
            None => self.primary.positive_ids(),
        }
    }

    /// Routes a ranked read.
    pub fn top_k(&mut self, k: usize) -> Vec<(u64, f64)> {
        match self.pick_replica() {
            Some(i) => self.replicas[i].view.top_k(k),
            None => self.primary.top_k(k),
        }
    }

    /// Round-robin over healthy replicas; `None` routes to the primary.
    fn pick_replica(&mut self) -> Option<usize> {
        let n = self.replicas.len();
        for step in 0..n {
            let i = (self.rr + step) % n;
            if self.replicas[i].healthy {
                self.rr = (i + 1) % n;
                self.stats.replica_reads += 1;
                repl_obs().replica_reads.inc();
                return Some(i);
            }
        }
        self.stats.primary_fallbacks += 1;
        repl_obs().primary_fallbacks.inc();
        None
    }

    // ---- observation --------------------------------------------------------------

    /// The primary view.
    pub fn primary(&self) -> &DurableView {
        &self.primary
    }

    /// Mutable access to the primary (the chaos harness drives scripted
    /// operations through here so its oracle mapping stays exact).
    pub fn primary_mut(&mut self) -> &mut DurableView {
        &mut self.primary
    }

    /// The primary's next LSN (everything below it is durable and
    /// shippable).
    pub fn primary_next_lsn(&self) -> u64 {
        self.primary.store().lock().expect("primary store lock").wal.next_lsn()
    }

    /// Replicas currently in the group.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas currently in read rotation.
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|s| s.healthy).count()
    }

    /// Whether replica `i` is in read rotation.
    pub fn is_healthy(&self, i: usize) -> bool {
        self.replicas[i].healthy
    }

    /// Replica `i`'s lag behind the primary, in LSN.
    pub fn replica_lag(&self, i: usize) -> u64 {
        self.primary_next_lsn().saturating_sub(self.replicas[i].view.next_lsn())
    }

    /// Replica `i`'s staleness measured the epoch way: the primary's next
    /// LSN minus the LSN stamped on the replica's current epoch (see
    /// [`ReplicaView::epoch`]). Always equals [`Self::replica_lag`]
    /// (`ReplicationGroup::replica_lag`) — the group's `max_lag` routing
    /// bound and the staleness of a pinned replica epoch are one number on
    /// one scale, which is what lets a serving layer treat "read from a
    /// caught-up replica" and "read from a pinned epoch" interchangeably.
    pub fn epoch_lag(&self, i: usize) -> u64 {
        self.primary_next_lsn().saturating_sub(self.replicas[i].view.epoch().current_lsn())
    }

    /// Replica `i` (panics out of range — test/debug accessor).
    pub fn replica(&self, i: usize) -> &ReplicaView {
        &self.replicas[i].view
    }

    /// Mutable replica access (the chaos harness probes replica answers
    /// directly).
    pub fn replica_mut(&mut self, i: usize) -> &mut ReplicaView {
        &mut self.replicas[i].view
    }

    /// The primary's model.
    pub fn model(&self) -> &LinearModel {
        self.primary.model()
    }

    /// The primary's operation statistics.
    pub fn primary_stats(&self) -> ViewStats {
        self.primary.stats()
    }

    /// Group-level counters.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Transport counters.
    pub fn shipper_stats(&self) -> ShipperStats {
        self.shipper.stats()
    }

    /// Backoff counters, aggregated over every replica's retrier.
    pub fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for slot in &self.replicas {
            let s = slot.retrier.stats();
            total.attempts += s.attempts;
            total.retries += s.retries;
            total.exhausted += s.exhausted;
            total.backoff_ns += s.backoff_ns;
        }
        total
    }

    /// Unwraps the group, keeping only the primary (the rdbms DROP path
    /// discards replicas with it).
    pub fn into_primary(self) -> DurableView {
        self.primary
    }
}
