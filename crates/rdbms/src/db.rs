//! The embedded database: catalog, dataflow edges, and statement execution.
//!
//! Base-table writes do not fire bespoke triggers any more: every
//! classification view owns a [`Dataflow`] graph, and the catalog keeps one
//! edge list per base table naming the views whose graphs consume its
//! deltas. An `INSERT` becomes a `+1` delta, a `DELETE` a `−1` delta, and
//! an `UPDATE` a retract/insert pair — all propagated through the same
//! graph, whether the view sits directly on an entity table (the paper's
//! Example 2.1, a trivial two-edge graph) or on a derived relation with
//! joins and filters (`CREATE CLASSIFICATION VIEW v ON (SELECT ...)`).

use std::collections::HashMap;

use hazy_core::{
    Architecture, ClassifierView, DurableClassifierView, DurableView, Entity, EpochCell,
    MemoryFootprint, Mode, PublishedView, ViewBuilder, ViewStats,
};
use hazy_flow::{Dataflow, Delta, NodeId, RowAction, ViewSink};
use hazy_learn::{LinearModel, LossKind, SgdConfig, TrainingExample};
use hazy_linalg::NormPair;
use hazy_repl::{FaultPlan, GroupConfig, GroupStats, ReplicationGroup};
use hazy_storage::SimFs;
use hazy_tune::{build_sharded_adaptive, AdaptiveView, AdvisorConfig, TuneRestorer};

use crate::error::DbError;
use crate::features::{by_name, FeatureFunction};
use crate::sql::{parse_statement, ColRef, DerivedViewDecl, Statement, ViewDecl};
use crate::table::Table;
use crate::value::{ColumnType, Row, Schema, Value};

/// Dictionary headroom for text feature functions (distinct tokens).
const DICT_CAPACITY: u32 = 1 << 16;

/// Minimum examples before automatic model selection kicks in; below this
/// the default SVM is used (cross-validation on a handful of rows is
/// noise).
const SELECT_MIN_EXAMPLES: usize = 20;

/// What a statement evaluates to.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// DDL / DML succeeded, nothing to return.
    Done,
    /// A count.
    Count(u64),
    /// A single entity's label (`None` when the entity does not exist).
    Label(Option<i8>),
    /// A list of entity keys.
    Ids(Vec<u64>),
    /// `SHOW METRICS` rows: `(metric name, value)`, sorted by name.
    /// Histograms surface as `_count`/`_sum`/`_p50`/`_p99`/`_p999` rows.
    Metrics(Vec<(String, f64)>),
    /// `SHOW EVENTS` rows: `(seq, timestamp_ns, kind, detail)`, oldest
    /// first.
    Events(Vec<(u64, u64, String, String)>),
}

/// A view's engine: plain, wrapped in WAL + checkpoint durability, or
/// durable with log-shipping read replicas attached.
///
/// The two local variants hold their engine inside a [`PublishedView`]:
/// every write verb publishes an epoch, every `SELECT` pins the cell, and
/// the cell's LSN — one tick per engine operation since the view was
/// declared — is what `AS OF LSN n` addresses. Only the newest epoch is
/// retained: an older `n` gets the structured
/// [`DbError::SnapshotUnavailable`]. Epochs are ephemeral by design — a
/// reopened database publishes from recovered engine state instead of
/// resurrecting epochs from disk.
enum Engine {
    Plain(PublishedView<Box<dyn DurableClassifierView + Send>>),
    Durable(PublishedView<Box<DurableView>>),
    /// `DURABLE REPLICAS n`: the primary plus `n` replicas behind a
    /// `hazy-repl` group. Writes hit the primary; reads are routed across
    /// caught-up replicas; `PROMOTE REPLICA` fails over.
    Replicated(Box<ReplicationGroup>),
}

/// Where a view's `SELECT`s are answered.
enum ReadPlane<'a> {
    /// The view's own epoch cell: pin it and read the snapshot, so a long
    /// maintenance pass never sits between a query and its answer.
    Cell(&'a EpochCell),
    /// Replicated engines keep their own read authority — a caught-up
    /// replica *is* a pinned remote epoch (primary fallback when none is
    /// healthy; a fallback read is WAL-logged, so callers pump after).
    Group(&'a mut ReplicationGroup),
}

impl Engine {
    fn view(&self) -> &(dyn DurableClassifierView + Send) {
        match self {
            Engine::Plain(p) => p.engine(),
            Engine::Durable(p) => p.engine(),
            Engine::Replicated(g) => g.primary(),
        }
    }

    fn read_plane(&mut self) -> ReadPlane<'_> {
        match self {
            Engine::Plain(p) => ReadPlane::Cell(p.cell()),
            Engine::Durable(p) => ReadPlane::Cell(p.cell()),
            Engine::Replicated(g) => ReadPlane::Group(g),
        }
    }

    fn update(&mut self, ex: &TrainingExample) {
        match self {
            Engine::Plain(p) => p.update(ex),
            Engine::Durable(p) => p.update(ex),
            Engine::Replicated(g) => g.update_batch(std::slice::from_ref(ex)),
        }
    }

    fn insert_entity(&mut self, e: Entity) {
        match self {
            Engine::Plain(p) => p.insert_entity(e),
            Engine::Durable(p) => p.insert_entity(e),
            Engine::Replicated(g) => g.insert_entity(e),
        }
    }

    /// The removal is WAL-logged by a durable engine and routed to its
    /// home shard by a sharded one — same path as an insert.
    fn remove_entity(&mut self, id: u64) {
        let _ = match self {
            Engine::Plain(p) => p.remove_entity(id),
            Engine::Durable(p) => p.remove_entity(id),
            Engine::Replicated(g) => g.remove_entity(id),
        };
    }

    /// The migration routes through the engine stack: a durable wrapper
    /// WAL-logs the redo record, a sharded deployment migrates shard by
    /// shard, the adaptive wrapper does the extraction + rebuild — all
    /// with the view online. Answer-invisible, but a logical operation:
    /// an accepted one ticks the epoch LSN, so `AS OF` can tell pre- from
    /// post-migration.
    fn set_architecture(&mut self, arch: Architecture, mode: Mode) -> bool {
        match self {
            Engine::Plain(p) => p.set_architecture(arch, mode),
            Engine::Durable(p) => p.set_architecture(arch, mode),
            Engine::Replicated(g) => g.primary_mut().set_architecture(arch, mode),
        }
    }

    /// Idempotent re-insert probe, durable views only: the reopen flow
    /// replays base-table rows whose entities the recovered view already
    /// holds from its WAL (on a derived view, together with their training
    /// effect). Plain views keep the original duplicate-id contract. A
    /// pinned read — never the engine's `read_single`, which a durable
    /// engine would write-ahead log.
    fn recovered_holds(&self, id: u64) -> bool {
        matches!(self, Engine::Durable(p) if p.cell().pin().classify(id).is_some())
    }

    /// Ships any WAL suffix the replicas have not seen yet; a no-op for
    /// unreplicated engines. Called after every statement that may have
    /// grown the primary's log, so replicas track it statement by
    /// statement.
    fn pump(&mut self) {
        if let Engine::Replicated(g) = self {
            g.pump();
        }
    }
}

/// What the view is defined over.
enum ViewKind {
    /// The paper's Example 2.1 declaration: entities and examples arrive
    /// from two base tables (a trivial two-edge graph, entity rows on sink
    /// port 0 and example rows on port 1).
    Legacy(Box<ViewDecl>),
    /// `ON (SELECT ...)`: the view sits on a derived relation; every sink
    /// row has the shape `[key, features..., label]`.
    Derived(DerivedSpec),
}

/// A resolved derived-view definition.
struct DerivedSpec {
    /// Schema of the featurized prefix of a sink row: `[key, features...]`.
    feat_schema: Schema,
    /// Position of the label in a sink row (`== feat_schema.arity()`).
    label_idx: usize,
}

struct ViewState {
    kind: ViewKind,
    ff: Box<dyn FeatureFunction>,
    engine: Engine,
    /// Label text mapped to +1 (first row of the labels table, or the
    /// first entry of the `LABELS (...)` clause).
    pos_label: String,
    /// Full label set for validation; empty = accept any text as −1 (the
    /// legacy contract, where the labels table is only read at creation).
    known_labels: Vec<String>,
    /// The maintenance graph: base-table deltas in, derived-relation
    /// deltas out.
    graph: Dataflow<Row>,
    /// Base table → its source node in `graph`.
    sources: HashMap<String, NodeId>,
    /// The graph's sink node.
    sink: NodeId,
    /// Set-semantics collapse of the entity port: bag multiplicities →
    /// the insert/remove verbs the classifier engine speaks.
    entity_sink: ViewSink<Row>,
    /// Base table → column that must hold a non-NULL integer entity key,
    /// validated before any delta of that table enters the graph.
    key_checks: HashMap<String, usize>,
}

impl ViewState {
    /// The plane a `SELECT` reads, after validating its `AS OF LSN` clause
    /// against the newest LSN of that plane: the cell's epoch LSN, or —
    /// for a replicated view — the primary's next WAL LSN, the scale
    /// `max_lag` is measured in. Only the newest epoch exists today, so
    /// anything else is a structured [`DbError::SnapshotUnavailable`].
    fn read_plane(&mut self, name: &str, as_of: Option<u64>) -> Result<ReadPlane<'_>, DbError> {
        let plane = self.engine.read_plane();
        if let Some(requested) = as_of {
            let newest = match &plane {
                ReadPlane::Cell(cell) => cell.current_lsn(),
                ReadPlane::Group(g) => g.primary_next_lsn(),
            };
            if requested != newest {
                return Err(DbError::SnapshotUnavailable {
                    view: name.to_string(),
                    requested,
                    newest,
                });
            }
        }
        Ok(plane)
    }
}

/// The embedded database.
#[derive(Default)]
pub struct Db {
    tables: HashMap<String, Table>,
    views: HashMap<String, ViewState>,
    /// Dataflow edges: base table → views whose graphs consume its deltas
    /// (what the per-table trigger map used to be).
    edges: HashMap<String, Vec<String>>,
    /// Simulated stable storage for `DURABLE` views. Sharing one [`SimFs`]
    /// across sessions (via [`Db::with_fs`]) is the reopen-database flow:
    /// drop the `Db`, build a new one over the same file system, re-run the
    /// schema DDL, and `CREATE ... DURABLE` recovers each view from its
    /// WAL + checkpoint instead of retraining.
    fs: SimFs,
}

impl Db {
    /// An empty database over a fresh private file system.
    pub fn new() -> Db {
        Db::default()
    }

    /// An empty database over an existing simulated file system — the
    /// reopen path after a crash or clean shutdown.
    pub fn with_fs(fs: SimFs) -> Db {
        Db { fs, ..Db::default() }
    }

    /// The database's simulated file system (keep a clone to reopen later).
    pub fn fs(&self) -> SimFs {
        self.fs.clone()
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    /// Any [`DbError`]; the database is left unchanged on error.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        match parse_statement(sql)? {
            Statement::CreateTable { name, cols, pk } => {
                if self.tables.contains_key(&name) {
                    return Err(DbError::AlreadyExists(name));
                }
                let schema = Schema::new(cols);
                if let Some(ref p) = pk {
                    if schema.col(p).is_none() {
                        return Err(DbError::NoSuchColumn(p.clone()));
                    }
                }
                self.tables.insert(name.clone(), Table::new(&name, schema, pk.as_deref()));
                Ok(QueryResult::Done)
            }
            Statement::CreateView(decl) => {
                self.create_view(decl)?;
                Ok(QueryResult::Done)
            }
            Statement::CreateDerivedView(decl) => {
                self.create_derived_view(decl)?;
                Ok(QueryResult::Done)
            }
            Statement::Insert { table, values } => {
                self.insert(&table, values)?;
                Ok(QueryResult::Done)
            }
            Statement::Delete { table, col, key } => {
                self.delete(&table, &col, key)?;
                Ok(QueryResult::Done)
            }
            Statement::Update { table, sets, col, key } => {
                self.update(&table, sets, &col, key)?;
                Ok(QueryResult::Done)
            }
            Statement::SelectLabel { view, key, as_of } => {
                let v = self.views.get_mut(&view).ok_or_else(|| DbError::NoSuchView(view.clone()))?;
                let label = match v.read_plane(&view, as_of)? {
                    ReadPlane::Cell(cell) => cell.pin().classify(key as u64),
                    ReadPlane::Group(g) => {
                        let l = g.read_single(key as u64);
                        g.pump();
                        l
                    }
                };
                Ok(QueryResult::Label(label))
            }
            Statement::SelectCount { view, class, as_of } => {
                let v = self.views.get_mut(&view).ok_or_else(|| DbError::NoSuchView(view.clone()))?;
                // the engine is the authority on the entity population —
                // after a crash recovery its durable state (not any
                // side bookkeeping) says what exists
                let n = match v.read_plane(&view, as_of)? {
                    ReadPlane::Cell(cell) => {
                        let pin = cell.pin();
                        match class {
                            None => pin.entity_count(),
                            Some(1) => pin.count_positive(),
                            Some(_) => pin.entity_count() - pin.count_positive(),
                        }
                    }
                    ReadPlane::Group(g) => {
                        let n = match class {
                            None => g.primary().entity_count(),
                            Some(1) => g.count_positive(),
                            Some(_) => g.primary().entity_count() - g.count_positive(),
                        };
                        g.pump();
                        n
                    }
                };
                Ok(QueryResult::Count(n))
            }
            Statement::SelectMembers { view, class, as_of } => {
                let v = self.views.get_mut(&view).ok_or(DbError::NoSuchView(view.clone()))?;
                let pos = match v.read_plane(&view, as_of)? {
                    ReadPlane::Cell(cell) => cell.pin().positive_ids(),
                    ReadPlane::Group(g) => {
                        let pos = g.positive_ids();
                        g.pump();
                        pos
                    }
                };
                if class == 1 {
                    return Ok(QueryResult::Ids(pos));
                }
                // negatives = view membership − positives
                let positive: std::collections::HashSet<u64> = pos.into_iter().collect();
                let ids = match &v.kind {
                    ViewKind::Legacy(decl) => {
                        // the entity table is the membership authority
                        let entities = self
                            .tables
                            .get(&decl.entity_table)
                            .ok_or_else(|| DbError::NoSuchTable(decl.entity_table.clone()))?;
                        let keyc = entities
                            .schema()
                            .col(&decl.entity_key)
                            .ok_or_else(|| DbError::NoSuchColumn(decl.entity_key.clone()))?;
                        entities
                            .iter()
                            .filter_map(|r| r[keyc].as_int())
                            .map(|k| k as u64)
                            .filter(|k| !positive.contains(k))
                            .collect()
                    }
                    // a derived relation has no single base table to scan:
                    // the sink's refcounts are the membership authority
                    ViewKind::Derived(_) => v
                        .entity_sink
                        .ids()
                        .into_iter()
                        .filter(|k| !positive.contains(k))
                        .collect(),
                };
                Ok(QueryResult::Ids(ids))
            }
            Statement::Checkpoint { view } => {
                let v = self.views.get_mut(&view).ok_or(DbError::NoSuchView(view.clone()))?;
                match &mut v.engine {
                    Engine::Durable(p) => {
                        p.checkpoint();
                        Ok(QueryResult::Done)
                    }
                    Engine::Replicated(g) => {
                        g.checkpoint();
                        // the checkpoint record lands in the WAL too
                        g.pump();
                        Ok(QueryResult::Done)
                    }
                    Engine::Plain(_) => Err(DbError::Unsupported(format!(
                        "CHECKPOINT on view {view}: declare it DURABLE first"
                    ))),
                }
            }
            Statement::AlterViewArch { view, arch, mode } => {
                let target_arch = arch_by_name(Some(&arch))?;
                let v = self.views.get_mut(&view).ok_or(DbError::NoSuchView(view.clone()))?;
                let target_mode = match mode {
                    Some(m) => mode_by_name(Some(&m))?,
                    None => v.engine.view().mode(),
                };
                if v.engine.set_architecture(target_arch, target_mode) {
                    // on a replicated view the migration's redo record ships
                    // like any other WAL suffix
                    v.engine.pump();
                    Ok(QueryResult::Done)
                } else {
                    Err(DbError::Unsupported(format!(
                        "ALTER ... SET ARCH on view {view}: declare it ADAPTIVE first"
                    )))
                }
            }
            Statement::DropView { view } => {
                if self.views.remove(&view).is_none() {
                    return Err(DbError::NoSuchView(view));
                }
                // detach the dataflow edges so later writes to the base
                // tables no longer reference the dropped view
                for fed in self.edges.values_mut() {
                    fed.retain(|name| name != &view);
                }
                // and delete any durable store: a dropped view's WAL +
                // checkpoints must not resurrect a later view of the same
                // name (its learned state is user-visible data)
                self.fs.remove(&format!("classification_view/{view}"));
                Ok(QueryResult::Done)
            }
            Statement::PromoteReplica { view } => {
                let v = self.views.get_mut(&view).ok_or(DbError::NoSuchView(view.clone()))?;
                match &mut v.engine {
                    Engine::Replicated(g) => {
                        // failover: the furthest-ahead replica becomes the
                        // primary, shipping truncates to its LSN, and the
                        // remaining replicas re-point at it. The promoted
                        // store is process-local from here on — the SimFs
                        // path still holds the deposed primary's store,
                        // exactly like a file-system-level base backup that
                        // a real failover leaves behind.
                        g.fail_over().map_err(|e| {
                            DbError::Unsupported(format!("PROMOTE REPLICA on {view}: {e}"))
                        })?;
                        Ok(QueryResult::Done)
                    }
                    _ => Err(DbError::Unsupported(format!(
                        "PROMOTE REPLICA on view {view}: declare it with REPLICAS first"
                    ))),
                }
            }
            Statement::ShowMetrics { like } => {
                Ok(QueryResult::Metrics(hazy_obs::registry().flat_snapshot(like.as_deref())))
            }
            Statement::ShowEvents { limit } => {
                let limit = limit.unwrap_or(100) as usize;
                let rows = hazy_obs::recent_events(limit)
                    .into_iter()
                    .map(|ev| (ev.seq, ev.at_ns, ev.kind.name().to_string(), ev.detail()))
                    .collect();
                Ok(QueryResult::Events(rows))
            }
        }
    }

    /// Direct (non-SQL) table access for tools and tests.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Detaches a view's engine from the catalog and hands it out — the
    /// route by which a view declared and trained in SQL moves behind the
    /// `hazy-front` serving tier (`Front::serve_engine`) without a rebuild:
    /// same learned model, same entity table, same durable state.
    ///
    /// Unlike `DROP CLASSIFICATION VIEW`, the view's durable files are
    /// **kept** (a durable engine keeps appending to them through its own
    /// handle); only the catalog entry and the dataflow edges feeding it
    /// are removed, so later base-table writes no longer maintain it —
    /// maintenance authority moves wholesale to whoever holds the engine.
    ///
    /// A replicated view cannot be detached (its replication group owns
    /// the primary's WAL shipping): promote or drop it first.
    pub fn detach_view_engine(
        &mut self,
        view: &str,
    ) -> Result<Box<dyn DurableClassifierView + Send>, DbError> {
        match self.views.get(view).map(|v| &v.engine) {
            None => return Err(DbError::NoSuchView(view.to_string())),
            Some(Engine::Replicated(_)) => {
                return Err(DbError::Unsupported(format!(
                    "DETACH of view {view}: a replicated view cannot leave the catalog; \
                     PROMOTE or DROP its replicas first"
                )))
            }
            Some(_) => {}
        }
        let state = self.views.remove(view).expect("presence checked above");
        for fed in self.edges.values_mut() {
            fed.retain(|name| name != view);
        }
        match state.engine {
            Engine::Plain(p) => Ok(p.into_engine()),
            Engine::Durable(p) => Ok(p.into_engine()),
            Engine::Replicated(_) => unreachable!("rejected above"),
        }
    }

    /// Operation counters of a view's engine.
    pub fn view_stats(&self, name: &str) -> Option<ViewStats> {
        self.views.get(name).map(|v| v.engine.view().stats())
    }

    /// Memory footprint of a view's engine.
    pub fn view_memory(&self, name: &str) -> Option<MemoryFootprint> {
        self.views.get(name).map(|v| v.engine.view().memory())
    }

    /// The current model behind a view.
    pub fn view_model(&self, name: &str) -> Option<&LinearModel> {
        self.views.get(name).map(|v| v.engine.view().model())
    }

    /// Virtual time consumed by a view so far, in nanoseconds.
    pub fn view_clock_ns(&self, name: &str) -> Option<u64> {
        self.views.get(name).map(|v| v.engine.view().clock().now_ns())
    }

    /// Replication counters of a view declared with `REPLICAS`
    /// (`None` for unreplicated views).
    pub fn view_replication_stats(&self, name: &str) -> Option<GroupStats> {
        match &self.views.get(name)?.engine {
            Engine::Replicated(g) => Some(g.stats()),
            _ => None,
        }
    }

    /// `(replicas, healthy)` of a view declared with `REPLICAS`.
    pub fn view_replica_health(&self, name: &str) -> Option<(usize, usize)> {
        match &self.views.get(name)?.engine {
            Engine::Replicated(g) => Some((g.replica_count(), g.healthy_count())),
            _ => None,
        }
    }

    fn create_view(&mut self, decl: ViewDecl) -> Result<(), DbError> {
        if self.views.contains_key(&decl.name) {
            return Err(DbError::AlreadyExists(decl.name));
        }
        let entities_table =
            self.tables.get(&decl.entity_table).ok_or_else(|| DbError::NoSuchTable(decl.entity_table.clone()))?;
        let labels_table =
            self.tables.get(&decl.labels_table).ok_or_else(|| DbError::NoSuchTable(decl.labels_table.clone()))?;
        let examples_table = self
            .tables
            .get(&decl.examples_table)
            .ok_or_else(|| DbError::NoSuchTable(decl.examples_table.clone()))?;
        let entity_keyc = entities_table
            .schema()
            .col(&decl.entity_key)
            .ok_or_else(|| DbError::NoSuchColumn(decl.entity_key.clone()))?;

        // --- the label set: binary views take the first label as +1
        let labelc = labels_table
            .schema()
            .col(&decl.label_col)
            .ok_or_else(|| DbError::NoSuchColumn(decl.label_col.clone()))?;
        let mut labels: Vec<String> = Vec::new();
        for r in labels_table.iter() {
            if let Some(l) = r[labelc].as_text() {
                if !labels.iter().any(|x| x == l) {
                    labels.push(l.to_string());
                }
            }
        }
        if labels.len() != 2 {
            return Err(DbError::Unsupported(format!(
                "binary classification views need exactly 2 labels, found {} \
                 (multiclass runs one-vs-all at the library level, Appendix B.5.4)",
                labels.len()
            )));
        }
        let pos_label = labels[0].clone();

        // --- feature function: corpus statistics, then one vector per entity
        let mut ff = by_name(&decl.feature_fn, DICT_CAPACITY)
            .ok_or_else(|| DbError::NoSuchFeatureFunction(decl.feature_fn.clone()))?;
        let corpus: Vec<&Row> = entities_table.iter().collect();
        ff.compute_stats(&corpus, entities_table.schema());
        let mut ents = Vec::with_capacity(corpus.len());
        let dense = decl.feature_fn == "numeric_columns";
        for r in &corpus {
            let id = r[entity_keyc]
                .as_int()
                .ok_or_else(|| DbError::SchemaMismatch("entity key must be an integer".into()))?;
            ents.push(Entity::new(id as u64, ff.compute_feature(r, entities_table.schema())));
        }

        // --- warm examples already present in the examples table
        let ex_keyc = examples_table
            .schema()
            .col(&decl.examples_key)
            .ok_or_else(|| DbError::NoSuchColumn(decl.examples_key.clone()))?;
        let ex_labelc = examples_table
            .schema()
            .col(&decl.examples_label)
            .ok_or_else(|| DbError::NoSuchColumn(decl.examples_label.clone()))?;
        let mut warm = Vec::new();
        for r in examples_table.iter() {
            let key = r[ex_keyc].as_int().ok_or(DbError::MissingEntity(-1))?;
            let label = label_to_sign(&r[ex_labelc], &pos_label, &labels)?;
            let ent = entities_table.get(key).ok_or(DbError::MissingEntity(key))?;
            warm.push(TrainingExample::new(
                key as u64,
                ff.compute_feature(ent, entities_table.schema()),
                label,
            ));
        }

        // --- method: USING clause, or the paper's automatic selection
        let seed_rows: Vec<Row> = entities_table.iter().cloned().collect();
        let builder = make_builder(decl.using.as_deref(), decl.architecture.as_deref(),
            decl.mode.as_deref(), dense, ff.dim(), &warm)?;
        let engine = self.build_engine(
            &decl.name, &builder, decl.shards, decl.adaptive, decl.durable, decl.replicas,
            decl.max_lag, ents, &warm,
        )?;

        // --- the per-table trigger map becomes a dataflow graph: entity
        // rows flow to sink port 0, example rows to port 1 (one source
        // feeds both ports when the two tables coincide)
        let mut graph = Dataflow::new();
        let src_e = graph.source();
        let mut sources = HashMap::new();
        sources.insert(decl.entity_table.clone(), src_e);
        let sink = if decl.examples_table == decl.entity_table {
            graph.sink(&[src_e, src_e])
        } else {
            let src_x = graph.source();
            sources.insert(decl.examples_table.clone(), src_x);
            graph.sink(&[src_e, src_x])
        };
        // ongoing maintenance charges the engine's cost universe (the
        // creation-time corpus scan above stays free, as it always was)
        graph.set_clock(engine.view().clock().clone());
        let mut entity_sink = ViewSink::new(move |r: &Row| {
            r[entity_keyc].as_int().expect("entity key validated before ingest") as u64
        });
        // seed the sink's refcounts with the corpus the engine was built
        // over, so a later DELETE of one of these rows retracts cleanly
        for r in seed_rows {
            let _ = entity_sink.absorb(&Delta::insert(r));
        }
        let key_checks = HashMap::from([(decl.entity_table.clone(), entity_keyc)]);
        self.edges.entry(decl.entity_table.clone()).or_default().push(decl.name.clone());
        if decl.examples_table != decl.entity_table {
            self.edges.entry(decl.examples_table.clone()).or_default().push(decl.name.clone());
        }
        self.views.insert(
            decl.name.clone(),
            ViewState {
                kind: ViewKind::Legacy(Box::new(decl)),
                ff,
                engine,
                pos_label,
                known_labels: Vec::new(),
                graph,
                sources,
                sink,
                entity_sink,
                key_checks,
            },
        );
        Ok(())
    }

    fn create_derived_view(&mut self, decl: DerivedViewDecl) -> Result<(), DbError> {
        if self.views.contains_key(&decl.name) {
            return Err(DbError::AlreadyExists(decl.name));
        }
        let q = decl.query.clone();
        let a = self.tables.get(&q.table).ok_or_else(|| DbError::NoSuchTable(q.table.clone()))?;
        let b = match &q.join {
            Some(j) => {
                if j.table == q.table {
                    return Err(DbError::Unsupported(
                        "self-joins in derived views (join a copy of the table instead)".into(),
                    ));
                }
                Some(self.tables.get(&j.table).ok_or_else(|| DbError::NoSuchTable(j.table.clone()))?)
            }
            None => None,
        };

        // --- resolve every column reference to (side, index)
        let resolve = |c: &ColRef| -> Result<(usize, usize), DbError> {
            match &c.table {
                Some(t) if *t == q.table => Ok((
                    0,
                    a.schema()
                        .col(&c.column)
                        .ok_or_else(|| DbError::NoSuchColumn(format!("{t}.{}", c.column)))?,
                )),
                Some(t) => match b {
                    Some(bt) if *t == bt.name() => Ok((
                        1,
                        bt.schema()
                            .col(&c.column)
                            .ok_or_else(|| DbError::NoSuchColumn(format!("{t}.{}", c.column)))?,
                    )),
                    _ => Err(DbError::NoSuchTable(t.clone())),
                },
                None => {
                    let in_a = a.schema().col(&c.column);
                    let in_b = b.and_then(|bt| bt.schema().col(&c.column));
                    match (in_a, in_b) {
                        (Some(_), Some(_)) => Err(DbError::Unsupported(format!(
                            "ambiguous column {} (qualify it with a table name)",
                            c.column
                        ))),
                        (Some(i), None) => Ok((0, i)),
                        (None, Some(i)) => Ok((1, i)),
                        (None, None) => Err(DbError::NoSuchColumn(c.column.clone())),
                    }
                }
            }
        };
        let cols: Vec<(usize, usize)> = q.cols.iter().map(&resolve).collect::<Result<_, _>>()?;
        let schema_of =
            |side: usize| if side == 0 { a.schema() } else { b.expect("side 1 implies join").schema() };

        // the first projected column is the derived relation's entity key
        let (key_side, key_idx) = cols[0];
        if schema_of(key_side).column(key_idx).1 != ColumnType::Int {
            return Err(DbError::SchemaMismatch(
                "the derived view's key column must be an INT column".into(),
            ));
        }
        let join_keys = match &q.join {
            Some(j) => {
                let l = resolve(&j.left)?;
                let r = resolve(&j.right)?;
                if l.0 == r.0 {
                    return Err(DbError::Unsupported(
                        "JOIN ON must relate a column of each table".into(),
                    ));
                }
                let (ak, bk) = if l.0 == 0 { (l.1, r.1) } else { (r.1, l.1) };
                for (side, idx) in [(0usize, ak), (1, bk)] {
                    if schema_of(side).column(idx).1 != ColumnType::Int {
                        return Err(DbError::Unsupported("JOIN keys must be INT columns".into()));
                    }
                }
                Some((ak, bk))
            }
            None => None,
        };
        let filter = match &q.filter {
            Some((c, v)) => Some((resolve(c)?, v.clone())),
            None => None,
        };

        // --- schema of the featurized prefix [key, features...]; names are
        // position-prefixed so the same column may be projected twice
        let label_idx = cols.len() - 1;
        let mut feat_cols = Vec::with_capacity(label_idx);
        for (i, &(side, idx)) in cols[..label_idx].iter().enumerate() {
            let (name, ty) = schema_of(side).column(idx);
            feat_cols.push((format!("c{i}_{name}"), ty));
        }
        let feat_schema = Schema::new(feat_cols);

        // --- build the graph: source(s) → [filter] → [join] → project → sink
        let mut graph = Dataflow::new();
        let src_a = graph.source();
        let mut sources = HashMap::from([(q.table.clone(), src_a)]);
        let mut node_a = src_a;
        let mut node_b = None;
        if let Some(bt) = b {
            let src_b = graph.source();
            sources.insert(bt.name().to_string(), src_b);
            node_b = Some(src_b);
        }
        if let Some(((side, idx), v)) = filter {
            let pred = move |r: &Row| r[idx] == v;
            if side == 0 {
                node_a = graph.filter(node_a, pred);
            } else {
                node_b = Some(graph.filter(node_b.expect("side 1 implies join"), pred));
            }
        }
        let a_arity = a.schema().arity();
        let joined = match join_keys {
            Some((ak, bk)) => graph.join(
                node_a,
                node_b.expect("join keys imply a joined table"),
                move |r: &Row| r[ak].as_int(),
                move |r: &Row| r[bk].as_int(),
                |l: &Row, r: &Row| {
                    let mut out = l.clone();
                    out.extend(r.iter().cloned());
                    out
                },
            ),
            None => node_a,
        };
        // project [key, features..., label] out of the (possibly
        // concatenated) row; side-1 columns live after the probe row
        let positions: Vec<usize> =
            cols.iter().map(|&(side, idx)| if side == 0 { idx } else { a_arity + idx }).collect();
        let proj =
            graph.map(joined, move |r: &Row| positions.iter().map(|&p| r[p].clone()).collect());
        let sink = graph.sink(&[proj]);

        // --- validate keys, then seed the graph with the current base rows
        let key_table = if key_side == 0 { a } else { b.expect("side 1 implies join") };
        for r in key_table.iter() {
            r[key_idx]
                .as_int()
                .ok_or_else(|| DbError::SchemaMismatch("entity key must be an integer".into()))?;
        }
        let key_checks = HashMap::from([(key_table.name().to_string(), key_idx)]);
        graph.ingest(src_a, a.iter().cloned().map(Delta::insert).collect());
        if let Some(bt) = b {
            graph.ingest(sources[bt.name()], bt.iter().cloned().map(Delta::insert).collect());
        }
        let seeded = graph.drain(sink);
        let mut entity_sink = ViewSink::new(|r: &Row| {
            r[0].as_int().expect("entity key validated before ingest") as u64
        });
        let mut ents_rows: Vec<(u64, Row)> = Vec::new();
        for action in entity_sink.absorb_batch(seeded.iter().map(|(_, d)| d)) {
            if let RowAction::Insert { id, row } = action {
                ents_rows.push((id, row));
            }
        }

        // --- featurize the derived corpus; labeled rows warm the model
        let mut ff = by_name(&decl.feature_fn, DICT_CAPACITY)
            .ok_or_else(|| DbError::NoSuchFeatureFunction(decl.feature_fn.clone()))?;
        let feat_rows: Vec<Row> = ents_rows.iter().map(|(_, r)| r[..label_idx].to_vec()).collect();
        let corpus: Vec<&Row> = feat_rows.iter().collect();
        ff.compute_stats(&corpus, &feat_schema);
        let dense = decl.feature_fn == "numeric_columns";
        let known_labels = vec![decl.pos_label.clone(), decl.neg_label.clone()];
        let mut ents = Vec::with_capacity(ents_rows.len());
        let mut warm = Vec::new();
        for ((id, row), feat_row) in ents_rows.iter().zip(&feat_rows) {
            let f = ff.compute_feature(feat_row, &feat_schema);
            if row[label_idx] != Value::Null {
                let sign = label_to_sign(&row[label_idx], &decl.pos_label, &known_labels)?;
                warm.push(TrainingExample::new(*id, f.clone(), sign));
            }
            ents.push(Entity::new(*id, f));
        }

        let builder = make_builder(decl.using.as_deref(), decl.architecture.as_deref(),
            decl.mode.as_deref(), dense, ff.dim(), &warm)?;
        let engine = self.build_engine(
            &decl.name, &builder, decl.shards, decl.adaptive, decl.durable, decl.replicas,
            decl.max_lag, ents, &warm,
        )?;
        graph.set_clock(engine.view().clock().clone());

        self.edges.entry(q.table.clone()).or_default().push(decl.name.clone());
        if let Some(j) = &q.join {
            self.edges.entry(j.table.clone()).or_default().push(decl.name.clone());
        }
        let pos_label = decl.pos_label.clone();
        self.views.insert(
            decl.name.clone(),
            ViewState {
                kind: ViewKind::Derived(DerivedSpec { feat_schema, label_idx }),
                ff,
                engine,
                pos_label,
                known_labels,
                graph,
                sources,
                sink,
                entity_sink,
                key_checks,
            },
        );
        Ok(())
    }

    /// Builds a view's engine from prepared entities and warm examples:
    /// plain, sharded, adaptive, or any combination, optionally wrapped in
    /// WAL + checkpoint durability (with recovery on reopen) and a
    /// log-shipping replica group.
    #[allow(clippy::too_many_arguments)] // one flag per physical-design clause
    fn build_engine(
        &mut self,
        name: &str,
        builder: &ViewBuilder,
        shards: Option<u32>,
        adaptive: bool,
        durable: bool,
        replicas: Option<u32>,
        max_lag: Option<u64>,
        ents: Vec<Entity>,
        warm: &[TrainingExample],
    ) -> Result<Engine, DbError> {
        // the epoch stream's watermark band runs on the view's own Hölder pair
        let pair = builder.configured_norm_pair();
        // SHARDS n routes through the hazy-serve layer: the engine becomes a
        // hash-partitioned ShardedView whose answers are observationally
        // identical to the unsharded build (its own equivalence suite), so
        // every execution path stays unchanged
        let raw = |builder: &ViewBuilder| -> Box<dyn DurableClassifierView + Send> {
            match (shards, adaptive) {
                (Some(n), false) if n > 1 => {
                    Box::new(hazy_serve::ShardedView::build(builder, n as usize, ents, warm))
                }
                // ADAPTIVE + SHARDS: every shard gets its own advisor and
                // migrates independently under its shard lock
                (Some(n), true) if n > 1 => Box::new(build_sharded_adaptive(
                    builder,
                    AdvisorConfig::default(),
                    n as usize,
                    ents,
                    warm,
                )),
                (_, true) => {
                    Box::new(AdaptiveView::build(builder, AdvisorConfig::default(), ents, warm))
                }
                _ => builder.build(ents, warm),
            }
        };
        if durable {
            // the durable flow: recover from an existing store (reopen), or
            // build fresh, wrap in WAL + checkpoints, write the genesis
            // checkpoint — the view's learned state now survives the session
            let path = format!("classification_view/{name}");
            let dv = if self.fs.has_checkpoint(&path) {
                let store = self.fs.open(&path, builder.new_clock());
                DurableView::recover(builder, store, 256, &TuneRestorer)
                    .map_err(|e| DbError::Unsupported(format!("recovery of {path}: {e}")))?
            } else {
                let inner = raw(builder);
                let store = self.fs.open(&path, inner.clock().clone());
                DurableView::create(inner, store, 256)
            };
            match replicas {
                // REPLICAS n: bootstrap n replicas off the durable primary
                // (each snapshots the primary's current state, then replays
                // shipped WAL frames forever). Replica stores are
                // process-local by design — only the primary's store lives
                // at the SimFs path, as on a real primary host.
                Some(n) => {
                    let cfg = GroupConfig {
                        replicas: n as usize,
                        max_lag: max_lag.unwrap_or(0),
                        interval: 256,
                        chunk_frames: 4,
                        seed: 1,
                    };
                    let group = ReplicationGroup::new(
                        builder.clone(),
                        dv,
                        cfg,
                        FaultPlan::none(),
                        &TuneRestorer,
                    )
                    .map_err(|e| {
                        DbError::Unsupported(format!("replica bootstrap of {path}: {e}"))
                    })?;
                    Ok(Engine::Replicated(Box::new(group)))
                }
                None => Ok(Engine::Durable(PublishedView::new(Box::new(dv), pair, 0))),
            }
        } else {
            Ok(Engine::Plain(PublishedView::new(raw(builder), pair, 0)))
        }
    }

    fn insert(&mut self, table: &str, values: Row) -> Result<(), DbError> {
        {
            let t = self.tables.get_mut(table).ok_or_else(|| DbError::NoSuchTable(table.into()))?;
            t.insert(values.clone())?;
        }
        self.propagate(table, vec![Delta::insert(values)])
    }

    fn delete(&mut self, table: &str, col: &str, key: i64) -> Result<(), DbError> {
        let old = {
            let t = self.tables.get_mut(table).ok_or_else(|| DbError::NoSuchTable(table.into()))?;
            let c = t.schema().col(col).ok_or_else(|| DbError::NoSuchColumn(col.into()))?;
            if t.pk_col() != Some(c) {
                return Err(DbError::Unsupported(format!(
                    "DELETE FROM {table} WHERE {col}: the predicate must address the primary key"
                )));
            }
            t.delete(key)?
        };
        self.propagate(table, vec![Delta::retract(old)])
    }

    fn update(
        &mut self,
        table: &str,
        sets: Vec<(String, Value)>,
        col: &str,
        key: i64,
    ) -> Result<(), DbError> {
        let (old, new) = {
            let t = self.tables.get_mut(table).ok_or_else(|| DbError::NoSuchTable(table.into()))?;
            let c = t.schema().col(col).ok_or_else(|| DbError::NoSuchColumn(col.into()))?;
            if t.pk_col() != Some(c) {
                return Err(DbError::Unsupported(format!(
                    "UPDATE {table} WHERE {col}: the predicate must address the primary key"
                )));
            }
            let resolved = sets
                .into_iter()
                .map(|(name, v)| {
                    t.schema().col(&name).map(|i| (i, v)).ok_or(DbError::NoSuchColumn(name))
                })
                .collect::<Result<Vec<_>, _>>()?;
            t.update(key, &resolved)?
        };
        // one batch: the graph sees retract(old) before insert(new), so the
        // view observes the update as remove-then-reinsert of the entity
        self.propagate(table, vec![Delta::retract(old), Delta::insert(new)])
    }

    /// Pushes a batch of base-table deltas along every dataflow edge
    /// registered for `table`, after the base write has committed.
    fn propagate(&mut self, table: &str, deltas: Vec<Delta<Row>>) -> Result<(), DbError> {
        let Some(fed) = self.edges.get(table).cloned() else {
            return Ok(());
        };
        for view_name in fed {
            // split borrows: pull the view out, work, put it back. An edge
            // whose view is gone (dropped/renamed between DDL and this
            // write) is a catalog inconsistency, not a panic: surface it
            // as a structured error — the base row is already committed,
            // which is exactly PostgreSQL's behaviour when a trigger
            // function errors after the heap insert.
            let Some(mut vs) = self.views.remove(&view_name) else {
                return Err(DbError::NoSuchView(view_name));
            };
            let result = self.feed_view(&mut vs, table, &deltas);
            self.views.insert(view_name, vs);
            result?;
        }
        Ok(())
    }

    /// Runs one view's graph over a batch of deltas from `table` and
    /// applies what comes out of the sink to the classifier engine.
    fn feed_view(&mut self, vs: &mut ViewState, table: &str, deltas: &[Delta<Row>]) -> Result<(), DbError> {
        // keys are validated before anything enters the graph, so sink
        // rows always carry extractable entity ids
        if let Some(&kc) = vs.key_checks.get(table) {
            for d in deltas {
                d.row[kc]
                    .as_int()
                    .ok_or_else(|| DbError::SchemaMismatch("entity key must be an integer".into()))?;
            }
        }
        let Some(&src) = vs.sources.get(table) else {
            return Ok(());
        };
        vs.graph.ingest(src, deltas.to_vec());
        for (port, d) in vs.graph.drain(vs.sink) {
            if port == 1 {
                // the legacy examples edge: a monotone training stream —
                // inserts train, retractions are ignored (the paper's
                // model never unlearns an example)
                if d.diff > 0 {
                    self.apply_example(vs, &d.row)?;
                }
                continue;
            }
            if let Some(action) = vs.entity_sink.absorb(&d) {
                self.apply_entity_action(vs, action)?;
            }
        }
        // ship whatever this batch appended to the primary's WAL
        vs.engine.pump();
        Ok(())
    }

    /// Type-(2) dynamic data on a legacy view: a new training example.
    fn apply_example(&self, vs: &mut ViewState, row: &Row) -> Result<(), DbError> {
        let ViewKind::Legacy(decl) = &vs.kind else {
            return Ok(()); // derived graphs have no example port
        };
        let entities_table = self
            .tables
            .get(&decl.entity_table)
            .ok_or_else(|| DbError::NoSuchTable(decl.entity_table.clone()))?;
        let ex_table = self
            .tables
            .get(&decl.examples_table)
            .ok_or_else(|| DbError::NoSuchTable(decl.examples_table.clone()))?;
        let keyc = ex_table
            .schema()
            .col(&decl.examples_key)
            .ok_or_else(|| DbError::NoSuchColumn(decl.examples_key.clone()))?;
        let labelc = ex_table
            .schema()
            .col(&decl.examples_label)
            .ok_or_else(|| DbError::NoSuchColumn(decl.examples_label.clone()))?;
        let key = row[keyc].as_int().ok_or(DbError::MissingEntity(-1))?;
        let label = label_to_sign(&row[labelc], &vs.pos_label, &vs.known_labels)?;
        let ent = entities_table.get(key).ok_or(DbError::MissingEntity(key))?;
        let f = vs.ff.compute_feature(ent, entities_table.schema());
        vs.engine.update(&TrainingExample::new(key as u64, f, label));
        Ok(())
    }

    /// A set-level transition of the derived relation: an entity arrived
    /// (type-(1) dynamic data — classify and store it; on a derived view a
    /// labeled row also trains) or left (retract it from the classifier).
    fn apply_entity_action(&self, vs: &mut ViewState, action: RowAction<Row>) -> Result<(), DbError> {
        let id = match &action {
            RowAction::Insert { id, .. } | RowAction::Remove { id } => *id,
        };
        let RowAction::Insert { row, .. } = action else {
            vs.engine.remove_entity(id);
            return Ok(());
        };
        match &vs.kind {
            ViewKind::Legacy(decl) => {
                let entities_table = self
                    .tables
                    .get(&decl.entity_table)
                    .ok_or_else(|| DbError::NoSuchTable(decl.entity_table.clone()))?;
                vs.ff.compute_stats_inc(&row, entities_table.schema());
                if vs.engine.recovered_holds(id) {
                    return Ok(());
                }
                let f = vs.ff.compute_feature(&row, entities_table.schema());
                vs.engine.insert_entity(Entity::new(id, f));
            }
            ViewKind::Derived(spec) => {
                let feat_row: Row = row[..spec.label_idx].to_vec();
                vs.ff.compute_stats_inc(&feat_row, &spec.feat_schema);
                if vs.engine.recovered_holds(id) {
                    return Ok(());
                }
                let f = vs.ff.compute_feature(&feat_row, &spec.feat_schema);
                vs.engine.insert_entity(Entity::new(id, f.clone()));
                let label = &row[spec.label_idx];
                if *label != Value::Null {
                    let sign = label_to_sign(label, &vs.pos_label, &vs.known_labels)?;
                    vs.engine.update(&TrainingExample::new(id, f, sign));
                }
            }
        }
        Ok(())
    }
}

/// Method selection + physical-design builder shared by both view forms.
fn make_builder(
    using: Option<&str>,
    architecture: Option<&str>,
    mode: Option<&str>,
    dense: bool,
    dim: usize,
    warm: &[TrainingExample],
) -> Result<ViewBuilder, DbError> {
    let sgd = match using {
        Some(m) => SgdConfig::for_loss(loss_by_name(m)?),
        None if warm.len() >= SELECT_MIN_EXAMPLES => hazy_learn::select::select_model(warm).best,
        None => SgdConfig::svm(),
    };
    let arch = arch_by_name(architecture)?;
    let mode = mode_by_name(mode)?;
    let pair = if dense { NormPair::EUCLIDEAN } else { NormPair::TEXT };
    Ok(ViewBuilder::new(arch, mode).sgd(sgd).norm_pair(pair).dim(dim))
}

fn label_to_sign(v: &Value, pos: &str, known: &[String]) -> Result<i8, DbError> {
    match v {
        Value::Int(1) => Ok(1),
        Value::Int(-1) => Ok(-1),
        Value::Text(s) if s == pos => Ok(1),
        Value::Text(s) => {
            if known.is_empty() || known.iter().any(|k| k == s) {
                Ok(-1)
            } else {
                Err(DbError::BadLabel(s.clone()))
            }
        }
        other => Err(DbError::BadLabel(other.to_string())),
    }
}

fn loss_by_name(name: &str) -> Result<LossKind, DbError> {
    match name.to_ascii_lowercase().as_str() {
        "svm" => Ok(LossKind::Hinge),
        "logistic" => Ok(LossKind::Logistic),
        "ridge" | "leastsquares" => Ok(LossKind::Squared),
        other => Err(DbError::Unsupported(format!("USING {other}"))),
    }
}

fn arch_by_name(name: Option<&str>) -> Result<Architecture, DbError> {
    match name.map(|s| s.to_ascii_uppercase()) {
        None => Ok(Architecture::HazyMem),
        Some(s) => match s.as_str() {
            "HAZY_MM" => Ok(Architecture::HazyMem),
            "NAIVE_MM" => Ok(Architecture::NaiveMem),
            "HAZY_OD" => Ok(Architecture::HazyDisk),
            "NAIVE_OD" => Ok(Architecture::NaiveDisk),
            "HYBRID" => Ok(Architecture::Hybrid),
            other => Err(DbError::Unsupported(format!("ARCHITECTURE {other}"))),
        },
    }
}

fn mode_by_name(name: Option<&str>) -> Result<Mode, DbError> {
    match name.map(|s| s.to_ascii_uppercase()) {
        None => Ok(Mode::Eager),
        Some(s) => match s.as_str() {
            "EAGER" => Ok(Mode::Eager),
            "LAZY" => Ok(Mode::Lazy),
            other => Err(DbError::Unsupported(format!("MODE {other}"))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end fixture: papers, labels, a few seed examples.
    fn setup() -> Db {
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
            (5, "transactions concurrency database"),
            (6, "cells biology microscopy imaging"),
        ] {
            db.execute(&format!("INSERT INTO Papers VALUES ({id}, '{title}')")).unwrap();
        }
        db
    }

    fn create_view(db: &mut Db, extra: &str) {
        db.execute(&format!(
            "CREATE CLASSIFICATION VIEW Labeled_Papers KEY id \
             ENTITIES FROM Papers KEY id \
             LABELS FROM Paper_Area LABEL label \
             EXAMPLES FROM Example_Papers KEY id LABEL label \
             FEATURE FUNCTION tf_bag_of_words {extra}"
        ))
        .unwrap();
    }

    fn teach(db: &mut Db, rounds: usize) {
        // repeat the labeled seed so the SVM converges on this toy corpus
        for _ in 0..rounds {
            for (id, l) in [(1, "DB"), (3, "NonDB"), (2, "DB"), (4, "NonDB"), (5, "DB"), (6, "NonDB")] {
                db.execute(&format!("INSERT INTO Example_Papers VALUES ({id}, '{l}')")).unwrap();
            }
        }
    }

    #[test]
    fn end_to_end_classification_via_sql() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        teach(&mut db, 30);
        // all database papers labeled 1, biology papers -1
        for id in [1, 2, 5] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(1)),
                "paper {id}"
            );
        }
        for id in [3, 4, 6] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(-1)),
                "paper {id}"
            );
        }
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
            QueryResult::Count(3)
        );
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(6)
        );
        let QueryResult::Ids(mut ids) =
            db.execute("SELECT id FROM Labeled_Papers WHERE class = 1").unwrap()
        else {
            panic!("expected ids")
        };
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 5]);
        let QueryResult::Ids(mut neg) =
            db.execute("SELECT id FROM Labeled_Papers WHERE class = -1").unwrap()
        else {
            panic!("expected ids")
        };
        neg.sort_unstable();
        assert_eq!(neg, vec![3, 4, 6]);
    }

    #[test]
    fn new_entities_are_classified_on_arrival() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        teach(&mut db, 30);
        db.execute("INSERT INTO Papers VALUES (7, 'database query transactions')").unwrap();
        db.execute("INSERT INTO Papers VALUES (8, 'biology dna cells')").unwrap();
        assert_eq!(
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 7").unwrap(),
            QueryResult::Label(Some(1))
        );
        assert_eq!(
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 8").unwrap(),
            QueryResult::Label(Some(-1))
        );
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(8)
        );
    }

    #[test]
    fn every_architecture_serves_the_view() {
        for arch in ["HAZY_MM", "NAIVE_MM", "HAZY_OD", "NAIVE_OD", "HYBRID"] {
            for mode in ["EAGER", "LAZY"] {
                let mut db = setup();
                create_view(&mut db, &format!("USING SVM ARCHITECTURE {arch} MODE {mode}"));
                teach(&mut db, 30);
                assert_eq!(
                    db.execute("SELECT class FROM Labeled_Papers WHERE id = 1").unwrap(),
                    QueryResult::Label(Some(1)),
                    "{arch}/{mode}"
                );
                assert_eq!(
                    db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
                    QueryResult::Count(3),
                    "{arch}/{mode}"
                );
            }
        }
    }

    #[test]
    fn as_of_serves_the_current_epoch_and_rejects_stale_lsns() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        teach(&mut db, 30);
        // discover the newest epoch LSN through the structured error
        let err = db
            .execute("SELECT class FROM Labeled_Papers AS OF LSN 999999 WHERE id = 1")
            .unwrap_err();
        let DbError::SnapshotUnavailable { view, requested, newest } = err else {
            panic!("expected SnapshotUnavailable")
        };
        assert_eq!(view, "Labeled_Papers");
        assert_eq!(requested, 999_999);
        // 30 teaching rounds × 6 examples folded into the view since creation
        assert_eq!(newest, 180);
        // the newest LSN answers every read shape, matching the bare reads
        assert_eq!(
            db.execute(&format!("SELECT class FROM Labeled_Papers AS OF LSN {newest} WHERE id = 1"))
                .unwrap(),
            QueryResult::Label(Some(1))
        );
        assert_eq!(
            db.execute(&format!(
                "SELECT COUNT(*) FROM Labeled_Papers AS OF LSN {newest} WHERE class = 1"
            ))
            .unwrap(),
            QueryResult::Count(3)
        );
        let QueryResult::Ids(mut ids) = db
            .execute(&format!("SELECT id FROM Labeled_Papers AS OF LSN {newest} WHERE class = 1"))
            .unwrap()
        else {
            panic!("expected ids")
        };
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 5]);
        // a mutating statement advances the epoch: the old LSN is now stale
        db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
        match db
            .execute(&format!("SELECT class FROM Labeled_Papers AS OF LSN {newest} WHERE id = 1"))
            .unwrap_err()
        {
            DbError::SnapshotUnavailable { requested, newest: n, .. } => {
                assert_eq!(requested, newest);
                assert_eq!(n, newest + 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            db.execute(&format!(
                "SELECT class FROM Labeled_Papers AS OF LSN {} WHERE id = 1",
                newest + 1
            ))
            .unwrap(),
            QueryResult::Label(Some(1))
        );
    }

    /// `AS OF LSN` on the engine kinds above the plain one: the newest LSN
    /// answers every read shape, and one more write makes it stale. A
    /// replicated view addresses the primary's WAL LSN instead of a cell.
    #[test]
    fn as_of_tracks_the_newest_lsn_on_every_engine_kind() {
        for extra in ["USING SVM DURABLE", "USING SVM SHARDS 3", "USING SVM DURABLE REPLICAS 1"] {
            let mut db = setup();
            create_view(&mut db, extra);
            teach(&mut db, 30);
            let newest_of = |db: &mut Db| {
                match db.execute("SELECT COUNT(*) FROM Labeled_Papers AS OF LSN 999999") {
                    Err(DbError::SnapshotUnavailable { requested: 999_999, newest, .. }) => newest,
                    other => panic!("{extra}: {other:?}"),
                }
            };
            let newest = newest_of(&mut db);
            assert_eq!(
                db.execute(&format!(
                    "SELECT class FROM Labeled_Papers AS OF LSN {newest} WHERE id = 1"
                ))
                .unwrap(),
                QueryResult::Label(Some(1)),
                "{extra}"
            );
            assert_eq!(
                db.execute(&format!(
                    "SELECT COUNT(*) FROM Labeled_Papers AS OF LSN {newest} WHERE class = 1"
                ))
                .unwrap(),
                QueryResult::Count(3),
                "{extra}"
            );
            let QueryResult::Ids(mut ids) = db
                .execute(&format!(
                    "SELECT id FROM Labeled_Papers AS OF LSN {newest} WHERE class = 1"
                ))
                .unwrap()
            else {
                panic!("expected ids")
            };
            ids.sort_unstable();
            assert_eq!(ids, vec![1, 2, 5], "{extra}");
            assert_eq!(newest_of(&mut db), newest, "{extra}: reads do not move the LSN");
            db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
            assert_eq!(newest_of(&mut db), newest + 1, "{extra}");
            assert!(
                matches!(
                    db.execute(&format!(
                        "SELECT class FROM Labeled_Papers AS OF LSN {newest} WHERE id = 1"
                    )),
                    Err(DbError::SnapshotUnavailable { .. })
                ),
                "{extra}: the old LSN is stale"
            );
        }
    }

    /// One cell per view, advanced in place: writes interleaved with
    /// SELECTs never rebuild it, and it publishes exactly one epoch per
    /// engine operation.
    #[test]
    fn writes_publish_into_one_cell_without_rebuilding_it() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        let cell = |db: &Db| match &db.views["Labeled_Papers"].engine {
            Engine::Plain(p) => std::sync::Arc::clone(p.cell()),
            _ => panic!("plain engine expected"),
        };
        let before = cell(&db);
        assert_eq!(before.stats().published, 1);
        let mut operations = 0;
        for k in 0..10 {
            db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 1").unwrap();
            db.execute(&format!("INSERT INTO Papers VALUES ({}, 'database index')", 10 + k))
                .unwrap();
            db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap();
            operations += 2;
        }
        db.execute("DELETE FROM Papers WHERE id = 10").unwrap();
        db.execute("SELECT id FROM Labeled_Papers WHERE class = 1").unwrap();
        operations += 1;
        let after = cell(&db);
        assert!(std::sync::Arc::ptr_eq(&before, &after), "a write-then-select rebuilt the cell");
        assert_eq!(after.stats().published, 1 + operations);
        assert_eq!(after.current_lsn(), operations);
    }

    /// Every SQL write path hands its publishers the engine's SGD steps:
    /// over plain, sharded, durable, replicated (replica replay included)
    /// and adaptive views no model round pays the exact O(d) drift norm —
    /// the `SHOW METRICS` counter that would say so stays at zero.
    #[test]
    fn sql_writes_bound_drift_without_the_exact_norm() {
        let name = "core_epoch_exact_drift_total";
        for extra in [
            "USING SVM",
            "USING SVM SHARDS 3",
            "USING SVM DURABLE",
            "USING SVM DURABLE REPLICAS 1",
            "USING SVM ADAPTIVE",
        ] {
            let mut db = setup();
            create_view(&mut db, extra);
            teach(&mut db, 5);
            db.execute("INSERT INTO Papers VALUES (7, 'database index storage')").unwrap();
            teach(&mut db, 1);
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 7").unwrap();
            assert_eq!(
                db.execute(&format!("SHOW METRICS LIKE '{name}'")).unwrap(),
                QueryResult::Metrics(vec![(name.to_string(), 0.0)]),
                "{extra}"
            );
        }
    }

    /// Regression: the idempotent-reinsert probe used to go through the
    /// durable engine's `read_single`, so every entity `INSERT` on a
    /// `DURABLE` view write-ahead logged (append + sync) a `READ` record
    /// and drove lazy maintenance. The probe is a pinned read now.
    #[test]
    fn durable_entity_inserts_log_exactly_one_record_each() {
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE");
        let wal_records = |db: &Db| match &db.views["Labeled_Papers"].engine {
            Engine::Durable(p) => p.engine().stable_records(),
            _ => panic!("durable engine expected"),
        };
        let before = wal_records(&db);
        for k in 0..5 {
            db.execute(&format!("INSERT INTO Papers VALUES ({}, 'storage engines')", 10 + k))
                .unwrap();
        }
        assert_eq!(db.view_stats("Labeled_Papers").unwrap().single_reads, 0);
        assert_eq!(wal_records(&db), before + 5);
    }

    #[test]
    fn sharded_views_serve_identically_to_unsharded() {
        // every read shape against a SHARDS n view must match the unsharded
        // answers of end_to_end_classification_via_sql
        for extra in [
            "USING SVM SHARDS 4",
            "USING SVM SHARDS 1",
            "USING SVM ARCHITECTURE NAIVE_MM MODE LAZY SHARDS 3",
            "USING SVM ARCHITECTURE HAZY_OD MODE EAGER SHARDS 2",
        ] {
            let mut db = setup();
            create_view(&mut db, extra);
            teach(&mut db, 30);
            for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
                assert_eq!(
                    db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}"))
                        .unwrap(),
                    QueryResult::Label(Some(expect)),
                    "{extra}: paper {id}"
                );
            }
            assert_eq!(
                db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
                QueryResult::Count(3),
                "{extra}"
            );
            let QueryResult::Ids(mut ids) =
                db.execute("SELECT id FROM Labeled_Papers WHERE class = 1").unwrap()
            else {
                panic!("expected ids")
            };
            ids.sort_unstable();
            assert_eq!(ids, vec![1, 2, 5], "{extra}");
            // new entities keep routing to their home shards
            db.execute("INSERT INTO Papers VALUES (7, 'database query transactions')").unwrap();
            assert_eq!(
                db.execute("SELECT class FROM Labeled_Papers WHERE id = 7").unwrap(),
                QueryResult::Label(Some(1)),
                "{extra}"
            );
            // the logical update count (30 teaching rounds × 6 examples) is
            // not multiplied by the shard count
            assert_eq!(db.view_stats("Labeled_Papers").unwrap().updates, 180, "{extra}");
            assert!(db.view_model("Labeled_Papers").is_some(), "{extra}");
        }
    }

    #[test]
    fn automatic_model_selection_when_using_omitted() {
        let mut db = setup();
        // seed enough examples for selection to run at creation time
        for _ in 0..10 {
            for (id, l) in [(1, "DB"), (3, "NonDB"), (2, "DB"), (4, "NonDB")] {
                db.execute(&format!("INSERT INTO Example_Papers VALUES ({id}, '{l}')")).unwrap();
            }
        }
        create_view(&mut db, "");
        teach(&mut db, 20);
        assert_eq!(
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 1").unwrap(),
            QueryResult::Label(Some(1))
        );
    }

    #[test]
    fn example_for_missing_entity_is_rejected() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        let err = db.execute("INSERT INTO Example_Papers VALUES (99, 'DB')").unwrap_err();
        assert_eq!(err, DbError::MissingEntity(99));
    }

    #[test]
    fn view_requires_exactly_two_labels() {
        let mut db = setup();
        db.execute("INSERT INTO Paper_Area VALUES ('ThirdArea')").unwrap();
        let err = db
            .execute(
                "CREATE CLASSIFICATION VIEW V KEY id \
                 ENTITIES FROM Papers KEY id LABELS FROM Paper_Area LABEL label \
                 EXAMPLES FROM Example_Papers KEY id LABEL label \
                 FEATURE FUNCTION tf_bag_of_words",
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)));
    }

    #[test]
    fn errors_for_missing_objects() {
        let mut db = Db::new();
        assert!(matches!(
            db.execute("SELECT class FROM Nope WHERE id = 1"),
            Err(DbError::NoSuchView(_))
        ));
        assert!(matches!(
            db.execute("INSERT INTO Nope VALUES (1)"),
            Err(DbError::NoSuchTable(_))
        ));
        db.execute("CREATE TABLE T (id INT PRIMARY KEY)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE T (id INT)"),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn durable_view_survives_reopen_without_retraining() {
        // session 1: create a durable view, teach it, checkpoint
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE");
        teach(&mut db, 30);
        db.execute("INSERT INTO Papers VALUES (7, 'database query transactions')").unwrap();
        let trained_updates = db.view_stats("Labeled_Papers").unwrap().updates;
        assert_eq!(trained_updates, 180);
        db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        let fs = db.fs();
        drop(db); // session ends (or crashes — only stable state matters)

        // session 2: reopen over the same file system; re-run the schema
        // DDL and base rows (tables are not durable), then the same CREATE
        // ... DURABLE recovers the view from WAL + checkpoint
        let mut db2 = Db::with_fs(fs.crash());
        db2.execute("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)").unwrap();
        db2.execute("CREATE TABLE Paper_Area (label TEXT)").unwrap();
        db2.execute("CREATE TABLE Example_Papers (id INT, label TEXT)").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('DB')").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('NonDB')").unwrap();
        for (id, title) in [
            (1, "database systems transactions storage"),
            (2, "query optimization database index"),
            (3, "protein folding biology cells"),
            (4, "genome biology dna sequencing"),
            (5, "transactions concurrency database"),
            (6, "cells biology microscopy imaging"),
        ] {
            db2.execute(&format!("INSERT INTO Papers VALUES ({id}, '{title}')")).unwrap();
        }
        create_view(&mut db2, "USING SVM DURABLE");
        // the learned model came back: classification works with ZERO
        // retraining in this session
        assert_eq!(db2.view_stats("Labeled_Papers").unwrap().updates, trained_updates);
        for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
            assert_eq!(
                db2.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "paper {id} after reopen"
            );
        }
        // the post-create entity logged to the WAL also came back — the
        // recovered engine (not the re-run base rows) is the population
        // authority, so COUNT(*) already sees all 7 entities
        assert_eq!(
            db2.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(7)
        );
        // negatives = total − positives, computed off the same authority
        assert_eq!(
            db2.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = -1").unwrap(),
            QueryResult::Count(3)
        );
        // its base-table re-insert is an idempotent no-op for the view
        db2.execute("INSERT INTO Papers VALUES (7, 'database query transactions')").unwrap();
        assert_eq!(
            db2.execute("SELECT class FROM Labeled_Papers WHERE id = 7").unwrap(),
            QueryResult::Label(Some(1))
        );
        // and the recovered view keeps learning + checkpointing
        db2.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
        db2.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert_eq!(db2.view_stats("Labeled_Papers").unwrap().updates, trained_updates + 1);
    }

    #[test]
    fn durable_sharded_view_reopens_through_serve_restorer() {
        let mut db = setup();
        create_view(&mut db, "USING SVM SHARDS 3 DURABLE");
        teach(&mut db, 30);
        db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        let fs = db.fs();
        drop(db);
        let mut db2 = Db::with_fs(fs);
        db2.execute("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)").unwrap();
        db2.execute("CREATE TABLE Paper_Area (label TEXT)").unwrap();
        db2.execute("CREATE TABLE Example_Papers (id INT, label TEXT)").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('DB')").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('NonDB')").unwrap();
        for (id, title) in [
            (1, "database systems transactions storage"),
            (2, "query optimization database index"),
            (3, "protein folding biology cells"),
            (4, "genome biology dna sequencing"),
            (5, "transactions concurrency database"),
            (6, "cells biology microscopy imaging"),
        ] {
            db2.execute(&format!("INSERT INTO Papers VALUES ({id}, '{title}')")).unwrap();
        }
        create_view(&mut db2, "USING SVM SHARDS 3 DURABLE");
        assert_eq!(
            db2.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
            QueryResult::Count(3)
        );
        assert_eq!(db2.view_stats("Labeled_Papers").unwrap().updates, 180);
    }

    #[test]
    fn checkpoint_requires_a_durable_view() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        let err = db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)));
        assert!(matches!(
            db.execute("CHECKPOINT CLASSIFICATION VIEW Nope"),
            Err(DbError::NoSuchView(_))
        ));
    }

    #[test]
    fn replicated_view_routes_reads_through_replicas() {
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE REPLICAS 2");
        teach(&mut db, 30);
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((2, 2)));
        for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "paper {id} via replica"
            );
        }
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
            QueryResult::Count(3)
        );
        let stats = db.view_replication_stats("Labeled_Papers").unwrap();
        assert_eq!(stats.primary_fallbacks, 0, "healthy replicas never fall back");
        assert_eq!(stats.replica_reads, 7, "six labels + one count, all replica-served");
        // DML keeps shipping: a deleted entity leaves the replicas too
        db.execute("DELETE FROM Papers WHERE id = 6").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(5)
        );
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((2, 2)));
        // checkpoints ship like any other WAL record
        db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((2, 2)));
    }

    #[test]
    fn promote_replica_fails_over_and_keeps_serving() {
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE REPLICAS 2 MAX LAG 4");
        teach(&mut db, 30);
        let trained_updates = db.view_stats("Labeled_Papers").unwrap().updates;
        db.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Labeled_Papers").unwrap();
        // the promoted replica carries the full trained state, bit for bit
        assert_eq!(db.view_stats("Labeled_Papers").unwrap().updates, trained_updates);
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((1, 1)));
        assert_eq!(db.view_replication_stats("Labeled_Papers").unwrap().promotions, 1);
        for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "paper {id} after failover"
            );
        }
        // and the new primary keeps learning, shipping to the survivor
        db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
        assert_eq!(db.view_stats("Labeled_Papers").unwrap().updates, trained_updates + 1);
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((1, 1)));
    }

    #[test]
    fn replication_composes_with_shards() {
        let mut db = setup();
        create_view(&mut db, "USING SVM SHARDS 3 DURABLE REPLICAS 1");
        teach(&mut db, 30);
        for (id, expect) in [(1, 1), (3, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "paper {id} via sharded replica"
            );
        }
        // promotion recovers the sharded image through the same restorer
        // the durable reopen path uses
        db.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
            QueryResult::Count(3)
        );
        assert_eq!(db.view_replica_health("Labeled_Papers"), Some((0, 0)));
    }

    #[test]
    fn promote_requires_a_replicated_view() {
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE");
        let err =
            db.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Labeled_Papers").unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)));
        assert!(matches!(
            db.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Nope"),
            Err(DbError::NoSuchView(_))
        ));
        // a group whose last replica was promoted away has nothing left to
        // promote: structured error, not a panic
        let mut db2 = setup();
        create_view(&mut db2, "USING SVM DURABLE REPLICAS 1");
        db2.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert!(matches!(
            db2.execute("PROMOTE REPLICA ON CLASSIFICATION VIEW Labeled_Papers"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn adaptive_view_serves_and_migrates_via_alter() {
        let mut db = setup();
        create_view(&mut db, "USING SVM ARCHITECTURE HAZY_MM MODE EAGER ADAPTIVE");
        teach(&mut db, 30);
        // walk the view through every architecture by hand; answers must
        // never change and the model must never retrain
        let updates = db.view_stats("Labeled_Papers").unwrap().updates;
        let mut migrations_seen = db.view_stats("Labeled_Papers").unwrap().migrations;
        for (i, arch) in ["NAIVE_MM", "HAZY_OD", "NAIVE_OD", "HYBRID", "HAZY_MM"].iter().enumerate()
        {
            let mode = if i % 2 == 0 { "LAZY" } else { "EAGER" };
            db.execute(&format!("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH {arch} {mode}"))
                .unwrap();
            for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
                assert_eq!(
                    db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}"))
                        .unwrap(),
                    QueryResult::Label(Some(expect)),
                    "{arch}/{mode}: paper {id}"
                );
            }
            assert_eq!(
                db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
                QueryResult::Count(3),
                "{arch}/{mode}"
            );
            let s = db.view_stats("Labeled_Papers").unwrap();
            assert_eq!(s.updates, updates, "{arch}/{mode}: migration must not retrain");
            // strictly increasing: at least the manual ALTER landed (the
            // advisor is live and may add auto-migrations of its own)
            assert!(s.migrations > migrations_seen, "{arch}/{mode}: migrations in ViewStats");
            migrations_seen = s.migrations;
        }
        // mode defaults to the current one when omitted
        db.execute("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH NAIVE_MM").unwrap();
        // and the view keeps learning after all that
        db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
        assert_eq!(db.view_stats("Labeled_Papers").unwrap().updates, updates + 1);
    }

    #[test]
    fn alter_arch_requires_adaptive_and_real_names() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        let err = db
            .execute("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH NAIVE_MM")
            .unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)), "{err:?}");
        assert!(matches!(
            db.execute("ALTER CLASSIFICATION VIEW Nope SET ARCH NAIVE_MM"),
            Err(DbError::NoSuchView(_))
        ));
        create_view_named(&mut db, "V2", "USING SVM ADAPTIVE");
        assert!(matches!(
            db.execute("ALTER CLASSIFICATION VIEW V2 SET ARCH WARP_DRIVE"),
            Err(DbError::Unsupported(_))
        ));
        assert!(matches!(
            db.execute("ALTER CLASSIFICATION VIEW V2 SET ARCH NAIVE_MM SIDEWAYS"),
            Err(DbError::Unsupported(_))
        ));
    }

    fn create_view_named(db: &mut Db, name: &str, extra: &str) {
        db.execute(&format!(
            "CREATE CLASSIFICATION VIEW {name} KEY id \
             ENTITIES FROM Papers KEY id \
             LABELS FROM Paper_Area LABEL label \
             EXAMPLES FROM Example_Papers KEY id LABEL label \
             FEATURE FUNCTION tf_bag_of_words {extra}"
        ))
        .unwrap();
    }

    #[test]
    fn sharded_adaptive_view_serves_and_alters() {
        let mut db = setup();
        create_view(&mut db, "USING SVM SHARDS 3 ADAPTIVE");
        teach(&mut db, 30);
        db.execute("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH NAIVE_MM LAZY").unwrap();
        for (id, expect) in [(1, 1), (3, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect))
            );
        }
        // every shard migrated independently: at least one event per shard
        // (the live advisors may have added auto-migrations of their own)
        assert!(db.view_stats("Labeled_Papers").unwrap().migrations >= 3);
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 1").unwrap(),
            QueryResult::Count(3)
        );
    }

    #[test]
    fn durable_adaptive_view_recovers_migrated_architecture() {
        let mut db = setup();
        create_view(&mut db, "USING SVM ADAPTIVE DURABLE");
        teach(&mut db, 30);
        db.execute("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH NAIVE_OD LAZY").unwrap();
        db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        // keep working after the checkpoint so the WAL has a suffix to
        // replay — including a second, *uncheckpointed* migration
        db.execute("INSERT INTO Example_Papers VALUES (1, 'DB')").unwrap();
        db.execute("ALTER CLASSIFICATION VIEW Labeled_Papers SET ARCH HAZY_MM EAGER").unwrap();
        let stats = db.view_stats("Labeled_Papers").unwrap();
        assert!(stats.migrations >= 2, "both ALTERs counted (plus any advisor moves)");
        let fs = db.fs();
        drop(db);
        let mut db2 = Db::with_fs(fs.crash());
        db2.execute("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)").unwrap();
        db2.execute("CREATE TABLE Paper_Area (label TEXT)").unwrap();
        db2.execute("CREATE TABLE Example_Papers (id INT, label TEXT)").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('DB')").unwrap();
        db2.execute("INSERT INTO Paper_Area VALUES ('NonDB')").unwrap();
        for (id, title) in [
            (1, "database systems transactions storage"),
            (2, "query optimization database index"),
            (3, "protein folding biology cells"),
            (4, "genome biology dna sequencing"),
            (5, "transactions concurrency database"),
            (6, "cells biology microscopy imaging"),
        ] {
            db2.execute(&format!("INSERT INTO Papers VALUES ({id}, '{title}')")).unwrap();
        }
        create_view(&mut db2, "USING SVM ADAPTIVE DURABLE");
        // the WAL replay re-runs both ALTERs: recovery lands in hazy-mm
        // with the full migration history and the post-checkpoint update
        let recovered = db2.view_stats("Labeled_Papers").unwrap();
        assert_eq!(recovered.migrations, stats.migrations, "migration history recovered");
        assert_eq!(recovered.updates, stats.updates, "no retraining on reopen");
        for (id, expect) in [(1, 1), (2, 1), (5, 1), (3, -1), (4, -1), (6, -1)] {
            assert_eq!(
                db2.execute(&format!("SELECT class FROM Labeled_Papers WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "paper {id} after reopen"
            );
        }
    }

    #[test]
    fn drop_view_detaches_triggers_and_stale_triggers_error_not_panic() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        teach(&mut db, 2);
        db.execute("DROP CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert!(matches!(
            db.execute("SELECT class FROM Labeled_Papers WHERE id = 1"),
            Err(DbError::NoSuchView(_))
        ));
        // ingest into both base tables keeps working — the triggers are gone
        db.execute("INSERT INTO Papers VALUES (7, 'storage engines')").unwrap();
        db.execute("DROP CLASSIFICATION VIEW Nope").unwrap_err();
        // a second view can take the name over
        create_view(&mut db, "USING SVM");
        db.execute("INSERT INTO Papers VALUES (8, 'biology cells')").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(8)
        );
    }

    /// A dropped DURABLE view's store is deleted with it: re-creating a
    /// durable view under the same name builds fresh from the current base
    /// tables instead of resurrecting the dropped view's learned state.
    #[test]
    fn dropping_a_durable_view_deletes_its_store() {
        let mut db = setup();
        create_view(&mut db, "USING SVM DURABLE");
        teach(&mut db, 30);
        db.execute("CHECKPOINT CLASSIFICATION VIEW Labeled_Papers").unwrap();
        db.execute("DROP CLASSIFICATION VIEW Labeled_Papers").unwrap();
        assert!(!db.fs().has_checkpoint("classification_view/Labeled_Papers"));
        create_view(&mut db, "USING SVM DURABLE");
        // a recovered view would carry the 180 old updates; a fresh one
        // starts from zero
        assert_eq!(db.view_stats("Labeled_Papers").unwrap().updates, 0);
    }

    /// Regression for the historical `.expect("trigger target exists")`
    /// panic: a dataflow edge whose view is gone (the dropped/renamed-
    /// between-DDL-and-ingest race, reproduced here by poking the private
    /// catalog directly) must surface as a structured error, not a panic.
    #[test]
    fn dangling_edge_entry_is_a_structured_error() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        db.edges.get_mut("Papers").expect("entity edge list exists").push("Ghost".into());
        let err = db.execute("INSERT INTO Papers VALUES (9, 'orphan row')").unwrap_err();
        assert_eq!(err, DbError::NoSuchView("Ghost".into()));
        // the base insert itself committed (trigger errors follow the
        // PostgreSQL after-trigger model), and the healthy view still works
        assert!(db.table("Papers").unwrap().get(9).is_some());
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Labeled_Papers").unwrap(),
            QueryResult::Count(7)
        );
    }

    #[test]
    fn stats_and_memory_accessors_work() {
        let mut db = setup();
        create_view(&mut db, "USING SVM");
        teach(&mut db, 5);
        let stats = db.view_stats("Labeled_Papers").unwrap();
        assert_eq!(stats.updates, 30);
        assert!(db.view_memory("Labeled_Papers").unwrap().total() > 0);
        assert!(db.view_model("Labeled_Papers").is_some());
        assert!(db.view_clock_ns("Labeled_Papers").unwrap() > 0);
    }

    // ------------------------------------------------------------------
    // derived views: classification over a dataflow-maintained relation
    // ------------------------------------------------------------------

    /// A fixture with a linearly separable numeric corpus: positives sit
    /// at x ≈ +1, negatives at x ≈ −1, plus two unlabeled points.
    fn setup_points() -> Db {
        let mut db = Db::new();
        db.execute("CREATE TABLE Points (id INT PRIMARY KEY, x FLOAT, y FLOAT, tag TEXT)")
            .unwrap();
        for (id, x, y, tag) in [
            (1, 1.0, 0.2, "'P'"),
            (2, 0.8, -0.1, "'P'"),
            (3, -1.0, 0.3, "'N'"),
            (4, -0.9, -0.2, "'N'"),
            (5, 1.1, 0.1, "NULL"),
            (6, -1.2, 0.0, "NULL"),
        ] {
            db.execute(&format!("INSERT INTO Points VALUES ({id}, {x:?}, {y:?}, {tag})")).unwrap();
        }
        db
    }

    fn create_points_view(db: &mut Db, extra: &str) {
        db.execute(&format!(
            "CREATE CLASSIFICATION VIEW PV ON (SELECT id, x, y, tag FROM Points) \
             LABELS ('P', 'N') FEATURE FUNCTION numeric_columns USING SVM {extra}"
        ))
        .unwrap();
    }

    #[test]
    fn single_table_derived_view_classifies_and_tracks_dml() {
        let mut db = setup_points();
        create_points_view(&mut db, "");
        assert_eq!(db.execute("SELECT COUNT(*) FROM PV").unwrap(), QueryResult::Count(6));
        for (id, expect) in [(1, 1), (2, 1), (3, -1), (4, -1), (5, 1), (6, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM PV WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "point {id}"
            );
        }
        // a labeled insert both classifies AND trains through the graph
        let before = db.view_stats("PV").unwrap().updates;
        db.execute("INSERT INTO Points VALUES (7, 0.9, 0.0, 'P')").unwrap();
        assert_eq!(db.view_stats("PV").unwrap().updates, before + 1);
        assert_eq!(
            db.execute("SELECT class FROM PV WHERE id = 7").unwrap(),
            QueryResult::Label(Some(1))
        );
        // an unlabeled insert only classifies
        db.execute("INSERT INTO Points VALUES (8, -0.8, 0.1, NULL)").unwrap();
        assert_eq!(db.view_stats("PV").unwrap().updates, before + 1);
        assert_eq!(
            db.execute("SELECT class FROM PV WHERE id = 8").unwrap(),
            QueryResult::Label(Some(-1))
        );
        // DELETE retracts the row through the graph: the entity leaves the
        // derived relation and every read surface agrees
        db.execute("DELETE FROM Points WHERE id = 8").unwrap();
        db.execute("DELETE FROM Points WHERE id = 5").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM PV").unwrap(), QueryResult::Count(6));
        assert_eq!(
            db.execute("SELECT class FROM PV WHERE id = 5").unwrap(),
            QueryResult::Label(None)
        );
        let QueryResult::Ids(mut ids) = db.execute("SELECT id FROM PV WHERE class = 1").unwrap()
        else {
            panic!("expected ids")
        };
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 7]);
        // UPDATE is retract + reinsert: the point crosses the boundary and
        // its classification flips
        db.execute("UPDATE Points SET x = -1.3 WHERE id = 7").unwrap();
        assert_eq!(
            db.execute("SELECT class FROM PV WHERE id = 7").unwrap(),
            QueryResult::Label(Some(-1))
        );
        assert_eq!(db.execute("SELECT COUNT(*) FROM PV").unwrap(), QueryResult::Count(6));
    }

    #[test]
    fn derived_view_where_filter_gates_membership() {
        let mut db = Db::new();
        db.execute("CREATE TABLE T (id INT PRIMARY KEY, x FLOAT, flag INT, tag TEXT)").unwrap();
        for (id, x, flag, tag) in
            [(1, 1.0, 1, "'P'"), (2, -1.0, 1, "'N'"), (3, 0.9, 1, "NULL"), (4, 0.7, 0, "'P'")]
        {
            db.execute(&format!("INSERT INTO T VALUES ({id}, {x:?}, {flag}, {tag})")).unwrap();
        }
        db.execute(
            "CREATE CLASSIFICATION VIEW FV ON (SELECT id, x, tag FROM T WHERE flag = 1) \
             LABELS ('P', 'N') FEATURE FUNCTION numeric_columns USING SVM",
        )
        .unwrap();
        // row 4 fails the predicate and is not part of the derived relation
        assert_eq!(db.execute("SELECT COUNT(*) FROM FV").unwrap(), QueryResult::Count(3));
        assert_eq!(
            db.execute("SELECT class FROM FV WHERE id = 4").unwrap(),
            QueryResult::Label(None)
        );
        // flipping the flag moves the row in and out of the view
        db.execute("UPDATE T SET flag = 1 WHERE id = 4").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM FV").unwrap(), QueryResult::Count(4));
        assert_eq!(
            db.execute("SELECT class FROM FV WHERE id = 4").unwrap(),
            QueryResult::Label(Some(1))
        );
        db.execute("UPDATE T SET flag = 0 WHERE id = 3").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM FV").unwrap(), QueryResult::Count(3));
    }

    /// Two-table fixture: `Docs` carries one feature, `Meta` the other
    /// plus the label; the view is their equi-join on the doc id.
    fn setup_join() -> Db {
        let mut db = Db::new();
        db.execute("CREATE TABLE Docs (id INT PRIMARY KEY, x FLOAT)").unwrap();
        db.execute("CREATE TABLE Meta (doc INT PRIMARY KEY, y FLOAT, lbl TEXT)").unwrap();
        for (id, x) in [(1, 1.0), (2, 0.8), (3, -1.0), (4, -0.9), (5, 1.1), (6, -1.2)] {
            db.execute(&format!("INSERT INTO Docs VALUES ({id}, {x:?})")).unwrap();
        }
        for (doc, y, lbl) in [
            (1, 0.2, "'P'"),
            (2, -0.1, "'P'"),
            (3, 0.3, "'N'"),
            (4, -0.2, "'N'"),
            (5, 0.1, "NULL"),
            (6, 0.0, "NULL"),
        ] {
            db.execute(&format!("INSERT INTO Meta VALUES ({doc}, {y:?}, {lbl})")).unwrap();
        }
        db
    }

    fn create_join_view(db: &mut Db, extra: &str) {
        db.execute(&format!(
            "CREATE CLASSIFICATION VIEW JV ON \
             (SELECT Docs.id, Docs.x, Meta.y, Meta.lbl FROM Docs \
              JOIN Meta ON Docs.id = Meta.doc) \
             LABELS ('P', 'N') FEATURE FUNCTION numeric_columns USING SVM {extra}"
        ))
        .unwrap();
    }

    #[test]
    fn join_backed_view_maintains_membership_through_both_inputs() {
        let mut db = setup_join();
        create_join_view(&mut db, "");
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(6));
        for (id, expect) in [(1, 1), (2, 1), (3, -1), (4, -1), (5, 1), (6, -1)] {
            assert_eq!(
                db.execute(&format!("SELECT class FROM JV WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "doc {id}"
            );
        }
        // a doc with no metadata joins nothing: not an entity yet
        db.execute("INSERT INTO Docs VALUES (7, 0.95)").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(6));
        // its metadata arriving completes the join and the entity appears
        db.execute("INSERT INTO Meta VALUES (7, 0.05, NULL)").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(7));
        assert_eq!(
            db.execute("SELECT class FROM JV WHERE id = 7").unwrap(),
            QueryResult::Label(Some(1))
        );
        // deleting EITHER side's row retracts the joined entity
        db.execute("DELETE FROM Meta WHERE doc = 7").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(6));
        db.execute("DELETE FROM Docs WHERE id = 6").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(5));
        assert_eq!(
            db.execute("SELECT class FROM JV WHERE id = 6").unwrap(),
            QueryResult::Label(None)
        );
        // an update on the non-key side re-derives the joined row
        db.execute("UPDATE Docs SET x = -1.4 WHERE id = 5").unwrap();
        assert_eq!(
            db.execute("SELECT class FROM JV WHERE id = 5").unwrap(),
            QueryResult::Label(Some(-1))
        );
        assert_eq!(db.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(5));
    }

    #[test]
    fn derived_views_compose_with_shards_and_adaptive() {
        for extra in ["SHARDS 3", "ADAPTIVE", "SHARDS 2 ADAPTIVE"] {
            let mut db = setup_join();
            create_join_view(&mut db, extra);
            for (id, expect) in [(1, 1), (3, -1), (5, 1), (6, -1)] {
                assert_eq!(
                    db.execute(&format!("SELECT class FROM JV WHERE id = {id}")).unwrap(),
                    QueryResult::Label(Some(expect)),
                    "doc {id} under {extra}"
                );
            }
            db.execute("DELETE FROM Meta WHERE doc = 5").unwrap();
            db.execute("UPDATE Docs SET x = -1.4 WHERE id = 1").unwrap();
            assert_eq!(
                db.execute("SELECT COUNT(*) FROM JV").unwrap(),
                QueryResult::Count(5),
                "count under {extra}"
            );
            assert_eq!(
                db.execute("SELECT class FROM JV WHERE id = 1").unwrap(),
                QueryResult::Label(Some(-1)),
                "re-derived doc 1 under {extra}"
            );
        }
    }

    #[test]
    fn durable_join_view_survives_reopen() {
        // session 1: durable JOIN-backed view, then post-create writes that
        // only the WAL remembers
        let mut db = setup_join();
        create_join_view(&mut db, "DURABLE");
        db.execute("INSERT INTO Docs VALUES (7, 0.95)").unwrap();
        db.execute("INSERT INTO Meta VALUES (7, 0.05, 'P')").unwrap();
        db.execute("DELETE FROM Meta WHERE doc = 6").unwrap();
        let trained = db.view_stats("JV").unwrap().updates;
        db.execute("CHECKPOINT CLASSIFICATION VIEW JV").unwrap();
        let fs = db.fs();
        drop(db);

        // session 2: re-run schema + base rows (tables are not durable) —
        // reflecting the post-checkpoint writes — then recover the view
        let mut db2 = Db::with_fs(fs.crash());
        db2.execute("CREATE TABLE Docs (id INT PRIMARY KEY, x FLOAT)").unwrap();
        db2.execute("CREATE TABLE Meta (doc INT PRIMARY KEY, y FLOAT, lbl TEXT)").unwrap();
        for (id, x) in [(1, 1.0), (2, 0.8), (3, -1.0), (4, -0.9), (5, 1.1), (6, -1.2), (7, 0.95)]
        {
            db2.execute(&format!("INSERT INTO Docs VALUES ({id}, {x:?})")).unwrap();
        }
        for (doc, y, lbl) in
            [(1, 0.2, "'P'"), (2, -0.1, "'P'"), (3, 0.3, "'N'"), (4, -0.2, "'N'"), (5, 0.1, "NULL"), (7, 0.05, "'P'")]
        {
            db2.execute(&format!("INSERT INTO Meta VALUES ({doc}, {y:?}, {lbl})")).unwrap();
        }
        create_join_view(&mut db2, "DURABLE");
        // zero retraining: the recovered engine answers, the replayed base
        // rows are recognized as already-known entities
        assert_eq!(db2.view_stats("JV").unwrap().updates, trained);
        assert_eq!(db2.execute("SELECT COUNT(*) FROM JV").unwrap(), QueryResult::Count(6));
        for (id, expect) in [(1, 1), (3, -1), (7, 1)] {
            assert_eq!(
                db2.execute(&format!("SELECT class FROM JV WHERE id = {id}")).unwrap(),
                QueryResult::Label(Some(expect)),
                "doc {id} after reopen"
            );
        }
    }

    #[test]
    fn derived_view_ddl_errors_are_structured() {
        let mut db = setup_join();
        fn err(db: &mut Db, sql: &str) -> DbError {
            db.execute(sql).unwrap_err()
        }
        assert_eq!(
            err(&mut db, "CREATE CLASSIFICATION VIEW V ON (SELECT id, x, lbl FROM Ghost) \
                 LABELS ('P','N') FEATURE FUNCTION numeric_columns"),
            DbError::NoSuchTable("Ghost".into())
        );
        assert_eq!(
            err(&mut db, "CREATE CLASSIFICATION VIEW V ON (SELECT Docs.ghost, x, lbl FROM Docs \
                 JOIN Meta ON Docs.id = Meta.doc) \
                 LABELS ('P','N') FEATURE FUNCTION numeric_columns"),
            DbError::NoSuchColumn("Docs.ghost".into())
        );
        // an unqualified column visible on both sides must be qualified
        db.execute("CREATE TABLE Meta2 (doc INT PRIMARY KEY, x FLOAT, lbl TEXT)").unwrap();
        assert!(matches!(
            err(&mut db, "CREATE CLASSIFICATION VIEW V ON (SELECT doc, x, lbl FROM Docs \
                 JOIN Meta2 ON Docs.id = Meta2.doc) \
                 LABELS ('P','N') FEATURE FUNCTION numeric_columns"),
            DbError::Unsupported(m) if m.contains("ambiguous")
        ));
        // the key column must be an integer
        assert!(matches!(
            err(&mut db, "CREATE CLASSIFICATION VIEW V ON (SELECT x, id, lbl FROM Docs \
                 JOIN Meta ON Docs.id = Meta.doc) \
                 LABELS ('P','N') FEATURE FUNCTION numeric_columns"),
            DbError::SchemaMismatch(_)
        ));
    }

    #[test]
    fn delete_and_update_errors_are_structured() {
        let mut db = setup_points();
        create_points_view(&mut db, "");
        fn err(db: &mut Db, sql: &str) -> DbError {
            db.execute(sql).unwrap_err()
        }
        assert_eq!(
            err(&mut db, "DELETE FROM Ghost WHERE id = 1"),
            DbError::NoSuchTable("Ghost".into())
        );
        assert_eq!(
            err(&mut db, "UPDATE Ghost SET x = 1 WHERE id = 1"),
            DbError::NoSuchTable("Ghost".into())
        );
        assert_eq!(
            err(&mut db, "DELETE FROM Points WHERE ghost = 1"),
            DbError::NoSuchColumn("ghost".into())
        );
        assert_eq!(
            err(&mut db, "UPDATE Points SET ghost = 1 WHERE id = 1"),
            DbError::NoSuchColumn("ghost".into())
        );
        assert_eq!(err(&mut db, "DELETE FROM Points WHERE id = 99"), DbError::MissingRow(99));
        assert_eq!(
            err(&mut db, "UPDATE Points SET x = 0 WHERE id = 99"),
            DbError::MissingRow(99)
        );
        // only primary-key predicates are supported, and the key itself
        // cannot be reassigned
        assert!(matches!(
            err(&mut db, "DELETE FROM Points WHERE x = 1"),
            DbError::Unsupported(_)
        ));
        assert!(matches!(
            err(&mut db, "UPDATE Points SET id = 9 WHERE id = 1"),
            DbError::Unsupported(_)
        ));
        // none of the failed statements disturbed the view
        assert_eq!(db.execute("SELECT COUNT(*) FROM PV").unwrap(), QueryResult::Count(6));
    }
}
