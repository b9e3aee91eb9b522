//! The request-dispatch core: a registry of [`Explorer`] sessions over one
//! shared table, independent of any transport.
//!
//! TCP connections and in-process callers (tests, benches) both go through
//! [`Engine::handle_line`], so the bytes a client receives are — by
//! construction — the bytes a single-threaded replay of the same request
//! sequence produces. The concurrency layers above (connection pool,
//! background prefetch worker) only decide *when* work happens:
//!
//! * per-session ordering: every operation locks the session's own mutex;
//! * prefetch equivalence: a deferred prefetch job is run by the background
//!   worker during think-time, or — if a request arrives first — drained at
//!   the start of that request, so it always runs between the expansion
//!   that created it and the next operation on that session (see
//!   [`sdd_explorer::PrefetchMode`]).
//!
//! Sessions never share mutable state (each has its own sample store,
//! click model, and counters), so concurrent sessions cannot perturb each
//! other's results — the property the stress harness pins down.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::auth::TenantRegistry;
use crate::cache::{CacheCounters, SearchCache, TenantCacheView};
use crate::predict::{PredictCounters, TransitionModel};
use crate::protocol::{OpenOptions, Request, Response, RuleInfo, StatsInfo};
use crate::registry::{Registry, RegistryError, TenantId, ANONYMOUS_TENANT};
use sdd_core::{BitsWeight, SizeMinusOne, SizeWeight, WeightFn};
use sdd_explorer::{DisplayedRule, Explorer, ExplorerConfig, ResultCache, SharedResultCache};
use sdd_sampling::PrefetchJob;
use sdd_table::{Schema, Table, TableStore};
use std::sync::Arc;

/// Stripe count of the session registry, the result cache and the
/// transition model: enough that concurrent sessions rarely share a lock.
const STRIPES: usize = 16;

/// Cap on concurrently registered sessions across all tenants
/// (backpressure guard on the open port).
const MAX_SESSIONS: usize = 10_000;

/// Largest accepted `append` batch, in rows. One request seals at least
/// one segment, so unbounded batches would let a single client drive
/// unbounded allocation; 10 000 rows comfortably fit the protocol's
/// line-length budget.
const MAX_APPEND_ROWS: usize = 10_000;

/// Largest accepted `k`. An expand runs `k` greedy searches and its
/// prefetch allocates over `k` drill-downs, so `k` sets a request's work;
/// this bounds what outside input can ask for until requests carry a work
/// budget of their own.
const MAX_K: usize = 12;

/// Tail-ingest opt-in: accepting `append` requests against a live
/// (appendable) served table. Absent from [`EngineConfig`] by default —
/// a server that did not opt in (`sdd serve --tail`) rejects every
/// `append` before touching the store.
#[derive(Debug, Clone, Default)]
pub struct TailConfig {}

/// Server-wide defaults for new sessions.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Session defaults (`k`, `mw`, sampling layer, prefetch). A deferred
    /// prefetch job runs on the server's background worker, or at the start
    /// of the session's next request — the two are observably identical.
    pub session: ExplorerConfig,
    /// Byte budget of the shared cross-session result cache; `0` disables
    /// it. The cache is transparent — responses are byte-identical either
    /// way.
    pub cache_bytes: usize,
    /// Tenant directory (auth tokens + per-tenant quotas). The default is
    /// an open registry: one anonymous tenant, no auth, no quotas beyond
    /// the engine's 10 000-session cap — exactly the lab behavior every
    /// existing caller expects. Quotas never change a response byte; they
    /// only decide whether an `open` is admitted.
    pub tenants: Arc<TenantRegistry>,
    /// Tail-ingest opt-in: `Some` accepts `append` requests (gated on the
    /// tenant's `ingest` capability and a 10 000-row batch cap), `None` —
    /// the default — rejects them all.
    pub tail: Option<TailConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            session: ExplorerConfig::default(),
            cache_bytes: 64 << 20,
            tenants: Arc::new(TenantRegistry::open()),
            tail: None,
        }
    }
}

/// The transport-independent server core. See module docs.
pub struct Engine {
    store: TableStore,
    sessions: Registry<Explorer>,
    config: EngineConfig,
    /// Shared cross-session result cache; `None` when disabled by config
    /// (`cache_bytes == 0`).
    cache: Option<Arc<SearchCache>>,
    /// Parent→child drill-down frequency model feeding think-time
    /// speculation. Advisory only: never changes a response byte.
    transitions: Arc<TransitionModel>,
    /// The engine-assigned cache identity of the served store. Every
    /// session gets this id, so sessions share result-cache entries;
    /// two engines (two loaded stores) always get distinct ids, so their
    /// entries can never collide even if they share a cache.
    table_id: u64,
}

impl Engine {
    /// Creates an engine serving a monolithic in-memory `table`.
    pub fn new(table: Arc<Table>, config: EngineConfig) -> Self {
        Self::with_store(TableStore::Whole(table), config)
    }

    /// Creates an engine serving any [`TableStore`] — in particular a
    /// sharded table whose segments spill to disk, which lets one served
    /// dataset exceed RAM. Every session opened on this engine explores the
    /// shared store; results are byte-identical to serving the equivalent
    /// monolithic table (the sharded stress harness asserts the transcript
    /// equality).
    pub fn with_store(store: TableStore, config: EngineConfig) -> Self {
        let cache = (config.cache_bytes > 0).then(|| {
            Arc::new(SearchCache::with_tenants(
                STRIPES,
                config.cache_bytes,
                config.tenants.cache_quotas(config.cache_bytes as u64),
            ))
        });
        Self {
            store,
            sessions: Registry::new(STRIPES),
            cache,
            transitions: Arc::new(TransitionModel::new(STRIPES)),
            config,
            table_id: sdd_explorer::allocate_table_id(),
        }
    }

    /// The served store's metadata table (schema/dictionaries; for sharded
    /// stores this is the zero-row header).
    pub fn table(&self) -> &Arc<Table> {
        self.store.header()
    }

    /// The storage this engine serves.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// Storage-tier counters `(loads, evictions, spills, peak_resident)`
    /// when the served store is segmented, `None` for a monolithic store
    /// (see [`TableStore::storage_counters`]) — the observability hook
    /// front-ends and the ingest test suites use to verify a served dataset
    /// actually exercised the spill tier (counters never influence results;
    /// the parity suites pin that).
    pub fn storage_counters(&self) -> Option<(u64, u64, u64, usize)> {
        self.store.storage_counters()
    }

    /// Live-table gauges `(epoch, visible_rows)` when the served store is
    /// appendable, `None` otherwise. Reads the **latest** published state,
    /// not any session's pin — this is what `/metrics` exports so an
    /// operator can watch ingest advance.
    pub fn live_info(&self) -> Option<(u64, usize)> {
        self.store.latest()
    }

    /// Number of live sessions.
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Shared result-cache counters, `None` when the cache is disabled
    /// (`cache_bytes == 0`). Like [`Engine::storage_counters`] these are
    /// observability only — the
    /// cache-parity suites pin that they never influence response bytes,
    /// which is also why they are not part of the wire `stats` reply.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// Configured result-cache byte budget, `None` when disabled.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache.as_ref().map(|_| self.config.cache_bytes)
    }

    /// Transition-model counters (records/predictions/speculations).
    pub fn predict_counters(&self) -> PredictCounters {
        self.transitions.counters()
    }

    /// The tenant directory this engine enforces quotas from.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.config.tenants
    }

    /// Result-cache bytes currently charged to `tenant` (0 when the cache
    /// is disabled). Observability only — `/metrics` reads this.
    pub fn tenant_cache_bytes(&self, tenant: TenantId) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.tenant_bytes(tenant))
    }

    /// Handles one raw request line as the anonymous tenant, without
    /// session tracking, and returns the serialized response line (no
    /// trailing newline) plus, when a deferred prefetch job is now pending,
    /// the session name to hand to the background worker.
    pub fn handle_line(&self, line: &str) -> (String, Option<String>) {
        self.handle_line_as(line, None, ANONYMOUS_TENANT)
    }

    /// The fully general entry point: one raw request line, handled on
    /// behalf of `tenant` (session-quota enforcement at `open`; cache
    /// inserts charged to the tenant), with optional connection-scoped
    /// session tracking via `opened`: a successful `open` appends the
    /// session name, a successful `close` removes it, so a transport can
    /// reap whatever is left when its connection dies without a `close`
    /// (see [`Engine::close_session`]). Pass `None` for transports whose
    /// sessions outlive connections — HTTP — and rely on the idle sweep
    /// instead. Tenancy decides only whether an `open` is admitted: for
    /// any admitted request sequence the response bytes are identical for
    /// every tenant, which is what keeps HTTP transcripts byte-equal to
    /// line-JSON transcripts.
    pub fn handle_line_as(
        &self,
        line: &str,
        opened: Option<&mut Vec<String>>,
        tenant: TenantId,
    ) -> (String, Option<String>) {
        match crate::protocol::parse_request_line(line) {
            Ok(req) => {
                let (response, hint) = self.handle_as(&req, tenant);
                if let Some(opened) = opened {
                    match (&req, &response) {
                        (Request::Open { session, .. }, Response::Opened { .. }) => {
                            opened.push(session.clone());
                        }
                        (Request::Close { session }, Response::Closed) => {
                            opened.retain(|s| s != session);
                        }
                        _ => {}
                    }
                }
                (response.to_json().to_string(), hint)
            }
            Err(e) => (Response::error(e).to_json().to_string(), None),
        }
    }

    /// Removes a session without a protocol exchange — transport-level
    /// reaping of connection-scoped sessions whose client vanished without
    /// `close`. Idempotent; a name already closed is a no-op. Releases the
    /// owning tenant's session quota.
    pub fn close_session(&self, session: &str) {
        if let Some((_, tenant)) = self.sessions.remove_tagged(session) {
            self.config.tenants.tenant(tenant).release_session();
        }
    }

    /// Removes every session idle longer than `ttl`, releasing each
    /// owner's quota, and returns how many were reaped. The server's
    /// background sweep calls this; HTTP sessions (not connection-scoped)
    /// rely on it for their whole lifecycle, and a stalled TCP client's
    /// sessions are also reclaimed here if its read timeout has not fired
    /// first.
    pub fn evict_idle_sessions(&self, ttl: std::time::Duration) -> usize {
        let reaped = self.sessions.sweep_idle(ttl.as_millis() as u64);
        for (_, tenant) in &reaped {
            self.config.tenants.tenant(*tenant).release_session();
        }
        reaped.len()
    }

    /// Handles one parsed request as the anonymous tenant. Returns the
    /// response and, when a deferred prefetch job is pending afterwards,
    /// the session to ping.
    pub fn handle(&self, req: &Request) -> (Response, Option<String>) {
        self.handle_as(req, ANONYMOUS_TENANT)
    }

    /// [`Engine::handle`] on behalf of `tenant` — see
    /// [`Engine::handle_line_as`] for the tenancy contract.
    pub fn handle_as(&self, req: &Request, tenant: TenantId) -> (Response, Option<String>) {
        match req {
            Request::Ping => (Response::Pong, None),
            Request::TableInfo => (
                Response::TableInfo {
                    // Live stores report the latest published epoch's row
                    // count, not the engine's load-time pin — `table` is
                    // how a tail client confirms its appends landed.
                    rows: self
                        .live_info()
                        .map_or_else(|| self.store.n_rows(), |(_, rows)| rows),
                    columns: (0..self.store.n_columns())
                        .map(|c| self.store.schema().column_name(c).to_owned())
                        .collect(),
                },
                None,
            ),
            Request::Open { session, options } => (self.open(session, options, tenant), None),
            Request::Close { session } => match self.sessions.remove_tagged(session) {
                Some((_, owner)) => {
                    self.config.tenants.tenant(owner).release_session();
                    (Response::Closed, None)
                }
                None => (
                    Response::error(RegistryError::NotFound(session.clone())),
                    None,
                ),
            },
            Request::Expand { session, path } => {
                self.with_session(session, |ex| match ex.expand(path) {
                    Ok(children) => {
                        self.record_transition(ex, path);
                        Response::Expanded {
                            rules: child_infos(path, &children, ex.table()),
                        }
                    }
                    Err(e) => Response::error(e),
                })
            }
            Request::Star {
                session,
                path,
                column,
            } => self.with_session(session, |ex| {
                let col = match ex.table().schema().index_of(column) {
                    Ok(c) => c,
                    Err(e) => return Response::error(e),
                };
                match ex.expand_star(path, col) {
                    Ok(children) => Response::Expanded {
                        rules: child_infos(path, &children, ex.table()),
                    },
                    Err(e) => Response::error(e),
                }
            }),
            Request::Collapse { session, path } => {
                self.with_session(session, |ex| match ex.collapse(path) {
                    Ok(()) => Response::Collapsed,
                    Err(e) => Response::error(e),
                })
            }
            Request::Rules { session } => self.with_session(session, |ex| Response::RuleList {
                rules: visible_infos(ex),
            }),
            Request::Render { session } => {
                self.with_session(session, |ex| Response::Rendered { text: ex.render() })
            }
            Request::Refresh { session } => {
                self.with_session(session, |ex| {
                    // Serving-mode split: over frozen storage the refresh
                    // scan runs inline (the classic blocking semantics many
                    // transcript suites pin). Over a live table it is
                    // *scheduled* — the background worker or the next
                    // operation prologue runs it off the request path — and
                    // the reply shows the current (possibly estimated)
                    // counts. Either way the scan executes at the epoch the
                    // session is pinned to right now.
                    let result = if ex.store().as_live().is_some() {
                        ex.request_refresh();
                        Ok(())
                    } else {
                        ex.try_refresh_exact_counts()
                    };
                    match result {
                        Ok(()) => Response::RuleList {
                            rules: visible_infos(ex),
                        },
                        Err(e) => Response::error(e),
                    }
                })
            }
            Request::Append { rows, measures } => (self.append(rows, measures, tenant), None),
            Request::Stats { session } => self.with_session(session, |ex| {
                let h = ex.handler_stats();
                Response::Stats {
                    stats: StatsInfo {
                        expansions: ex.stats.expansions,
                        served_from_memory: ex.stats.served_from_memory,
                        refreshes: ex.stats.refreshes,
                        finds: h.finds,
                        combines: h.combines,
                        creates: h.creates,
                        full_scans: h.full_scans,
                        evictions: h.evictions,
                        stored_samples: ex.handler().n_samples(),
                        memory_used: ex.handler().memory_used(),
                    },
                }
            }),
        }
    }

    /// Handles one `append`: gate (tail opt-in → tenant ingest capability →
    /// batch cap → live store), then seal the batch through the live
    /// table's existing segment machinery. The append publishes a new
    /// epoch; every session picks it up at its next operation prologue and
    /// no cached result is ever served across the boundary (the epoch is
    /// part of every cache key).
    fn append(&self, rows: &[Vec<String>], measures: &[Vec<f64>], tenant: TenantId) -> Response {
        if self.config.tail.is_none() {
            return Response::error("append rejected: tail ingest is not enabled on this server");
        }
        let owner = self.config.tenants.tenant(tenant);
        if !owner.quota.ingest {
            return Response::error(format!(
                "tenant {:?} lacks the ingest capability",
                owner.name
            ));
        }
        if rows.len() > MAX_APPEND_ROWS {
            return Response::error(format!(
                "append batch of {} rows exceeds the {MAX_APPEND_ROWS}-row cap",
                rows.len()
            ));
        }
        let Some(live) = self.store.as_live() else {
            return Response::error("append rejected: the served table is frozen");
        };
        if !measures.is_empty() {
            return Response::error("append rejected: a live table carries no measures");
        }
        match live.live().try_append(rows, &[]) {
            Ok(snap) => Response::Appended {
                epoch: snap.epoch,
                rows: snap.table.n_rows(),
            },
            Err(e) => Response::error(e),
        }
    }

    fn open(&self, session: &str, options: &OpenOptions, tenant: TenantId) -> Response {
        if session.is_empty() || session.len() > 128 {
            return Response::error("session name must be 1..=128 characters");
        }
        if self.sessions.len() >= MAX_SESSIONS {
            return Response::error("session limit reached");
        }
        let owner = self.config.tenants.tenant(tenant);
        if !owner.try_claim_session() {
            return Response::error(format!(
                "tenant {:?} session quota ({}) reached",
                owner.name, owner.quota.max_sessions
            ));
        }
        // The slot is claimed; any failure below must hand it back.
        let response = self.open_claimed(session, options, tenant);
        if !matches!(response, Response::Opened { .. }) {
            owner.release_session();
        }
        response
    }

    /// The validation + construction half of `open`, running with the
    /// tenant's session slot already claimed.
    fn open_claimed(&self, session: &str, options: &OpenOptions, tenant: TenantId) -> Response {
        let weight = match make_weight(options, self.store.schema()) {
            Ok(w) => w,
            Err(e) => return Response::error(e),
        };
        let mut cfg = self.config.session.clone();
        // `k` and `capacity` size what a session's requests do: `k` sets
        // their work (`MAX_K`), and the prefetch allocation and the
        // reservoirs grow with the sample memory, which this server's own
        // `M` bounds.
        if let Some(k) = options.k {
            if k == 0 {
                return Response::error("k must be positive");
            }
            if k > MAX_K {
                return Response::error(format!("k must be at most {MAX_K}"));
            }
            cfg.k = k;
        }
        if let Some(mw) = options.max_weight {
            if mw <= 0.0 || mw.is_nan() {
                return Response::error("mw must be positive");
            }
            cfg.max_weight = Some(mw);
        }
        if let Some(seed) = options.seed {
            cfg.handler.seed = seed;
        }
        if let Some(capacity) = options.capacity {
            let max = self.config.session.handler.capacity;
            if capacity > max {
                return Response::error(format!(
                    "capacity must be at most {max}, this server's sample memory"
                ));
            }
            cfg.handler.capacity = capacity;
        }
        if let Some(min_ss) = options.min_ss {
            cfg.handler.min_sample_size = min_ss;
        }
        if cfg.handler.min_sample_size == 0 || cfg.handler.capacity < cfg.handler.min_sample_size {
            return Response::error("capacity must hold at least one minimum-size sample");
        }
        // Every session shares the engine-wide result cache. Key
        // derivation inside the explorer already folds in everything that
        // can vary per session (sample content, base rule, k, weight, mw),
        // so cross-session sharing is sound — and sessions with diverging
        // sample content simply miss.
        // The view tags inserts with the owning tenant so cache-byte
        // quotas charge the right account; hits stay tenant-blind.
        cfg.cache = self.cache.clone().map(|c| {
            SharedResultCache(Arc::new(TenantCacheView::new(c, tenant)) as Arc<dyn ResultCache>)
        });
        // One id per loaded store: sessions of this engine interoperate in
        // the cache, sessions of any other engine (even over an identical
        // table) never collide with them.
        cfg.table_id = Some(self.table_id);
        let explorer = Explorer::with_store(self.store.clone(), weight, cfg);
        match self.sessions.insert_tagged(session, explorer, tenant) {
            Ok(()) => Response::Opened {
                session: session.to_owned(),
            },
            Err(e) => Response::error(e),
        }
    }

    /// Locks the named session and runs `f` on it. Any deferred prefetch
    /// job the background worker has not claimed yet is drained **first**,
    /// under the same lock, so every operation observes the same state
    /// whether or not the worker got to the job first.
    fn with_session(
        &self,
        session: &str,
        f: impl FnOnce(&mut Explorer) -> Response,
    ) -> (Response, Option<String>) {
        let Some(handle) = self.sessions.get(session) else {
            return (
                Response::error(RegistryError::NotFound(session.to_owned())),
                None,
            );
        };
        // A panic inside an earlier operation poisons the session lock;
        // answer with an error (the session state may be inconsistent)
        // instead of cascading the panic through the connection worker.
        let Ok(mut ex) = handle.lock() else {
            return (
                Response::error(format!(
                    "session {session:?} is corrupted by an earlier internal error; close it"
                )),
                None,
            );
        };
        // The operation prologue, in two steps. First, the unclaimed
        // prefetch job: best-effort, error dropped — the job is consumed
        // either way and the operation below resurfaces the fault if it
        // needs the damaged shard (the pre-live behavior, pinned by the
        // spill-fault suite). Then the epoch advance: a scheduled refresh
        // drains at the epoch it was created under and the session moves
        // onto the newest published snapshot; a storage fault *here* is a
        // real answer-blocking failure (the refresh stays scheduled, the
        // pin stays put), so it becomes the error response — not a panic,
        // not a silent stale answer.
        let _ = ex.try_drain_pending_prefetch();
        if let Err(e) = ex.try_advance_epoch() {
            return (Response::error(e), None);
        }
        let response = f(&mut ex);
        let hint =
            (ex.has_pending_prefetch() || ex.has_pending_refresh()).then(|| session.to_owned());
        (response, hint)
    }

    /// Background-worker tick: claim and run the named session's pending
    /// prefetch job, if it is still unclaimed. Holding the session lock for
    /// the duration keeps the job atomic with respect to requests. After
    /// the sample prefetch, think-time speculation may precompute the
    /// predicted next expansion into the shared result cache.
    pub fn run_pending_prefetch(&self, session: &str) {
        if let Some(handle) = self.sessions.get(session) {
            if let Ok(mut ex) = handle.lock() {
                if let Some(job) = ex.take_pending_prefetch() {
                    // Best-effort: a failed background prefetch stores
                    // nothing; the next request touching the damaged shard
                    // gets the error. (When no job remains, a request beat
                    // us to it and drained it first.)
                    let _ = ex.try_run_prefetch(&job);
                    self.speculate(&ex, &job);
                }
                // Scheduled exact-count refresh (live serving mode) also
                // runs on this worker — at the session's pinned epoch, the
                // same point the next request prologue would run it, so
                // worker timing is unobservable in the response bytes; the
                // epoch advance afterwards keeps think-time sample
                // maintenance off the request path too.
                let _ = ex.try_advance_epoch();
            }
        }
    }

    /// Feeds the transition model after a successful `expand`: the analyst,
    /// looking at the parent's rule list, drilled into the rule at `path`.
    /// Root expansions have no parent to learn from, and without a shared
    /// cache there is nothing speculation could warm — skip both.
    fn record_transition(&self, ex: &Explorer, path: &[usize]) {
        if self.cache.is_none() || path.is_empty() {
            return;
        }
        let (Ok(parent), Ok(child)) = (ex.rule_at(&path[..path.len() - 1]), ex.rule_at(path))
        else {
            return;
        };
        self.transitions.record(&parent.rule, &child.rule);
    }

    /// Think-time speculation: if the transition model confidently predicts
    /// which displayed child the analyst drills into next, precompute that
    /// expansion into the shared result cache before the click arrives.
    /// Runs under the session lock after the sample prefetch and mutates no
    /// session state (read-only sample peek, shared-cache insert), so a
    /// wrong guess or a lost race changes nothing observable.
    fn speculate(&self, ex: &Explorer, job: &PrefetchJob) {
        if self.cache.is_none() {
            return;
        }
        let Some(predicted) = self.transitions.predict(&job.parent) else {
            return;
        };
        // Only precompute rules actually on this session's display — the
        // model is shared, so the predicted child may not be among this
        // session's prefetch candidates.
        if job.entries.iter().any(|e| e.rule == predicted) && ex.speculate_expand(&predicted) {
            self.transitions.note_speculation();
        }
    }
}

/// A base weight whose per-column terms are scaled by `favor` multipliers.
/// Monotone and non-negative for non-negative multipliers. It has no cache
/// tag: sessions that differ only in their multipliers share no entry.
struct AdjustedWeight {
    bits: bool,
    minus_one: bool,
    multipliers: Vec<f64>,
}

impl WeightFn for AdjustedWeight {
    fn weight(&self, rule: &sdd_core::Rule, table: &Table) -> f64 {
        let bits = |c: usize| (table.cardinality(c).max(1) as f64).log2().ceil();
        let sum: f64 = rule
            .instantiated_columns()
            .map(|c| self.multipliers[c] * if self.bits { bits(c) } else { 1.0 })
            .sum();
        if self.minus_one {
            (sum - 1.0).max(0.0)
        } else {
            sum
        }
    }

    fn name(&self) -> &str {
        "adjusted"
    }
}

/// The weight `options` name, adjusted by its `favor`. With every
/// multiplier 1 it is exactly [`SizeWeight`], [`BitsWeight`] or [`SizeMinusOne`].
fn make_weight(options: &OpenOptions, schema: &Schema) -> Result<Box<dyn WeightFn>, String> {
    let (plain, bits, minus_one): (Box<dyn WeightFn>, _, _) = match options.weight.as_deref() {
        None | Some("size") => (Box::new(SizeWeight), false, false),
        Some("bits") => (Box::new(BitsWeight), true, false),
        Some("size-1" | "size-minus-one") => (Box::new(SizeMinusOne), false, true),
        Some(other) => return Err(format!("unknown weight {other:?} (size|bits|size-1)")),
    };
    let mut multipliers = vec![1.0; schema.n_columns()];
    for (column, m) in &options.favor {
        if !(m.is_finite() && *m >= 0.0) {
            return Err(format!("favor {m} for {column:?} must be finite, ≥ 0"));
        }
        multipliers[schema.index_of(column).map_err(|e| e.to_string())?] = *m;
    }
    if multipliers.iter().all(|&m| m == 1.0) {
        return Ok(plain);
    }
    Ok(Box::new(AdjustedWeight {
        bits,
        minus_one,
        multipliers,
    }))
}

fn rule_info(path: Vec<usize>, info: &DisplayedRule, table: &Table) -> RuleInfo {
    RuleInfo {
        path,
        rule: info.rule.display(table),
        count: info.count,
        ci: (info.ci_lo, info.ci_hi),
        exact: info.exact,
        weight: info.weight,
    }
}

fn child_infos(base: &[usize], children: &[DisplayedRule], table: &Table) -> Vec<RuleInfo> {
    children
        .iter()
        .enumerate()
        .map(|(i, info)| {
            let mut path = base.to_vec();
            path.push(i);
            rule_info(path, info, table)
        })
        .collect()
}

fn visible_infos(ex: &Explorer) -> Vec<RuleInfo> {
    let table = ex.table().clone();
    let mut out = Vec::new();
    // Depth-first in display order, reconstructing paths.
    fn walk(ex: &Explorer, path: &mut Vec<usize>, table: &Table, out: &mut Vec<RuleInfo>) {
        if let Ok(info) = ex.rule_at(path) {
            out.push(rule_info(path.clone(), info, table));
        }
        if let Ok(children) = ex.children_at(path) {
            for i in 0..children.len() {
                path.push(i);
                walk(ex, path, table, out);
                path.pop();
            }
        }
    }
    let mut path = Vec::new();
    walk(ex, &mut path, &table, &mut out);
    out
}
