//! The three depths ("rungs") the traced run executes a tape at.
//!
//! The product's layers nest — `server` calls `explorer`, which calls
//! `sampling` and `core`, which call `table` — and carry no
//! instrumentation of their own, so one replay can only time the outermost
//! call. The traced run therefore replays the same tape three times, each
//! time entering one layer deeper through that layer's public functions:
//!
//! 1. [`TracedEngine`] — `parse_request_line` → `Engine::handle` →
//!    `to_json` (what `Engine::handle_line` does, with a span around each);
//! 2. [`ShadowEngine`] — what `Engine` does with a request, spelled out
//!    over `Explorer`s it owns (a span around each `Explorer` call);
//! 3. [`ShadowExplorer`] — what `Explorer` does with an operation, spelled
//!    out over a `SampleHandler`, the drill-down search and the shared
//!    result cache (a span around each of those).
//!
//! Every depth must display the same rules; the traced run checks that. A
//! layer's self time is then its span at one depth minus the spans of the
//! depth below, request by request (the tape issues request `i` at every
//! depth).

use crate::driver::{Reply, Target};
use crate::tape::ScriptRequest;
use crate::trace::Tracer;
use sdd_core::{
    drill_down_with, star_drill_down_with, Brs, DrillKey, Rule, ScoredRule, SearchStats,
    SizeWeight, WeightFn,
};
use sdd_explorer::{
    ClickModel, DisplayedRule, Explorer, ExplorerConfig, PrefetchMode, ResultCache,
    SharedResultCache,
};
use sdd_sampling::{
    count_estimate, FetchMechanism, PrefetchEntry, PrefetchJob, SampleHandler, SampleHandlerConfig,
    SampleView,
};
use sdd_server::protocol::parse_request_line;
use sdd_server::{
    Engine, OpenOptions, Request, Response, RuleInfo, SearchCache, StatsInfo, TenantCacheView,
    TransitionModel, ANONYMOUS_TENANT,
};
use sdd_table::{LiveTable, Table, TableStore, TableView};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The engine defaults the shadows reproduce (`EngineConfig::default()`).
const STRIPES: usize = 16;
const CACHE_BYTES: usize = 64 << 20;
const CONFIDENCE_Z: f64 = 1.96;

// ---------------------------------------------------------------------------
// Rung 1
// ---------------------------------------------------------------------------

/// Rung 1: the engine, entered exactly as `Engine::handle_line` enters it,
/// with a span around each of its three stages.
pub struct TracedEngine<'e> {
    engine: &'e Engine,
    /// The spans recorded so far.
    pub tracer: Tracer,
    request: u64,
}

impl<'e> TracedEngine<'e> {
    /// Traces `engine`.
    pub fn new(engine: &'e Engine) -> Self {
        Self {
            engine,
            tracer: Tracer::new(),
            request: 0,
        }
    }
}

impl Target for TracedEngine<'_> {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        self.request += 1;
        let id = self.request;
        let t = &mut self.tracer;
        let whole = t.begin("request", id);
        let (parsed, _) = t.span("server.parse", id, || parse_request_line(&req.line));
        let (response, hint) = match parsed {
            Ok(request) => {
                t.span("server.handle", id, || self.engine.handle(&request))
                    .0
            }
            Err(e) => (Response::error(e), None),
        };
        let (line, _) = t.span("server.serialize", id, || response.to_json().to_string());
        t.end(whole);
        Ok(Reply {
            line,
            think_pending: hint.is_some(),
        })
    }

    fn think(&mut self, session: &str) {
        let id = self.request;
        self.tracer.span("server.think", id, || {
            self.engine.run_pending_prefetch(session)
        });
    }
}

// ---------------------------------------------------------------------------
// What rungs 2 and 3 share: the engine's session settings and reply shapes
// ---------------------------------------------------------------------------

/// What `Engine::open` derives from the request's options.
struct SessionSettings {
    k: usize,
    max_weight: Option<f64>,
    handler: SampleHandlerConfig,
}

fn session_settings(options: &OpenOptions) -> Result<SessionSettings, String> {
    if !matches!(options.weight.as_deref(), None | Some("size")) {
        return Err("the shadows reproduce the size weight only".to_owned());
    }
    let mut handler = SampleHandlerConfig::default();
    if let Some(seed) = options.seed {
        handler.seed = seed;
    }
    if let Some(capacity) = options.capacity {
        handler.capacity = capacity;
    }
    if let Some(min_ss) = options.min_ss {
        handler.min_sample_size = min_ss;
    }
    Ok(SessionSettings {
        k: options.k.unwrap_or(4),
        max_weight: options.max_weight,
        handler,
    })
}

fn rule_info(path: Vec<usize>, rule: &Rule, d: &Shown, table: &Table) -> RuleInfo {
    RuleInfo {
        path,
        rule: rule.display(table),
        count: d.count,
        ci: (d.ci_lo, d.ci_hi),
        exact: d.exact,
        weight: d.weight,
    }
}

/// The numbers displayed next to a rule.
#[derive(Debug, Clone, Copy)]
struct Shown {
    count: f64,
    ci_lo: f64,
    ci_hi: f64,
    exact: bool,
    weight: f64,
}

impl From<&DisplayedRule> for Shown {
    fn from(d: &DisplayedRule) -> Shown {
        Shown {
            count: d.count,
            ci_lo: d.ci_lo,
            ci_hi: d.ci_hi,
            exact: d.exact,
            weight: d.weight,
        }
    }
}

fn child_path(base: &[usize], i: usize) -> Vec<usize> {
    let mut path = base.to_vec();
    path.push(i);
    path
}

fn shared_cache() -> Arc<SearchCache> {
    Arc::new(SearchCache::new(STRIPES, CACHE_BYTES))
}

fn cache_handle(cache: &Arc<SearchCache>) -> SharedResultCache {
    SharedResultCache(
        Arc::new(TenantCacheView::new(Arc::clone(cache), ANONYMOUS_TENANT)) as Arc<dyn ResultCache>,
    )
}

fn ok_reply(response: Response, think_pending: bool) -> Result<Reply, String> {
    Ok(Reply {
        line: response.to_json().to_string(),
        think_pending,
    })
}

fn parse(req: &ScriptRequest) -> Result<Request, String> {
    parse_request_line(&req.line)
}

fn append(live: Option<&Arc<LiveTable>>, rows: &[Vec<String>]) -> Result<Response, String> {
    let live = live.ok_or("append against a frozen store")?;
    let snap = live.try_append(rows, &[]).map_err(|e| e.to_string())?;
    Ok(Response::Appended {
        epoch: snap.epoch,
        rows: snap.table.n_rows(),
    })
}

// ---------------------------------------------------------------------------
// Rung 2
// ---------------------------------------------------------------------------

/// Rung 2: what `Engine` does with each request — prologue, operation,
/// reply, think-time worker tick — spelled out over `Explorer`s, with a
/// span around each call into the `explorer` layer.
pub struct ShadowEngine {
    store: TableStore,
    live: Option<Arc<LiveTable>>,
    cache: Arc<SearchCache>,
    transitions: TransitionModel,
    table_id: u64,
    sessions: BTreeMap<String, Explorer>,
    /// The spans recorded so far.
    pub tracer: Tracer,
    request: u64,
}

impl ShadowEngine {
    /// A shadow engine over `store` (pass the live table too when the
    /// store is one, so `append` has something to append to).
    pub fn new(store: TableStore, live: Option<Arc<LiveTable>>) -> Self {
        Self {
            store,
            live,
            cache: shared_cache(),
            transitions: TransitionModel::new(STRIPES),
            table_id: sdd_explorer::allocate_table_id(),
            sessions: BTreeMap::new(),
            tracer: Tracer::new(),
            request: 0,
        }
    }

    fn open(&mut self, session: &str, options: &OpenOptions) -> Result<(), String> {
        let s = session_settings(options)?;
        let cfg = ExplorerConfig {
            k: s.k,
            max_weight: s.max_weight,
            handler: s.handler,
            prefetch: PrefetchMode::Deferred,
            confidence_z: CONFIDENCE_Z,
            cache: Some(cache_handle(&self.cache)),
            table_id: Some(self.table_id),
        };
        let store = self.store.clone();
        let id = self.request;
        let (explorer, _) = self.tracer.span("explorer.open", id, || {
            Explorer::with_store(store, Box::new(SizeWeight), cfg)
        });
        self.sessions.insert(session.to_owned(), explorer);
        Ok(())
    }

    /// Everything `Engine::with_session` does under the session lock.
    fn with_session(
        &mut self,
        session: &str,
        name: &'static str,
        op: impl FnOnce(&mut Explorer) -> Result<(), String>,
    ) -> Result<bool, String> {
        let id = self.request;
        let ex = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| format!("no session {session}"))?;
        let t = &mut self.tracer;
        let whole = t.begin("explorer.op", id);
        let _ = ex.try_drain_pending_prefetch();
        t.span("explorer.advance_epoch", id, || ex.try_advance_epoch())
            .0
            .map_err(|e| e.to_string())?;
        let (done, _) = t.span(name, id, || op(ex));
        t.end(whole);
        done?;
        Ok(ex.has_pending_prefetch() || ex.has_pending_refresh())
    }

    fn visible(ex: &Explorer) -> Vec<RuleInfo> {
        fn walk(ex: &Explorer, path: &mut Vec<usize>, table: &Table, out: &mut Vec<RuleInfo>) {
            if let Ok(d) = ex.rule_at(path) {
                out.push(rule_info(path.clone(), &d.rule, &d.into(), table));
            }
            let n = ex.children_at(path).map_or(0, |c| c.len());
            for i in 0..n {
                path.push(i);
                walk(ex, path, table, out);
                path.pop();
            }
        }
        let table = Arc::clone(ex.table());
        let mut out = Vec::new();
        walk(ex, &mut Vec::new(), &table, &mut out);
        out
    }

    fn children(ex: &Explorer, path: &[usize]) -> Vec<RuleInfo> {
        ex.children_at(path)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(i, d)| rule_info(child_path(path, i), &d.rule, &(*d).into(), ex.table()))
            .collect()
    }
}

impl Target for ShadowEngine {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        self.request += 1;
        let id = self.request;
        match parse(req)? {
            Request::Open { session, options } => {
                self.open(&session, &options)?;
                ok_reply(Response::Opened { session }, false)
            }
            Request::Close { session } => {
                self.tracer
                    .span("explorer.close", id, || self.sessions.remove(&session));
                ok_reply(Response::Closed, false)
            }
            Request::Append { rows, .. } => {
                let live = self.live.clone();
                let (r, _) = self
                    .tracer
                    .span("table.append", id, || append(live.as_ref(), &rows));
                ok_reply(r?, false)
            }
            Request::Expand { session, path } => {
                let pending = self.with_session(&session, "explorer.expand", |ex| {
                    ex.expand(&path).map(|_| ()).map_err(|e| e.to_string())
                })?;
                let ex = &self.sessions[&session];
                // `Engine::record_transition`: the analyst, looking at the
                // parent's rules, drilled into this one.
                if let Some((_, parent)) = path.split_last() {
                    if let (Ok(p), Ok(c)) = (ex.rule_at(parent), ex.rule_at(&path)) {
                        self.transitions.record(&p.rule, &c.rule);
                    }
                }
                ok_reply(
                    Response::Expanded {
                        rules: Self::children(ex, &path),
                    },
                    pending,
                )
            }
            Request::Star {
                session,
                path,
                column,
            } => {
                let col = self
                    .store
                    .schema()
                    .index_of(&column)
                    .map_err(|e| e.to_string())?;
                let pending = self.with_session(&session, "explorer.star", |ex| {
                    ex.expand_star(&path, col)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })?;
                ok_reply(
                    Response::Expanded {
                        rules: Self::children(&self.sessions[&session], &path),
                    },
                    pending,
                )
            }
            Request::Rules { session } => {
                let pending = self.with_session(&session, "explorer.rules", |_| Ok(()))?;
                ok_reply(
                    Response::RuleList {
                        rules: Self::visible(&self.sessions[&session]),
                    },
                    pending,
                )
            }
            Request::Render { session } => {
                let mut text = String::new();
                let pending = self.with_session(&session, "explorer.render", |ex| {
                    text = ex.render();
                    Ok(())
                })?;
                ok_reply(Response::Rendered { text }, pending)
            }
            Request::Refresh { session } => {
                // Over a live store the engine only schedules the scan; it
                // runs — and is timed as `explorer.refresh` — in think time.
                let scheduled = self.store.as_live().is_some();
                let name = if scheduled {
                    "explorer.request_refresh"
                } else {
                    "explorer.refresh"
                };
                let pending = self.with_session(&session, name, |ex| {
                    if scheduled {
                        ex.request_refresh();
                        Ok(())
                    } else {
                        ex.try_refresh_exact_counts().map_err(|e| e.to_string())
                    }
                })?;
                ok_reply(
                    Response::RuleList {
                        rules: Self::visible(&self.sessions[&session]),
                    },
                    pending,
                )
            }
            Request::Stats { session } => {
                let pending = self.with_session(&session, "explorer.stats", |_| Ok(()))?;
                let ex = &self.sessions[&session];
                let h = ex.handler_stats();
                ok_reply(
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
                    },
                    pending,
                )
            }
            other => Err(format!("the shadow engine has no {} request", other.op())),
        }
    }

    /// `Engine::run_pending_prefetch`.
    fn think(&mut self, session: &str) {
        let id = self.request;
        let Some(ex) = self.sessions.get_mut(session) else {
            return;
        };
        let t = &mut self.tracer;
        let whole = t.begin("explorer.think", id);
        if let Some(job) = ex.take_pending_prefetch() {
            let _ = t.span("explorer.prefetch", id, || ex.try_run_prefetch(&job));
            if let Some(predicted) = self.transitions.predict(&job.parent) {
                if job.entries.iter().any(|e| e.rule == predicted)
                    && t.span("explorer.speculate", id, || ex.speculate_expand(&predicted))
                        .0
                {
                    self.transitions.note_speculation();
                }
            }
        }
        // `try_advance_epoch` drains a scheduled refresh first; do that
        // step under its own name.
        if ex.has_pending_refresh() {
            let _ = t.span("explorer.refresh", id, || ex.try_drain_pending_refresh());
        }
        let _ = t.span("explorer.advance_epoch", id, || ex.try_advance_epoch());
        t.end(whole);
    }
}

// ---------------------------------------------------------------------------
// Rung 3
// ---------------------------------------------------------------------------

/// One displayed node of a rung-3 session.
#[derive(Debug, Clone)]
struct Node {
    rule: Rule,
    shown: Shown,
}

struct PipeSession {
    handler: SampleHandler,
    click_model: ClickModel,
    k: usize,
    max_weight: Option<f64>,
    /// Displayed nodes by path (the explorer's tree, flattened).
    nodes: BTreeMap<Vec<usize>, Node>,
    pending_prefetch: Option<PrefetchJob>,
    pending_refresh: bool,
}

/// Work counters of the searches rung 3 ran (exact functions of the tape).
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchTotals {
    /// Searches run (result-cache misses and speculations).
    pub searches: usize,
    /// Searches skipped because the shared result cache had the answer.
    pub cache_hits: usize,
    /// Σ of the searches' work counters.
    pub stats: SearchStats,
}

/// Rung 3: what `Explorer` does with each operation — prologue, sample,
/// search (through the shared result cache), estimates, prefetch plan —
/// spelled out over a `SampleHandler` and the drill-down functions of
/// `core`, with a span around each of those calls.
pub struct ShadowExplorer {
    store: TableStore,
    live: Option<Arc<LiveTable>>,
    cache: Arc<SearchCache>,
    transitions: TransitionModel,
    table_id: u64,
    sessions: BTreeMap<String, PipeSession>,
    /// The spans recorded so far.
    pub tracer: Tracer,
    /// Search work counters.
    pub searches: SearchTotals,
    /// Segment loads / evictions of the store during each request, by
    /// request id: `(loads, evictions)`. What the `table` layer's estimated
    /// self time is priced from.
    pub request_traffic: BTreeMap<u64, (u64, u64)>,
    /// The same during the think-time work that followed each request.
    pub think_traffic: BTreeMap<u64, (u64, u64)>,
    request: u64,
}

impl ShadowExplorer {
    /// A shadow explorer stack over `store`.
    pub fn new(store: TableStore, live: Option<Arc<LiveTable>>) -> Self {
        Self {
            store,
            live,
            cache: shared_cache(),
            transitions: TransitionModel::new(STRIPES),
            table_id: sdd_explorer::allocate_table_id(),
            sessions: BTreeMap::new(),
            tracer: Tracer::new(),
            searches: SearchTotals::default(),
            request_traffic: BTreeMap::new(),
            think_traffic: BTreeMap::new(),
            request: 0,
        }
    }

    fn storage_counters(store: &TableStore) -> (u64, u64) {
        match store {
            TableStore::Sharded(s) => (s.loads(), s.evictions()),
            TableStore::Live(l) => {
                let (loads, evictions, _, _) = l.live().storage_counters();
                (loads, evictions)
            }
            TableStore::Whole(_) => (0, 0),
        }
    }

    /// The drill-down search behind one expansion, through the shared
    /// result cache exactly as `Explorer::search` goes through it.
    #[allow(clippy::too_many_arguments)]
    fn search(
        tracer: &mut Tracer,
        totals: &mut SearchTotals,
        cache: &SearchCache,
        key_parts: (u64, u64, usize),
        s: &PipeSession,
        base: &Rule,
        star: Option<usize>,
        view: &TableView<'_>,
        id: u64,
        speculative: bool,
    ) -> Arc<Vec<ScoredRule>> {
        let (table_id, epoch, n_columns) = key_parts;
        let weight = SizeWeight;
        let tag = weight.cache_tag().expect("the size weight is cacheable");
        let (key, _): (DrillKey, f64) = tracer.span("core.cache_key", id, || {
            sdd_core::drill_key(
                table_id,
                epoch,
                sdd_core::view_digest(view),
                base,
                star,
                s.k,
                &tag,
                s.max_weight,
                n_columns,
            )
        });
        let (hit, _) = tracer.span("server.cache", id, || {
            if speculative {
                // `speculate_expand` peeks; it never counts a hit or a miss.
                ResultCache::contains(cache, &key).then(|| Arc::new(Vec::new()))
            } else {
                ResultCache::get(cache, &key)
            }
        });
        if let Some(rules) = hit {
            totals.cache_hits += usize::from(!speculative);
            return rules;
        }
        let (result, _) = tracer.span("core.search", id, || {
            let mut brs = Brs::new(&weight);
            if let Some(mw) = s.max_weight {
                brs = brs.with_max_weight(mw);
            }
            match star {
                None => drill_down_with(&brs, view, base, s.k),
                Some(col) => star_drill_down_with(&brs, view, base, col, s.k),
            }
        });
        totals.searches += 1;
        totals.stats.absorb(&result.stats);
        let rules = Arc::new(result.rules);
        tracer.span("server.cache", id, || {
            ResultCache::insert(cache, key, Arc::clone(&rules));
        });
        rules
    }

    /// `Explorer::try_advance_epoch`: pending work first, at the epoch it
    /// was scheduled under, then the sync onto the newest snapshot.
    fn prologue(&mut self, session: &str) -> Result<(), String> {
        let id = self.request;
        let s = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| format!("no session {session}"))?;
        if let Some(job) = s.pending_prefetch.take() {
            let _ = s.handler.try_run_prefetch_job(&job);
        }
        if s.pending_refresh {
            Self::refresh(&mut self.tracer, s, id)?;
            s.pending_refresh = false;
        }
        let Some(live) = s.handler.store().as_live() else {
            return Ok(());
        };
        if live.latest_epoch() > s.handler.pinned_epoch() {
            let snap = live.live().snapshot();
            self.tracer
                .span("sampling.sync", id, || {
                    s.handler.try_sync_to_snapshot(&snap)
                })
                .0
                .map_err(|e| e.to_string())?;
            let n = s.handler.store().n_rows() as f64;
            if let Some(root) = s.nodes.get_mut(&Vec::new()) {
                root.shown.count = n;
                root.shown.ci_lo = n;
                root.shown.ci_hi = n;
            }
        }
        Ok(())
    }

    /// `Explorer::try_refresh_exact_counts`. Over a monolithic table the
    /// explorer counts with a loop of its own (explorer self time, no span
    /// here); over segments it calls `core`.
    fn refresh(tracer: &mut Tracer, s: &mut PipeSession, id: u64) -> Result<(), String> {
        let rules: Vec<Rule> = s.nodes.values().map(|n| n.rule.clone()).collect();
        let counts = match s.handler.store() {
            TableStore::Whole(table) => sdd_core::count_rules(table, &rules),
            TableStore::Sharded(st) => tracer
                .span("core.count_rules", id, || {
                    sdd_core::try_count_rules_sharded(st, &rules)
                })
                .0
                .map_err(|e| e.to_string())?,
            TableStore::Live(l) => {
                let st = Arc::clone(&l.pinned().table);
                tracer
                    .span("core.count_rules", id, || {
                        sdd_core::try_count_rules_sharded(&st, &rules)
                    })
                    .0
                    .map_err(|e| e.to_string())?
            }
        };
        for (node, c) in s.nodes.values_mut().zip(counts) {
            node.shown = Shown {
                count: c,
                ci_lo: c,
                ci_hi: c,
                exact: true,
                weight: node.shown.weight,
            };
        }
        Ok(())
    }

    /// `Explorer::expand_inner`.
    fn expand(
        &mut self,
        session: &str,
        path: &[usize],
        star: Option<usize>,
    ) -> Result<(Vec<RuleInfo>, bool), String> {
        self.prologue(session)?;
        let id = self.request;
        let key_parts = (self.table_id, 0, self.store.n_columns());
        let s = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| format!("no session {session}"))?;
        let base = s
            .nodes
            .get(path)
            .ok_or_else(|| format!("no node at path {path:?}"))?
            .clone();
        if let Some(col) = star {
            if !base.rule.is_star(col) {
                return Err(format!("column {col} is already instantiated"));
            }
        }
        if !base.rule.is_trivial() {
            s.click_model.record(&base.rule);
        }
        let span = self.tracer.begin("sampling.get_sample", id);
        let sample: SampleView = s
            .handler
            .try_get_sample(&base.rule)
            .map_err(|e| e.to_string())?;
        self.tracer.end(span);
        self.tracer.rename(
            span,
            match sample.mechanism {
                FetchMechanism::Find => "sampling.get_sample.find",
                FetchMechanism::Combine => "sampling.get_sample.combine",
                FetchMechanism::Create => "sampling.get_sample.create",
            },
        );

        let view = sample.view.as_view();
        let key_parts = (key_parts.0, s.handler.pinned_epoch(), key_parts.2);
        let rules = Self::search(
            &mut self.tracer,
            &mut self.searches,
            &self.cache,
            key_parts,
            s,
            &base.rule,
            star,
            &view,
            id,
            false,
        );

        let sample_size = sample.view.len();
        let exact = sample.scale <= 1.0 + 1e-9;
        let children: Vec<Node> = rules
            .iter()
            .map(|r| {
                let covered = (r.count / sample.scale).round() as usize;
                let est = count_estimate(
                    covered.min(sample_size),
                    sample_size,
                    sample.scale.max(1.0),
                    CONFIDENCE_Z,
                );
                Node {
                    rule: r.rule.clone(),
                    shown: Shown {
                        count: r.count,
                        ci_lo: if exact { r.count } else { est.lo },
                        ci_hi: if exact { r.count } else { est.hi },
                        exact,
                        weight: r.weight,
                    },
                }
            })
            .collect();

        if !children.is_empty() {
            let base_count = base.shown.count.max(1.0);
            let rules: Vec<Rule> = children.iter().map(|c| c.rule.clone()).collect();
            let probabilities = s.click_model.probabilities(&rules);
            s.pending_prefetch = Some(PrefetchJob {
                parent: base.rule.clone(),
                entries: children
                    .iter()
                    .zip(probabilities)
                    .map(|(c, probability)| PrefetchEntry {
                        rule: c.rule.clone(),
                        probability,
                        selectivity: (c.shown.count / base_count).clamp(0.0, 1.0),
                    })
                    .collect(),
            });
        }

        // Replace the subtree below `path` with the new children.
        s.nodes
            .retain(|p, _| !(p.len() > path.len() && p.starts_with(path)));
        let table = Arc::clone(s.handler.table());
        let mut infos = Vec::with_capacity(children.len());
        for (i, child) in children.into_iter().enumerate() {
            let p = child_path(path, i);
            infos.push(rule_info(p.clone(), &child.rule, &child.shown, &table));
            s.nodes.insert(p, child);
        }
        // `Engine::record_transition`.
        if let Some((_, parent)) = path.split_last() {
            if let Some(p) = s.nodes.get(parent) {
                self.transitions.record(&p.rule, &base.rule);
            }
        }
        Ok((infos, s.pending_prefetch.is_some() || s.pending_refresh))
    }
}

impl Target for ShadowExplorer {
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String> {
        self.request += 1;
        let id = self.request;
        let before = Self::storage_counters(&self.store);
        let request = parse(req)?;
        let whole = self.tracer.begin("request", id);
        let reply = match request {
            Request::Open { session, options } => {
                let settings = session_settings(&options)?;
                let handler = SampleHandler::with_store(self.store.clone(), settings.handler);
                let n_columns = self.store.n_columns();
                let rows = self.store.n_rows() as f64;
                let root = Node {
                    rule: Rule::trivial(n_columns),
                    shown: Shown {
                        count: rows,
                        ci_lo: rows,
                        ci_hi: rows,
                        exact: true,
                        weight: 0.0,
                    },
                };
                self.sessions.insert(
                    session.clone(),
                    PipeSession {
                        handler,
                        click_model: ClickModel::new(n_columns, 1.0),
                        k: settings.k,
                        max_weight: settings.max_weight,
                        nodes: BTreeMap::from([(Vec::new(), root)]),
                        pending_prefetch: None,
                        pending_refresh: false,
                    },
                );
                ok_reply(Response::Opened { session }, false)
            }
            Request::Close { session } => {
                self.sessions.remove(&session);
                ok_reply(Response::Closed, false)
            }
            Request::Append { rows, .. } => {
                let live = self.live.clone();
                let (r, _) = self
                    .tracer
                    .span("table.append", id, || append(live.as_ref(), &rows));
                ok_reply(r?, false)
            }
            Request::Expand { session, path } => {
                let (rules, pending) = self.expand(&session, &path, None)?;
                ok_reply(Response::Expanded { rules }, pending)
            }
            Request::Star {
                session,
                path,
                column,
            } => {
                let col = self
                    .store
                    .schema()
                    .index_of(&column)
                    .map_err(|e| e.to_string())?;
                let (rules, pending) = self.expand(&session, &path, Some(col))?;
                ok_reply(Response::Expanded { rules }, pending)
            }
            Request::Refresh { session } => {
                self.prologue(&session)?;
                let s = self.sessions.get_mut(&session).expect("prologue found it");
                if s.handler.store().as_live().is_some() {
                    s.pending_refresh = true;
                } else {
                    Self::refresh(&mut self.tracer, s, id)?;
                }
                let pending = s.pending_prefetch.is_some() || s.pending_refresh;
                ok_reply(Response::Pong, pending)
            }
            Request::Rules { session }
            | Request::Render { session }
            | Request::Stats { session } => {
                // Nothing of `sampling` or `core` runs for these beyond the
                // prologue; the driver does not read their replies here.
                self.prologue(&session)?;
                let s = &self.sessions[&session];
                ok_reply(
                    Response::Pong,
                    s.pending_prefetch.is_some() || s.pending_refresh,
                )
            }
            other => Err(format!("the shadow explorer has no {} request", other.op())),
        };
        self.tracer.end(whole);
        self.note_traffic(id, before, false);
        reply
    }

    /// The think-time half: `Explorer::try_run_prefetch`, the speculation
    /// of `Engine::speculate`, and the epoch advance.
    fn think(&mut self, session: &str) {
        let id = self.request;
        let before = Self::storage_counters(&self.store);
        let key_parts = (self.table_id, self.store.n_columns());
        let Some(s) = self.sessions.get_mut(session) else {
            return;
        };
        let whole = self.tracer.begin("think", id);
        if let Some(job) = s.pending_prefetch.take() {
            // The allocation on its own first (the job repeats it inside).
            self.tracer.span("sampling.alloc", id, || {
                let problem = s.handler.plan(&job.entries);
                std::hint::black_box(s.handler.solve_allocation(&problem));
            });
            let _ = self.tracer.span("sampling.prefetch_job", id, || {
                s.handler.try_run_prefetch_job(&job)
            });
            if let Some(predicted) = self.transitions.predict(&job.parent) {
                if job.entries.iter().any(|e| e.rule == predicted) {
                    if let Some(sample) = s.handler.peek_stored(&predicted) {
                        let view = sample.view.as_view();
                        Self::search(
                            &mut self.tracer,
                            &mut self.searches,
                            &self.cache,
                            (key_parts.0, s.handler.pinned_epoch(), key_parts.1),
                            s,
                            &predicted,
                            None,
                            &view,
                            id,
                            true,
                        );
                        self.transitions.note_speculation();
                    }
                }
            }
        }
        let _ = self.prologue(session);
        self.tracer.end(whole);
        self.note_traffic(id, before, true);
    }
}

impl ShadowExplorer {
    fn note_traffic(&mut self, id: u64, before: (u64, u64), think: bool) {
        let after = Self::storage_counters(&self.store);
        let (loads, evictions) = (after.0 - before.0, after.1 - before.1);
        if loads > 0 || evictions > 0 {
            let map = if think {
                &mut self.think_traffic
            } else {
                &mut self.request_traffic
            };
            let slot = map.entry(id).or_insert((0, 0));
            slot.0 += loads;
            slot.1 += evictions;
        }
    }
}
