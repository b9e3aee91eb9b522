//! The [`Explorer`]: a sampled, prefetching, CI-annotated session.

use crate::cache::{CachedRules, SharedResultCache};
use sdd_core::{
    drill_down_with, star_drill_down_with, Brs, DrillKey, Rule, RuleValue, ScoredRule, WeightFn,
};
use sdd_sampling::{
    count_estimate, FetchMechanism, PrefetchEntry, PrefetchJob, SampleHandler, SampleHandlerConfig,
};
use sdd_table::TableView;
use sdd_table::{Table, TableStore};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from session navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The node path does not address an existing node.
    InvalidPath(Vec<usize>),
    /// Star drill-down on a column the rule already instantiates.
    ColumnNotStarred(usize),
    /// The storage tier failed underneath the session (a spill file could
    /// not be read or decoded). The session itself remains usable; the
    /// operation that needed the damaged shard is the one that fails.
    Storage(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidPath(p) => write!(f, "no node at path {p:?}"),
            SessionError::ColumnNotStarred(c) => {
                write!(f, "column {c} is already instantiated in this rule")
            }
            SessionError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Process-wide allocator for default table identities. Never reused, so
/// two sessions that did not explicitly agree on a [`ExplorerConfig`]
/// `table_id` can only miss each other's cache entries, never collide.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique table id from the same space default
/// sessions draw from. Callers that share one store across many sessions
/// (the server engine) allocate one id here and pass it to every session's
/// [`ExplorerConfig`] so their cache entries interoperate — while staying
/// disjoint from every id any other store in the process was assigned.
pub fn allocate_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Whether the post-expansion §4.3 prefetch pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchMode {
    /// Never prefetch (every fresh drill-down pays a Create scan).
    Off,
    /// Record a [`PrefetchJob`] after each expansion; a background worker
    /// (or the next handler-touching call, whichever comes first) runs it
    /// via [`Explorer::try_run_prefetch`]. This is how a server overlaps the
    /// scan with analyst think-time **without** changing any observable
    /// result: the job always executes after the expansion that produced it
    /// and before the next operation that reads handler state. A job that
    /// fails surfaces as the error of that next operation.
    #[default]
    Deferred,
}

/// Configuration of an [`Explorer`].
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Rules per expansion (the paper's `k`, default 4).
    pub k: usize,
    /// The optimizer's `mw` parameter (`None` = maximum possible weight).
    pub max_weight: Option<f64>,
    /// Sampling layer settings (`M`, `minSS`, seed).
    pub handler: SampleHandlerConfig,
    /// How samples for the displayed rules are pre-fetched after each
    /// expansion.
    pub prefetch: PrefetchMode,
    /// Normal quantile for confidence intervals (1.96 → 95%).
    pub confidence_z: f64,
    /// An optional shared drill-down result cache (a concurrent server
    /// injects one cache across all sessions over its table). `None`
    /// recomputes every expansion. Caching is **transparent**: a hit is
    /// bit-identical to recomputation and changes no counter or transcript
    /// byte — see [`crate::ResultCache`].
    pub cache: Option<SharedResultCache>,
    /// Stable identity of the table behind this session, used (with the
    /// pinned epoch) to key the shared result cache. Sessions meant to
    /// share cache entries over one store must agree on it — the server
    /// engine assigns one id per loaded store. `None` allocates a fresh
    /// process-unique id, which is always safe: a private id can only
    /// cause misses, never a false hit.
    pub table_id: Option<u64>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            k: 4,
            max_weight: None,
            handler: SampleHandlerConfig::default(),
            prefetch: PrefetchMode::Deferred,
            confidence_z: 1.96,
            cache: None,
            table_id: None,
        }
    }
}

impl ExplorerConfig {
    /// The exact configuration for a table of `n_rows` rows: sample memory
    /// and `minSS` both hold the whole table, and nothing is prefetched. A
    /// reservoir whose capacity covers its offers keeps every covered row,
    /// in ascending order, at scale 1 — so every drill-down searches the
    /// complete covered set and every [`DisplayedRule`] is `exact`. Set `k`
    /// and `max_weight` with struct-update syntax.
    pub fn exact(n_rows: usize) -> Self {
        let n = n_rows.max(1);
        Self {
            handler: SampleHandlerConfig {
                capacity: n,
                min_sample_size: n,
                ..SampleHandlerConfig::default()
            },
            prefetch: PrefetchMode::Off,
            ..Self::default()
        }
    }
}

/// One rule on screen, with its (possibly estimated) aggregates.
#[derive(Debug, Clone)]
pub struct DisplayedRule {
    /// The rule.
    pub rule: Rule,
    /// Count — exact if `exact`, otherwise a sample estimate.
    pub count: f64,
    /// Lower bound of the count's confidence interval.
    pub ci_lo: f64,
    /// Upper bound of the count's confidence interval.
    pub ci_hi: f64,
    /// True once the count is exact (full coverage sample or refresh pass).
    pub exact: bool,
    /// `W(rule)`.
    pub weight: f64,
    /// How the sample behind this rule's expansion was obtained.
    pub source: FetchMechanism,
}

/// Cumulative interaction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerStats {
    /// Expansions performed.
    pub expansions: usize,
    /// Expansions served without a fresh table scan (Find or Combine).
    pub served_from_memory: usize,
    /// Exact-count refresh passes run.
    pub refreshes: usize,
}

struct Node {
    info: DisplayedRule,
    children: Vec<Node>,
}

/// An interactive, sample-backed smart drill-down session. See module docs.
///
/// Owned and `Send` (the table is shared by `Arc`), so explorers can live
/// in a concurrent server's session registry and hop between worker
/// threads.
pub struct Explorer {
    weight: Box<dyn WeightFn>,
    config: ExplorerConfig,
    handler: SampleHandler,
    click_model: crate::ClickModel,
    root: Node,
    /// Resolved cache identity of the table (config-assigned or allocated).
    table_id: u64,
    /// The deferred §4.3 prefetch job, if [`PrefetchMode::Deferred`] and an
    /// expansion happened since the last drain.
    pending_prefetch: Option<PrefetchJob>,
    /// True when an exact-count refresh has been requested but not run yet
    /// (the server takes refresh off the request path; the background
    /// worker — or the next operation, whichever comes first — drains it).
    pending_refresh: bool,
    /// Interaction counters.
    pub stats: ExplorerStats,
}

impl Explorer {
    /// Opens an explorer over a monolithic in-memory `table`.
    pub fn new(table: Arc<Table>, weight: Box<dyn WeightFn>, config: ExplorerConfig) -> Self {
        Self::with_store(TableStore::Whole(table), weight, config)
    }

    /// Opens an explorer over any [`TableStore`] — monolithic, sharded or
    /// live.
    ///
    /// The store kind changes *where bytes live*, never results: the
    /// sampling layer's scans emit identical covered-row streams (identical
    /// samples), every served sample is materialised into the global code
    /// space (identical BRS inputs), and the exact-count refresh counts
    /// integers (identical counts). The shard parity suite asserts
    /// byte-identical behavior across store kinds over the same data.
    pub fn with_store(
        store: TableStore,
        weight: Box<dyn WeightFn>,
        config: ExplorerConfig,
    ) -> Self {
        let handler = SampleHandler::with_store(store.clone(), config.handler.clone());
        let root = Node {
            info: DisplayedRule {
                rule: Rule::trivial(store.n_columns()),
                count: store.n_rows() as f64,
                ci_lo: store.n_rows() as f64,
                ci_hi: store.n_rows() as f64,
                exact: true,
                weight: 0.0,
                source: FetchMechanism::Find,
            },
            children: Vec::new(),
        };
        let click_model = crate::ClickModel::new(store.n_columns(), 1.0);
        let table_id = config
            .table_id
            .unwrap_or_else(|| NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed));
        Self {
            weight,
            config,
            handler,
            click_model,
            root,
            table_id,
            pending_prefetch: None,
            pending_refresh: false,
            stats: ExplorerStats::default(),
        }
    }

    /// The learned next-drill-down model (paper §4.1: uniform until the
    /// analyst's history says otherwise).
    pub fn click_model(&self) -> &crate::ClickModel {
        &self.click_model
    }

    /// The metadata table: the shared table itself for monolithic stores,
    /// the always-resident zero-row header for sharded ones. Carries the
    /// schema and dictionaries (everything display needs) — never scan it.
    pub fn table(&self) -> &Arc<Table> {
        self.handler.table()
    }

    /// The storage this session explores (the sample handler's pinned
    /// store).
    pub fn store(&self) -> &TableStore {
        self.handler.store()
    }

    /// The sampling layer's work counters.
    pub fn handler_stats(&self) -> sdd_sampling::HandlerStats {
        self.handler.stats
    }

    /// Read access to the sampling layer (stored-sample introspection for
    /// the determinism harness and server stats).
    pub fn handler(&self) -> &SampleHandler {
        &self.handler
    }

    /// True if a deferred prefetch job is waiting to run.
    pub fn has_pending_prefetch(&self) -> bool {
        self.pending_prefetch.is_some()
    }

    /// Takes the deferred prefetch job, if any — the handoff point for a
    /// background worker. The caller must eventually feed the job to
    /// [`Explorer::try_run_prefetch`] (or drop the determinism guarantee of
    /// [`PrefetchMode::Deferred`]).
    pub fn take_pending_prefetch(&mut self) -> Option<PrefetchJob> {
        self.pending_prefetch.take()
    }

    /// Runs a prefetch job against this explorer's sample store: a damaged
    /// spill file under a segmented store surfaces as
    /// [`SessionError::Storage`].
    pub fn try_run_prefetch(&mut self, job: &PrefetchJob) -> Result<f64, SessionError> {
        self.handler
            .try_run_prefetch_job(job)
            .map_err(|e| SessionError::Storage(e.to_string()))
    }

    /// Runs the deferred prefetch job now, if one is pending. Every
    /// handler-touching operation calls this first, so the result is the
    /// same whether or not a background worker got to the job in time, and
    /// the same as running it at the end of the expansion. A spill failure
    /// during the job turns into an error response instead of killing the
    /// worker; the job is consumed either way — prefetching is best-effort
    /// and the failure will resurface on the next operation that needs the
    /// damaged shard.
    pub fn try_drain_pending_prefetch(&mut self) -> Result<(), SessionError> {
        match self.pending_prefetch.take() {
            Some(job) => self.try_run_prefetch(&job).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Schedules an exact-count refresh without running it: the background
    /// worker (or the next operation, whichever comes first) drains it via
    /// [`Explorer::try_drain_pending_refresh`] — off the request path, at
    /// the epoch the session is pinned to now. Idempotent.
    pub fn request_refresh(&mut self) {
        self.pending_refresh = true;
    }

    /// True if a deferred exact-count refresh is waiting to run.
    pub fn has_pending_refresh(&self) -> bool {
        self.pending_refresh
    }

    /// Runs the deferred exact-count refresh now, if one is pending. Must
    /// run **before** the session advances to a newer epoch (see
    /// [`Explorer::try_advance_epoch`]) so the deferred pass counts exactly
    /// the rows an inline refresh at request time would have counted. On
    /// failure the request stays pending — the displayed estimates are
    /// untouched and the next drain retries.
    pub fn try_drain_pending_refresh(&mut self) -> Result<(), SessionError> {
        if !self.pending_refresh {
            return Ok(());
        }
        self.try_refresh_exact_counts()?;
        self.pending_refresh = false;
        Ok(())
    }

    /// The session's stable table identity for shared-cache keying.
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// The epoch this session is pinned to (`0` over frozen storage).
    pub fn pinned_epoch(&self) -> u64 {
        self.handler.pinned_epoch()
    }

    /// The operation prologue for live tables: runs deferred work at the
    /// epoch it was scheduled under, then advances the session's one pin
    /// (the sample handler's store) to the table's newest epoch, incrementally
    /// maintaining every stored sample over the appended rows. Returns the
    /// pinned epoch. Over frozen storage only the deferred work runs.
    ///
    /// The ordering is the live-session determinism contract
    /// (docs/DETERMINISM.md): pending prefetch and refresh always execute
    /// at the epoch they were created under, never after the pin advanced —
    /// otherwise a deferred job would scan rows its inline twin could not
    /// have seen. On a mid-sync storage fault everything stays at the old
    /// epoch (the handler stages its updates) and the next call retries.
    pub fn try_advance_epoch(&mut self) -> Result<u64, SessionError> {
        self.try_drain_pending_prefetch()?;
        self.try_drain_pending_refresh()?;
        let Some(live) = self.store().as_live() else {
            return Ok(0);
        };
        if live.latest_epoch() > live.epoch() {
            let snap = live.live().snapshot();
            self.handler
                .try_sync_to_snapshot(&snap)
                .map_err(|e| SessionError::Storage(e.to_string()))?;
            // The root count is metadata (total rows at the pinned epoch),
            // not a scan result: a session opened over the frozen twin of
            // this epoch would display exactly this number.
            let n = self.store().n_rows() as f64;
            self.root.info.count = n;
            self.root.info.ci_lo = n;
            self.root.info.ci_hi = n;
        }
        Ok(self.store().epoch())
    }

    /// The rule displayed at `path`.
    pub fn rule_at(&self, path: &[usize]) -> Result<&DisplayedRule, SessionError> {
        Ok(&self.node(path)?.info)
    }

    /// Children of the node at `path` (empty if unexpanded).
    pub fn children_at(&self, path: &[usize]) -> Result<Vec<&DisplayedRule>, SessionError> {
        Ok(self.node(path)?.children.iter().map(|n| &n.info).collect())
    }

    fn node(&self, path: &[usize]) -> Result<&Node, SessionError> {
        let mut cur = &self.root;
        for &i in path {
            cur = cur
                .children
                .get(i)
                .ok_or_else(|| SessionError::InvalidPath(path.to_vec()))?;
        }
        Ok(cur)
    }

    fn node_mut(&mut self, path: &[usize]) -> Result<&mut Node, SessionError> {
        let mut cur = &mut self.root;
        for &i in path {
            cur = cur
                .children
                .get_mut(i)
                .ok_or_else(|| SessionError::InvalidPath(path.to_vec()))?;
        }
        Ok(cur)
    }

    /// Expands the rule at `path` (rule drill-down) from a sample.
    pub fn expand(&mut self, path: &[usize]) -> Result<Vec<DisplayedRule>, SessionError> {
        self.expand_inner(path, None)
    }

    /// Star drill-down on `column` of the rule at `path`.
    pub fn expand_star(
        &mut self,
        path: &[usize],
        column: usize,
    ) -> Result<Vec<DisplayedRule>, SessionError> {
        let base = self.node(path)?.info.rule.clone();
        if !base.is_star(column) {
            return Err(SessionError::ColumnNotStarred(column));
        }
        self.expand_inner(path, Some(column))
    }

    fn expand_inner(
        &mut self,
        path: &[usize],
        star: Option<usize>,
    ) -> Result<Vec<DisplayedRule>, SessionError> {
        // Deferred work the background worker hasn't claimed yet must run
        // before this expansion reads the sample store (or the result
        // would depend on the worker's timing), and a live session then
        // advances to the table's newest epoch.
        let base = self.node(path)?.info.rule.clone();
        self.try_advance_epoch()?;
        // Feed the learned click model (§4.1): drilling into a non-trivial
        // rule reveals which columns the analyst cares about.
        if !base.is_trivial() {
            self.click_model.record(&base);
        }
        let sample = self
            .handler
            .try_get_sample(&base)
            .map_err(|e| SessionError::Storage(e.to_string()))?;
        self.stats.expansions += 1;
        if sample.mechanism != FetchMechanism::Create {
            self.stats.served_from_memory += 1;
        }

        let sample_view = sample.view.as_view();
        let result_rules = self.search(&base, star, &sample_view);

        let sample_size = sample.view.len();
        let exact_sample = sample.scale <= 1.0 + 1e-9;
        let children: Vec<Node> = result_rules
            .iter()
            .map(|s| {
                let covered = (s.count / sample.scale).round() as usize;
                let est = count_estimate(
                    covered.min(sample_size),
                    sample_size,
                    sample.scale.max(1.0),
                    self.config.confidence_z,
                );
                Node {
                    info: DisplayedRule {
                        rule: s.rule.clone(),
                        count: s.count,
                        ci_lo: if exact_sample { s.count } else { est.lo },
                        ci_hi: if exact_sample { s.count } else { est.hi },
                        exact: exact_sample,
                        weight: s.weight,
                        source: sample.mechanism,
                    },
                    children: Vec::new(),
                }
            })
            .collect();
        let infos: Vec<DisplayedRule> = children.iter().map(|n| n.info.clone()).collect();

        // Pre-fetch for the likely next drill-downs (§4.3): uniform click
        // probability over the new rules, selectivities from the estimates.
        // The job is recorded for the background worker (or the next
        // handler-touching call).
        if self.config.prefetch == PrefetchMode::Deferred && !infos.is_empty() {
            let base_count = self.node(path)?.info.count.max(1.0);
            let rules: Vec<Rule> = infos.iter().map(|i| i.rule.clone()).collect();
            let probs = self.click_model.probabilities(&rules);
            let entries: Vec<PrefetchEntry> = infos
                .iter()
                .zip(probs)
                .map(|(i, probability)| PrefetchEntry {
                    rule: i.rule.clone(),
                    probability,
                    selectivity: (i.count / base_count).clamp(0.0, 1.0),
                })
                .collect();
            self.pending_prefetch = Some(PrefetchJob {
                parent: base,
                entries,
            });
        }

        self.node_mut(path)?.children = children;
        Ok(infos)
    }

    /// Runs (or serves from the shared cache) the BRS search for one
    /// drill-down. Caching is transparent by construction: only this pure
    /// computation is ever skipped — sampling, counters, the click model,
    /// and prefetch scheduling all run identically on hit and miss. When
    /// debug assertions are enabled every hit is re-verified bit-for-bit
    /// against a fresh computation (the cache-transparency invariant,
    /// docs/DETERMINISM.md).
    fn search(&self, base: &Rule, star: Option<usize>, view: &TableView<'_>) -> CachedRules {
        let mut brs = Brs::new(&*self.weight);
        if let Some(mw) = self.config.max_weight {
            brs = brs.with_max_weight(mw);
        }
        let run = || -> Vec<ScoredRule> {
            match star {
                None => drill_down_with(&brs, view, base, self.config.k).rules,
                Some(col) => star_drill_down_with(&brs, view, base, col, self.config.k).rules,
            }
        };
        let Some((cache, key)) = self.drill_cache_key(base, star, view) else {
            return Arc::new(run());
        };
        match cache.0.get(&key) {
            Some(hit) => {
                debug_assert!(
                    crate::rules_bit_identical(&hit, &run()),
                    "cache hit diverged from recomputation for base {base:?}"
                );
                hit
            }
            None => {
                let fresh: CachedRules = Arc::new(run());
                cache.0.insert(key, Arc::clone(&fresh));
                fresh
            }
        }
    }

    /// The shared-cache key for a drill-down over `view`, or `None` when no
    /// cache is configured or the weight function has no stable identity
    /// ([`WeightFn::cache_tag`] returns `None` — uncacheable by contract).
    fn drill_cache_key(
        &self,
        base: &Rule,
        star: Option<usize>,
        view: &TableView<'_>,
    ) -> Option<(SharedResultCache, DrillKey)> {
        let cache = self.config.cache.clone()?;
        let weight_tag = self.weight.cache_tag()?;
        // Table identity is the engine-assigned `(table_id, epoch)` pair —
        // never a pointer. A raw `Arc` pointer can alias after a
        // drop/realloc (ABA), and a live table changes content under one
        // allocation; the epoch comes from the sampling layer's pin, so
        // the key names exactly the data the sample view was drawn from
        // and no hit ever crosses an epoch.
        let key = sdd_core::drill_key(
            self.table_id,
            self.handler.pinned_epoch(),
            sdd_core::view_digest(view),
            base,
            star,
            self.config.k,
            &weight_tag,
            self.config.max_weight,
            self.store().n_columns(),
        );
        Some((cache, key))
    }

    /// Speculatively precomputes the rule drill-down for `rule` into the
    /// shared cache, using a **read-only** peek at the stored samples — no
    /// counter, clock, or eviction state changes, so a speculation that
    /// never pays off is invisible to the session. Returns `true` when the
    /// result is now cached (freshly computed or already present).
    ///
    /// A server's background prefetch worker calls this during analyst
    /// think-time with the transition model's predicted next drill-down;
    /// if the prediction lands, the expansion's search is a cache hit.
    pub fn speculate_expand(&self, rule: &Rule) -> bool {
        let Some(sample) = self.handler.peek_stored(rule) else {
            return false;
        };
        let view = sample.view.as_view();
        let Some((cache, key)) = self.drill_cache_key(rule, None, &view) else {
            return false;
        };
        if cache.0.contains(&key) {
            return true;
        }
        let mut brs = Brs::new(&*self.weight);
        if let Some(mw) = self.config.max_weight {
            brs = brs.with_max_weight(mw);
        }
        let fresh = Arc::new(drill_down_with(&brs, &view, rule, self.config.k).rules);
        cache.0.insert(key, fresh);
        true
    }

    /// Collapses (rolls up) the node at `path`.
    pub fn collapse(&mut self, path: &[usize]) -> Result<(), SessionError> {
        self.node_mut(path)?.children.clear();
        Ok(())
    }

    /// Replaces every displayed estimate with its exact count in **one**
    /// pass over the table at the pinned epoch (the paper's background
    /// refresh, §4.3). A damaged spill file surfaces as
    /// [`SessionError::Storage`]; displayed estimates are left untouched on
    /// failure.
    pub fn try_refresh_exact_counts(&mut self) -> Result<(), SessionError> {
        self.stats.refreshes += 1;
        // Collect visible rules.
        let mut rules: Vec<Rule> = Vec::new();
        fn collect(node: &Node, out: &mut Vec<Rule>) {
            out.push(node.info.rule.clone());
            for ch in &node.children {
                collect(ch, out);
            }
        }
        collect(&self.root, &mut rules);

        // One scan counting all of them (exact integers, whatever the
        // store kind).
        let counts = sdd_core::try_count_rules_in_store(self.store(), &rules)
            .map_err(|e| SessionError::Storage(e.to_string()))?;

        // Write back in the same traversal order.
        fn write_back(node: &mut Node, counts: &[f64], idx: &mut usize) {
            let c = counts[*idx];
            *idx += 1;
            node.info.count = c;
            node.info.ci_lo = c;
            node.info.ci_hi = c;
            node.info.exact = true;
            for ch in &mut node.children {
                write_back(ch, counts, idx);
            }
        }
        let mut idx = 0;
        write_back(&mut self.root, &counts, &mut idx);
        Ok(())
    }

    /// All visible rules with their depths, in display order.
    pub fn visible(&self) -> Vec<(usize, &DisplayedRule)> {
        let mut out = Vec::new();
        fn walk<'n>(node: &'n Node, depth: usize, out: &mut Vec<(usize, &'n DisplayedRule)>) {
            out.push((depth, &node.info));
            for ch in &node.children {
                walk(ch, depth + 1, out);
            }
        }
        walk(&self.root, 0, &mut out);
        out
    }

    /// Renders the display: the paper's dotted-indent table with a
    /// confidence-interval column.
    pub fn render(&self) -> String {
        let n_cols = self.store().n_columns();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut header: Vec<String> = (0..n_cols)
            .map(|c| self.store().schema().column_name(c).to_owned())
            .collect();
        header.extend(["Count".to_owned(), "95% CI".to_owned(), "Weight".to_owned()]);
        rows.push(header);

        for (depth, info) in self.visible() {
            let mut row = Vec::with_capacity(n_cols + 3);
            for c in 0..n_cols {
                let cell = match info.rule.get(c) {
                    RuleValue::Star => "?".to_owned(),
                    RuleValue::Value(code) => self
                        .table()
                        .dictionary(c)
                        .value_of(code)
                        .unwrap_or("<bad-code>")
                        .to_owned(),
                };
                if c == 0 {
                    row.push(format!("{}{}", ". ".repeat(depth), cell));
                } else {
                    row.push(cell);
                }
            }
            row.push(format!("{:.0}", info.count));
            row.push(if info.exact {
                "exact".to_owned()
            } else {
                format!("[{:.0}, {:.0}]", info.ci_lo, info.ci_hi)
            });
            row.push(format!("{:.0}", info.weight));
            rows.push(row);
        }

        render_aligned(&rows)
    }
}

fn render_aligned(rows: &[Vec<String>]) -> String {
    let n = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; n];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(&format!("{:<w$}", cell, w = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
        if ri == 0 {
            out.extend(std::iter::repeat_n(
                '-',
                widths.iter().sum::<usize>() + 3 * (n - 1),
            ));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::SizeWeight;
    use sdd_datagen::retail;

    fn config(min_ss: usize) -> ExplorerConfig {
        ExplorerConfig {
            k: 3,
            max_weight: Some(3.0),
            handler: SampleHandlerConfig {
                capacity: 30_000,
                min_sample_size: min_ss,
                seed: 7,
            },
            prefetch: PrefetchMode::Deferred,
            confidence_z: 1.96,
            cache: None,
            table_id: None,
        }
    }

    #[test]
    fn expansion_shows_estimates_with_intervals() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(3000));
        let shown = ex.expand(&[]).unwrap();
        assert_eq!(shown.len(), 3);
        for r in &shown {
            assert!(r.ci_lo <= r.count && r.count <= r.ci_hi);
            if !r.exact {
                assert!(
                    r.ci_hi > r.ci_lo,
                    "non-exact estimate needs a real interval"
                );
            }
        }
        // The walkthrough patterns appear (estimates near planted counts).
        let walmart = shown
            .iter()
            .find(|r| r.rule.display(&table) == "(Walmart, ?, ?)")
            .expect("Walmart rule");
        assert!((walmart.count - 1000.0).abs() < 200.0);
    }

    #[test]
    fn intervals_cover_the_truth_most_of_the_time() {
        let table = Arc::new(retail(42));
        let mut hits = 0usize;
        let mut total = 0usize;
        for seed in 0..8u64 {
            let mut cfg = config(2000);
            cfg.handler.seed = seed;
            let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), cfg);
            for r in ex.expand(&[]).unwrap() {
                let truth = sdd_core::rule_count(&table.view(), &r.rule);
                total += 1;
                if truth >= r.ci_lo - 1e-9 && truth <= r.ci_hi + 1e-9 {
                    hits += 1;
                }
            }
        }
        assert!(
            hits as f64 / total as f64 >= 0.85,
            "CI coverage too low: {hits}/{total}"
        );
    }

    #[test]
    fn prefetch_makes_second_expansion_memory_served() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(1000));
        let shown = ex.expand(&[]).unwrap();
        let walmart = shown
            .iter()
            .position(|r| r.rule.display(&table).contains("Walmart"))
            .unwrap();
        let creates_before = ex.handler_stats().creates;
        let children = ex.expand(&[walmart]).unwrap();
        // The expansion itself was served from memory (Find/Combine); the
        // post-expansion prefetch pass may scan, but no Create was needed.
        assert_eq!(
            ex.handler_stats().creates,
            creates_before,
            "drill into a prefetched rule must not Create"
        );
        assert_eq!(ex.stats.served_from_memory, 1);
        assert!(children.iter().all(|c| c.source != FetchMechanism::Create));
    }

    #[test]
    fn refresh_exact_counts_matches_ground_truth() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        ex.expand(&[]).unwrap();
        ex.try_refresh_exact_counts().unwrap();
        for (_, info) in ex.visible().iter().skip(1) {
            let truth = sdd_core::rule_count(&table.view(), &info.rule);
            assert_eq!(info.count, truth);
            assert!(info.exact);
            assert_eq!(info.ci_lo, info.ci_hi);
        }
    }

    #[test]
    fn star_expansion_through_sampling() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        let shown = ex.expand(&[]).unwrap();
        let walmart = shown
            .iter()
            .position(|r| r.rule.display(&table).contains("Walmart"))
            .unwrap();
        let region = table.schema().index_of("Region").unwrap();
        let children = ex.expand_star(&[walmart], region).unwrap();
        assert!(!children.is_empty());
        for c in &children {
            assert!(!c.rule.is_star(region));
        }
    }

    #[test]
    fn star_on_instantiated_column_is_error() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        let shown = ex.expand(&[]).unwrap();
        let target = shown
            .iter()
            .position(|r| !r.rule.is_star(0))
            .expect("some rule instantiates Store");
        assert!(matches!(
            ex.expand_star(&[target], 0),
            Err(SessionError::ColumnNotStarred(0))
        ));
    }

    #[test]
    fn render_includes_ci_column_and_indentation() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        ex.expand(&[]).unwrap();
        let r = ex.render();
        assert!(r.contains("95% CI"), "{r}");
        assert!(r.lines().any(|l| l.starts_with(". ")), "{r}");
    }

    #[test]
    fn collapse_clears_children() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        ex.expand(&[]).unwrap();
        assert!(!ex.children_at(&[]).unwrap().is_empty());
        ex.collapse(&[]).unwrap();
        assert!(ex.children_at(&[]).unwrap().is_empty());
    }

    #[test]
    fn click_model_learns_from_drill_history() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(1000));
        assert_eq!(ex.click_model().observations(), 0);
        let shown = ex.expand(&[]).unwrap();
        // Drill into the Walmart rule (instantiates Store).
        let walmart = shown
            .iter()
            .position(|r| r.rule.display(&table).contains("Walmart"))
            .unwrap();
        ex.expand(&[walmart]).unwrap();
        assert_eq!(ex.click_model().observations(), 1);
        let store = table.schema().index_of("Store").unwrap();
        let region = table.schema().index_of("Region").unwrap();
        assert!(
            ex.click_model().column_affinity(store) > ex.click_model().column_affinity(region),
            "Store affinity should rise after drilling a Store rule"
        );
    }

    /// Drives the same three-step drill script and snapshots everything
    /// observable: rendered display, stored samples, and handler counters.
    fn drive_script(
        table: &Arc<Table>,
        drain_like_worker: bool,
    ) -> (String, Vec<sdd_sampling::StoredSampleInfo>, String) {
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(1000));
        for path in [vec![], vec![0], vec![1]] {
            ex.expand(&path).unwrap();
            if drain_like_worker {
                // Simulate the background worker winning the race during
                // think-time: claim and run the job between requests.
                if let Some(job) = ex.take_pending_prefetch() {
                    ex.try_run_prefetch(&job).unwrap();
                }
            }
        }
        ex.try_drain_pending_prefetch().unwrap();
        (
            ex.render(),
            ex.handler().stored_samples(),
            format!("{:?} {:?}", ex.stats, ex.handler_stats()),
        )
    }

    #[test]
    fn a_worker_run_prefetch_is_indistinguishable_from_a_lazy_drain() {
        let table = Arc::new(retail(42));
        // The "worker" runs every job during think-time.
        let worker = drive_script(&table, true);
        // The worker never shows up and the next request drains the job
        // itself.
        let lazy = drive_script(&table, false);
        assert!(!worker.1.is_empty(), "the script must store samples");
        assert_eq!(worker.0, lazy.0);
        assert_eq!(worker.1, lazy.1);
        assert_eq!(worker.2, lazy.2);
    }

    #[test]
    fn prefetch_off_pays_a_create_per_fresh_rule() {
        let table = Arc::new(retail(42));
        let mut cfg = config(1000);
        cfg.prefetch = PrefetchMode::Off;
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), cfg);
        ex.expand(&[]).unwrap();
        ex.expand(&[0]).unwrap();
        assert!(!ex.has_pending_prefetch());
        assert!(
            ex.handler_stats().creates >= 2,
            "without prefetch every fresh drill-down must Create: {:?}",
            ex.handler_stats()
        );
    }

    #[test]
    fn invalid_path_is_reported() {
        let table = Arc::new(retail(42));
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(2000));
        assert!(matches!(ex.expand(&[3]), Err(SessionError::InvalidPath(_))));
    }

    /// A counting in-memory [`ResultCache`] for keying tests.
    #[derive(Default)]
    struct TestCache {
        map: std::sync::Mutex<std::collections::HashMap<DrillKey, CachedRules>>,
        hits: std::sync::atomic::AtomicUsize,
        inserts: std::sync::atomic::AtomicUsize,
    }

    impl crate::cache::ResultCache for TestCache {
        fn get(&self, key: &DrillKey) -> Option<CachedRules> {
            let hit = self.map.lock().unwrap().get(key).cloned();
            if hit.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            hit
        }
        fn contains(&self, key: &DrillKey) -> bool {
            self.map.lock().unwrap().contains_key(key)
        }
        fn insert(&self, key: DrillKey, value: CachedRules) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().insert(key, value);
        }
    }

    fn shared(cache: &Arc<TestCache>) -> SharedResultCache {
        SharedResultCache(Arc::clone(cache) as Arc<dyn crate::cache::ResultCache>)
    }

    /// Satellite regression: two sequentially loaded stores must never
    /// share cache entries, even when their data is identical and the
    /// allocator reuses the freed `Arc` (the ABA hazard the old
    /// `Arc::as_ptr` tag was exposed to). Default table ids are
    /// process-unique, so the second session's identical drill-down is a
    /// miss by construction.
    #[test]
    fn sequentially_loaded_stores_never_share_cache_entries() {
        let cache = Arc::new(TestCache::default());
        for _ in 0..2 {
            let table = Arc::new(retail(42));
            let mut cfg = config(2000);
            cfg.cache = Some(shared(&cache));
            let mut ex = Explorer::new(table, Box::new(SizeWeight), cfg);
            ex.expand(&[]).unwrap();
        }
        assert_eq!(cache.hits.load(Ordering::Relaxed), 0);
        assert_eq!(cache.inserts.load(Ordering::Relaxed), 2);
        assert_eq!(
            cache.map.lock().unwrap().len(),
            2,
            "identical drill-downs over separately loaded stores must key apart"
        );
    }

    /// The sharing contract still works when sessions agree on an
    /// engine-assigned id: the second session's search is a hit (verified
    /// bit-identical against recomputation by the debug assertion).
    #[test]
    fn explicit_table_id_shares_cache_across_sessions() {
        let table = Arc::new(retail(42));
        let cache = Arc::new(TestCache::default());
        for _ in 0..2 {
            let mut cfg = config(2000);
            cfg.cache = Some(shared(&cache));
            cfg.table_id = Some(77);
            let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), cfg);
            ex.expand(&[]).unwrap();
        }
        assert_eq!(cache.inserts.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
    }

    fn live_rows(lo: usize, hi: usize) -> Vec<[String; 2]> {
        (lo..hi)
            .map(|i| [format!("s{}", i % 4), format!("p{}", i % 7)])
            .collect()
    }

    /// Appends bump the session's pinned epoch at the next operation, the
    /// root count tracks the pinned epoch's row count, and a repeated
    /// drill-down after an append never hits the cache — the epoch in the
    /// key changed (the "no cache hit crosses an epoch" invariant).
    #[test]
    fn append_bumps_epoch_and_never_serves_stale_cache() {
        use sdd_table::{LiveTable, LiveTableConfig};
        let schema = sdd_table::Schema::new(["Store", "Product"]).unwrap();
        let live =
            Arc::new(LiveTable::new(schema, vec![], &LiveTableConfig::in_memory(16)).unwrap());
        live.try_append(&live_rows(0, 64), &[]).unwrap();

        let cache = Arc::new(TestCache::default());
        let mut cfg = config(10);
        cfg.handler.capacity = 400;
        cfg.cache = Some(shared(&cache));
        let mut ex = Explorer::with_store(
            TableStore::from(Arc::clone(&live)),
            Box::new(SizeWeight),
            cfg,
        );
        ex.expand(&[]).unwrap();
        assert_eq!(ex.pinned_epoch(), 1);
        assert_eq!(ex.rule_at(&[]).unwrap().count, 64.0);

        live.try_append(&live_rows(64, 128), &[]).unwrap();
        ex.collapse(&[]).unwrap();
        ex.expand(&[]).unwrap();
        assert_eq!(ex.pinned_epoch(), 2);
        assert_eq!(ex.rule_at(&[]).unwrap().count, 128.0);
        assert_eq!(
            cache.hits.load(Ordering::Relaxed),
            0,
            "a cache hit crossed an epoch"
        );
        assert_eq!(cache.inserts.load(Ordering::Relaxed), 2);
    }

    /// Deferred refresh (requested, drained by the next operation's
    /// prologue) is observably identical to running the refresh inline at
    /// request time.
    #[test]
    fn deferred_refresh_is_indistinguishable_from_inline() {
        let table = Arc::new(retail(42));
        let run = |deferred: bool| {
            let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config(1000));
            ex.expand(&[]).unwrap();
            if deferred {
                ex.request_refresh();
                assert!(ex.has_pending_refresh());
            } else {
                ex.try_refresh_exact_counts().unwrap();
            }
            ex.expand(&[0]).unwrap();
            assert!(!ex.has_pending_refresh());
            (
                ex.render(),
                ex.handler().stored_samples(),
                format!("{:?} {:?}", ex.stats, ex.handler_stats()),
            )
        };
        let inline = run(false);
        let deferred = run(true);
        assert_eq!(inline.0, deferred.0);
        assert_eq!(inline.1, deferred.1);
        assert_eq!(inline.2, deferred.2);
    }
}
