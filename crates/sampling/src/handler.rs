//! The SampleHandler (paper §4.3): creates, maintains, retrieves, and
//! evicts in-memory samples in response to drill-down requests.
//!
//! Given a rule `r` the handler returns a uniform sample of `T_r` with at
//! least `minSS` tuples, via the cheapest applicable mechanism:
//!
//! 1. **Find** — an existing sample whose filter is exactly `r` and which is
//!    large enough.
//! 2. **Combine** — pool the `r`-covered tuples of every sample whose filter
//!    is a *sub-rule* of `r`. Each pooled tuple carries the weight
//!    `1 / Σ_s (1/N_s)` so estimates remain unbiased even when the sources
//!    were drawn at different rates (each covered tuple appears in source
//!    `s` with probability `1/N_s` independently).
//! 3. **Create** — a full pass over the table (the expensive case the
//!    allocator tries to avoid), using reservoir sampling.
//!
//! [`SampleHandler::try_prefetch`] implements §4.3's background
//! pre-fetching: given the rules the analyst may drill into next and their
//! probabilities, it solves the allocation problem (§4.1/§4.2) and
//! materializes all planned samples in a single pass through the table.
//!
//! **One sample form.** Whatever the store kind, a stored sample is its
//! reservoir's row ids plus those rows **materialised** into a small
//! in-memory table in the store's global code space
//! ([`TableStore::try_gather_batch`]). A served [`SampleView`] is always
//! "all rows of its own small table, in order, plus weights" — the only
//! form a [`sdd_table::TableView`] has — and every one of those rows is
//! covered by the requested rule (Find matches the filter exactly, Combine
//! pools *covered* tuples, Create samples covered rows). So the drill-down
//! that follows filters nothing ([`sdd_core::filter_to_rule`] lends the
//! view back uncopied), searches scan contiguous column slices of a few
//! thousand rows and never touch the full table, Find and Combine never
//! touch the shard tier, and everything downstream of the Create scan is
//! storage-agnostic.
//!
//! **One visit per segment per batch.** The handler's only contact with
//! the full table is two sweeps shared by every sample of a batch — a lone
//! Create, a prefetch's five or six rules, or every stored filter at a live
//! sync: one scan ([`sdd_core::try_scan_rules_in_store`]: the union of the
//! batch's rule columns fetched once per segment, every rule's hits offered
//! straight into its reservoir) and one gather
//! ([`TableStore::try_gather_batch`]). Over a spilling store that is at
//! most two reads per spilled segment per batch, whatever its size —
//! and a live sync scans only the segments that overlap the appended range
//! and gathers only from those that hold a newly drawn row.
//!
//! **Fallible-only, batch-atomic.** Every operation that may scan or
//! gather returns `Result<_, TableError>`: a damaged spill file is an error
//! the session layer turns into an error response, never a panic. A batch
//! draws and gathers everything first and only then touches the stored
//! samples and the counters, so a fault leaves the handler exactly as it
//! was and a retry is clean.
//!
//! **Reproducible draws.** Each requested rule gets its own reservoir, with
//! every draw derived statelessly from the rule's key and the offer index
//! ([`Reservoir::offer_keyed`], keyed by a SplitMix64 fold of
//! `(config.seed, rule)`) — there is no shared sequential RNG, and a rule's
//! hits reach its reservoir in ascending row order whichever rules share
//! the sweep. So the stored samples are identical for any batch
//! composition (`docs/DETERMINISM.md`).
//!
//! **Live tables.** A handler over a [`TableStore::Live`] store is pinned
//! to one epoch's snapshot; [`SampleHandler::try_sync_to_snapshot`]
//! advances it, maintaining every stored reservoir **incrementally**: the
//! appended row range is swept once for all stored filters and offered
//! into the stored reservoirs resumed via [`Reservoir::from_parts`].
//! Because draws are keyed by offer index, the maintained sample is
//! bit-identical to a full re-scan at the new epoch — and to a scan of a
//! frozen table pre-grown to the same rows (the parity tests pin both).
//! The materialised tables follow at the same cost: Algorithm R replaces
//! ≈ `n·Δ/N` of a sample's `n` slots when `Δ` rows join `N`, so a sync
//! gathers just the rows of the slots that changed and patches them into
//! the stored columns ([`LiveSnapshot::patch_gathered`]) — slot `p` of a
//! materialised table depends on `rows[p]` alone, so that is the table a
//! gather of the whole new sample would build (`docs/DETERMINISM.md`,
//! *Epoch consistency*).

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::alloc::{solve_uniform, Allocation, AllocationProblem, AllocationStrategy};
use crate::alloc_convex::solve_convex;
use crate::alloc_dp::solve_dp;
use crate::reservoir::{splitmix64, Reservoir};
use sdd_core::Rule;
use sdd_table::{LiveSnapshot, OwnedTableView, RowId, Table, TableError, TableStore};
use std::sync::Arc;

/// Configuration of a [`SampleHandler`].
#[derive(Debug, Clone)]
pub struct SampleHandlerConfig {
    /// Memory capacity `M`: total tuples across all stored samples.
    pub capacity: usize,
    /// `minSS`: minimum tuples required to run BRS without a disk pass.
    pub min_sample_size: usize,
    /// RNG seed (sampling is deterministic per seed).
    pub seed: u64,
    /// Which allocation solver [`SampleHandler::try_prefetch`] uses.
    pub strategy: AllocationStrategy,
}

impl Default for SampleHandlerConfig {
    /// The paper's experimental settings: `M = 50000`, `minSS = 5000`.
    fn default() -> Self {
        Self {
            capacity: 50_000,
            min_sample_size: 5_000,
            seed: 0xD2_11,
            strategy: AllocationStrategy::Dp,
        }
    }
}

/// How a requested sample was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchMechanism {
    /// Served verbatim from a stored sample with the same filter.
    Find,
    /// Pooled from stored samples with sub-rule filters.
    Combine,
    /// Required a full table scan.
    Create,
}

/// A sample returned to the caller, ready to feed into BRS.
///
/// The view is **owned** ([`OwnedTableView`]) and self-contained: all rows,
/// in order, of the sample's own small materialised table (shared by
/// `Arc`), plus weights — it can outlive the handler borrow that produced
/// it, cross threads, or feed a drill-down directly.
#[derive(Debug, Clone)]
pub struct SampleView {
    /// The tuples, weighted so that BRS counts are full-table estimates.
    pub view: OwnedTableView,
    /// Which mechanism produced it.
    pub mechanism: FetchMechanism,
    /// The effective scale factor (for confidence intervals).
    pub scale: f64,
}

/// Work counters (exposed for the experiments of §5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerStats {
    /// Requests served by Find.
    pub finds: usize,
    /// Requests served by Combine.
    pub combines: usize,
    /// Requests served by Create.
    pub creates: usize,
    /// Full passes over the table: one per Create and one per prefetch
    /// batch, each a single sweep — every segment visited once for the scan
    /// and once for the gather — whatever the number of rules in the batch.
    pub full_scans: usize,
    /// Samples evicted to respect the memory cap.
    pub evictions: usize,
}

#[derive(Debug, Clone)]
struct StoredSample {
    filter: Rule,
    rows: Vec<RowId>,
    /// `rows` materialised at store time into a small table in the store's
    /// **global** code space (same dictionaries and cardinalities as the
    /// full table, rows in sample order): what every served view scans.
    local: Arc<Table>,
    /// `N_s`: covered-population count / sample size.
    scale: f64,
    /// True when the sample holds *every* covered tuple (the rule covers
    /// fewer tuples than the reservoir's capacity) — exact, no `minSS`
    /// requirement applies.
    exact: bool,
    /// Covered tuples the reservoir has observed (`seen`), and the
    /// reservoir's capacity (`target`) — the state needed to *resume* the
    /// reservoir over appended rows ([`Reservoir::from_parts`]).
    seen: u64,
    target: usize,
    last_used: u64,
}

/// One next-drill-down candidate for [`SampleHandler::try_prefetch`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchEntry {
    /// The rule the analyst may drill into.
    pub rule: Rule,
    /// Probability of that drill-down (uniform or learned, §4.1).
    pub probability: f64,
    /// `S(parent, rule)`: fraction of parent-covered tuples this rule
    /// covers. Estimated from displayed counts.
    pub selectivity: f64,
}

/// A prefetch request handed off to a background worker (§4.3's
/// "pre-fetching ... while the analyst is still examining the display"):
/// the parent rule plus the likely next drill-downs. Produced by the
/// session layer after an expansion, consumed by
/// [`SampleHandler::try_run_prefetch_job`] on whichever thread gets there first
/// — the result is identical either way because the scan's reservoirs are
/// seeded per `(config.seed, rule)`, never from scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchJob {
    /// The rule whose expansion the analyst is looking at.
    pub parent: Rule,
    /// The candidate next drill-downs with probabilities/selectivities.
    pub entries: Vec<PrefetchEntry>,
}

/// A read-only snapshot of one stored sample — determinism harnesses
/// compare these across store layouts and prefetch scheduling modes.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSampleInfo {
    /// The filter rule the sample was drawn for.
    pub filter: Rule,
    /// The sampled row ids, in reservoir order.
    pub rows: Vec<RowId>,
    /// `N_s`: covered-population count / sample size.
    pub scale: f64,
    /// True when the sample holds every covered tuple.
    pub exact: bool,
}

/// The sample manager. See module docs.
///
/// Owns its table by `Arc`, so a handler is `Send` and can live inside
/// long-lived, thread-hopping session state (the concurrent server's
/// registry) rather than being pinned to a table borrow.
pub struct SampleHandler {
    store: TableStore,
    config: SampleHandlerConfig,
    samples: Vec<StoredSample>,
    clock: u64,
    /// Work counters.
    pub stats: HandlerStats,
}

/// The per-rule reservoir key: a SplitMix64 fold of the handler seed and
/// the rule's codes. Stable across platforms and independent of scan
/// order, so prefetch draws the same sample for a rule no matter how many
/// rules share the batch. Each draw of
/// the rule's reservoir then mixes this key with the offer index
/// ([`Reservoir::offer_keyed`]), making the stored sample a pure function
/// of `(seed, rule, covered-row stream)` — the determinism the live-table
/// epoch invariant rests on.
fn sample_seed(seed: u64, rule: &Rule) -> u64 {
    let mut h = splitmix64(seed);
    for &code in rule.codes() {
        h = splitmix64(h ^ (code as u64).wrapping_add(1));
    }
    h
}

/// One member of a batch: `(filter, reservoir to offer into, last_used
/// stamp)`.
type BatchMember = (Rule, Reservoir<RowId>, u64);

/// The one scan every batch makes over `store`: sweeps `range` once,
/// offering each rule's covered rows (ascending, whatever the batch) into
/// its reservoir. Every store kind emits the
/// identical covered-row stream for identical rows (a live store scans its
/// pinned epoch's frozen snapshot), so the draws are identical whatever
/// the storage.
fn draw(
    store: &TableStore,
    seed: u64,
    range: std::ops::Range<usize>,
    batch: &mut [BatchMember],
) -> Result<(), TableError> {
    let rules: Vec<Rule> = batch.iter().map(|(rule, ..)| rule.clone()).collect();
    let keys: Vec<u64> = rules.iter().map(|rule| sample_seed(seed, rule)).collect();
    sdd_core::try_scan_rules_in_store(store, &rules, range, |i, rows| {
        let (res, key) = (&mut batch[i].1, keys[i]);
        for &row in rows {
            res.offer_keyed(row, key);
        }
    })
}

impl StoredSample {
    /// The sample a batch member's reservoir holds, `local` being its rows
    /// materialised.
    fn new((filter, res, last_used): BatchMember, local: Arc<Table>) -> Self {
        let (scale, target) = (res.scale(), res.capacity());
        let (rows, seen) = res.into_parts();
        StoredSample {
            filter,
            exact: seen as usize == rows.len(),
            rows,
            local,
            scale,
            seen,
            target,
            last_used,
        }
    }
}

impl SampleHandler {
    /// Creates a handler over a monolithic in-memory `table`.
    pub fn new(table: Arc<Table>, config: SampleHandlerConfig) -> Self {
        Self::with_store(TableStore::Whole(table), config)
    }

    /// Creates a handler over any [`TableStore`] — monolithic, sharded or
    /// live. The covered-row stream of a scan is identical for identical
    /// rows however they are stored, so the drawn samples are bit-identical
    /// across store kinds, and so is everything served from them.
    pub fn with_store(store: TableStore, config: SampleHandlerConfig) -> Self {
        // source-rules: allow(P001) constructor preconditions on caller config; the engine rejects a client's bad config before it builds a handler
        assert!(config.min_sample_size > 0, "minSS must be positive");
        // source-rules: allow(P001) as above
        assert!(
            config.capacity >= config.min_sample_size,
            "capacity must hold at least one minimum-size sample"
        );
        Self {
            store,
            config,
            samples: Vec::new(),
            clock: 0,
            stats: HandlerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SampleHandlerConfig {
        &self.config
    }

    /// The metadata table of the underlying store: the shared table itself
    /// for monolithic stores, the zero-row dictionary header for sharded
    /// ones (schema/dictionary/cardinality access only — never scan it).
    pub fn table(&self) -> &Arc<Table> {
        self.store.header()
    }

    /// The storage this handler samples from.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// The weighted [`OwnedTableView`] serving a stored sample: every row
    /// of its materialised table, in order, at the sample's scale.
    fn stored_view(s: &StoredSample) -> OwnedTableView {
        OwnedTableView::all_with_weights(s.local.clone(), vec![s.scale; s.rows.len()])
    }

    /// Snapshots every stored sample (store order). Intended for the
    /// determinism test harness and server-side introspection; cloning is
    /// bounded by the configured memory capacity.
    pub fn stored_samples(&self) -> Vec<StoredSampleInfo> {
        self.samples
            .iter()
            .map(|s| StoredSampleInfo {
                filter: s.filter.clone(),
                rows: s.rows.clone(),
                scale: s.scale,
                exact: s.exact,
            })
            .collect()
    }

    /// Total tuples currently stored.
    pub fn memory_used(&self) -> usize {
        self.samples.iter().map(|s| s.rows.len()).sum()
    }

    /// Number of stored samples.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// A **read-only** Find: the stored sample that would serve `rule`
    /// verbatim, exactly as [`SampleHandler::try_get_sample`]'s Find arm
    /// would serve it — but without touching the LRU clock, `last_used`,
    /// or any counter. Background speculation peeks with this so a
    /// speculative computation can never perturb session-observable state
    /// (including future eviction order). Returns `None` when no stored
    /// sample matches the filter at `minSS` (Combine/Create are
    /// deliberately not attempted: speculation must stay free).
    pub fn peek_stored(&self, rule: &Rule) -> Option<SampleView> {
        let min_ss = self.config.min_sample_size;
        let s = self
            .samples
            .iter()
            .find(|s| s.filter == *rule && (s.rows.len() >= min_ss || s.exact))?;
        Some(SampleView {
            view: Self::stored_view(s),
            mechanism: FetchMechanism::Find,
            scale: s.scale,
        })
    }

    /// Returns a (weighted) sample of the tuples covered by `rule`, at least
    /// `minSS` tuples when the data allows, trying Find → Combine → Create.
    /// A Create scans (and gathers from) the store, so a damaged spill file
    /// surfaces as the error; Find and Combine only read the stored
    /// samples' materialised tables.
    pub fn try_get_sample(&mut self, rule: &Rule) -> Result<SampleView, TableError> {
        self.clock += 1;
        let min_ss = self.config.min_sample_size;

        // --- Find --- (an exact sample serves any request regardless of
        // minSS: it already holds every covered tuple).
        if let Some(idx) = self
            .samples
            .iter()
            .position(|s| s.filter == *rule && (s.rows.len() >= min_ss || s.exact))
        {
            self.samples[idx].last_used = self.clock;
            let s = &self.samples[idx];
            self.stats.finds += 1;
            return Ok(SampleView {
                view: Self::stored_view(s),
                mechanism: FetchMechanism::Find,
                scale: s.scale,
            });
        }

        // --- Combine ---
        if let Some(sv) = self.try_combine(rule) {
            self.stats.combines += 1;
            return Ok(sv);
        }

        // --- Create ---
        let stored = self.scan_and_store(&[(rule.clone(), min_ss)])?[0];
        self.stats.creates += 1;
        self.stats.full_scans += 1;
        let s = &self.samples[stored];
        Ok(SampleView {
            view: Self::stored_view(s),
            mechanism: FetchMechanism::Create,
            scale: s.scale,
        })
    }

    fn try_combine(&mut self, rule: &Rule) -> Option<SampleView> {
        let min_ss = self.config.min_sample_size;
        // (source table, covered local rows) parts, in pool order.
        let mut parts: Vec<(&Table, Vec<RowId>)> = Vec::new();
        let mut pooled = 0usize;
        let mut rate_sum = 0.0f64; // Σ 1/N_s over contributing samples
        let mut used: Vec<usize> = Vec::new();
        for (i, s) in self.samples.iter().enumerate() {
            if !s.filter.is_sub_rule_of(rule) {
                continue;
            }
            // A drained sample (zero-capacity reservoir that still saw
            // tuples, scale = +∞) represents its population at rate
            // `1/N_s = 0`: it contributes no rows and no rate. Skipping it
            // keeps `rate_sum` finite and means a sample evicted and later
            // re-created ("rehydrated") can never double-count its rate —
            // the regression tests pin both properties.
            if !(s.scale.is_finite() && s.scale > 0.0) {
                continue;
            }
            let locals = sdd_core::covered_rows(&s.local, rule);
            pooled += locals.len();
            if !locals.is_empty() {
                parts.push((&s.local, locals));
            }
            // Every qualifying sub-rule sample contributes its rate, even
            // when it happens to hold zero `rule`-covered rows: each covered
            // tuple of the table appeared in sample `s` with probability
            // `1/N_s` regardless of the draw's outcome, so dropping empty
            // contributors would shrink `rate_sum` and bias the pooled
            // estimate upward.
            rate_sum += 1.0 / s.scale;
            used.push(i);
        }
        if pooled < min_ss || rate_sum <= 0.0 {
            return None;
        }
        // Gather the pooled tuples (in pool order) into one table sharing
        // the global code space. (A live sync leaves every stored table
        // under the pinned epoch's dictionaries, so all sources share them.)
        let borrowed: Vec<(&Table, &[RowId])> = parts
            .iter()
            .map(|(t, locals)| (*t, locals.as_slice()))
            .collect();
        let table = Arc::new(Table::gather_multi(&borrowed));
        let scale = 1.0 / rate_sum;
        let view = OwnedTableView::all_with_weights(table, vec![scale; pooled]);
        for &i in &used {
            self.samples[i].last_used = self.clock;
        }
        Some(SampleView {
            view,
            mechanism: FetchMechanism::Combine,
            scale,
        })
    }

    /// Creates (or replaces) one sample per `(rule, size)` request in a
    /// single batch — the Create phase of §4.3 ("it creates a sample of
    /// size n_r for each displayed r ... in a single pass through the
    /// table"), and what [`SampleHandler::try_prefetch`] runs once the
    /// allocator has chosen the sizes. Counted as one full scan. A repeated
    /// filter stores once, its last size winning.
    pub fn try_create_batch(&mut self, requests: &[(Rule, usize)]) -> Result<(), TableError> {
        self.scan_and_store(requests)?;
        self.stats.full_scans += 1;
        Ok(())
    }

    /// [`SampleHandler::try_create_batch`] minus the counter, returning
    /// each request's store index.
    ///
    /// Storage is batch-atomic. Everything fallible — the sweep that draws
    /// and the gather that materialises — runs before `self.samples` is
    /// touched, so a storage fault leaves the store as it was. Then
    /// same-filter replacement and LRU eviction run *before* any push, so
    /// (a) a batch never evicts its own freshly stored members, and (b) the
    /// returned store indices are valid when this method returns.
    fn scan_and_store(&mut self, requests: &[(Rule, usize)]) -> Result<Vec<usize>, TableError> {
        // Deduplicate same-filter requests, last target size winning — the
        // store holds at most one sample per filter. `slot[i]` maps
        // original request `i` to its deduplicated position.
        let mut batch: Vec<BatchMember> = Vec::with_capacity(requests.len());
        let mut slot: Vec<usize> = Vec::with_capacity(requests.len());
        for (rule, n) in requests {
            let member = (rule.clone(), Reservoir::new(*n), self.clock);
            match batch.iter().position(|(r, ..)| r == rule) {
                Some(pos) => {
                    batch[pos] = member;
                    slot.push(pos);
                }
                None => {
                    slot.push(batch.len());
                    batch.push(member);
                }
            }
        }
        let all_rows = 0..self.store.n_rows();
        draw(&self.store, self.config.seed, all_rows, &mut batch)?;
        let drawn: Vec<&[RowId]> = batch.iter().map(|(_, res, _)| res.items()).collect();
        let locals = self.store.try_gather_batch(&drawn)?;
        let fresh: Vec<StoredSample> = batch
            .into_iter()
            .zip(locals)
            .map(|(member, local)| StoredSample::new(member, Arc::new(local)))
            .collect();

        // Commit. Replace any existing sample whose filter is re-requested,
        // then make room for the whole batch against the *pre-existing*
        // store only. Pushes come last, so indices recorded here stay
        // stable.
        self.samples
            .retain(|s| !fresh.iter().any(|f| s.filter == f.filter));
        self.ensure_room(fresh.iter().map(|f| f.rows.len()).sum());
        let base = self.samples.len();
        self.samples.extend(fresh);
        Ok(slot.into_iter().map(|s| base + s).collect())
    }

    /// Evicts least-recently-used samples until `incoming` more tuples fit.
    /// Called before a batch's pushes (see [`SampleHandler::scan_and_store`]),
    /// so only samples predating the batch are ever candidates.
    fn ensure_room(&mut self, incoming: usize) {
        while self.memory_used() + incoming > self.config.capacity && !self.samples.is_empty() {
            // The loop guard keeps `samples` non-empty, so a victim always
            // exists; `break` instead of panicking if that ever broke (P001).
            let Some(lru) = self
                .samples
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            self.samples.remove(lru);
            self.stats.evictions += 1;
        }
    }

    /// Builds the §4.1 allocation problem for a parent rule and its likely
    /// next drill-downs.
    pub fn plan(&self, entries: &[PrefetchEntry]) -> AllocationProblem {
        let mut parent = vec![None];
        let mut prob = vec![0.0];
        let mut selectivity = vec![1.0];
        parent.extend(std::iter::repeat_n(Some(0), entries.len()));
        prob.extend(entries.iter().map(|e| e.probability));
        selectivity.extend(entries.iter().map(|e| e.selectivity));
        AllocationProblem {
            parent,
            prob,
            selectivity,
            capacity: self.config.capacity,
            min_ss: self.config.min_sample_size,
        }
    }

    /// Solves an allocation problem with the configured strategy.
    pub fn solve_allocation(&self, problem: &AllocationProblem) -> Allocation {
        match self.config.strategy {
            AllocationStrategy::Dp => solve_dp(problem),
            AllocationStrategy::Convex => solve_convex(problem),
            AllocationStrategy::Uniform => solve_uniform(problem),
        }
    }

    /// Pre-fetches samples for the likely next drill-downs under `parent`
    /// (paper §4.3, "Pre-fetching"): solves the allocation problem, then
    /// materializes every planned sample in **one** pass
    /// ([`SampleHandler::try_create_batch`]).
    ///
    /// Returns the hit probability the allocator expects for the next
    /// drill-down.
    pub fn try_prefetch(
        &mut self,
        parent: &Rule,
        entries: &[PrefetchEntry],
    ) -> Result<f64, TableError> {
        self.clock += 1;
        let problem = self.plan(entries);
        let alloc = self.solve_allocation(&problem);

        let mut requests: Vec<(Rule, usize)> = Vec::new();
        if alloc.sizes[0] > 0 {
            requests.push((parent.clone(), alloc.sizes[0]));
        }
        for (e, &size) in entries.iter().zip(&alloc.sizes[1..]) {
            if size > 0 {
                requests.push((e.rule.clone(), size));
            }
        }
        if !requests.is_empty() {
            self.try_create_batch(&requests)?;
        }
        Ok(alloc.value)
    }

    /// Runs a handed-off [`PrefetchJob`] — the background half of §4.3's
    /// pre-fetching: [`SampleHandler::try_prefetch`] with the job's fields.
    /// Which thread executes the job does not change the stored samples,
    /// only *when* the work happens relative to the analyst's think-time.
    pub fn try_run_prefetch_job(&mut self, job: &PrefetchJob) -> Result<f64, TableError> {
        self.try_prefetch(&job.parent, &job.entries)
    }

    /// The epoch this handler's store is pinned to (`0` for frozen stores).
    pub fn pinned_epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Advances a live handler to `snap`'s epoch — §4.3's dynamic
    /// maintenance extended across **data** changes. Every stored reservoir
    /// is maintained *incrementally*: the appended row range
    /// (`old epoch's rows .. snap's rows`) is swept **once for all stored
    /// filters** and offered into each reservoir resumed from its stored
    /// `(items, seen, target)`. Draws are keyed by offer index
    /// ([`Reservoir::offer_keyed`]), so the result is bit-identical to
    /// discarding the sample and re-scanning the whole table at the new
    /// epoch. The materialised tables are **patched**, not re-gathered:
    /// only the positions whose row id changed are fetched, in one batched
    /// gather for all samples, and written into a copy of the stored
    /// columns under the new epoch's dictionary handles
    /// ([`LiveSnapshot::patch_gathered`]; Combine's pooling requires all
    /// sources to share dictionary lengths). A sample no appended row
    /// touched keeps its table when no dictionary grew either.
    ///
    /// No-op for frozen stores and for snapshots at or behind the pinned
    /// epoch (pins never move backwards). On error (spill fault mid-scan)
    /// nothing is committed: samples and pin stay at the old epoch, so a
    /// retry after the fault clears is safe.
    pub fn try_sync_to_snapshot(&mut self, snap: &LiveSnapshot) -> Result<(), TableError> {
        let Some(ls) = self.store.as_live() else {
            return Ok(());
        };
        if snap.epoch <= ls.epoch() {
            return Ok(());
        }
        let appended = ls.pinned().table.n_rows()..snap.table.n_rows();

        // Stage every update, then commit atomically: a fault mid-sync
        // must not leave some reservoirs advanced past the pinned epoch
        // (a retry would then offer the same rows twice).
        let mut resumed: Vec<BatchMember> = self
            .samples
            .iter()
            .map(|s| {
                let res = Reservoir::from_parts(s.rows.clone(), s.seen, s.target);
                (s.filter.clone(), res, s.last_used)
            })
            .collect();
        let new_store = TableStore::Sharded(Arc::clone(&snap.table));
        draw(&new_store, self.config.seed, appended, &mut resumed)?;
        // Slot `p` of a materialised table is a function of `rows[p]`
        // alone, so only the slots whose row id moved need fetching.
        let (changed, wanted): (Vec<Vec<usize>>, Vec<Vec<RowId>>) = resumed
            .iter()
            .zip(&self.samples)
            .map(|((_, res, _), s)| {
                let moved = |&(p, row): &(usize, &RowId)| s.rows.get(p) != Some(row);
                let slots = res.items().iter().enumerate().filter(moved);
                slots.map(|(p, &row)| (p, row)).unzip()
            })
            .unzip();
        let wanted: Vec<&[RowId]> = wanted.iter().map(Vec::as_slice).collect();
        let fetched = new_store.try_gather_batch(&wanted)?;
        self.samples = resumed
            .into_iter()
            .zip(&self.samples)
            .zip(changed.iter().zip(&fetched))
            .map(|((member, s), (at, fresh))| {
                StoredSample::new(member, snap.patch_gathered(&s.local, at, fresh))
            })
            .collect();
        // The entry guard already proved the store is live; route the
        // impossible miss through debug_assert instead of a panic (P001).
        let Some(ls) = self.store.as_live_mut() else {
            debug_assert!(false, "live store checked at entry");
            return Ok(());
        };
        ls.pin(snap.clone());
        Ok(())
    }

    /// Drops every stored sample (used by experiments to reset state).
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::rule_count;
    use sdd_datagen::retail;

    fn handler(table: &Arc<Table>) -> SampleHandler {
        SampleHandler::new(
            table.clone(),
            SampleHandlerConfig {
                capacity: 5_000,
                min_sample_size: 500,
                seed: 7,
                strategy: AllocationStrategy::Dp,
            },
        )
    }

    #[test]
    fn first_request_creates_then_finds() {
        let t = Arc::new(retail(1));
        let mut h = handler(&t);
        let trivial = Rule::trivial(3);
        let a = h.try_get_sample(&trivial).unwrap();
        assert_eq!(a.mechanism, FetchMechanism::Create);
        assert_eq!(a.view.len(), 500);
        let b = h.try_get_sample(&trivial).unwrap();
        assert_eq!(b.mechanism, FetchMechanism::Find);
        assert_eq!(h.stats.full_scans, 1);
    }

    #[test]
    fn sample_counts_estimate_true_counts() {
        let t = Arc::new(retail(1));
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 20_000,
                min_sample_size: 2_000,
                seed: 3,
                strategy: AllocationStrategy::Dp,
            },
        );
        let trivial = Rule::trivial(3);
        let s = h.try_get_sample(&trivial).unwrap();
        // Estimated total = Σ weights ≈ 6000.
        let est = s.view.total_weight();
        assert!((est - 6000.0).abs() < 1.0, "total estimate {est}");
        // Estimated Walmart count within 20% of 1000.
        let walmart = Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap();
        let est_w: f64 = s
            .view
            .as_view()
            .iter()
            .filter(|wr| walmart.covers_row(s.view.table(), wr.row))
            .map(|wr| wr.weight)
            .sum();
        let truth = rule_count(&t.view(), &walmart);
        assert!(
            (est_w - truth).abs() / truth < 0.2,
            "estimate {est_w} vs truth {truth}"
        );
    }

    #[test]
    fn combine_pools_sub_rule_samples() {
        let t = Arc::new(retail(1));
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 50_000,
                min_sample_size: 200,
                seed: 11,
                strategy: AllocationStrategy::Dp,
            },
        );
        // Seed a big sample of the trivial rule directly in the store.
        let trivial = Rule::trivial(3);
        h.scan_and_store(&[(trivial.clone(), 4000)]).unwrap();
        // Now a Walmart request should combine from the trivial sample:
        // 4000 of 6000 rows → ~666 Walmart rows ≥ minSS 200.
        let walmart = Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap();
        let s = h.try_get_sample(&walmart).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Combine);
        assert_eq!(h.stats.creates, 0); // no disk pass triggered by the request
                                        // Unbiased: estimated Walmart count ≈ 1000.
        let est = s.view.total_weight();
        assert!((est - 1000.0).abs() < 200.0, "estimate {est}");
    }

    #[test]
    fn combine_falls_back_to_create_when_starved() {
        let t = Arc::new(retail(1));
        let mut h = handler(&t); // minSS 500
                                 // Seed a small trivial sample (600): Walmart-covered portion ≈ 100
                                 // < minSS → must Create.
        h.scan_and_store(&[(Rule::trivial(3), 600)]).unwrap();
        let walmart = Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap();
        let s = h.try_get_sample(&walmart).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Create);
        assert_eq!(s.view.len(), 500);
    }

    #[test]
    fn create_on_rare_rule_returns_all_covered_tuples() {
        let t = Arc::new(retail(1));
        let mut h = handler(&t);
        // (Walmart, cookies) covers only 200 < minSS 500: Create returns all
        // of them at scale 1.
        let r = Rule::from_pairs(&t, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap();
        let s = h.try_get_sample(&r).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Create);
        assert_eq!(s.view.len(), 200);
        assert!((s.scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_respected_with_eviction() {
        let t = Arc::new(retail(1));
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 1_200,
                min_sample_size: 500,
                seed: 5,
                strategy: AllocationStrategy::Dp,
            },
        );
        let rules = [
            Rule::trivial(3),
            Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap(),
            Rule::from_pairs(&t, &[("Region", "MA-3")]).unwrap(),
        ];
        for r in &rules {
            let _ = h.try_get_sample(r).unwrap();
        }
        assert!(h.memory_used() <= 1_200);
        assert!(h.stats.evictions > 0);
    }

    #[test]
    fn prefetch_enables_later_find_or_combine() {
        let t = Arc::new(retail(1));
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 20_000,
                min_sample_size: 500,
                seed: 13,
                strategy: AllocationStrategy::Dp,
            },
        );
        let walmart = Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap();
        let target = Rule::from_pairs(&t, &[("Store", "Target")]).unwrap();
        let hit = h
            .try_prefetch(
                &Rule::trivial(3),
                &[
                    PrefetchEntry {
                        rule: walmart.clone(),
                        probability: 0.5,
                        selectivity: 1000.0 / 6000.0,
                    },
                    PrefetchEntry {
                        rule: target.clone(),
                        probability: 0.5,
                        selectivity: 200.0 / 6000.0,
                    },
                ],
            )
            .unwrap();
        assert!(hit > 0.99, "allocator should serve both: {hit}");
        let scans_after_prefetch = h.stats.full_scans;
        let s1 = h.try_get_sample(&walmart).unwrap();
        let s2 = h.try_get_sample(&target).unwrap();
        assert_ne!(s1.mechanism, FetchMechanism::Create);
        assert_ne!(s2.mechanism, FetchMechanism::Create);
        assert_eq!(h.stats.full_scans, scans_after_prefetch);
    }

    /// 10×(w, ...) rows of which `n_wc` are (w, c), then 20×(t, x) rows.
    fn wc_table(n_wc: usize) -> Arc<Table> {
        let mut rows: Vec<[&str; 2]> = Vec::new();
        for i in 0..10 {
            rows.push(["w", if i < n_wc { "c" } else { "d" }]);
        }
        rows.extend(std::iter::repeat_n(["t", "x"], 20));
        Arc::new(
            Table::from_rows(sdd_table::Schema::new(["Store", "Product"]).unwrap(), &rows).unwrap(),
        )
    }

    #[test]
    fn combine_counts_zero_row_contributors_in_rate_sum() {
        // Regression for the biased-Combine bug: a qualifying sub-rule
        // sample with zero rule-covered rows must still contribute `1/N_s`
        // to the pooled rate, else the scale (and every estimate) inflates.
        let t = wc_table(1);
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 100,
                min_sample_size: 1,
                seed: 1,
                strategy: AllocationStrategy::Dp,
            },
        );
        let target = Rule::from_pairs(&t, &[("Store", "w"), ("Product", "c")]).unwrap();
        // A: trivial-filter sample holding the one (w, c) row, rate 1/2.
        h.samples.push(StoredSample {
            filter: Rule::trivial(2),
            rows: vec![0, 10, 11],
            local: Arc::new(t.gather_rows(&[0, 10, 11])),
            scale: 2.0,
            exact: false,
            seen: 6,
            target: 3,
            last_used: 0,
        });
        // B: (Store = w) is a sub-rule of the target but this draw caught
        // only non-c rows — its rate 1/4 must still count.
        h.samples.push(StoredSample {
            filter: Rule::from_pairs(&t, &[("Store", "w")]).unwrap(),
            rows: vec![1, 2],
            local: Arc::new(t.gather_rows(&[1, 2])),
            scale: 4.0,
            exact: false,
            seen: 8,
            target: 2,
            last_used: 0,
        });
        let s = h.try_get_sample(&target).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Combine);
        // rate_sum = 1/2 + 1/4 → scale 4/3 (the buggy code returned 2).
        assert!((s.scale - 4.0 / 3.0).abs() < 1e-12, "scale {}", s.scale);
        assert_eq!(s.view.len(), 1);
        assert!((s.view.total_weight() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn combine_estimate_is_unbiased_over_seeds() {
        // Statistical check: with an exact (w) sample and a varying trivial
        // half-sample, the Combine estimate of count(w, c) must average to
        // the truth (2). The pre-fix code dropped the trivial sample's rate
        // whenever its draw held no (w, c) row (~24% of seeds), biasing the
        // mean up to ≈ 2.16.
        let t = wc_table(2);
        let w = Rule::from_pairs(&t, &[("Store", "w")]).unwrap();
        let target = Rule::from_pairs(&t, &[("Store", "w"), ("Product", "c")]).unwrap();
        let trials = 2000u64;
        let mut sum = 0.0f64;
        for seed in 0..trials {
            let mut h = SampleHandler::new(
                t.clone(),
                SampleHandlerConfig {
                    capacity: 100,
                    min_sample_size: 1,
                    seed,
                    strategy: AllocationStrategy::Dp,
                },
            );
            h.scan_and_store(&[(w.clone(), 10)]).unwrap(); // exact, rate 1
            h.scan_and_store(&[(Rule::trivial(2), 15)]).unwrap(); // rate 1/2
            let s = h.try_get_sample(&target).unwrap();
            assert_eq!(s.mechanism, FetchMechanism::Combine, "seed {seed}");
            sum += s.view.total_weight();
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - 2.0).abs() < 0.08,
            "Combine estimate biased: mean {mean} vs truth 2"
        );
    }

    /// 2000×(a) + 2000×(b) rows, one column.
    fn ab_table() -> Arc<Table> {
        let mut rows: Vec<[&str; 1]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a"], 2000));
        rows.extend(std::iter::repeat_n(["b"], 2000));
        Arc::new(Table::from_rows(sdd_table::Schema::new(["A"]).unwrap(), &rows).unwrap())
    }

    #[test]
    fn drained_sample_contributes_no_rate_to_combine() {
        // Edge path surfaced by the randomized sharded runs: a stored
        // sample with an infinite scale (a drained zero-capacity reservoir
        // — it saw tuples but can represent none) must contribute neither
        // rows nor rate to a Combine. Before the explicit guard this relied
        // on `1/∞ == 0`; the guard also keeps a NaN out of `rate_sum` for
        // any future degenerate scale and skips the bogus `last_used` bump.
        let t = wc_table(2);
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 100,
                min_sample_size: 1,
                seed: 3,
                strategy: AllocationStrategy::Dp,
            },
        );
        let w = Rule::from_pairs(&t, &[("Store", "w")]).unwrap();
        h.scan_and_store(&[(w.clone(), 10)]).unwrap(); // exact (w) sample, rate 1
        h.samples.push(StoredSample {
            filter: Rule::trivial(2),
            rows: vec![],
            local: Arc::new(t.gather_rows(&[])),
            scale: f64::INFINITY,
            exact: false,
            seen: 5,
            target: 0,
            last_used: 0,
        });
        let target = Rule::from_pairs(&t, &[("Store", "w"), ("Product", "c")]).unwrap();
        let s = h.try_get_sample(&target).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Combine);
        // Only the exact (w) sample contributes: rate_sum = 1 → scale 1,
        // and the estimate equals the true count 2.
        assert!((s.scale - 1.0).abs() < 1e-12, "scale {}", s.scale);
        assert!((s.view.total_weight() - 2.0).abs() < 1e-12);
        assert!(s.scale.is_finite() && !s.scale.is_nan());
    }

    #[test]
    fn rehydrated_sample_after_eviction_never_double_counts_rates() {
        // A sample evicted under memory pressure and later re-created
        // ("rehydrated") must appear in the store exactly once, so a
        // Combine counts its rate exactly once. The store invariant is one
        // sample per filter (same-filter replacement before push), so the
        // rate sum after evict → re-create equals the fresh-store rate sum.
        let t = ab_table();
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 2_000,
                min_sample_size: 100,
                seed: 21,
                strategy: AllocationStrategy::Dp,
            },
        );
        let trivial = Rule::trivial(1);
        let ra = Rule::from_pairs(&t, &[("A", "a")]).unwrap();
        h.scan_and_store(&[(trivial.clone(), 1_000)]).unwrap(); // rate 1/4
                                                                // Evict the trivial sample by filling the store past capacity …
        h.scan_and_store(&[(ra.clone(), 1_200)]).unwrap();
        assert!(h.samples.iter().all(|s| s.filter != trivial));
        // … then rehydrate it (twice — the second must replace, not stack).
        h.scan_and_store(&[(trivial.clone(), 1_000)]).unwrap();
        h.scan_and_store(&[(trivial.clone(), 1_000)]).unwrap();
        assert_eq!(
            h.samples.iter().filter(|s| s.filter == trivial).count(),
            1,
            "rehydration must not duplicate the sample"
        );
        let s = h.try_get_sample(&ra).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Combine);
        // Contributors: the exact-ish (a) sample isn't stored any more
        // (evicted by the rehydrations? capacity 2000 holds 1000 + 1200 is
        // over — LRU evicted the (a) sample), so compute the expected rate
        // from the store directly and check the served scale matches it.
        let expected_rate: f64 = h
            .samples
            .iter()
            .filter(|st| st.filter.is_sub_rule_of(&ra))
            .map(|st| 1.0 / st.scale)
            .sum();
        assert!((s.scale - 1.0 / expected_rate).abs() < 1e-12);
        // And the estimate is in the right ballpark of the truth (2000).
        assert!((s.view.total_weight() - 2000.0).abs() < 400.0);
    }

    #[test]
    fn scan_and_store_indices_survive_mid_batch_eviction() {
        // Regression for the stale-index bug: storing a batch while LRU
        // eviction removes a pre-existing sample must not invalidate the
        // indices of batch members stored before the eviction fired.
        let t = ab_table();
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 1_500,
                min_sample_size: 500,
                seed: 9,
                strategy: AllocationStrategy::Dp,
            },
        );
        let trivial = Rule::trivial(1);
        let ra = Rule::from_pairs(&t, &[("A", "a")]).unwrap();
        let rb = Rule::from_pairs(&t, &[("A", "b")]).unwrap();
        h.scan_and_store(&[(trivial.clone(), 500)]).unwrap(); // pre-existing LRU victim
        let batch = [(ra.clone(), 600), (rb.clone(), 600)];
        let indices = h.scan_and_store(&batch).unwrap();
        // 500 + 1200 > 1500: the trivial sample must be evicted — and every
        // returned index must still point at its own request's sample.
        assert!(h.stats.evictions > 0);
        assert!(h.memory_used() <= 1_500);
        for ((rule, size), &idx) in batch.iter().zip(&indices) {
            assert_eq!(
                h.samples[idx].filter, *rule,
                "stale store index after mid-batch eviction"
            );
            assert_eq!(h.samples[idx].rows.len(), *size);
        }
        assert!(h.samples.iter().all(|s| s.filter != trivial));
    }

    #[test]
    fn batch_members_are_never_evicted_by_their_own_batch() {
        // Three 600-tuple samples against capacity 1500: the historical
        // per-push eviction would evict the first batch member to admit the
        // third. A batch is stored atomically instead (the prefetch
        // allocator never plans past capacity; a direct oversized batch
        // overshoots transiently rather than silently dropping members).
        let t = ab_table();
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 1_500,
                min_sample_size: 500,
                seed: 9,
                strategy: AllocationStrategy::Dp,
            },
        );
        let trivial = Rule::trivial(1);
        let ra = Rule::from_pairs(&t, &[("A", "a")]).unwrap();
        let rb = Rule::from_pairs(&t, &[("A", "b")]).unwrap();
        let batch = [(ra, 600), (rb, 600), (trivial, 600)];
        let indices = h.scan_and_store(&batch).unwrap();
        assert_eq!(h.n_samples(), 3, "a batch must not evict its own members");
        for ((rule, _), &idx) in batch.iter().zip(&indices) {
            assert_eq!(h.samples[idx].filter, *rule);
        }
    }

    #[test]
    fn duplicate_filter_requests_in_one_batch_store_once() {
        // The store invariant is one sample per filter: a batch repeating a
        // rule must store a single sample (last target size wins, matching
        // the historical per-push replacement) and point both returned
        // indices at it.
        let t = ab_table();
        let mut h = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 4_000,
                min_sample_size: 500,
                seed: 9,
                strategy: AllocationStrategy::Dp,
            },
        );
        let ra = Rule::from_pairs(&t, &[("A", "a")]).unwrap();
        let indices = h
            .scan_and_store(&[(ra.clone(), 600), (ra.clone(), 800)])
            .unwrap();
        assert_eq!(h.n_samples(), 1, "duplicate filters must collapse");
        assert_eq!(indices, vec![0, 0]);
        assert_eq!(h.samples[0].rows.len(), 800);
        assert_eq!(h.memory_used(), 800);
    }

    /// Rows `lo..hi` of the deterministic stream used by the live tests.
    fn live_test_rows(lo: usize, hi: usize) -> Vec<[String; 2]> {
        (lo..hi)
            .map(|i| [format!("s{}", i % 4), format!("p{}", i % 7)])
            .collect()
    }

    fn live_handler(store: TableStore, seed: u64) -> SampleHandler {
        SampleHandler::with_store(
            store,
            SampleHandlerConfig {
                capacity: 400,
                min_sample_size: 40,
                seed,
                strategy: AllocationStrategy::Dp,
            },
        )
    }

    /// The tentpole parity pin: maintaining stored reservoirs incrementally
    /// across appends is bit-identical to (a) a full re-create at the final
    /// epoch and (b) a create against a frozen table pre-grown to the same
    /// rows — samples, scales, exactness, and materialized locals all agree.
    #[test]
    fn incremental_maintenance_matches_full_rebuild_and_frozen_pregrown() {
        use sdd_table::{LiveTable, LiveTableConfig};
        let schema = || sdd_table::Schema::new(["Store", "Product"]).unwrap();
        let total = 600usize;
        let rules = |t: &Arc<Table>| {
            vec![
                Rule::trivial(2),
                Rule::from_pairs(t, &[("Store", "s1")]).unwrap(),
                Rule::from_pairs(t, &[("Store", "s2"), ("Product", "p3")]).unwrap(),
            ]
        };

        for seed in [7u64, 21] {
            // Incrementally grown + incrementally maintained handler.
            let live = Arc::new(
                LiveTable::new(schema(), vec![], &LiveTableConfig::in_memory(64)).unwrap(),
            );
            live.try_append(&live_test_rows(0, 150), &[]).unwrap();
            let mut inc = live_handler(TableStore::from(Arc::clone(&live)), seed);
            let header = inc.table().clone();
            for r in rules(&header) {
                let _ = inc.try_get_sample(&r).unwrap();
            }
            for (lo, hi) in [(150, 151), (151, 400), (400, 400), (400, total)] {
                let snap = live.try_append(&live_test_rows(lo, hi), &[]).unwrap();
                inc.try_sync_to_snapshot(&snap).unwrap();
            }
            assert_eq!(inc.pinned_epoch(), 5);

            // Full rebuild at the final epoch: a fresh handler, same rules.
            let mut rebuilt = live_handler(TableStore::from(Arc::clone(&live)), seed);
            for r in rules(&header) {
                let _ = rebuilt.try_get_sample(&r).unwrap();
            }

            // Frozen pre-grown table with the same rows.
            let frozen = Arc::new(Table::from_rows(schema(), &live_test_rows(0, total)).unwrap());
            let mut cold = live_handler(TableStore::Whole(Arc::clone(&frozen)), seed);
            for r in rules(&header) {
                let _ = cold.try_get_sample(&r).unwrap();
            }

            let a = inc.stored_samples();
            let b = rebuilt.stored_samples();
            let c = cold.stored_samples();
            assert_eq!(a, b, "incremental vs full rebuild (seed {seed})");
            assert_eq!(a, c, "incremental vs frozen pre-grown (seed {seed})");
            // The maintained locals serve the same tuples the frozen store
            // serves (global codes agree because intern order agrees).
            for (s, f) in a.iter().zip(&c) {
                assert_eq!(s.rows, f.rows);
                assert!(s.scale.to_bits() == f.scale.to_bits());
            }
        }
    }

    #[test]
    fn sync_is_monotonic_and_frozen_stores_ignore_it() {
        use sdd_table::{LiveTable, LiveTableConfig};
        let schema = sdd_table::Schema::new(["Store", "Product"]).unwrap();
        let live =
            Arc::new(LiveTable::new(schema, vec![], &LiveTableConfig::in_memory(16)).unwrap());
        let old = live.try_append(&live_test_rows(0, 100), &[]).unwrap();
        let mut h = live_handler(TableStore::from(Arc::clone(&live)), 3);
        let trivial = Rule::trivial(2);
        let _ = h.try_get_sample(&trivial).unwrap();
        let newer = live.try_append(&live_test_rows(100, 130), &[]).unwrap();
        h.try_sync_to_snapshot(&newer).unwrap();
        let after = h.stored_samples();
        // Re-syncing to the same or an older snapshot changes nothing.
        h.try_sync_to_snapshot(&newer).unwrap();
        h.try_sync_to_snapshot(&old).unwrap();
        assert_eq!(h.stored_samples(), after);
        assert_eq!(h.pinned_epoch(), 2);

        // Frozen handlers ignore syncs entirely.
        let frozen = Arc::new(
            Table::from_rows(
                sdd_table::Schema::new(["Store", "Product"]).unwrap(),
                &live_test_rows(0, 50),
            )
            .unwrap(),
        );
        let mut fh = live_handler(TableStore::Whole(frozen), 3);
        let _ = fh.try_get_sample(&trivial).unwrap();
        let before = fh.stored_samples();
        fh.try_sync_to_snapshot(&newer).unwrap();
        assert_eq!(fh.stored_samples(), before);
        assert_eq!(fh.pinned_epoch(), 0);
    }

    /// A sync copies a stored table only when it has something to write
    /// into it: a slot whose row moved, or a dictionary that grew.
    #[test]
    fn sync_keeps_the_table_of_a_sample_nothing_touched() {
        use sdd_table::{LiveTable, LiveTableConfig};
        let schema = sdd_table::Schema::new(["Store", "Product"]).unwrap();
        let live =
            Arc::new(LiveTable::new(schema, vec![], &LiveTableConfig::in_memory(16)).unwrap());
        live.try_append(&live_test_rows(0, 100), &[]).unwrap();
        let mut h = live_handler(TableStore::from(Arc::clone(&live)), 3);
        let s1 = Rule::from_pairs(h.table(), &[("Store", "s1")]).unwrap();
        h.try_create_batch(&[(Rule::trivial(2), 40), (s1, 40)])
            .unwrap();
        let at_create: Vec<StoredSample> = h.samples.clone();

        // Only `s0` rows, every product already known: no dictionary grows
        // and nothing is offered to the `s1` sample.
        let s0_rows = |n: usize| -> Vec<[String; 2]> {
            (0..n)
                .map(|i| ["s0".to_owned(), format!("p{}", i % 7)])
                .collect()
        };
        let snap = live.try_append(&s0_rows(30), &[]).unwrap();
        h.try_sync_to_snapshot(&snap).unwrap();
        assert_ne!(
            h.samples[0].rows, at_create[0].rows,
            "the trivial sample drew"
        );
        assert!(!Arc::ptr_eq(&h.samples[0].local, &at_create[0].local));
        assert_eq!(h.samples[1].rows, at_create[1].rows);
        assert!(Arc::ptr_eq(&h.samples[1].local, &at_create[1].local));

        // A new product: the untouched sample is re-issued under the grown
        // dictionary's handle (Combine pools tables of equal cardinality),
        // columns as they were.
        let mut rows = s0_rows(5);
        rows[2][1] = "pNEW".to_owned();
        let snap = live.try_append(&rows, &[]).unwrap();
        h.try_sync_to_snapshot(&snap).unwrap();
        let (now, then) = (&h.samples[1].local, &at_create[1].local);
        assert!(!Arc::ptr_eq(now, then));
        for c in 0..2 {
            assert_eq!(now.column(c), then.column(c));
            assert!(Arc::ptr_eq(
                now.dictionary_arc(c),
                h.table().dictionary_arc(c)
            ));
        }
        assert_eq!((then.cardinality(1), now.cardinality(1)), (7, 8));
    }

    #[test]
    fn combine_works_across_epochs_after_sync() {
        // After appends introduce new dictionary values, a sync re-issues
        // every stored table under the new epoch's dictionaries, so pooling
        // stored samples (gather_multi) must not trip its dictionary-length
        // assertion, and estimates stay sane.
        use sdd_table::{LiveTable, LiveTableConfig};
        let schema = sdd_table::Schema::new(["Store", "Product"]).unwrap();
        let live =
            Arc::new(LiveTable::new(schema, vec![], &LiveTableConfig::in_memory(32)).unwrap());
        live.try_append(&live_test_rows(0, 200), &[]).unwrap();
        let mut h = SampleHandler::with_store(
            TableStore::from(Arc::clone(&live)),
            SampleHandlerConfig {
                capacity: 1_000,
                min_sample_size: 10,
                seed: 5,
                strategy: AllocationStrategy::Dp,
            },
        );
        let header = h.table().clone();
        let trivial = Rule::trivial(2);
        h.scan_and_store(&[(trivial.clone(), 160)]).unwrap();
        // Appended rows use a brand-new Store value, growing the dicts.
        let extra: Vec<[String; 2]> = (0..40)
            .map(|i| ["sNEW".to_owned(), format!("p{}", i % 7)])
            .collect();
        let snap = live.try_append(&extra, &[]).unwrap();
        h.try_sync_to_snapshot(&snap).unwrap();
        let s1 = Rule::from_pairs(&header, &[("Store", "s1")]).unwrap();
        let s = h.try_get_sample(&s1).unwrap();
        assert_eq!(s.mechanism, FetchMechanism::Combine);
        // True count of s1 rows: 50 in the first 200 (i % 4 == 1).
        let est = s.view.total_weight();
        assert!((est - 50.0).abs() < 25.0, "estimate {est}");
    }

    #[test]
    fn clear_resets_store() {
        let t = Arc::new(retail(1));
        let mut h = handler(&t);
        let _ = h.try_get_sample(&Rule::trivial(3)).unwrap();
        assert!(h.n_samples() > 0);
        h.clear();
        assert_eq!(h.n_samples(), 0);
        assert_eq!(h.memory_used(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must hold")]
    fn capacity_below_minss_rejected() {
        let t = Arc::new(retail(1));
        let _ = SampleHandler::new(
            t.clone(),
            SampleHandlerConfig {
                capacity: 100,
                min_sample_size: 500,
                seed: 1,
                strategy: AllocationStrategy::Dp,
            },
        );
    }
}
