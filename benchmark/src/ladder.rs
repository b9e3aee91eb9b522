//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! It replays the first quarter of the workload's tape five ways — once
//! untraced (the reference for tracing overhead), then at the three depths
//! of `shadow.rs`, then over the transports — probes each layer's unit
//! costs (`probes.rs`), and turns the spans into per-layer self times.
//! End-to-end metrics never come from here.

use crate::canary::Canaries;
use crate::driver::{Driver, Recorder, Target, Visit};
use crate::probes;
use crate::report::{provenance, Metric, Outcome};
use crate::scale::{Scale, Sizing, TRACE_SHARE};
use crate::shadow::{ShadowEngine, ShadowExplorer, TracedEngine};
use crate::stats;
use crate::stores;
use crate::tape::{Op, Tape, VisitKind};
use crate::targets::{Http, Inproc, Tcp};
use crate::trace::{ladder_self_ms, Tracer};
use crate::work::Workdir;
use crate::workloads::{explore, live, serve, RunArgs, Workload};
use sdd_server::{
    Client, Engine, EngineConfig, HttpClient, Server, ServerConfig, ServerHandle, TailConfig,
};
use sdd_table::{LiveTable, Table, TableStore};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Visits of the long (explore) kind replayed over each transport; the
/// short dashboard visits replay the whole traced quarter.
const TRANSPORT_EXPLORE_VISITS: usize = 6;
/// Batches the append probe appends.
const PROBE_APPENDS: usize = 5;
/// `bench.ladder_gap_ratio` must land in this range.
pub const LADDER_GAP_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

fn tcp_session(i: usize) -> String {
    format!("t{i}")
}
fn http_session(i: usize) -> String {
    format!("u{i}")
}
fn first_client_session(i: usize) -> String {
    format!("a{i}")
}
fn second_client_session(i: usize) -> String {
    format!("b{i}")
}

/// What the traced run replays.
enum Plan {
    /// Visits, one after the other.
    Visits {
        tape: Tape,
        session: fn(usize) -> String,
    },
    /// Live rounds: an append, think time, two reader steps.
    Rounds {
        tape: Tape,
        rounds: usize,
        csv: PathBuf,
    },
}

/// A store for one replay, built fresh when replays would otherwise see
/// each other's appends.
type StoreFactory<'a> = dyn Fn() -> Result<(TableStore, Option<Arc<LiveTable>>), String> + 'a;

/// The default engine, accepting appends (harmless over a frozen store).
fn engine_config() -> EngineConfig {
    EngineConfig {
        tail: Some(TailConfig::default()),
        ..EngineConfig::default()
    }
}

fn engine_over(store: TableStore) -> Engine {
    Engine::with_store(store, engine_config())
}

/// One replay in progress: a target, what it has measured so far, and
/// where in the plan it stands. The traced run advances its four lanes in
/// lockstep — visit by visit, round by round — so that a host phase (the
/// machine slow for a minute) hits every depth alike and cancels in the
/// differences between them.
struct Lane<'p, T: Target> {
    target: T,
    rec: Recorder,
    plan: &'p Plan,
    probe: bool,
    verify: bool,
    visible_rows: usize,
    columns: Arc<Vec<String>>,
    rounds: Option<(live::Readers, live::AppendSource)>,
}

impl<'p, T: Target> Lane<'p, T> {
    fn new(
        target: T,
        plan: &'p Plan,
        rows: usize,
        sizing: &Sizing,
        (probe, verify): (bool, bool),
        columns: &Arc<Vec<String>>,
    ) -> Result<Self, String> {
        let rounds = match plan {
            Plan::Visits { .. } => None,
            Plan::Rounds { tape, csv, .. } => Some((
                live::Readers::new(tape.clone(), Arc::clone(columns), sizing.live_sessions),
                live::AppendSource::new(csv, sizing.live_seed_rows, sizing.append_rows)?,
            )),
        };
        Ok(Lane {
            target,
            rec: Recorder::default(),
            plan,
            probe,
            verify,
            visible_rows: rows,
            columns: Arc::clone(columns),
            rounds,
        })
    }

    /// Visits or rounds in the plan.
    fn units(&self) -> usize {
        match self.plan {
            Plan::Visits { tape, .. } => tape.visits.len(),
            Plan::Rounds { rounds, .. } => *rounds,
        }
    }

    /// Replays visit (or round) `i`.
    fn advance(&mut self, i: usize, sizing: &Sizing) -> Result<(), String> {
        let mut driver = Driver {
            target: &mut self.target,
            rec: &mut self.rec,
            timed: true,
            probe: self.probe,
            verify: self.verify,
            visible_rows: self.visible_rows,
        };
        match (self.plan, &mut self.rounds) {
            (Plan::Visits { tape, session }, _) => {
                driver.run_visit(Visit::new(
                    tape.kind,
                    tape.visits[i].clone(),
                    session(i),
                    Arc::clone(&self.columns),
                ))?;
            }
            (Plan::Rounds { .. }, Some((readers, source))) => {
                let line = source.next_line()?;
                live::round(&mut driver, readers, line, sizing)?;
            }
            (Plan::Rounds { .. }, None) => unreachable!("rounds state is built with the lane"),
        }
        self.visible_rows = driver.visible_rows;
        Ok(())
    }
}

/// Replays the whole of `plan` against `target`.
fn replay<T: Target>(
    target: T,
    plan: &Plan,
    rows: usize,
    sizing: &Sizing,
    columns: &Arc<Vec<String>>,
) -> Result<Recorder, String> {
    let mut lane = Lane::new(target, plan, rows, sizing, (false, true), columns)?;
    for i in 0..lane.units() {
        lane.advance(i, sizing)?;
    }
    Ok(lane.rec)
}

/// Per-request and think-time spans of one rung, by `(request id, name)`.
struct Rung {
    request: BTreeMap<(u64, &'static str), f64>,
    think: BTreeMap<(u64, &'static str), f64>,
}

impl Rung {
    fn of(tracer: &Tracer) -> Rung {
        let mut rung = Rung {
            request: BTreeMap::new(),
            think: BTreeMap::new(),
        };
        for ((id, think, name), ms) in tracer.by_request_ms() {
            let map = if think {
                &mut rung.think
            } else {
                &mut rung.request
            };
            map.insert((id, name), ms);
        }
        rung
    }

    fn get(map: &BTreeMap<(u64, &'static str), f64>, id: u64, name: &'static str) -> f64 {
        map.get(&(id, name)).copied().unwrap_or(0.0)
    }

    /// Σ of the named spans of request `id`.
    fn sum(map: &BTreeMap<(u64, &'static str), f64>, id: u64, names: &[&'static str]) -> f64 {
        names.iter().map(|n| Self::get(map, id, n)).sum()
    }
}

const GET_SAMPLE: [&str; 3] = [
    "sampling.get_sample.find",
    "sampling.get_sample.combine",
    "sampling.get_sample.create",
];

/// Self time per layer, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    server: f64,
    explorer: f64,
    sampling: f64,
    core: f64,
    table: f64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.server + self.explorer + self.sampling + self.core + self.table
    }

    fn add(&mut self, o: Layers) {
        self.server += o.server;
        self.explorer += o.explorer;
        self.sampling += o.sampling;
        self.core += o.core;
        self.table += o.table;
    }

    /// Every layer at least zero (applied to sums, never to one request).
    fn clamped(self) -> Layers {
        Layers {
            server: self.server.max(0.0),
            explorer: self.explorer.max(0.0),
            sampling: self.sampling.max(0.0),
            core: self.core.max(0.0),
            table: self.table.max(0.0),
        }
    }

    fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("server", self.server),
            ("explorer", self.explorer),
            ("sampling", self.sampling),
            ("core", self.core),
            ("table", self.table),
        ]
    }
}

/// Unit costs the `table` layer's estimated self time is priced with.
struct TableUnits {
    segment_load_ms: f64,
    read_columns_ms: f64,
}

impl TableUnits {
    /// Storage traffic priced at probed unit costs. Every full segment
    /// load into a full residency cache evicts one segment, and a range
    /// read of a few columns never does, so evictions count the former and
    /// the remaining loads are the latter. Marked `estimated` wherever it
    /// is reported: the work happens inside `sampling`'s and `core`'s
    /// scans and cannot be timed from outside them.
    fn price(&self, traffic: Option<&(u64, u64)>) -> f64 {
        let Some(&(loads, evictions)) = traffic else {
            return 0.0;
        };
        let full = evictions.min(loads);
        full as f64 * self.segment_load_ms + (loads - full) as f64 * self.read_columns_ms
    }
}

/// Splits the time of request `id` (or of the think-time work after it)
/// over the layers: each layer's span at one depth minus the spans of the
/// depth below.
fn split(
    id: u64,
    think: bool,
    r1: &Rung,
    r2: &Rung,
    r3: &Rung,
    traffic: Option<&(u64, u64)>,
    units: &TableUnits,
) -> Layers {
    let (m1, m2, m3) = if think {
        (&r1.think, &r2.think, &r3.think)
    } else {
        (&r1.request, &r2.request, &r3.request)
    };
    // Depth 1: the engine's stages; depth 2: everything it spends inside
    // `explorer` (and, for `append`, inside `table`).
    let (outer, stages) = if think {
        (Rung::get(m1, id, "server.think"), 0.0)
    } else {
        (
            Rung::get(m1, id, "server.handle"),
            Rung::sum(m1, id, &["server.parse", "server.serialize"]),
        )
    };
    let explorer_span = Rung::sum(
        m2,
        id,
        &[
            "explorer.op",
            "explorer.open",
            "explorer.close",
            "explorer.think",
        ],
    );
    let append = Rung::get(m3, id, "table.append");
    // Depth 3: what `explorer` spends inside `sampling`, `core` and the
    // shared result cache (which lives in `server`).
    let cache = Rung::get(m3, id, "server.cache");
    let mut sampling = Rung::sum(m3, id, &GET_SAMPLE)
        + Rung::sum(m3, id, &["sampling.sync", "sampling.prefetch_job"]);
    let mut core = Rung::sum(
        m3,
        id,
        &["core.search", "core.cache_key", "core.count_rules"],
    );
    let below_explorer = cache + sampling + core;
    // Segment loads happen inside those scans; move their estimated cost
    // to `table`, never more than the scans took.
    let scans = sampling + Rung::get(m3, id, "core.count_rules");
    let table_est = units.price(traffic).min(scans);
    let from_sampling = table_est.min(sampling);
    sampling -= from_sampling;
    core -= table_est - from_sampling;
    // Differences between depths are left signed here: the depths are
    // separate executions, their noise is symmetric, and it cancels in the
    // sums the shares are made of. (Per-request medians clamp at zero.)
    Layers {
        server: stages + (outer - explorer_span - append) + cache,
        explorer: explorer_span - below_explorer,
        sampling,
        core,
        table: append + table_est,
    }
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(v)
    }
}

fn start_server(store: TableStore, http: bool) -> Result<ServerHandle, String> {
    Server::bind_store(
        store,
        ServerConfig {
            engine: engine_config(),
            http_addr: http.then(|| "127.0.0.1:0".to_owned()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .and_then(Server::spawn)
    .map_err(|e| format!("start server: {e}"))
}

/// The traced run of one workload.
pub fn run(
    args: RunArgs,
    sizing: &Sizing,
    work: &Workdir,
    mut canaries: Canaries,
) -> Result<Outcome, String> {
    let mut metrics: Vec<Metric> = Vec::new();
    let mut info: Vec<Metric> = Vec::new();
    let mut exact: Vec<(String, f64)> = Vec::new();
    let mut samples: Vec<(String, usize)> = Vec::new();
    let started = Instant::now();

    // ---- Inputs and set-up (once; its stages are `table` metrics) -------
    let timed = sizing.timed[args.workload.index()];
    let traced = ((timed as f64 * TRACE_SHARE).round() as usize).max(1);
    let (csv, input_gen_s) = match args.workload {
        Workload::ServeHot => work.marketing_csv()?,
        _ => work.census_csv(sizing.census_rows)?,
    };
    let loaded = match args.workload {
        // The live workload serves the head of the file only.
        Workload::LiveAppend => {
            let t = Instant::now();
            let (header, rows) = stores::read_rows(&csv, 0, sizing.live_seed_rows)?;
            let schema = sdd_table::Schema::new(header).map_err(|e| e.to_string())?;
            let table = Table::from_rows(schema, &rows).map_err(|e| e.to_string())?;
            stores::Built {
                rows: table.n_rows(),
                store: Arc::new(table),
                load_s: t.elapsed().as_secs_f64(),
                build_s: 0.0,
            }
        }
        _ => stores::resident(&csv)?,
    };
    let table: Arc<Table> = Arc::clone(&loaded.store);
    metrics.push(Metric::new("table.load_s", loaded.load_s, "s"));
    metrics.push(Metric::new(
        "table.load_rows_per_s",
        loaded.rows as f64 / loaded.load_s,
        "1/s",
    ));

    let spilled = match args.workload {
        Workload::ExploreSpill => Some(stores::spilling(&csv, sizing, work.scratch())?.store),
        _ => None,
    };
    let factory: Box<StoreFactory<'_>> = match args.workload {
        Workload::ExploreSpill => {
            let st = spilled.clone().expect("built above");
            Box::new(move || Ok((TableStore::Sharded(Arc::clone(&st)), None)))
        }
        Workload::LiveAppend => Box::new(|| {
            let live = stores::live(&csv, sizing)?.store;
            Ok((TableStore::from(Arc::clone(&live)), Some(live)))
        }),
        _ => {
            let t = Arc::clone(&table);
            Box::new(move || Ok((TableStore::Whole(Arc::clone(&t)), None)))
        }
    };
    let columns = stores::column_names(&TableStore::Whole(Arc::clone(&table)));
    let rows = match args.workload {
        Workload::LiveAppend => sizing.live_seed_rows,
        _ => table.n_rows(),
    };

    let plan = match args.workload {
        Workload::ExploreResident | Workload::ExploreSpill => Plan::Visits {
            tape: explore::tape(args.seed, traced),
            session: explore::session_name,
        },
        Workload::ServeHot => Plan::Visits {
            tape: serve::tape(args.seed, traced, sizing),
            session: serve::session_name,
        },
        Workload::LiveAppend => Plan::Rounds {
            tape: live::tape(args.seed, live::visits_needed(traced, sizing)),
            rounds: traced,
            csv: csv.clone(),
        },
    };
    let (kind, tape_digest) = match &plan {
        Plan::Visits { tape, .. } | Plan::Rounds { tape, .. } => (tape.kind, tape.digest()),
    };

    // ---- The four replays, in lockstep ----------------------------------
    let (store, _live) = factory()?;
    let plain_engine = engine_over(store);
    let (store, _live) = factory()?;
    let traced_engine = engine_over(store);
    let (store, live_table) = factory()?;
    let rung2 = ShadowEngine::new(store, live_table);
    let (store, live_table) = factory()?;
    let rung3 = ShadowExplorer::new(store, live_table);
    let mut lane0 = Lane::new(
        Inproc(&plain_engine),
        &plan,
        rows,
        sizing,
        (true, true),
        &columns,
    )?;
    let mut lane1 = Lane::new(
        TracedEngine::new(&traced_engine),
        &plan,
        rows,
        sizing,
        (false, true),
        &columns,
    )?;
    let mut lane2 = Lane::new(rung2, &plan, rows, sizing, (false, true), &columns)?;
    let mut lane3 = Lane::new(rung3, &plan, rows, sizing, (false, false), &columns)?;
    let units = lane0.units();
    let mut lane0_traffic = (0u64, 0u64);
    for i in 0..units {
        if i == units / 2 {
            canaries.read();
        }
        // Whichever lane goes first in a visit finds the table coldest in
        // the CPU caches; take turns, so that no depth is always the one.
        for turn in 0..4 {
            match (i + turn) % 4 {
                0 => {
                    // The spilling store is shared by the lanes; count the
                    // untraced lane's own loads and evictions around its turn.
                    let before = plain_engine.storage_counters();
                    lane0.advance(i, sizing)?;
                    if let (Some(b), Some(a)) = (before, plain_engine.storage_counters()) {
                        lane0_traffic = (lane0_traffic.0 + a.0 - b.0, lane0_traffic.1 + a.1 - b.1);
                    }
                }
                1 => lane1.advance(i, sizing)?,
                2 => lane2.advance(i, sizing)?,
                _ => lane3.advance(i, sizing)?,
            }
        }
    }
    let cache = plain_engine.cache_counters().unwrap_or_default();
    let predict = plain_engine.predict_counters();
    let storage = plain_engine.storage_counters();
    let (untraced, rec1, rec2, rec3) = (lane0.rec, lane1.rec, lane2.rec, lane3.rec);
    let (tracer1, rung2, rung3) = (lane1.target.tracer, lane2.target, lane3.target);

    let mut checks = crate::driver::Checks::default();
    for (name, rec) in [
        ("untraced", &untraced),
        ("depth 1", &rec1),
        ("depth 2", &rec2),
        ("depth 3", &rec3),
    ] {
        checks.ensure(rec.failed == 0 && rec.checks.ok(), || {
            format!("{name} replay failed: {:?}", rec.checks.failures())
        });
    }
    checks.ensure(
        untraced.digest == rec1.digest && rec1.digest == rec2.digest,
        || {
            format!(
                "transcripts differ: untraced {}, depth 1 {}, depth 2 {}",
                untraced.digest.hex(),
                rec1.digest.hex(),
                rec2.digest.hex()
            )
        },
    );
    checks.ensure(rec1.drill_digest == rec3.drill_digest, || {
        format!(
            "depth 3 displays other rules: {} vs {}",
            rec3.drill_digest.hex(),
            rec1.drill_digest.hex()
        )
    });

    // ---- Unit-cost probes --------------------------------------------------
    let table_probe = probes::table(&table, sizing, work.scratch())?;
    let units = TableUnits {
        segment_load_ms: table_probe.segment_load_ms,
        read_columns_ms: table_probe.read_columns_ms,
    };
    metrics.extend(table_probe.metrics);
    exact.extend(table_probe.exact);
    {
        // Seed with the head of the input file, append what follows it.
        let file_rows = match args.workload {
            Workload::ServeHot => table.n_rows(),
            _ => sizing.census_rows,
        };
        let batch = sizing.append_rows;
        let seed = sizing
            .live_seed_rows
            .min(file_rows.saturating_sub(PROBE_APPENDS * batch));
        let (header, seed_rows) = stores::read_rows(&csv, 0, seed)?;
        let batches: Vec<Vec<Vec<String>>> = (0..PROBE_APPENDS)
            .map(|b| stores::read_rows(&csv, seed + b * batch, batch).map(|(_, r)| r))
            .collect::<Result<_, _>>()?;
        let (m, e) = probes::live(&header, &seed_rows, &batches, sizing)?;
        metrics.extend(m);
        exact.extend(e);
    }

    // ---- Spans → per-layer metrics -----------------------------------------
    let tracer2 = rung2.tracer;
    let ShadowExplorer {
        tracer: tracer3,
        searches,
        request_traffic,
        think_traffic,
        ..
    } = rung3;
    let (r1, r2, r3) = (Rung::of(&tracer1), Rung::of(&tracer2), Rung::of(&tracer3));
    let n = rec1.op_log.len() as u64;
    let mut request_layers = Layers::default();
    let mut think_layers = Layers::default();
    let mut handle_self = Vec::new();
    for id in 1..=n {
        let op = rec1.op_log[id as usize - 1];
        let l = split(id, false, &r1, &r2, &r3, request_traffic.get(&id), &units);
        request_layers.add(l);
        if op != Op::Append {
            handle_self.push(
                ladder_self_ms(
                    Rung::get(&r1.request, id, "server.handle"),
                    Rung::sum(
                        &r2.request,
                        id,
                        &["explorer.op", "explorer.open", "explorer.close"],
                    ),
                ) * 1e3,
            );
        }
        if r1.think.contains_key(&(id, "server.think")) {
            think_layers.add(split(
                id,
                true,
                &r1,
                &r2,
                &r3,
                think_traffic.get(&id),
                &units,
            ));
        }
    }
    let (request_layers, think_layers) = (request_layers.clamped(), think_layers.clamped());
    let expand_self_us = {
        // Signed mean: a few microseconds of glue around calls that take
        // milliseconds is below the noise of any one request.
        let drills: Vec<u64> = (1..=n)
            .filter(|id| rec1.op_log[*id as usize - 1].is_drill())
            .collect();
        let total: f64 = drills
            .iter()
            .map(|&id| split(id, false, &r1, &r2, &r3, request_traffic.get(&id), &units).explorer)
            .sum();
        total * 1e3 / drills.len().max(1) as f64
    };
    let d1 = tracer1.durations_ms();
    let d2 = tracer2.durations_ms();
    let d3 = tracer3.durations_ms();
    let med = |d: &BTreeMap<&'static str, Vec<f64>>, name: &str| {
        median_or_nan(d.get(name).map_or(&[], Vec::as_slice))
    };
    // Parse and serialize of everything but `append` (whose line is a
    // thousand rows long and has a metric of its own).
    let small = |name: &'static str| -> Vec<f64> {
        (1..=n)
            .filter(|id| rec1.op_log[*id as usize - 1] != Op::Append)
            .map(|id| Rung::get(&r1.request, id, name) * 1e3)
            .collect()
    };
    metrics.push(Metric::new(
        "server.parse_us",
        median_or_nan(&small("server.parse")),
        "us",
    ));
    metrics.push(Metric::new(
        "server.serialize_us",
        median_or_nan(&small("server.serialize")),
        "us",
    ));
    metrics.push(Metric::new(
        "server.handle_self_us",
        median_or_nan(&handle_self),
        "us",
    ));
    metrics.push(Metric::new("explorer.expand_self_us", expand_self_us, "us"));
    metrics.push(Metric::new(
        "explorer.prefetch_ms",
        med(&d2, "explorer.prefetch"),
        "ms",
    ));
    metrics.push(Metric::new(
        "explorer.refresh_ms",
        med(&d2, "explorer.refresh"),
        "ms",
    ));
    metrics.push(Metric::new(
        "explorer.advance_epoch_us",
        med(&d2, "explorer.advance_epoch") * 1e3,
        "us",
    ));
    let memory_us: Vec<f64> = ["sampling.get_sample.find", "sampling.get_sample.combine"]
        .iter()
        .flat_map(|n| d3.get(n).cloned().unwrap_or_default())
        .map(|ms| ms * 1e3)
        .collect();
    metrics.push(Metric::new(
        "sampling.get_sample_memory_us",
        median_or_nan(&memory_us),
        "us",
    ));
    metrics.push(Metric::new(
        "sampling.get_sample_create_ms",
        med(&d3, "sampling.get_sample.create"),
        "ms",
    ));
    metrics.push(Metric::new(
        "sampling.prefetch_job_ms",
        med(&d3, "sampling.prefetch_job"),
        "ms",
    ));
    metrics.push(Metric::new(
        "sampling.alloc_ms",
        med(&d3, "sampling.alloc"),
        "ms",
    ));
    if let Some(sync) = d3.get("sampling.sync") {
        // The tape itself syncs (live workload): report those calls
        // instead of the probe's.
        metrics.retain(|m| m.name != "sampling.sync_ms");
        metrics.push(Metric::new("sampling.sync_ms", stats::median(sync), "ms"));
    }
    metrics.push(Metric::new("core.search_ms", med(&d3, "core.search"), "ms"));
    for (name, d) in [("depth1", &d1), ("depth2", &d2), ("depth3", &d3)] {
        for (span, v) in d {
            info.push(Metric::new(
                &format!("span_p50_ms.{name}.{span}"),
                stats::median(v),
                "ms",
            ));
            samples.push((format!("{name}.{span}"), v.len()));
        }
    }

    let per_search = |v: usize| v as f64 / searches.searches.max(1) as f64;
    exact.extend([
        (
            "core.brs_passes".to_owned(),
            per_search(searches.stats.passes),
        ),
        (
            "core.brs_counted".to_owned(),
            per_search(searches.stats.counted),
        ),
        (
            "core.brs_pruned_ratio".to_owned(),
            searches.stats.pruned as f64 / searches.stats.generated.max(1) as f64,
        ),
        ("core.searches".to_owned(), searches.searches as f64),
    ]);

    // ---- Accuracy guards and exact counts (from the untraced replay) -------
    metrics.push(Metric::new(
        "explorer.count_rel_err_p50",
        median_or_nan(&untraced.count_rel_err),
        "ratio",
    ));
    metrics.push(Metric::new(
        "explorer.ci_coverage",
        untraced.ci_hits as f64 / untraced.ci_total.max(1) as f64,
        "ratio",
    ));
    samples.push(("explorer.ci_coverage".to_owned(), untraced.ci_total));
    let (loads, evictions) = lane0_traffic;
    let peak = storage.map_or(0, |s| s.3);
    let per_visit = |v: u64| v as f64 / untraced.totals.visits.max(1) as f64;
    exact.push(("requests".to_owned(), untraced.requests as f64));
    exact.extend(untraced.totals.exact());
    exact.extend([
        ("table.loads_per_visit".to_owned(), per_visit(loads)),
        ("table.evictions_per_visit".to_owned(), per_visit(evictions)),
        ("table.peak_resident".to_owned(), peak as f64),
    ]);
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    metrics.extend([
        Metric::new(
            "server.cache_hit_ratio",
            cache.hits as f64 / lookups,
            "ratio",
        ),
        Metric::new("server.cache_evictions", cache.evictions as f64, "count"),
        Metric::new("server.cache_bytes", cache.bytes as f64, "B"),
        Metric::new(
            "server.predict_predictions",
            predict.predictions as f64,
            "count",
        ),
        Metric::new(
            "server.predict_speculations",
            predict.speculations as f64,
            "count",
        ),
    ]);

    // ---- The ladder's own health -------------------------------------------
    let untraced_request_ms: f64 = untraced.latency_ms.values().flatten().sum();
    let traced_request_ms: f64 = (1..=n)
        .map(|id| Rung::get(&r1.request, id, "request"))
        .sum();
    let gap = request_layers.total() / untraced_request_ms;
    metrics.push(Metric::new(
        "bench.trace_overhead_ratio",
        traced_request_ms / untraced_request_ms,
        "ratio",
    ));
    metrics.push(Metric::new("bench.ladder_gap_ratio", gap, "ratio"));
    if args.scale == Scale::Full
        && matches!(
            args.workload,
            Workload::ExploreResident | Workload::ServeHot
        )
    {
        checks.ensure(LADDER_GAP_RANGE.contains(&gap), || {
            format!("layer self times sum to {gap:.3} of the untraced request time")
        });
    }
    // ---- Transports ----------------------------------------------------------
    let transport_tape = match &plan {
        Plan::Visits { tape, .. } | Plan::Rounds { tape, .. } => tape.prefix(match kind {
            VisitKind::Explore => TRANSPORT_EXPLORE_VISITS.min(tape.visits.len()),
            VisitKind::Dashboard => tape.visits.len(),
        }),
    };
    let whole = Plan::Visits {
        tape: transport_tape.clone(),
        session: tcp_session,
    };
    // Requests that find their session idle: `open`, `stats` (it follows
    // `rules`) and `close`. Every other request follows a drill-down, and
    // over a socket it then waits for the server's background worker to
    // finish that drill-down's prefetch — a wait, not a transport cost.
    let idle_session_latencies = |rec: &Recorder| -> Vec<f64> {
        [Op::Open, Op::Stats, Op::Close]
            .iter()
            .flat_map(|op| rec.latencies(*op).iter().copied())
            .collect()
    };
    let (store, _) = factory()?;
    let engine = engine_over(store);
    let inproc = replay(Inproc(&engine), &whole, rows, sizing, &columns)?;
    drop(engine);
    let (store, _) = factory()?;
    let server = start_server(store, true)?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let tcp = replay(Tcp(client), &whole, rows, sizing, &columns)?;
    let one_client_wall = t.elapsed().as_secs_f64();
    let http_addr = server.http_addr().ok_or("no HTTP listener")?;
    let http_plan = Plan::Visits {
        tape: transport_tape.clone(),
        session: http_session,
    };
    let http_client = HttpClient::connect(http_addr).map_err(|e| format!("connect: {e}"))?;
    let http = replay(Http(http_client), &http_plan, rows, sizing, &columns)?;
    server.shutdown();
    checks.ensure(inproc.digest == tcp.digest, || {
        "TCP transcript differs from the in-process one".to_owned()
    });
    checks.ensure(tcp.drill_digest == http.drill_digest, || {
        "HTTP displays other rules than TCP".to_owned()
    });
    for (name, rec) in [("in-process", &inproc), ("TCP", &tcp), ("HTTP", &http)] {
        checks.ensure(rec.failed == 0 && rec.checks.ok(), || {
            format!(
                "{name} transport replay failed: {:?}",
                rec.checks.failures()
            )
        });
    }
    let diff_us = |a: &Recorder, b: &Recorder| -> Vec<f64> {
        idle_session_latencies(a)
            .iter()
            .zip(idle_session_latencies(b))
            .map(|(x, y)| (x - y) * 1e3)
            .collect()
    };
    let transport = diff_us(&tcp, &inproc);
    metrics.push(Metric::new(
        "server.transport_us",
        median_or_nan(&transport),
        "us",
    ));
    metrics.push(Metric::new(
        "server.http_overhead_us",
        median_or_nan(&diff_us(&http, &tcp)),
        "us",
    ));
    samples.push(("server.transport_us".to_owned(), transport.len()));

    // One client replayed the whole transport tape above; now two clients
    // replay a half each at the same time. Same work, and the ratio of the
    // walls is what a second client buys.
    let halves: [Tape; 2] = {
        let mid = transport_tape.visits.len() / 2;
        [
            transport_tape.prefix(mid),
            Tape {
                kind,
                visits: transport_tape.visits[mid..].to_vec(),
            },
        ]
    };
    let two_client_wall = {
        let (store, _) = factory()?;
        let server = start_server(store, false)?;
        let addr = server.addr();
        let t = Instant::now();
        let results: Vec<Result<Recorder, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = halves
                .iter()
                .zip([first_client_session, second_client_session])
                .map(|(tape, session)| {
                    let columns = &columns;
                    s.spawn(move || {
                        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                        let plan = Plan::Visits {
                            tape: tape.clone(),
                            session,
                        };
                        replay(Tcp(client), &plan, rows, sizing, columns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client panicked".to_owned()))
                })
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        server.shutdown();
        for r in results {
            let rec = r?;
            checks.ensure(rec.failed == 0 && rec.checks.ok(), || {
                format!("two-client replay failed: {:?}", rec.checks.failures())
            });
        }
        wall
    };
    metrics.push(Metric::new(
        "server.concurrency_scaling",
        one_client_wall / two_client_wall,
        "ratio",
    ));

    // ---- Shares --------------------------------------------------------------
    let mut request_layers = request_layers;
    if args.workload == Workload::ServeHot {
        // This workload's timed run goes over TCP, so every request also
        // pays the socket round trip — `server` code on both ends.
        request_layers.server += median_or_nan(&transport).max(0.0) / 1e3 * n as f64;
    }
    let mut busy = request_layers;
    busy.add(think_layers);
    for (scope, layers) in [
        ("request", request_layers),
        ("think", think_layers),
        ("busy", busy),
    ] {
        for (layer, ms) in layers.named() {
            info.push(Metric::new(
                &format!("self_share.{scope}.{layer}"),
                ms / layers.total().max(f64::MIN_POSITIVE),
                "ratio",
            ));
        }
        info.push(Metric::new(
            &format!("self_ms.{scope}.total"),
            layers.total(),
            "ms",
        ));
    }
    info.push(Metric::new(
        "self_ms.busy.table_estimated",
        (1..=n)
            .map(|id| units.price(request_traffic.get(&id)) + units.price(think_traffic.get(&id)))
            .sum(),
        "ms",
    ));

    // ---- Probes that change the thread count: last, with no thread left ---
    metrics.extend(probes::core(&table, sizing)?);
    metrics.extend(probes::sampling(&table, kind)?);
    canaries.read();

    metrics.push(Metric::new("bench.input_gen_s", input_gen_s, "s"));
    metrics.push(Metric::new(
        "bench.calibration_ms",
        stats::median(&canaries.hash_ms),
        "ms",
    ));
    metrics.push(Metric::new(
        "bench.calibration_scan_ms",
        median_or_nan(&canaries.scan_ms),
        "ms",
    ));

    // Exactly the catalogue's list, in its order and with its units; the
    // exact counts among it are metrics too (and stay in `exact` for
    // `compare`).
    let metrics: Vec<Metric> = crate::catalogue::PER_LAYER
        .iter()
        .map(|spec| {
            let timed = metrics
                .iter()
                .find(|m| m.name == spec.name)
                .map(|m| m.value);
            let counted = exact.iter().find(|(n, _)| n == spec.name).map(|(_, v)| *v);
            timed
                .or(counted)
                .map(|value| Metric::new(spec.name, value, spec.unit))
                .ok_or_else(|| format!("the traced run did not measure {}", spec.name))
        })
        .collect::<Result<_, _>>()?;
    for m in &metrics {
        checks.ensure(m.value.is_finite(), || {
            format!("{} has no samples in this run", m.name)
        });
    }

    let trace_file = work.trace_file(args.workload.name());
    std::fs::write(
        &trace_file,
        format!(
            "{{\"depth1\":{},\n\"depth2\":{},\n\"depth3\":{}}}\n",
            tracer1.to_json(),
            tracer2.to_json(),
            tracer3.to_json()
        ),
    )
    .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let attempted = untraced.attempted + rec1.attempted + rec2.attempted + rec3.attempted;
    let failed = untraced.failed + rec1.failed + rec2.failed + rec3.failed;
    Ok(Outcome {
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        traced: true,
        metrics,
        attempted,
        failed,
        checks,
        transcript_digest: untraced.digest.hex(),
        checkpoints: Vec::new(),
        exact,
        samples,
        info,
        timed_phase_s: started.elapsed().as_secs_f64(),
        provenance: provenance(sizing, args.seed, &tape_digest, canaries.to_json()),
    })
}
