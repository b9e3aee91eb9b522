//! `explore_resident` and `explore_spill`: one analyst at a time walking
//! the long visit over the 1 M-row census table, in-process. Every visit
//! has a sampling seed of its own, so the shared result cache never
//! answers and sampling (Create and prefetch scans) plus the search on the
//! samples do the work. The spilling variant replays a prefix of the same
//! tape over a 32-shard store that may keep 3 segments decoded, which
//! moves the cost into segment loads and the sharded scan twins.

use super::{RunArgs, TimedRun, Workload};
use crate::canary::Canaries;
use crate::driver::{Driver, Recorder, Visit};
use crate::scale::{Sizing, SETUPS};
use crate::stores;
use crate::tape::{Tape, VisitKind};
use crate::targets::Inproc;
use crate::work::Workdir;
use sdd_server::{Engine, EngineConfig};
use sdd_table::TableStore;
use std::sync::Arc;
use std::time::Instant;

/// Visits of the spilling run replayed over a monolithic table as well, in
/// the same process: the two transcripts must be byte-identical.
const PARITY_VISITS: usize = 6;
/// A cumulative digest is kept after every this many visits.
pub const CHECKPOINT_EVERY: usize = 4;

/// The tape both explore workloads replay a prefix of.
pub fn tape(seed: u64, visits: usize) -> Tape {
    Tape::distinct(VisitKind::Explore, seed, visits)
}

/// The session name of visit `i`.
pub fn session_name(i: usize) -> String {
    format!("v{i}")
}

/// Replays visits `range` of `tape` in-process against `engine`; visits
/// numbered below `warmup` are untimed. Returns the cumulative digest
/// checkpoints it passed.
pub fn replay(
    engine: &Engine,
    tape: &Tape,
    range: std::ops::Range<usize>,
    warmup: usize,
    rec: &mut Recorder,
) -> Result<Vec<(usize, String)>, String> {
    let columns = stores::column_names(engine.store());
    let mut target = Inproc(engine);
    let mut driver = Driver {
        target: &mut target,
        rec,
        timed: false,
        probe: true,
        verify: true,
        visible_rows: engine.store().n_rows(),
    };
    let mut checkpoints = Vec::new();
    for i in range {
        driver.timed = i >= warmup;
        let visit = Visit::new(
            tape.kind,
            tape.visits[i].clone(),
            session_name(i),
            Arc::clone(&columns),
        );
        driver.run_visit(visit)?;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            checkpoints.push((i + 1, driver.rec.digest.hex()));
        }
    }
    Ok(checkpoints)
}

/// Builds the workload's store `SETUPS` times; returns the last one.
pub fn set_up(
    workload: Workload,
    sizing: &Sizing,
    work: &Workdir,
) -> Result<(TableStore, Vec<f64>), String> {
    let (csv, _) = work.census_csv(sizing.census_rows)?;
    stores::repeated(SETUPS, || match workload {
        Workload::ExploreSpill => {
            stores::spilling(&csv, sizing, work.scratch()).map(|b| TableStore::Sharded(b.store))
        }
        _ => stores::resident(&csv).map(|b| TableStore::Whole(b.store)),
    })
}

/// The timed run of either explore workload.
pub fn timed(
    args: RunArgs,
    sizing: &Sizing,
    work: &Workdir,
    canaries: &mut Canaries,
) -> Result<TimedRun, String> {
    let timed_visits = sizing.timed[args.workload.index()];
    let warmup = Sizing::warmup(timed_visits);
    let tape = tape(args.seed, warmup + timed_visits);
    let (store, setup_s) = set_up(args.workload, sizing, work)?;

    let mut rec = Recorder::default();
    if args.workload == Workload::ExploreSpill {
        check_parity(&store, &tape, sizing, work, &mut rec)?;
    }

    let engine = Engine::with_store(store, EngineConfig::default());
    let t = Instant::now();
    let (half, end) = (warmup + timed_visits / 2, tape.visits.len());
    let mut checkpoints = replay(&engine, &tape, 0..half, warmup, &mut rec)?;
    canaries.read();
    checkpoints.extend(replay(&engine, &tape, half..end, warmup, &mut rec)?);
    let timed_phase_s = t.elapsed().as_secs_f64();

    let mut exact = Vec::new();
    if let Some((loads, evictions, _spills, peak)) = engine.storage_counters() {
        let visits = tape.visits.len() as f64;
        exact.push(("table.loads_per_visit".to_owned(), loads as f64 / visits));
        exact.push((
            "table.evictions_per_visit".to_owned(),
            evictions as f64 / visits,
        ));
        exact.push(("table.peak_resident".to_owned(), peak as f64));
    }
    Ok(TimedRun {
        rps_seconds: rec.busy_s,
        rec,
        setup_s,
        timed_phase_s,
        checkpoints,
        exact,
        tape_digest: tape.digest(),
    })
}

/// The determinism contract at scale, on every spilling run: the first
/// visits of the tape answer byte-identically over the spilling store and
/// over a monolithic table parsed from the same file.
fn check_parity(
    spilling: &TableStore,
    tape: &Tape,
    sizing: &Sizing,
    work: &Workdir,
    rec: &mut Recorder,
) -> Result<(), String> {
    let prefix = tape.prefix(PARITY_VISITS);
    let n = prefix.visits.len();
    let digest_over = |store: TableStore| -> Result<String, String> {
        let engine = Engine::with_store(store, EngineConfig::default());
        let mut scratch = Recorder::default();
        replay(&engine, &prefix, 0..n, n, &mut scratch)?;
        if !scratch.checks.ok() || scratch.failed > 0 {
            return Err(format!(
                "parity replay failed: {:?}",
                scratch.checks.failures()
            ));
        }
        Ok(scratch.digest.hex())
    };
    let (csv, _) = work.census_csv(sizing.census_rows)?;
    let monolithic = digest_over(TableStore::Whole(stores::resident(&csv)?.store))?;
    let sharded = digest_over(spilling.clone())?;
    rec.checks.ensure(monolithic == sharded, || {
        format!(
            "first {PARITY_VISITS} visits: spilling digest {sharded} != monolithic digest {monolithic}"
        )
    });
    Ok(())
}
