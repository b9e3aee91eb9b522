//! `serve_hot`: a real server on a loopback port, one client replaying
//! short dashboard visits whose profile is drawn Zipf(1.1) from 16. The
//! table is tiny (9 409 rows) and popular profiles repeat, so nearly every
//! search is a result-cache hit: what is left is the fixed cost of a
//! request — parse, registry, session lock, cache lookup, serialize,
//! socket — the mirror image of the explore workloads.

use super::{RunArgs, TimedRun};
use crate::canary::Canaries;
use crate::driver::{Driver, Mechanism, Recorder, Target, Visit};
use crate::rng::Digest;
use crate::scale::{Sizing, SERVE_SETUPS};
use crate::stores;
use crate::tape::{Tape, VisitKind, VisitPlan};
use crate::targets::{Inproc, Tcp};
use crate::work::Workdir;
use sdd_server::{Client, Engine, EngineConfig, Server, ServerConfig, ServerHandle};
use sdd_table::{Table, TableStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What the in-process replay of one profile shows: how each drill-down of
/// its visit is answered, and the digest of its replies.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Mechanism of each drill-down, in order.
    pub mechanisms: Arc<Vec<Mechanism>>,
    /// Digest over the visit's replies after `open`.
    pub digest: Digest,
}

/// Reference replays by `(sampling seed, refresh?)`.
pub type References = BTreeMap<(u64, bool), Reference>;

/// The client's tape.
pub fn tape(seed: u64, visits: usize, sizing: &Sizing) -> Tape {
    Tape::profiled(
        VisitKind::Dashboard,
        seed,
        visits,
        sizing.profiles,
        sizing.profile_skew,
    )
}

/// The session name of visit `i`.
pub fn session_name(i: usize) -> String {
    format!("d{i}")
}

/// Builds the served table and starts a server on an ephemeral loopback
/// port — the whole of what `setup_s` times for this workload.
pub fn start_server(csv: &std::path::Path) -> Result<ServerHandle, String> {
    let table = stores::resident(csv)?.store;
    Server::bind(table, ServerConfig::default(), "127.0.0.1:0")
        .and_then(Server::spawn)
        .map_err(|e| format!("start server: {e}"))
}

/// Replays every profile of the run once in-process, with and without the
/// closing refresh, on an engine of its own. Sessions share nothing but
/// the table, so a profile's mechanisms and reply bytes are the same here
/// as on the server under test — which is what the run then checks.
pub fn references(table: &Arc<Table>, seed: u64, sizing: &Sizing) -> Result<References, String> {
    let engine = Engine::new(Arc::clone(table), EngineConfig::default());
    let columns = stores::column_names(&TableStore::Whole(Arc::clone(table)));
    let mut out = References::new();
    let mut rec = Recorder::default();
    for (p, profile) in Tape::profiles(seed, sizing.profiles)
        .into_iter()
        .enumerate()
    {
        for refresh in [false, true] {
            let plan = VisitPlan {
                refresh,
                ..profile.clone()
            };
            let mut target = Inproc(&engine);
            let mut driver = Driver {
                target: &mut target,
                rec: &mut rec,
                timed: true,
                probe: true,
                verify: true,
                visible_rows: table.n_rows(),
            };
            let visit = Visit::new(
                VisitKind::Dashboard,
                plan,
                format!("ref{p}r{}", u8::from(refresh)),
                Arc::clone(&columns),
            );
            let visit = driver.run_visit(visit)?;
            out.insert(
                (profile.sampling_seed, refresh),
                Reference {
                    mechanisms: Arc::new(visit.mechanisms),
                    digest: visit.digest,
                },
            );
        }
    }
    if !rec.checks.ok() || rec.failed > 0 {
        return Err(format!(
            "reference replay failed: {:?}",
            rec.checks.failures()
        ));
    }
    Ok(out)
}

/// Replays visits `range` of `tape` over `driver`'s target, checking each
/// session's transcript against the in-process replay of its profile.
pub fn play<T: Target>(
    driver: &mut Driver<'_, T>,
    tape: &Tape,
    range: std::ops::Range<usize>,
    refs: &References,
    columns: &Arc<Vec<String>>,
) -> Result<(), String> {
    for i in range {
        let plan = &tape.visits[i];
        let reference = refs
            .get(&(plan.sampling_seed, plan.refresh))
            .ok_or("visit of an unknown profile")?;
        let visit = Visit::new(
            tape.kind,
            plan.clone(),
            session_name(i),
            Arc::clone(columns),
        )
        .with_known_mechanisms(Arc::clone(&reference.mechanisms));
        let visit = driver.run_visit(visit)?;
        let (got, want) = (visit.digest, reference.digest);
        driver.rec.checks.ensure(got == want, || {
            format!(
                "session {}: transcript {} differs from its profile's in-process replay {}",
                visit.session(),
                got.hex(),
                want.hex()
            )
        });
    }
    Ok(())
}

/// The timed run.
pub fn timed(
    args: RunArgs,
    sizing: &Sizing,
    work: &Workdir,
    canaries: &mut Canaries,
) -> Result<TimedRun, String> {
    let timed_visits = sizing.timed[args.workload.index()];
    let warmup = Sizing::warmup(timed_visits);
    let (csv, _) = work.marketing_csv()?;
    let (server, setup_s) = stores::repeated(SERVE_SETUPS, || start_server(&csv))?;
    let table = Arc::clone(server.engine().table());
    let refs = references(&table, args.seed, sizing)?;
    let columns = stores::column_names(server.engine().store());
    canaries.read();

    let tape = tape(args.seed, warmup + timed_visits, sizing);
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut target = Tcp(client);
    let mut rec = Recorder::default();
    let mut driver = Driver {
        target: &mut target,
        rec: &mut rec,
        timed: false,
        probe: false,
        verify: true,
        visible_rows: table.n_rows(),
    };
    play(&mut driver, &tape, 0..warmup, &refs, &columns)?;
    driver.timed = true;
    let t = Instant::now();
    play(
        &mut driver,
        &tape,
        warmup..tape.visits.len(),
        &refs,
        &columns,
    )?;
    let timed_phase_s = t.elapsed().as_secs_f64();
    server.shutdown();
    Ok(TimedRun {
        rps_seconds: timed_phase_s,
        rec,
        setup_s,
        timed_phase_s,
        checkpoints: Vec::new(),
        exact: Vec::new(),
        tape_digest: tape.digest(),
    })
}
