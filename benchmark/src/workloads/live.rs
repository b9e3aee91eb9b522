//! `live_append`: writes beside reads. A live table seeded with 200 000
//! census rows grows by one 1 000-row `append` per round; eight long-lived
//! analyst sessions take turns, two script steps per round, so every
//! reader request starts by catching its samples up with the rows that
//! arrived since (`try_advance_epoch`), and every result-cache entry dies
//! at the next append. A read-path gain bought with append cost,
//! maintenance cost or epoch invalidation shows here.

use super::{RunArgs, TimedRun};
use crate::canary::Canaries;
use crate::driver::{Driver, Recorder, Stepped, Target, Visit};
use crate::scale::{Sizing, SETUPS};
use crate::stores;
use crate::tape::{Op, ScriptRequest, Tape, VisitKind};
use crate::targets::Inproc;
use crate::work::Workdir;
use sdd_server::{Engine, EngineConfig, Request, TailConfig};
use sdd_table::csv::RecordReader;
use sdd_table::{LiveTable, TableStore};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A cumulative digest is kept after every this many rounds.
const CHECKPOINT_EVERY: usize = 16;

/// Renders `append` request lines from the rows of the input file that
/// follow the seeded head, one batch per call, reading the file as it
/// goes (a run's batches never sit in memory together).
pub struct AppendSource {
    csv: PathBuf,
    skip: usize,
    batch: usize,
    reader: RecordReader<BufReader<File>>,
}

impl AppendSource {
    /// Batches of `batch` rows, starting after the first `skip` data rows.
    pub fn new(csv: &Path, skip: usize, batch: usize) -> Result<AppendSource, String> {
        Ok(AppendSource {
            csv: csv.to_path_buf(),
            skip,
            batch,
            reader: Self::open(csv, skip)?,
        })
    }

    fn open(csv: &Path, skip: usize) -> Result<RecordReader<BufReader<File>>, String> {
        let file = File::open(csv).map_err(|e| format!("open {}: {e}", csv.display()))?;
        let mut reader = RecordReader::new(BufReader::new(file));
        // The header, then the rows the live head was seeded with.
        for _ in 0..=skip {
            reader
                .next()
                .ok_or("input file shorter than the seeded head")?
                .map_err(|e| e.to_string())?;
        }
        Ok(reader)
    }

    /// The next `append` request line. When the file runs out the source
    /// starts over after the head: the tape stays a function of its
    /// constants however long the run.
    pub fn next_line(&mut self) -> Result<String, String> {
        let mut rows = Vec::with_capacity(self.batch);
        while rows.len() < self.batch {
            match self.reader.next() {
                Some(row) => rows.push(row.map_err(|e| e.to_string())?),
                None => self.reader = Self::open(&self.csv, self.skip)?,
            }
        }
        Ok(Request::Append {
            rows,
            measures: Vec::new(),
        }
        .to_json()
        .to_string())
    }
}

/// Builds the live table (seeded head) and an engine that accepts appends.
pub fn set_up(csv: &Path, sizing: &Sizing) -> Result<(Engine, Arc<LiveTable>), String> {
    let live = stores::live(csv, sizing)?.store;
    let engine = Engine::with_store(
        TableStore::from(Arc::clone(&live)),
        EngineConfig {
            tail: Some(TailConfig::default()),
            ..EngineConfig::default()
        },
    );
    Ok((engine, live))
}

/// The reader sessions' tape: visit `n` is the `n`-th visit any slot
/// starts.
pub fn tape(seed: u64, visits: usize) -> Tape {
    Tape::distinct(VisitKind::Explore, seed, visits)
}

/// Upper bound on the visits `rounds` rounds can start (every visit has at
/// least 9 requests).
pub fn visits_needed(rounds: usize, sizing: &Sizing) -> usize {
    rounds * sizing.live_steps_per_round / 9 + sizing.live_sessions + 1
}

/// The reader side of the workload: `live_sessions` slots, each holding
/// the visit it is in the middle of.
pub struct Readers {
    tape: Tape,
    columns: Arc<Vec<String>>,
    slots: Vec<Option<Visit>>,
    next_visit: usize,
    next_slot: usize,
}

impl Readers {
    /// Empty slots over `tape`.
    pub fn new(tape: Tape, columns: Arc<Vec<String>>, sessions: usize) -> Readers {
        Readers {
            tape,
            columns,
            slots: (0..sessions).map(|_| None).collect(),
            next_visit: 0,
            next_slot: 0,
        }
    }

    /// Visits started so far.
    pub fn visits_started(&self) -> usize {
        self.next_visit
    }

    /// Runs the think-time work of every session that has some pending —
    /// what the server's background worker would do between requests.
    pub fn think<T: Target>(&mut self, driver: &mut Driver<'_, T>) -> Result<(), String> {
        for visit in self.slots.iter_mut().flatten() {
            driver.think(visit)?;
        }
        Ok(())
    }

    /// One script step of the next slot in turn: the next request of its
    /// visit, or — when that visit is over — the `open` of a new one.
    pub fn step<T: Target>(&mut self, driver: &mut Driver<'_, T>) -> Result<(), String> {
        let slot = self.next_slot;
        self.next_slot = (slot + 1) % self.slots.len();
        loop {
            if self.slots[slot].is_none() {
                let n = self.next_visit;
                let plan = self
                    .tape
                    .visits
                    .get(n)
                    .ok_or("the live tape ran out of visits")?
                    .clone();
                self.next_visit += 1;
                self.slots[slot] = Some(Visit::new(
                    self.tape.kind,
                    plan,
                    format!("v{n}"),
                    Arc::clone(&self.columns),
                ));
            }
            let visit = self.slots[slot].as_mut().expect("slot filled above");
            match driver.step(visit)? {
                Stepped::Request => return Ok(()),
                Stepped::Finished | Stepped::Abandoned => self.slots[slot] = None,
            }
        }
    }
}

/// One round: an `append`, the think-time work it leaves the sessions
/// with, then `live_steps_per_round` reader steps.
pub fn round<T: Target>(
    driver: &mut Driver<'_, T>,
    readers: &mut Readers,
    append_line: String,
    sizing: &Sizing,
) -> Result<(), String> {
    let append = ScriptRequest {
        op: Op::Append,
        line: append_line,
    };
    let t = Instant::now();
    let reply = driver.target.call(&append)?;
    let s = t.elapsed().as_secs_f64();
    driver.rec.attempted += 1;
    driver.rec.op_log.push(Op::Append);
    driver.rec.digest.record(&reply.line);
    let ok = reply.line.starts_with(r#"{"ok":true"#);
    if !ok {
        driver.rec.failed += 1;
    }
    driver
        .rec
        .checks
        .ensure(ok, || format!("append answered {}", reply.line));
    if driver.timed {
        driver.rec.requests += 1;
        driver.rec.busy_s += s;
        driver
            .rec
            .latency_ms
            .entry(Op::Append)
            .or_default()
            .push(s * 1e3);
    }
    driver.visible_rows += sizing.append_rows;
    readers.think(driver)?;
    for _ in 0..sizing.live_steps_per_round {
        readers.step(driver)?;
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
    let timed_rounds = sizing.timed[args.workload.index()];
    let warmup = Sizing::warmup(timed_rounds);
    let rounds = warmup + timed_rounds;
    let (csv, _) = work.census_csv(sizing.census_rows)?;
    let ((engine, live), setup_s) = stores::repeated(SETUPS, || set_up(&csv, sizing))?;

    let tape = tape(args.seed, visits_needed(rounds, sizing));
    let mut readers = Readers::new(
        tape.clone(),
        stores::column_names(engine.store()),
        sizing.live_sessions,
    );
    let mut source = AppendSource::new(&csv, sizing.live_seed_rows, sizing.append_rows)?;
    let mut rec = Recorder::default();
    let mut target = Inproc(&engine);
    let mut driver = Driver {
        target: &mut target,
        rec: &mut rec,
        timed: false,
        probe: true,
        verify: true,
        visible_rows: sizing.live_seed_rows,
    };
    let mut checkpoints = Vec::new();
    let t = Instant::now();
    for r in 0..rounds {
        driver.timed = r >= warmup;
        if r == warmup + timed_rounds / 2 {
            canaries.read();
        }
        let line = source.next_line()?;
        round(&mut driver, &mut readers, line, sizing)?;
        if (r + 1) % CHECKPOINT_EVERY == 0 {
            checkpoints.push((r + 1, driver.rec.digest.hex()));
        }
    }
    let timed_phase_s = t.elapsed().as_secs_f64();

    let expected_rows = sizing.live_seed_rows + rounds * sizing.append_rows;
    let (epoch, rows) = engine.live_info().ok_or("the live store lost its head")?;
    rec.checks
        .ensure(rows == expected_rows && epoch == rounds as u64 + 1, || {
            format!("live table ended at epoch {epoch} with {rows} rows, expected epoch {} with {expected_rows}", rounds + 1)
        });
    let exact = vec![
        ("rounds".to_owned(), rounds as f64),
        ("visits_started".to_owned(), readers.visits_started() as f64),
        (
            "table.segments_sealed".to_owned(),
            live.segments_sealed() as f64,
        ),
        ("table.final_rows".to_owned(), rows as f64),
    ];
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
