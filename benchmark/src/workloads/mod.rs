//! The four workloads and what they share: naming, the timed-run summary
//! that turns a [`Recorder`] into the six end-to-end metrics, and dispatch.

pub mod explore;
pub mod live;
pub mod serve;

use crate::canary::Canaries;
use crate::driver::{Checks, Recorder};
use crate::report::{peak_rss_mib, provenance, Metric, Outcome};
use crate::scale::{Scale, Sizing};
use crate::stats;
use crate::tape::Op;
use crate::work::Workdir;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 M-row census table, monolithic and resident, driven in-process.
    ExploreResident,
    /// The same table and tape over a 32-shard spilling store.
    ExploreSpill,
    /// A real TCP server over the 9 409-row marketing table, one client
    /// replaying cache-friendly dashboard visits.
    ServeHot,
    /// A live table: appends beside long-lived reader sessions.
    LiveAppend,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreResident,
        Workload::ExploreSpill,
        Workload::ServeHot,
        Workload::LiveAppend,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreResident => "explore_resident",
            Workload::ExploreSpill => "explore_spill",
            Workload::ServeHot => "serve_hot",
            Workload::LiveAppend => "live_append",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Index into [`Sizing::timed`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace 1`.
    pub traced: bool,
    /// `--scale`.
    pub scale: Scale,
}

/// What a workload's timed run hands to [`summarize`].
pub struct TimedRun {
    /// Everything measured.
    pub rec: Recorder,
    /// Wall seconds of every in-run set-up.
    pub setup_s: Vec<f64>,
    /// Seconds to divide the timed requests by for `requests_per_s`.
    pub rps_seconds: f64,
    /// Wall seconds of the timed phase.
    pub timed_phase_s: f64,
    /// Cumulative digest checkpoints.
    pub checkpoints: Vec<(usize, String)>,
    /// Workload-specific exact counts.
    pub exact: Vec<(String, f64)>,
    /// Digest of the tape that was replayed.
    pub tape_digest: String,
}

/// Runs one workload, timed or traced.
pub fn run(args: RunArgs, work: &Workdir) -> Result<Outcome, String> {
    let sizing = Sizing::new(args.scale, args.seconds);
    let mut canaries = Canaries::new(args.traced);
    canaries.read();
    if args.traced {
        return crate::ladder::run(args, &sizing, work, canaries);
    }
    let run = match args.workload {
        Workload::ExploreResident | Workload::ExploreSpill => {
            explore::timed(args, &sizing, work, &mut canaries)?
        }
        Workload::ServeHot => serve::timed(args, &sizing, work, &mut canaries)?,
        Workload::LiveAppend => live::timed(args, &sizing, work, &mut canaries)?,
    };
    canaries.read();
    summarize(args, &sizing, run, canaries)
}

/// Minimum samples behind a p50 and behind the p95, at full scale. (The
/// issue asked for 100 behind every p50; the contract's cap on the total
/// time of all runs leaves room for 70 root expansions on the spilling
/// store — see the README.)
const MIN_P50_SAMPLES: usize = 60;
const MIN_P95_SAMPLES: usize = 300;

/// Turns a timed run into the six end-to-end metrics, with the sample
/// counts behind them and the counts that must repeat exactly.
pub fn summarize(
    args: RunArgs,
    sizing: &Sizing,
    run: TimedRun,
    canaries: Canaries,
) -> Result<Outcome, String> {
    let TimedRun {
        rec,
        setup_s,
        rps_seconds,
        timed_phase_s,
        checkpoints,
        exact: mut extra_exact,
        tape_digest,
    } = run;
    let mut checks = Checks::default();
    let root = rec.latencies(Op::ExpandRoot).to_vec();
    let memory = rec.combine_latencies().to_vec();
    let mut drills = rec.drill_latencies();
    stats::sort(&mut drills);

    let full = args.scale == Scale::Full;
    for (name, n, min) in [
        ("expand_root_p50_ms", root.len(), MIN_P50_SAMPLES),
        ("expand_memory_p50_ms", memory.len(), MIN_P50_SAMPLES),
        ("expand_p95_ms", drills.len(), MIN_P95_SAMPLES),
    ] {
        checks.ensure(n >= if full { min } else { 1 }, || {
            format!("{name} rests on {n} samples, {min} needed (run with more --seconds)")
        });
    }
    if !checks.ok() || rps_seconds <= 0.0 {
        let mut all = rec.checks;
        all.merge(checks);
        return Err(format!("run unusable: {:?}", all.failures()));
    }

    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("requests_per_s", rec.requests as f64 / rps_seconds, "1/s"),
        Metric::new("expand_root_p50_ms", stats::median(&root), "ms"),
        Metric::new("expand_memory_p50_ms", stats::median(&memory), "ms"),
        Metric::new("expand_p95_ms", stats::quantile_sorted(&drills, 0.95), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
    ];

    let mut exact = vec![("requests".to_owned(), rec.requests as f64)];
    exact.extend(rec.totals.exact());
    exact.append(&mut extra_exact);

    let mut samples = vec![
        ("setup_s".to_owned(), setup_s.len()),
        ("requests_per_s".to_owned(), rec.requests),
        ("expand_root_p50_ms".to_owned(), root.len()),
        ("expand_memory_p50_ms".to_owned(), memory.len()),
        ("expand_p95_ms".to_owned(), drills.len()),
        (
            "expand_p95_ms.beyond".to_owned(),
            stats::samples_beyond(drills.len(), 0.95),
        ),
        ("think_time".to_owned(), rec.think_ms.len()),
    ];
    for (i, name) in ["find", "combine", "create"].iter().enumerate() {
        samples.push((format!("non_root_{name}"), rec.mechanism_ms[i].len()));
    }

    let mut info = Vec::new();
    for (op, v) in &rec.latency_ms {
        info.push(Metric::new(
            &format!("p50_ms.{op:?}").to_lowercase(),
            stats::median(v),
            "ms",
        ));
    }
    for (i, name) in ["find", "combine", "create"].iter().enumerate() {
        if !rec.mechanism_ms[i].is_empty() {
            info.push(Metric::new(
                &format!("p50_ms.non_root_{name}"),
                stats::median(&rec.mechanism_ms[i]),
                "ms",
            ));
        }
    }
    // The percentile rule: the highest tail percentile that still has ten
    // samples beyond it (p95 with 200 drill-downs, p99 with 1 000, …).
    if let Some(p) = stats::highest_supported_percentile(drills.len()) {
        info.push(Metric::new(
            &format!("drill_tail_p{}_ms", p * 100.0),
            stats::quantile_sorted(&drills, p),
            "ms",
        ));
    }
    if !rec.think_ms.is_empty() {
        info.push(Metric::new(
            "p50_ms.think_time",
            stats::median(&rec.think_ms),
            "ms",
        ));
    }
    info.push(Metric::new("busy_s", rec.busy_s, "s"));
    for (i, s) in setup_s.iter().enumerate() {
        info.push(Metric::new(&format!("setup_s.{i}"), *s, "s"));
    }

    let mut all_checks = rec.checks;
    all_checks.merge(checks);
    Ok(Outcome {
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        traced: false,
        metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        checks: all_checks,
        transcript_digest: rec.digest.hex(),
        checkpoints,
        exact,
        samples,
        info,
        timed_phase_s,
        provenance: provenance(sizing, args.seed, &tape_digest, canaries.to_json()),
    })
}
