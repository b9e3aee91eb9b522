//! What a run reports: named metrics with units, counts, the transcript
//! digest, exact counts, provenance — as one JSON object per run.

use crate::driver::Checks;
use crate::scale::{Scale, Sizing};
use sdd_server::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// The whole result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Scale the sizes came from.
    pub scale: Scale,
    /// True for the traced run (per-layer metrics), false for the timed
    /// run (end-to-end metrics).
    pub traced: bool,
    /// The run's metrics: end-to-end ones, or per-layer ones when traced.
    pub metrics: Vec<Metric>,
    /// Requests issued, warm-up included.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest over every reply byte of the run.
    pub transcript_digest: String,
    /// Cumulative transcript digest after the first `n` visits, for a few
    /// `n` — lets two workloads replaying one tape be compared over their
    /// common prefix.
    pub checkpoints: Vec<(usize, String)>,
    /// Counts that must repeat bit-for-bit between runs of one commit.
    pub exact: Vec<(String, f64)>,
    /// Samples behind each timing.
    pub samples: Vec<(String, usize)>,
    /// Measurements outside `BENCHMARK.json`, for the reader: per-request
    /// medians, set-up stages, the populations behind the metrics.
    pub info: Vec<Metric>,
    /// Seconds the timed phase lasted.
    pub timed_phase_s: f64,
    /// Host, toolchain, tape constants, canaries.
    pub provenance: Json,
}

fn num(v: f64) -> Json {
    Json::num(v)
}

impl Outcome {
    /// True when every request succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.ok()
    }

    /// The one-line object the driver reads: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), num(self.attempted.max(1) as f64)),
            ("failed".to_owned(), num(self.failed as f64)),
            ("metrics".to_owned(), metrics_json(&self.metrics)),
        ])
        .to_string()
    }

    /// The full result, one JSON object on one line.
    pub fn to_json(&self) -> Json {
        let pairs = |items: &[(String, f64)]| {
            Json::Obj(items.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
        };
        Json::Obj(vec![
            ("workload".to_owned(), Json::str(self.workload.clone())),
            ("scale".to_owned(), Json::str(self.scale.label())),
            // Seeds are full u64s; JSON numbers are exact to 2^53 only.
            ("seed".to_owned(), Json::str(self.seed.to_string())),
            ("seconds".to_owned(), num(self.seconds as f64)),
            ("traced".to_owned(), Json::Bool(self.traced)),
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), num(self.attempted as f64)),
            ("failed".to_owned(), num(self.failed as f64)),
            (
                "check_failures".to_owned(),
                Json::Arr(self.checks.failures().iter().map(Json::str).collect()),
            ),
            ("checks_passed".to_owned(), num(self.checks.passed() as f64)),
            ("metrics".to_owned(), metrics_json(&self.metrics)),
            (
                "transcript_digest".to_owned(),
                Json::str(self.transcript_digest.clone()),
            ),
            (
                "checkpoints".to_owned(),
                Json::Arr(
                    self.checkpoints
                        .iter()
                        .map(|(n, d)| Json::Arr(vec![num(*n as f64), Json::str(d.clone())]))
                        .collect(),
                ),
            ),
            ("exact".to_owned(), pairs(&self.exact)),
            (
                "samples".to_owned(),
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v as f64)))
                        .collect(),
                ),
            ),
            ("info".to_owned(), metrics_json(&self.info)),
            ("timed_phase_s".to_owned(), num(self.timed_phase_s)),
            ("provenance".to_owned(), self.provenance.clone()),
        ])
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host, toolchain and every tape constant of a run. `canaries` are the
/// host-phase readings taken at the start, middle and end of the run.
pub fn provenance(sizing: &Sizing, seed: u64, tape_digest: &str, canaries: Json) -> Json {
    use crate::tape;
    let n = |v: usize| num(v as f64);
    Json::Obj(vec![
        // The driver's checkout is not a git repository; say so plainly.
        (
            "git_rev".to_owned(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_owned(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        (
            "nproc".to_owned(),
            n(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        (
            "worker_threads".to_owned(),
            n(sdd_core::exec::worker_threads()),
        ),
        (
            "simd".to_owned(),
            Json::str(sdd_core::accel::feature_level()),
        ),
        ("seed".to_owned(), Json::str(seed.to_string())),
        ("tape_digest".to_owned(), Json::str(tape_digest)),
        (
            "tape".to_owned(),
            Json::Obj(vec![
                ("k".to_owned(), n(tape::K)),
                ("mw".to_owned(), num(tape::MAX_WEIGHT)),
                ("capacity".to_owned(), n(tape::CAPACITY)),
                ("min_ss".to_owned(), n(tape::MIN_SS)),
                ("dashboard_capacity".to_owned(), n(tape::DASHBOARD_CAPACITY)),
                ("dashboard_min_ss".to_owned(), n(tape::DASHBOARD_MIN_SS)),
                ("refresh_every".to_owned(), n(tape::REFRESH_EVERY)),
                ("warmup_share".to_owned(), num(crate::scale::WARMUP_SHARE)),
                ("trace_share".to_owned(), num(crate::scale::TRACE_SHARE)),
                ("setups".to_owned(), n(crate::scale::SETUPS)),
                ("serve_setups".to_owned(), n(crate::scale::SERVE_SETUPS)),
                ("census_rows".to_owned(), n(sizing.census_rows)),
                (
                    "census_seed".to_owned(),
                    n(crate::work::CENSUS_SEED as usize),
                ),
                (
                    "marketing_seed".to_owned(),
                    n(crate::work::MARKETING_SEED as usize),
                ),
                ("columns".to_owned(), n(crate::work::COLUMNS)),
                ("shards".to_owned(), n(sizing.shards)),
                ("resident".to_owned(), n(sizing.resident)),
                ("live_seed_rows".to_owned(), n(sizing.live_seed_rows)),
                ("live_segment_rows".to_owned(), n(sizing.live_segment_rows)),
                ("append_rows".to_owned(), n(sizing.append_rows)),
                ("live_sessions".to_owned(), n(sizing.live_sessions)),
                (
                    "live_steps_per_round".to_owned(),
                    n(sizing.live_steps_per_round),
                ),
                ("profiles".to_owned(), n(sizing.profiles)),
                ("profile_skew".to_owned(), num(sizing.profile_skew)),
                (
                    "timed".to_owned(),
                    Json::Arr(sizing.timed.iter().map(|&t| n(t)).collect()),
                ),
            ]),
        ),
        ("canaries".to_owned(), canaries),
    ])
}
