//! Every size the benchmark uses, in one place. `Scale::Full` is the
//! benchmark; `Scale::Smoke` exists for the package's own end-to-end test
//! only and labels its output so it can never be compared with a full run.

/// Which set of sizes a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper (sizes fixed for the 2-vCPU reference box).
    Full,
    /// Seconds-long plumbing check for `cargo test`.
    Smoke,
}

impl Scale {
    /// The label written into results.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Share of a tape replayed untimed before the timed phase.
pub const WARMUP_SHARE: f64 = 0.10;
/// Share of a tape the traced run replays.
pub const TRACE_SHARE: f64 = 0.25;
/// Set-ups per run behind `setup_s` (the median is reported).
pub const SETUPS: usize = 3;
/// The same for `serve_hot`: one of its set-ups takes milliseconds, so the
/// median of many is affordable — and needed, at that size.
pub const SERVE_SETUPS: usize = 15;

/// Sizes of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizing {
    /// Rows of the census-shaped input file.
    pub census_rows: usize,
    /// Shards / resident budget of the spilling store.
    pub shards: usize,
    /// Segments the spilling store may keep decoded.
    pub resident: usize,
    /// Rows the live table holds before the first round.
    pub live_seed_rows: usize,
    /// Rows per sealed live segment.
    pub live_segment_rows: usize,
    /// Rows per `append`.
    pub append_rows: usize,
    /// Long-lived reader sessions of the live workload.
    pub live_sessions: usize,
    /// Script steps per live round.
    pub live_steps_per_round: usize,
    /// Profiles and Zipf skew of the dashboard tape.
    pub profiles: usize,
    /// Zipf exponent over the profiles.
    pub profile_skew: f64,
    /// Timed visits (rounds for the live workload) per workload, before
    /// warm-up is added: `explore_resident`, `explore_spill`, `serve_hot`,
    /// `live_append`.
    pub timed: [usize; 4],
}

/// Timed visits (rounds) per second of `--seconds`. Counts are a function
/// of the flag, never of a clock: the same flag replays the same tape. The
/// rates were frozen on the reference box so that `--seconds 20` gives
/// every p50 its samples inside the contract's time cap; the timed phases
/// then last about 21 / 28 / 8 / 22 s there.
const RATE_PER_SECOND: [f64; 4] = [5.2, 3.5, 200.0, 20.0];

impl Sizing {
    /// The sizes of `scale` for a run asked to measure for `seconds`.
    pub fn new(scale: Scale, seconds: u64) -> Sizing {
        match scale {
            Scale::Full => Sizing {
                census_rows: 1_000_000,
                shards: 32,
                resident: 3,
                live_seed_rows: 200_000,
                live_segment_rows: 20_000,
                append_rows: 1_000,
                live_sessions: 8,
                live_steps_per_round: 2,
                profiles: 16,
                profile_skew: 1.1,
                timed: RATE_PER_SECOND.map(|r| (r * seconds as f64).round().max(1.0) as usize),
            },
            Scale::Smoke => Sizing {
                census_rows: 30_000,
                shards: 8,
                resident: 2,
                live_seed_rows: 8_000,
                live_segment_rows: 1_000,
                append_rows: 100,
                live_sessions: 4,
                live_steps_per_round: 2,
                profiles: 4,
                profile_skew: 1.1,
                timed: [16, 16, 32, 160],
            },
        }
    }

    /// Untimed visits replayed before `timed` timed ones.
    pub fn warmup(timed: usize) -> usize {
        ((timed as f64 * WARMUP_SHARE).round() as usize).max(1)
    }
}
