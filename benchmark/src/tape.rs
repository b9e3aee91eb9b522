//! The tape: what an analyst does, as a pure function of `--seed`.
//!
//! A tape is a list of [`VisitPlan`]s. A plan fixes everything the analyst
//! brings to a visit — the sampling seed, one number per choice point and
//! whether the visit ends with a refresh — and a [`VisitScript`] turns a
//! plan into protocol request lines, one at a time. Scripts are adaptive:
//! a click is `number mod rules-on-screen`, so it depends on the previous
//! reply. Replies are deterministic (the product's determinism contract),
//! hence so is every request byte of a run; the harness checks that through
//! the transcript digest.

use crate::rng::{Digest, SplitMix64, Zipf};
use sdd_server::{Json, Response};
use std::sync::Arc;

/// Paper §5 session settings, used by every workload.
pub const K: usize = 4;
/// The optimizer's `mw`.
pub const MAX_WEIGHT: f64 = 5.0;
/// Sample memory `M`, in tuples.
pub const CAPACITY: usize = 50_000;
/// `minSS`.
pub const MIN_SS: usize = 5_000;
/// `M` and `minSS` of the dashboard visits: the paper's 10:1 ratio scaled
/// to a 9 409-row table (with `minSS = 5000` no rule below the root could
/// ever be sampled at `minSS`, and every drill-down would be a Create).
pub const DASHBOARD_CAPACITY: usize = 10_000;
/// See [`DASHBOARD_CAPACITY`].
pub const DASHBOARD_MIN_SS: usize = 1_000;
/// Every `REFRESH_EVERY`-th visit ends with `refresh` + `rules`.
pub const REFRESH_EVERY: usize = 4;
/// Choice points per visit.
pub const CLICKS: usize = 5;

/// Which visit shape a tape replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitKind {
    /// The long analyst visit of the explore and live workloads: open →
    /// expand `[]` → expand `[a]` → expand `[a,b]` → star `[c]` → expand
    /// `[d]` → rules → (refresh, rules) → stats → close.
    Explore,
    /// The short dashboard visit of `serve_hot`: open → expand `[]` →
    /// expand `[p]` → rules → render → (refresh, rules) → stats → close.
    Dashboard,
}

impl VisitKind {
    /// `(M, minSS)` of the sessions this kind of visit opens.
    pub fn sample_memory(self) -> (usize, usize) {
        match self {
            VisitKind::Explore => (CAPACITY, MIN_SS),
            VisitKind::Dashboard => (DASHBOARD_CAPACITY, DASHBOARD_MIN_SS),
        }
    }
}

/// Everything the analyst brings to one visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitPlan {
    /// The `seed` of the visit's `open` (fixes every sample drawn).
    pub sampling_seed: u64,
    /// One number per choice point; a click is `number mod options`.
    pub clicks: [u64; CLICKS],
    /// Whether the visit ends with `refresh` + `rules`.
    pub refresh: bool,
}

/// A list of visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tape {
    /// The visit shape.
    pub kind: VisitKind,
    /// The visits, in replay order.
    pub visits: Vec<VisitPlan>,
}

impl Tape {
    /// `n` visits, each with a sampling seed of its own, so no visit can be
    /// answered from another's cached result.
    pub fn distinct(kind: VisitKind, seed: u64, n: usize) -> Tape {
        let mut rng = SplitMix64::new(seed ^ 0x7461_7065); // "tape"
        let visits = (0..n)
            .map(|i| VisitPlan {
                sampling_seed: rng.next_u64(),
                clicks: std::array::from_fn(|_| rng.next_u64()),
                refresh: i % REFRESH_EVERY == REFRESH_EVERY - 1,
            })
            .collect();
        Tape { kind, visits }
    }

    /// `n` visits whose (sampling seed, clicks) pair is one of `profiles`
    /// profiles, drawn Zipf(`skew`) — popular profiles repeat, so their
    /// drill-downs are answered from the shared result cache.
    pub fn profiled(kind: VisitKind, seed: u64, n: usize, profiles: usize, skew: f64) -> Tape {
        let pool = Self::profiles(seed, profiles);
        let zipf = Zipf::new(profiles, skew);
        let mut rng = SplitMix64::new(seed ^ 0x7a69_7066); // "zipf"
        let visits = (0..n)
            .map(|i| {
                let p = &pool[zipf.sample(&mut rng)];
                VisitPlan {
                    sampling_seed: p.sampling_seed,
                    clicks: p.clicks,
                    refresh: i % REFRESH_EVERY == REFRESH_EVERY - 1,
                }
            })
            .collect();
        Tape { kind, visits }
    }

    /// The profile pool of a profiled tape (refresh unset).
    pub fn profiles(seed: u64, profiles: usize) -> Vec<VisitPlan> {
        let mut rng = SplitMix64::new(seed ^ 0x7072_6f66); // "prof"
        (0..profiles)
            .map(|_| VisitPlan {
                sampling_seed: rng.next_u64(),
                clicks: std::array::from_fn(|_| rng.next_u64()),
                refresh: false,
            })
            .collect()
    }

    /// The first `n` visits (the whole tape when it is shorter).
    pub fn prefix(&self, n: usize) -> Tape {
        Tape {
            kind: self.kind,
            visits: self.visits[..n.min(self.visits.len())].to_vec(),
        }
    }

    /// The tape's canonical bytes: same seed ⇒ same bytes.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = vec![match self.kind {
            VisitKind::Explore => b'E',
            VisitKind::Dashboard => b'D',
        }];
        for v in &self.visits {
            out.extend(v.sampling_seed.to_le_bytes());
            for c in v.clicks {
                out.extend(c.to_le_bytes());
            }
            out.push(u8::from(v.refresh));
        }
        out
    }

    /// Digest of [`Tape::bytes`], for provenance.
    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        d.bytes(&self.bytes());
        d.hex()
    }
}

/// What kind of request a script step issues — the unit the harness
/// groups latencies by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `open`.
    Open,
    /// `expand` of `[]` in a freshly opened session.
    ExpandRoot,
    /// Any other `expand`.
    Expand,
    /// `star`.
    Star,
    /// `rules`.
    Rules,
    /// `render`.
    Render,
    /// `refresh`.
    Refresh,
    /// `stats`.
    Stats,
    /// `close`.
    Close,
    /// `append` (live workload only; never issued by a visit script).
    Append,
}

impl Op {
    /// True for the drill-down requests (`expand` and `star`).
    pub fn is_drill(self) -> bool {
        matches!(self, Op::ExpandRoot | Op::Expand | Op::Star)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Open,
    ExpandRoot,
    ExpandChild,
    ExpandGrandchild,
    Star,
    ExpandSibling,
    Rules,
    Render,
    Refresh,
    RulesAfterRefresh,
    Stats,
    Close,
}

const EXPLORE_STEPS: &[Step] = &[
    Step::Open,
    Step::ExpandRoot,
    Step::ExpandChild,
    Step::ExpandGrandchild,
    Step::Star,
    Step::ExpandSibling,
    Step::Rules,
    Step::Refresh,
    Step::RulesAfterRefresh,
    Step::Stats,
    Step::Close,
];

const DASHBOARD_STEPS: &[Step] = &[
    Step::Open,
    Step::ExpandRoot,
    Step::ExpandChild,
    Step::Rules,
    Step::Render,
    Step::Refresh,
    Step::RulesAfterRefresh,
    Step::Stats,
    Step::Close,
];

/// One request of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptRequest {
    /// Its kind.
    pub op: Op,
    /// The request line (no newline).
    pub line: String,
}

/// A script could not continue: the display offered nothing to click on.
/// The workloads are chosen so that this never happens; when it does the
/// run fails instead of silently replaying a different tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptStall(pub String);

/// Picks (and removes) one not-yet-drilled root child.
fn take_unvisited(unvisited: &mut Vec<usize>, click: u64) -> Result<usize, ScriptStall> {
    if unvisited.is_empty() {
        return Err(ScriptStall(
            "no displayed root child is left to drill into".to_owned(),
        ));
    }
    Ok(unvisited.remove((click % unvisited.len() as u64) as usize))
}

/// Turns one [`VisitPlan`] into request lines, adapting to replies.
#[derive(Debug, Clone)]
pub struct VisitScript {
    kind: VisitKind,
    plan: VisitPlan,
    session: String,
    columns: Arc<Vec<String>>,
    step: usize,
    /// Rule strings of the root's children, from the `expand []` reply.
    root_children: Vec<String>,
    /// How many children the first drilled child got.
    child_children: usize,
    /// Root children not drilled into yet, in display order.
    unvisited: Vec<usize>,
    /// The first drilled root child.
    first: usize,
}

impl VisitScript {
    /// A script for `plan` under the session name `session`; `columns` are
    /// the served table's column names (star needs one by name).
    pub fn new(
        kind: VisitKind,
        plan: VisitPlan,
        session: impl Into<String>,
        columns: Arc<Vec<String>>,
    ) -> Self {
        Self {
            kind,
            plan,
            session: session.into(),
            columns,
            step: 0,
            root_children: Vec::new(),
            child_children: 0,
            unvisited: Vec::new(),
            first: 0,
        }
    }

    /// The session this script drives.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// True once `close` has been issued.
    pub fn finished(&self) -> bool {
        self.step >= self.steps().len()
    }

    fn steps(&self) -> &'static [Step] {
        match self.kind {
            VisitKind::Explore => EXPLORE_STEPS,
            VisitKind::Dashboard => DASHBOARD_STEPS,
        }
    }

    /// The next request, or `None` after `close`. Steps a visit does not
    /// have (refresh on three visits out of four) are passed over.
    pub fn next_request(&mut self) -> Result<Option<ScriptRequest>, ScriptStall> {
        loop {
            let Some(&step) = self.steps().get(self.step) else {
                return Ok(None);
            };
            self.step += 1;
            if matches!(step, Step::Refresh | Step::RulesAfterRefresh) && !self.plan.refresh {
                continue;
            }
            let s = &self.session;
            let clicks = self.plan.clicks;
            let session_op = |op: &str| format!(r#"{{"op":"{op}","session":"{s}"}}"#);
            let expand =
                |path: &[usize]| format!(r#"{{"op":"expand","session":"{s}","path":{path:?}}}"#);
            let (capacity, min_ss) = self.kind.sample_memory();
            let request = match step {
                Step::Open => ScriptRequest {
                    op: Op::Open,
                    line: format!(
                        r#"{{"op":"open","session":"{s}","k":{K},"mw":{MAX_WEIGHT},"weight":"size","seed":"{}","capacity":{capacity},"min_ss":{min_ss}}}"#,
                        self.plan.sampling_seed
                    ),
                },
                Step::ExpandRoot => ScriptRequest {
                    op: Op::ExpandRoot,
                    line: expand(&[]),
                },
                Step::ExpandChild => {
                    self.first = take_unvisited(&mut self.unvisited, clicks[0])?;
                    ScriptRequest {
                        op: Op::Expand,
                        line: expand(&[self.first]),
                    }
                }
                Step::ExpandGrandchild => {
                    // A child with no children of its own (nothing left to
                    // refine) sends the analyst to another root child.
                    let path = if self.child_children > 0 {
                        let b = (clicks[1] % self.child_children as u64) as usize;
                        vec![self.first, b]
                    } else {
                        vec![take_unvisited(&mut self.unvisited, clicks[1])?]
                    };
                    ScriptRequest {
                        op: Op::Expand,
                        line: expand(&path),
                    }
                }
                Step::Star => {
                    let c = take_unvisited(&mut self.unvisited, clicks[2])?;
                    let starred = starred_columns(&self.root_children[c]);
                    if starred.is_empty() {
                        return Err(ScriptStall(format!(
                            "session {s}: rule {} has no starred column",
                            self.root_children[c]
                        )));
                    }
                    let col = starred[(clicks[3] % starred.len() as u64) as usize];
                    let name = self.columns.get(col).ok_or_else(|| {
                        ScriptStall(format!("session {s}: rule has more columns than the table"))
                    })?;
                    ScriptRequest {
                        op: Op::Star,
                        line: format!(
                            r#"{{"op":"star","session":"{s}","path":[{c}],"column":"{name}"}}"#
                        ),
                    }
                }
                Step::ExpandSibling => {
                    let d = take_unvisited(&mut self.unvisited, clicks[4])?;
                    ScriptRequest {
                        op: Op::Expand,
                        line: expand(&[d]),
                    }
                }
                Step::Rules | Step::RulesAfterRefresh => ScriptRequest {
                    op: Op::Rules,
                    line: session_op("rules"),
                },
                Step::Render => ScriptRequest {
                    op: Op::Render,
                    line: session_op("render"),
                },
                Step::Refresh => ScriptRequest {
                    op: Op::Refresh,
                    line: session_op("refresh"),
                },
                Step::Stats => ScriptRequest {
                    op: Op::Stats,
                    line: session_op("stats"),
                },
                Step::Close => ScriptRequest {
                    op: Op::Close,
                    line: session_op("close"),
                },
            };
            return Ok(Some(request));
        }
    }

    /// Feeds the reply to the request [`VisitScript::next_request`] last
    /// returned. Only the replies the next click depends on are parsed.
    pub fn observe(&mut self, reply: &str) -> Result<(), ScriptStall> {
        let issued = self.steps()[self.step - 1];
        if !matches!(issued, Step::ExpandRoot | Step::ExpandChild) {
            return Ok(());
        }
        let rules = expanded_rules(reply)
            .ok_or_else(|| ScriptStall(format!("unusable expand reply: {reply}")))?;
        if issued == Step::ExpandRoot {
            self.unvisited = (0..rules.len()).collect();
            self.root_children = rules;
        } else {
            self.child_children = rules.len();
        }
        Ok(())
    }
}

/// The rule strings of an `expand`/`star` reply, `None` when the reply is
/// not a successful expansion.
pub fn expanded_rules(reply: &str) -> Option<Vec<String>> {
    match Response::from_json(&Json::parse(reply).ok()?).ok()? {
        Response::Expanded { rules } => Some(rules.into_iter().map(|r| r.rule).collect()),
        _ => None,
    }
}

/// Indices of the `?` columns of a displayed rule such as `(v3, ?, ?)`.
/// Values of the benchmark's datasets never contain `", "` (set-up checks
/// that), so splitting on it is exact.
pub fn starred_columns(rule: &str) -> Vec<usize> {
    rule.trim_start_matches('(')
        .trim_end_matches(')')
        .split(", ")
        .enumerate()
        .filter(|(_, v)| *v == "?")
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = Tape::distinct(VisitKind::Explore, 42, 50);
        let b = Tape::distinct(VisitKind::Explore, 42, 50);
        let c = Tape::distinct(VisitKind::Explore, 43, 50);
        assert_eq!(a.bytes(), b.bytes());
        assert_ne!(a.bytes(), c.bytes());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        // A prefix of a longer tape is the shorter tape.
        assert_eq!(
            Tape::distinct(VisitKind::Explore, 42, 80)
                .prefix(50)
                .bytes(),
            a.bytes()
        );
        let p = Tape::profiled(VisitKind::Dashboard, 42, 200, 16, 1.1);
        let q = Tape::profiled(VisitKind::Dashboard, 42, 200, 16, 1.1);
        assert_eq!(p.bytes(), q.bytes());
        assert_ne!(
            p.bytes(),
            Tape::profiled(VisitKind::Dashboard, 7, 200, 16, 1.1).bytes()
        );
    }

    #[test]
    fn profiled_tapes_repeat_popular_profiles() {
        let t = Tape::profiled(VisitKind::Dashboard, 1, 1_000, 16, 1.1);
        let mut seeds: Vec<u64> = t.visits.iter().map(|v| v.sampling_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(seeds.len() <= 16 && seeds.len() >= 8, "{}", seeds.len());
        assert_eq!(t.visits.iter().filter(|v| v.refresh).count(), 250);
    }

    fn expand_reply(rules: &[&str]) -> String {
        let items: Vec<String> = rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                format!(
                    r#"{{"path":[{i}],"rule":"{r}","count":10,"ci":[9,11],"exact":false,"weight":1}}"#
                )
            })
            .collect();
        format!(
            r#"{{"ok":true,"op":"expand","rules":[{}]}}"#,
            items.join(",")
        )
    }

    #[test]
    fn explore_script_walks_the_documented_visit() {
        let plan = VisitPlan {
            sampling_seed: 9,
            clicks: [1, 2, 0, 1, 0],
            refresh: true,
        };
        let cols = Arc::new(vec!["A".to_owned(), "B".to_owned(), "C".to_owned()]);
        let mut s = VisitScript::new(VisitKind::Explore, plan, "v0", cols);
        let mut ops = Vec::new();
        let mut lines = Vec::new();
        while let Some(req) = s.next_request().unwrap() {
            let reply = match req.op {
                Op::ExpandRoot => {
                    expand_reply(&["(x, ?, ?)", "(?, y, ?)", "(?, ?, z)", "(x, y, ?)"])
                }
                Op::Expand => expand_reply(&["(x, y, ?)", "(x, ?, z)", "(x, y, z)"]),
                _ => r#"{"ok":true,"op":"whatever"}"#.to_owned(),
            };
            s.observe(&reply).unwrap();
            ops.push(req.op);
            lines.push(req.line);
        }
        assert!(s.finished());
        assert_eq!(
            ops,
            [
                Op::Open,
                Op::ExpandRoot,
                Op::Expand,
                Op::Expand,
                Op::Star,
                Op::Expand,
                Op::Rules,
                Op::Refresh,
                Op::Rules,
                Op::Stats,
                Op::Close
            ]
        );
        assert!(lines[0].contains(r#""seed":"9""#) && lines[0].contains(r#""min_ss":5000"#));
        // click 1 of 4 root children → child 1; click 2 of its 3 children.
        assert_eq!(lines[2], r#"{"op":"expand","session":"v0","path":[1]}"#);
        assert_eq!(lines[3], r#"{"op":"expand","session":"v0","path":[1, 2]}"#);
        // unvisited = [0, 2, 3]; click 0 → child 0 "(x, ?, ?)", starred
        // columns [1, 2], click 1 → column C.
        assert_eq!(
            lines[4],
            r#"{"op":"star","session":"v0","path":[0],"column":"C"}"#
        );
        // unvisited = [2, 3]; click 0 → child 2.
        assert_eq!(lines[5], r#"{"op":"expand","session":"v0","path":[2]}"#);
    }

    #[test]
    fn dashboard_script_skips_refresh_when_unplanned() {
        let plan = VisitPlan {
            sampling_seed: 1,
            clicks: [0; CLICKS],
            refresh: false,
        };
        let cols = Arc::new(vec!["A".to_owned()]);
        let mut s = VisitScript::new(VisitKind::Dashboard, plan, "d", cols);
        let mut ops = Vec::new();
        while let Some(req) = s.next_request().unwrap() {
            s.observe(&expand_reply(&["(x)"])).unwrap();
            ops.push(req.op);
        }
        assert_eq!(
            ops,
            [
                Op::Open,
                Op::ExpandRoot,
                Op::Expand,
                Op::Rules,
                Op::Render,
                Op::Stats,
                Op::Close
            ]
        );
    }

    #[test]
    fn script_stalls_instead_of_improvising() {
        let plan = VisitPlan {
            sampling_seed: 1,
            clicks: [0; CLICKS],
            refresh: false,
        };
        let mut s = VisitScript::new(VisitKind::Explore, plan, "e", Arc::new(vec![]));
        s.next_request().unwrap(); // open
        s.next_request().unwrap(); // expand []
        s.observe(&expand_reply(&[])).unwrap();
        assert!(s.next_request().is_err());
        assert_eq!(starred_columns("(?, v1, ?)"), [0, 2]);
        assert_eq!(
            expanded_rules(r#"{"ok":false,"op":"error","error":"x"}"#),
            None
        );
    }
}
