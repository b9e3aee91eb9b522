//! The closed-loop visit driver: sends a script's requests to a
//! [`Target`] one at a time, waits for each reply, times the call, models
//! the analyst's think time explicitly and checks every reply.

use crate::rng::Digest;
use crate::tape::{Op, ScriptRequest, VisitKind, VisitPlan, VisitScript};
use sdd_server::{Json, Response, RuleInfo, StatsInfo};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What a request was answered with.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The reply line (no newline).
    pub line: String,
    /// True when the product left work for the analyst's think time (a
    /// deferred prefetch or refresh) and the harness is the one to run it.
    pub think_pending: bool,
}

/// Anything a visit can be replayed against: the engine in-process, a
/// server over TCP or HTTP, or one of the shadow layers of the ladder.
pub trait Target {
    /// Executes one request and returns its reply. `Err` is a transport
    /// failure; a reply with `"ok":false` is returned as a reply.
    fn call(&mut self, req: &ScriptRequest) -> Result<Reply, String>;

    /// Runs the think-time work `session` left pending. Targets that do
    /// that work themselves (a server's background worker) keep the
    /// default.
    fn think(&mut self, _session: &str) {}
}

/// How the sampling layer answered a drill-down (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// A stored sample with the same filter.
    Find,
    /// Pooled from stored samples of sub-rules.
    Combine,
    /// A scan of the whole store.
    Create,
}

impl Mechanism {
    /// Index into per-mechanism arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Reads the mechanism of exactly one expansion off two `stats` snapshots
/// taken around it.
pub fn classify(before: &StatsInfo, after: &StatsInfo) -> Result<Mechanism, String> {
    let d = |a: usize, b: usize| a.wrapping_sub(b);
    let deltas = [
        d(after.finds, before.finds),
        d(after.combines, before.combines),
        d(after.creates, before.creates),
    ];
    if d(after.expansions, before.expansions) != 1 || deltas.iter().sum::<usize>() != 1 {
        return Err(format!(
            "stats moved by {deltas:?} finds/combines/creates over {} expansions; expected exactly one",
            d(after.expansions, before.expansions)
        ));
    }
    Ok(match deltas {
        [1, _, _] => Mechanism::Find,
        [_, 1, _] => Mechanism::Combine,
        _ => Mechanism::Create,
    })
}

const MAX_FAILURES_KEPT: usize = 20;

/// Failed correctness checks of a run (empty = correct).
#[derive(Debug, Default, Clone)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else if self.failures.len() < MAX_FAILURES_KEPT {
            self.failures.push(what());
        } else if self.failures.len() == MAX_FAILURES_KEPT {
            self.failures.push("… more failures".to_owned());
        }
    }

    /// True when nothing failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failures, oldest first.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// How many checks passed.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.passed += other.passed;
        self.failures.extend(other.failures);
    }
}

/// Counters summed over the `stats` reply that ends each visit — exact
/// functions of the tape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VisitTotals {
    /// Visits that reached their `stats` request.
    pub visits: usize,
    /// Σ expansions.
    pub expansions: usize,
    /// Σ served from memory.
    pub served_from_memory: usize,
    /// Σ finds / combines / creates.
    pub mechanisms: [usize; 3],
    /// Σ full scans (Create + prefetch).
    pub full_scans: usize,
    /// Σ sample evictions.
    pub evictions: usize,
    /// Σ tuples held when the visit ended.
    pub memory_used: usize,
}

impl VisitTotals {
    /// The counters as named exact counts: shares of the expansions, and
    /// averages per visit.
    pub fn exact(&self) -> Vec<(String, f64)> {
        let share = |v: usize| v as f64 / self.expansions.max(1) as f64;
        let per_visit = |v: usize| v as f64 / self.visits.max(1) as f64;
        [
            ("visits", self.visits as f64),
            ("expansions", self.expansions as f64),
            (
                "explorer.served_from_memory_ratio",
                share(self.served_from_memory),
            ),
            ("sampling.find_ratio", share(self.mechanisms[0])),
            ("sampling.combine_ratio", share(self.mechanisms[1])),
            ("sampling.create_ratio", share(self.mechanisms[2])),
            ("sampling.full_scans_per_visit", per_visit(self.full_scans)),
            ("sampling.evictions_per_visit", per_visit(self.evictions)),
            ("sampling.memory_used_tuples", per_visit(self.memory_used)),
        ]
        .map(|(name, value)| (name.to_owned(), value))
        .to_vec()
    }
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latencies (ms) of timed requests, by kind.
    pub latency_ms: BTreeMap<Op, Vec<f64>>,
    /// Latencies (ms) of timed non-root drill-downs, by mechanism.
    pub mechanism_ms: [Vec<f64>; 3],
    /// Think-time work (ms) after timed requests.
    pub think_ms: Vec<f64>,
    /// Seconds inside the product during the timed phase: request
    /// latencies plus think-time work.
    pub busy_s: f64,
    /// Timed requests issued.
    pub requests: usize,
    /// Requests (timed or not) that failed: `"ok":false` or transport error.
    pub failed: usize,
    /// Requests issued, warm-up included.
    pub attempted: usize,
    /// Digest over every reply, warm-up included.
    pub digest: Digest,
    /// Digest over the replies to drill-downs only (what the deepest
    /// shadow of the ladder, which stubs the other replies, is checked on).
    pub drill_digest: Digest,
    /// The kind of every request issued, in order (probes excluded).
    pub op_log: Vec<Op>,
    /// Correctness checks.
    pub checks: Checks,
    /// Per-visit counters, whole tape.
    pub totals: VisitTotals,
    /// |estimate − exact| / exact of displayed non-exact counts, taken on
    /// refresh visits.
    pub count_rel_err: Vec<f64>,
    /// Displayed confidence intervals that held the exact count / checked.
    pub ci_hits: usize,
    /// Displayed confidence intervals checked.
    pub ci_total: usize,
}

impl Recorder {
    /// Folds a concurrent client's recorder into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (op, v) in other.latency_ms {
            self.latency_ms.entry(op).or_default().extend(v);
        }
        for (mine, theirs) in self.mechanism_ms.iter_mut().zip(other.mechanism_ms) {
            mine.extend(theirs);
        }
        self.think_ms.extend(other.think_ms);
        self.busy_s += other.busy_s;
        self.requests += other.requests;
        self.failed += other.failed;
        self.attempted += other.attempted;
        self.digest.absorb(other.digest);
        self.drill_digest.absorb(other.drill_digest);
        self.op_log.extend(other.op_log);
        self.checks.merge(other.checks);
        let (t, o) = (&mut self.totals, other.totals);
        t.visits += o.visits;
        t.expansions += o.expansions;
        t.served_from_memory += o.served_from_memory;
        for (a, b) in t.mechanisms.iter_mut().zip(o.mechanisms) {
            *a += b;
        }
        t.full_scans += o.full_scans;
        t.evictions += o.evictions;
        t.memory_used += o.memory_used;
        self.count_rel_err.extend(other.count_rel_err);
        self.ci_hits += other.ci_hits;
        self.ci_total += other.ci_total;
    }

    /// Timed latencies of one request kind.
    pub fn latencies(&self, op: Op) -> &[f64] {
        self.latency_ms.get(&op).map_or(&[], Vec::as_slice)
    }

    /// Timed latencies of every drill-down (`expand` and `star`).
    pub fn drill_latencies(&self) -> Vec<f64> {
        [Op::ExpandRoot, Op::Expand, Op::Star]
            .iter()
            .flat_map(|op| self.latencies(*op).iter().copied())
            .collect()
    }

    /// Timed non-root drill-downs answered by pooling stored samples
    /// (Combine) — the population behind `expand_memory_p50_ms`.
    pub fn combine_latencies(&self) -> &[f64] {
        &self.mechanism_ms[Mechanism::Combine.index()]
    }
}

/// One visit in flight.
#[derive(Debug)]
pub struct Visit {
    script: VisitScript,
    /// Counters as of the last `stats` seen from this session.
    stats: StatsInfo,
    /// A drill-down whose mechanism is not known yet: `(timed?, root?, ms)`.
    unclassified: Option<(bool, bool, f64)>,
    /// Mechanisms of this visit's drill-downs known beforehand (from a
    /// reference replay), in order.
    known: Option<Arc<Vec<Mechanism>>>,
    /// Mechanisms of the drill-downs answered so far, in order.
    pub mechanisms: Vec<Mechanism>,
    think_pending: bool,
    rules_before_refresh: Option<Vec<RuleInfo>>,
    refreshed: bool,
    /// Digest over this visit's replies after `open` (whose reply echoes
    /// the session name).
    pub digest: Digest,
}

impl Visit {
    /// Starts a visit.
    pub fn new(
        kind: VisitKind,
        plan: VisitPlan,
        session: impl Into<String>,
        columns: Arc<Vec<String>>,
    ) -> Visit {
        Visit {
            script: VisitScript::new(kind, plan, session, columns),
            stats: StatsInfo::default(),
            unclassified: None,
            known: None,
            mechanisms: Vec::new(),
            think_pending: false,
            rules_before_refresh: None,
            refreshed: false,
            digest: Digest::default(),
        }
    }

    /// Supplies the mechanisms of the visit's drill-downs, so the driver
    /// needs no `stats` probes (used where probing is impossible without
    /// disturbing the measurement: concurrent clients over TCP).
    pub fn with_known_mechanisms(mut self, known: Arc<Vec<Mechanism>>) -> Visit {
        self.known = Some(known);
        self
    }

    /// The session name.
    pub fn session(&self) -> &str {
        self.script.session()
    }
}

/// Outcome of one [`Driver::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepped {
    /// A request was issued and answered.
    Request,
    /// The visit is over (its `close` was answered earlier).
    Finished,
    /// The request failed; the visit was abandoned.
    Abandoned,
}

/// Replays visits against one target into one recorder.
pub struct Driver<'a, T: Target> {
    /// The system under test.
    pub target: &'a mut T,
    /// Where measurements go.
    pub rec: &'a mut Recorder,
    /// Whether requests issued now count towards the metrics (false
    /// during warm-up). Replies are digested and checked either way.
    pub timed: bool,
    /// Classify drill-downs with untimed `stats` probes (in-process
    /// replays). Off for targets whose visits carry known mechanisms.
    pub probe: bool,
    /// Parse and check `stats` and `rules` replies. Off only for the
    /// deepest shadow of the ladder, which answers those with a stub.
    pub verify: bool,
    /// Rows a `rules` reply must show as the root count right now.
    pub visible_rows: usize,
}

impl<T: Target> Driver<'_, T> {
    /// Runs a whole visit, thinking after every reply that asks for it.
    pub fn run_visit(&mut self, mut visit: Visit) -> Result<Visit, String> {
        loop {
            match self.step(&mut visit)? {
                Stepped::Request => self.think(&mut visit)?,
                Stepped::Finished | Stepped::Abandoned => return Ok(visit),
            }
        }
    }

    /// Runs the think-time work the visit's last reply left pending, timed
    /// apart from every request, then classifies the drill-down before it.
    /// The probe goes here because this is the one moment it is free: the
    /// think-time work has just drained the session's pending jobs and
    /// brought it to the newest epoch, so the probe's own prologue has
    /// nothing left to do and steals no work from a timed request.
    pub fn think(&mut self, visit: &mut Visit) -> Result<(), String> {
        if !visit.think_pending {
            return Ok(());
        }
        visit.think_pending = false;
        let t = Instant::now();
        self.target.think(visit.script.session());
        let s = t.elapsed().as_secs_f64();
        if self.timed {
            self.rec.think_ms.push(s * 1e3);
            self.rec.busy_s += s;
        }
        if self.probe {
            self.probe_mechanism(visit)?;
        }
        Ok(())
    }

    /// Issues the visit's next request.
    pub fn step(&mut self, visit: &mut Visit) -> Result<Stepped, String> {
        // A drill-down that left no think-time work (nothing to prefetch)
        // is classified here, before the session moves on.
        if self.probe {
            self.probe_mechanism(visit)?;
        }
        let Some(req) = visit.script.next_request().map_err(|e| e.0)? else {
            return Ok(Stepped::Finished);
        };
        let t = Instant::now();
        let reply = self.target.call(&req);
        let s = t.elapsed().as_secs_f64();
        self.rec.attempted += 1;
        self.rec.op_log.push(req.op);
        if self.timed {
            self.rec.requests += 1;
            self.rec.busy_s += s;
        }
        let reply = match reply {
            Ok(r) if r.line.starts_with(r#"{"ok":true"#) => r,
            Ok(r) => {
                self.rec.failed += 1;
                self.rec.digest.record(&r.line);
                self.rec
                    .checks
                    .ensure(false, || format!("{} answered {}", req.line, r.line));
                return Ok(Stepped::Abandoned);
            }
            Err(e) => {
                self.rec.failed += 1;
                return Err(format!("{}: {e}", req.line));
            }
        };
        self.rec.digest.record(&reply.line);
        if req.op.is_drill() {
            self.rec.drill_digest.record(&reply.line);
        }
        if req.op != Op::Open {
            visit.digest.record(&reply.line);
        }
        if self.timed {
            self.rec.latency_ms.entry(req.op).or_default().push(s * 1e3);
        }
        visit.script.observe(&reply.line).map_err(|e| e.0)?;
        visit.think_pending = reply.think_pending;
        self.after_reply(visit, req.op, s * 1e3, &reply.line)?;
        Ok(Stepped::Request)
    }

    fn after_reply(
        &mut self,
        visit: &mut Visit,
        op: Op,
        ms: f64,
        line: &str,
    ) -> Result<(), String> {
        if !self.verify && matches!(op, Op::Stats | Op::Rules) {
            return Ok(());
        }
        match op {
            Op::ExpandRoot | Op::Expand | Op::Star => {
                let root = op == Op::ExpandRoot;
                let known = visit
                    .known
                    .as_ref()
                    .map(|k| k.get(visit.mechanisms.len()).copied());
                match known {
                    Some(Some(m)) => self.record_mechanism(visit, self.timed, root, ms, m),
                    Some(None) => {
                        return Err(format!(
                            "session {}: more drill-downs than its reference replay",
                            visit.script.session()
                        ))
                    }
                    None => visit.unclassified = Some((self.timed, root, ms)),
                }
            }
            Op::Stats => {
                let stats = parse_stats(line)?;
                self.rec.checks.ensure(
                    stats.finds + stats.combines + stats.creates == stats.expansions,
                    || format!("finds + combines + creates != expansions in {line}"),
                );
                let t = &mut self.rec.totals;
                t.visits += 1;
                t.expansions += stats.expansions;
                t.served_from_memory += stats.served_from_memory;
                t.mechanisms[0] += stats.finds;
                t.mechanisms[1] += stats.combines;
                t.mechanisms[2] += stats.creates;
                t.full_scans += stats.full_scans;
                t.evictions += stats.evictions;
                t.memory_used += stats.memory_used;
                visit.stats = stats;
            }
            Op::Rules => {
                let rules = parse_rules(line)?;
                let rows = self.visible_rows;
                self.rec.checks.ensure(
                    rules
                        .first()
                        .is_some_and(|r| r.path.is_empty() && r.count == rows as f64),
                    || format!("root count is not the {rows} visible rows in {line}"),
                );
                if visit.refreshed {
                    self.rec.checks.ensure(rules.iter().all(|r| r.exact), || {
                        format!("a count is not exact after refresh in {line}")
                    });
                    if let Some(before) = visit.rules_before_refresh.take() {
                        self.record_accuracy(&before, &rules);
                    }
                } else {
                    visit.rules_before_refresh = Some(rules);
                }
            }
            Op::Refresh => visit.refreshed = true,
            Op::Open | Op::Render | Op::Close | Op::Append => {}
        }
        Ok(())
    }

    fn record_mechanism(
        &mut self,
        visit: &mut Visit,
        timed: bool,
        root: bool,
        ms: f64,
        m: Mechanism,
    ) {
        visit.mechanisms.push(m);
        if timed && !root {
            self.rec.mechanism_ms[m.index()].push(ms);
        }
    }

    /// Asks the session for its counters (untimed, unrecorded) and reads
    /// the mechanism of the drill-down before it off the difference.
    fn probe_mechanism(&mut self, visit: &mut Visit) -> Result<(), String> {
        let Some((timed, root, ms)) = visit.unclassified.take() else {
            return Ok(());
        };
        let probe = ScriptRequest {
            op: Op::Stats,
            line: format!(r#"{{"op":"stats","session":"{}"}}"#, visit.script.session()),
        };
        let reply = self.target.call(&probe)?;
        let after = parse_stats(&reply.line)?;
        let m = classify(&visit.stats, &after)?;
        visit.stats = after;
        self.record_mechanism(visit, timed, root, ms, m);
        Ok(())
    }

    /// Compares what the analyst saw before `refresh` with the exact
    /// counts after it, rule by rule.
    fn record_accuracy(&mut self, before: &[RuleInfo], after: &[RuleInfo]) {
        let exact: BTreeMap<&[usize], f64> =
            after.iter().map(|r| (r.path.as_slice(), r.count)).collect();
        for shown in before.iter().filter(|r| !r.exact) {
            let Some(&truth) = exact.get(shown.path.as_slice()) else {
                continue;
            };
            self.rec
                .count_rel_err
                .push((shown.count - truth).abs() / truth.max(1.0));
            self.rec.ci_total += 1;
            if (shown.ci.0..=shown.ci.1).contains(&truth) {
                self.rec.ci_hits += 1;
            }
        }
    }
}

fn parse_reply(line: &str) -> Result<Response, String> {
    let json = Json::parse(line).map_err(|e| format!("reply is not JSON ({e}): {line}"))?;
    Response::from_json(&json).map_err(|e| format!("reply is not a response ({e}): {line}"))
}

/// The counters of a `stats` reply.
pub fn parse_stats(line: &str) -> Result<StatsInfo, String> {
    match parse_reply(line)? {
        Response::Stats { stats } => Ok(stats),
        _ => Err(format!("expected a stats reply, got {line}")),
    }
}

/// The rule list of a `rules`/`refresh` reply.
pub fn parse_rules(line: &str) -> Result<Vec<RuleInfo>, String> {
    match parse_reply(line)? {
        Response::RuleList { rules } => Ok(rules),
        _ => Err(format!("expected a rules reply, got {line}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(expansions: usize, finds: usize, combines: usize, creates: usize) -> StatsInfo {
        StatsInfo {
            expansions,
            finds,
            combines,
            creates,
            ..StatsInfo::default()
        }
    }

    #[test]
    fn mechanism_is_read_off_the_stats_delta() {
        let before = stats(3, 1, 1, 1);
        assert_eq!(classify(&before, &stats(4, 2, 1, 1)), Ok(Mechanism::Find));
        assert_eq!(
            classify(&before, &stats(4, 1, 2, 1)),
            Ok(Mechanism::Combine)
        );
        assert_eq!(classify(&before, &stats(4, 1, 1, 2)), Ok(Mechanism::Create));
        // No expansion, two expansions, or counters that disagree with the
        // expansion count are all refused.
        assert!(classify(&before, &before).is_err());
        assert!(classify(&before, &stats(5, 2, 2, 1)).is_err());
        assert!(classify(&before, &stats(4, 1, 1, 1)).is_err());
    }

    #[test]
    fn checks_keep_the_first_failures() {
        let mut c = Checks::default();
        c.ensure(true, || unreachable!());
        assert!(c.ok());
        for i in 0..30 {
            c.ensure(false, || format!("failure {i}"));
        }
        assert!(!c.ok());
        assert_eq!(c.failures()[0], "failure 0");
        assert!(c.failures().len() <= 21);
        assert_eq!(c.passed(), 1);
    }
}
