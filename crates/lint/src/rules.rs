//! The rule catalog.
//!
//! Each rule is a pure function over a parsed [`FileModel`] (plus, for the
//! cross-file rule X001, the whole file set). Rules skip test regions —
//! tests may freely unwrap, time themselves, and hash — and honor
//! suppression markers (`// sdd-lint: allow(RULE) reason`, see
//! `docs/DETERMINISM.md` for the syntax). Findings report the 1-based line
//! of the offending token.
//!
//! | rule | guards |
//! |------|--------|
//! | D001 | no std `HashMap`/`HashSet` in deterministic crates |
//! | D002 | no wall-clock / thread-identity reads in deterministic crates |
//! | D003 | float accumulation loops in the kernel state their fixed order |
//! | P001 | no `unwrap`/`expect`/`panic!`/`assert!` family in spill-I/O and scan code |
//! | U001 | every `unsafe` block carries a `// SAFETY:` comment |
//! | E001 | product crates read the environment in one file only |
//! | X001 | every `pub fn *_sharded` has a monolithic twin + parity test |

use crate::lexer::{Tok, TokKind};
use crate::walker::FileModel;
use crate::Finding;

/// Crates whose results must be bit-identical for any thread count, shard
/// count, or resident-or-spilled shard form. `bench`/`server`/`cli` are
/// deliberately outside: timing and host introspection belong there.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/sampling/src/",
    "crates/table/src/",
    "crates/explorer/src/",
];

/// Files whose floating-point accumulation loops D003 audits: the one
/// place the product accumulates floats over rows.
pub const D003_FILES: &[&str] = &["crates/core/src/kernel.rs"];

/// Files P001 keeps panic-free: spill I/O and the segment scans over it
/// (they run inside a server worker on every Create, refresh and
/// live-maintenance scan of a spilling store), plus the shared result-cache
/// and prediction paths (a panic there would poison a lock every session
/// shares — an accelerator must never be able to take the server down),
/// plus the HTTP front-end's parsing, auth, and metrics paths (fed raw
/// bytes from untrusted clients — a panic is a remote crash), plus the
/// live-table append/maintenance paths (the engine's request dispatch and
/// the sample handler's reservoir maintenance both run while sessions
/// hold epoch-pinned state — a panic mid-append or mid-sync can strand a
/// session between epochs).
pub const P001_FILES: &[&str] = &[
    "crates/table/src/shard.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/cachekey.rs",
    "crates/explorer/src/cache.rs",
    "crates/server/src/cache.rs",
    "crates/server/src/predict.rs",
    "crates/server/src/http.rs",
    "crates/server/src/auth.rs",
    "crates/server/src/metrics.rs",
    "crates/server/src/engine.rs",
    "crates/sampling/src/handler.rs",
    "crates/sampling/src/reservoir.rs",
];

/// Crates that make up the product (everything but bench, datagen, lint):
/// E001 keeps environment reads out of them.
pub const PRODUCT_CRATES: &[&str] = &[
    "crates/table/src/",
    "crates/core/src/",
    "crates/sampling/src/",
    "crates/explorer/src/",
    "crates/olap/src/",
    "crates/server/src/",
    "crates/cli/src/",
];

/// The one file that may read the environment: `SDD_THREADS` lives here
/// and nowhere else.
pub const E001_ALLOWED_FILES: &[&str] = &["crates/core/src/exec.rs"];

/// The cross-file parity suite X001 requires `*_sharded` APIs to appear in.
pub const PARITY_SUITE: &str = "tests/shard_parity.rs";

/// Prefix of the crate whose `*_sharded` API surface X001 audits.
pub const X001_CRATE: &str = "crates/core/src/";

/// One catalog entry.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "no std HashMap/HashSet (unspecified iteration order) in deterministic crates",
    },
    RuleInfo {
        id: "D002",
        summary: "no Instant::now/SystemTime/thread-identity reads in deterministic crates",
    },
    RuleInfo {
        id: "D003",
        summary: "float accumulation loops in core::kernel carry a det-order justification",
    },
    RuleInfo {
        id: "P001",
        summary: "no unwrap()/expect()/panic!/assert!/assert_eq!/assert_ne!/unreachable!/todo!/unimplemented! in spill-I/O and segment-scan code; route errors through TableError",
    },
    RuleInfo {
        id: "U001",
        summary: "every unsafe block carries a // SAFETY: comment (unsafe fns a # Safety doc)",
    },
    RuleInfo {
        id: "E001",
        summary: "no std::env::var* in product crates outside core::exec; a new setting needs a number, not a variable",
    },
    RuleInfo {
        id: "X001",
        summary: "every pub fn *_sharded in sdd-core has a monolithic twin and appears in tests/shard_parity.rs",
    },
];

/// True when `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

fn in_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p))
}

fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: path.to_owned(),
        line,
        rule,
        message,
    }
}

fn ident(t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

fn punct(t: &Tok, p: &str) -> bool {
    t.kind == TokKind::Punct && t.text == p
}

/// Runs the per-file rules (all but X001) over one file.
pub fn lint_file(path: &str, m: &FileModel, enabled: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    if enabled("D001") {
        d001(path, m, &mut out);
    }
    if enabled("D002") {
        d002(path, m, &mut out);
    }
    if enabled("D003") {
        d003(path, m, &mut out);
    }
    if enabled("P001") {
        p001(path, m, &mut out);
    }
    if enabled("U001") {
        u001(path, m, &mut out);
    }
    if enabled("E001") {
        e001(path, m, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// D001 — std hash containers in deterministic crates
// ---------------------------------------------------------------------------

fn d001(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !in_deterministic_crate(path) {
        return;
    }
    // Imports: `use std::collections::{...HashMap/HashSet...}`.
    for u in &m.uses {
        if m.in_test(u.tok) || m.allows("D001", u.line) {
            continue;
        }
        if u.text.contains("std :: collections")
            && (u.text.contains("HashMap") || u.text.contains("HashSet"))
        {
            out.push(finding(
                path,
                u.line,
                "D001",
                "imports std HashMap/HashSet: iteration order is unspecified and varies per \
                 process; use rustc_hash::FxHashMap/FxHashSet (fixed hasher, insertion-stable \
                 across runs) or sort before iterating and justify with an allow marker"
                    .to_owned(),
            ));
        }
    }
    // Inline qualified paths: `std :: collections :: HashMap` — outside
    // `use` declarations, which the import check above already reports.
    let toks = m.toks();
    let in_use_decl = |i: usize| {
        for t in toks[..i].iter().rev() {
            if ident(t, "use") {
                return true;
            }
            if punct(t, ";") {
                return false;
            }
        }
        false
    };
    for i in 0..toks.len().saturating_sub(4) {
        if ident(&toks[i], "std")
            && punct(&toks[i + 1], "::")
            && ident(&toks[i + 2], "collections")
            && punct(&toks[i + 3], "::")
            && (ident(&toks[i + 4], "HashMap") || ident(&toks[i + 4], "HashSet"))
            && !m.in_test(i)
            && !m.allows("D001", toks[i].line)
            && !in_use_decl(i)
        {
            out.push(finding(
                path,
                toks[i].line,
                "D001",
                format!(
                    "std::collections::{} has unspecified iteration order; use the rustc-hash \
                     equivalent or justify with an allow marker",
                    toks[i + 4].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// D002 — wall-clock and thread-identity reads in deterministic crates
// ---------------------------------------------------------------------------

fn d002(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !in_deterministic_crate(path) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len() {
        if m.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        let path_call = |a: &str, b: &str| {
            i + 2 < toks.len()
                && ident(&toks[i], a)
                && punct(&toks[i + 1], "::")
                && ident(&toks[i + 2], b)
        };
        let msg = if path_call("Instant", "now") {
            Some(
                "Instant::now() reads the wall clock inside a deterministic crate; pass \
                 elapsed time in from the caller or move the timing to bench/server",
            )
        } else if ident(&toks[i], "SystemTime") {
            Some(
                "SystemTime is a wall-clock read inside a deterministic crate; timing belongs \
                 in bench/server",
            )
        } else if path_call("thread", "current") {
            Some(
                "thread::current() is a thread-identity read inside a deterministic crate; \
                 results must not depend on which thread runs them",
            )
        } else {
            None
        };
        if let Some(msg) = msg {
            if !m.allows("D002", line) {
                out.push(finding(path, line, "D002", msg.to_owned()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D003 — fixed float operation order in the counting kernel
// ---------------------------------------------------------------------------

/// A function *accumulates floats in a loop* when its body contains a loop
/// keyword, a compound-add (`+=`/`-=`), and a float hint (`f64` or a float
/// literal). Such a function must carry a `det-order:` comment stating why
/// its operation order is fixed (e.g. one task scanning in row order).
fn d003(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !D003_FILES.contains(&path) {
        return;
    }
    let toks = m.toks();
    for f in &m.fns {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        let body = &toks[f.body.clone()];
        let has_loop = body
            .iter()
            .any(|t| ident(t, "for") || ident(t, "while") || ident(t, "loop"));
        let has_acc = body.iter().any(|t| punct(t, "+=") || punct(t, "-="));
        let float_hint = body
            .iter()
            .any(|t| ident(t, "f64") || (t.kind == TokKind::Num && t.text.contains('.')));
        if !(has_loop && has_acc && float_hint) {
            continue;
        }
        let end_line = m.end_line_of(&f.body);
        let justified = m.comment_in_lines(f.line.saturating_sub(3)..end_line + 1, "det-order:");
        let allowed = m.markers.iter().any(|mk| {
            !mk.reason.is_empty()
                && mk.rules.iter().any(|r| r == "D003")
                && mk.line + 3 >= f.line
                && mk.line <= end_line
        });
        if !(justified || allowed) {
            out.push(finding(
                path,
                f.line,
                "D003",
                format!(
                    "fn {} accumulates floats in a loop; document the fixed operation order \
                     with a `det-order:` comment",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// P001 — panic-freedom in spill-I/O code
// ---------------------------------------------------------------------------

/// Macros that panic in release builds. `debug_assert*` is not here: it
/// compiles out of release code.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

fn p001(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !P001_FILES.contains(&path) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len() {
        if m.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        let msg = if i + 2 < toks.len()
            && punct(&toks[i], ".")
            && (ident(&toks[i + 1], "unwrap") || ident(&toks[i + 1], "expect"))
            && punct(&toks[i + 2], "(")
        {
            Some(format!(
                ".{}() can panic in a spill-I/O path; route the failure through TableError \
                 (or downgrade a genuinely unreachable invariant to debug_assert!)",
                toks[i + 1].text
            ))
        } else if i + 1 < toks.len()
            && PANIC_MACROS.iter().any(|name| ident(&toks[i], name))
            && punct(&toks[i + 1], "!")
        {
            Some(format!(
                "{}! in a spill-I/O path; route the failure through TableError (debug_assert! \
                 stays allowed for invariants an error return also covers)",
                toks[i].text
            ))
        } else {
            None
        };
        if let Some(msg) = msg {
            if !m.allows("P001", line) {
                out.push(finding(path, line, "P001", msg));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// U001 — SAFETY comments on unsafe code
// ---------------------------------------------------------------------------

fn u001(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    for b in &m.unsafe_blocks {
        if b.in_test || m.allows("U001", b.line) {
            continue;
        }
        // A SAFETY comment on the block's line, up to three lines above it,
        // or as the first thing inside it.
        if !m.comment_in_lines(b.line.saturating_sub(3)..b.line + 2, "SAFETY") {
            out.push(finding(
                path,
                b.line,
                "U001",
                "unsafe block without a // SAFETY: comment stating the discharged obligations"
                    .to_owned(),
            ));
        }
    }
    for f in &m.fns {
        if !f.is_unsafe || f.in_test || m.allows("U001", f.line) {
            continue;
        }
        // `unsafe fn` needs a `# Safety` doc section (its body is one big
        // implicit unsafe region under edition 2021).
        let doc_ok = m.comments().iter().any(|c| {
            c.doc && c.end_line < f.line && c.end_line + 24 > f.line && c.text.contains("# Safety")
        });
        if !doc_ok {
            out.push(finding(
                path,
                f.line,
                "U001",
                format!(
                    "unsafe fn {} without a `# Safety` doc section stating caller obligations",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// E001 — environment reads in product crates
// ---------------------------------------------------------------------------

/// Every environment variable is a setting CI must re-prove the
/// determinism contract under. The product reads one (`SDD_THREADS`), in
/// one file; anywhere else `env::var*` is a finding.
fn e001(path: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !PRODUCT_CRATES.iter().any(|p| path.starts_with(p)) || E001_ALLOWED_FILES.contains(&path) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len().saturating_sub(2) {
        if ident(&toks[i], "env")
            && punct(&toks[i + 1], "::")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2].text.starts_with("var")
            && !m.in_test(i)
            && !m.allows("E001", toks[i].line)
        {
            out.push(finding(
                path,
                toks[i].line,
                "E001",
                format!(
                    "env::{} reads the environment in a product crate; thread count comes from \
                     sdd_core::exec::worker_threads — anything else is a config field or a \
                     value worked out from the input",
                    toks[i + 2].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X001 — sharded/monolithic API parity
// ---------------------------------------------------------------------------

/// Cross-file rule: collects every `pub fn *_sharded` under
/// [`X001_CRATE`], checks a monolithic twin exists (same name minus the
/// `_sharded` suffix, `try_` prefix interchangeable), and that the family
/// is exercised by name in [`PARITY_SUITE`].
pub fn x001(files: &[(String, FileModel)], enabled: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    if !enabled("X001") {
        return Vec::new();
    }
    let mut core_fns: Vec<(&str, &crate::walker::FnItem, &FileModel)> = Vec::new();
    let mut parity_idents: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (path, m) in files {
        if path.starts_with(X001_CRATE) {
            for f in &m.fns {
                if !f.in_test {
                    core_fns.push((path, f, m));
                }
            }
        }
        if path == PARITY_SUITE {
            parity_idents.extend(
                m.toks()
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str()),
            );
        }
    }
    let have: std::collections::BTreeSet<&str> =
        core_fns.iter().map(|(_, f, _)| f.name.as_str()).collect();

    let mut out = Vec::new();
    let mut reported_parity: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (path, f, m) in &core_fns {
        if !f.is_pub || !f.name.ends_with("_sharded") {
            continue;
        }
        if m.allows("X001", f.line) {
            continue;
        }
        let stem = f
            .name
            .strip_suffix("_sharded")
            .unwrap_or(&f.name)
            .strip_prefix("try_")
            .unwrap_or_else(|| f.name.strip_suffix("_sharded").unwrap_or(&f.name));
        let twin = have.contains(stem) || have.contains(format!("try_{stem}").as_str());
        if !twin {
            out.push(finding(
                path,
                f.line,
                "X001",
                format!(
                    "pub fn {} has no monolithic twin `{stem}` (or `try_{stem}`) in sdd-core; \
                     every sharded entry point needs a bit-parity reference",
                    f.name
                ),
            ));
        }
        let family_in_parity = parity_idents.contains(format!("{stem}_sharded").as_str())
            || parity_idents.contains(format!("try_{stem}_sharded").as_str());
        if !family_in_parity && reported_parity.insert(stem.to_owned()) {
            out.push(finding(
                path,
                f.line,
                "X001",
                format!(
                    "pub fn {} is not exercised by {PARITY_SUITE}; add a cross-shard \
                     bit-parity case calling it (or its try_ twin) by name",
                    f.name
                ),
            ));
        }
    }
    out
}
