//! Fixture self-tests: every rule in the catalog is checked against a
//! known-bad source (it must fire, on the right lines) and a known-good
//! source (it must stay silent), plus the suppression-marker semantics and
//! the baseline round-trip. Fixtures live in `fixtures/` — a directory the
//! workspace scan skips — and are linted under pretend workspace paths
//! that put them in each rule's scope.

use sdd_lint::baseline::Baseline;
use sdd_lint::{lint_source, lint_sources, Finding};

/// Lints a fixture under a pretend path with every rule enabled.
fn lint(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_source(rel_path, src)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------------
// D001 — std hash containers
// ---------------------------------------------------------------------------

#[test]
fn d001_fires_on_known_bad() {
    let findings = lint(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/d001_bad.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule == "D001"),
        "only D001 expected: {findings:?}"
    );
    // The import plus both inline qualified paths.
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert_eq!(findings[0].line, 2, "the `use` line");
}

#[test]
fn d001_silent_on_known_good() {
    let findings = lint(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/d001_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d001_out_of_scope_crates_may_hash() {
    // Same bad source under a non-deterministic crate: no findings.
    let findings = lint(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/d001_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// D002 — wall-clock / thread-identity reads
// ---------------------------------------------------------------------------

#[test]
fn d002_fires_on_known_bad() {
    let findings = lint(
        "crates/sampling/src/fixture.rs",
        include_str!("../fixtures/d002_bad.rs"),
    );
    let rules = rules_of(&findings);
    assert!(
        rules.iter().all(|r| *r == "D002"),
        "only D002 expected: {findings:?}"
    );
    // Instant::now, SystemTime (twice: return type + call), thread::current.
    assert!(findings.len() >= 3, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("Instant::now")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("thread-identity")),
        "{findings:?}"
    );
}

#[test]
fn d002_silent_on_known_good() {
    let findings = lint(
        "crates/sampling/src/fixture.rs",
        include_str!("../fixtures/d002_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// D003 — fixed float operation order
// ---------------------------------------------------------------------------

#[test]
fn d003_fires_on_known_bad() {
    let findings = lint(
        "crates/core/src/kernel.rs",
        include_str!("../fixtures/d003_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["D003"], "{findings:?}");
    assert!(findings[0].message.contains("fn total"), "{findings:?}");
}

#[test]
fn d003_silent_on_known_good() {
    let findings = lint(
        "crates/core/src/kernel.rs",
        include_str!("../fixtures/d003_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d003_audits_only_the_kernel_files() {
    // The same accumulation loop elsewhere in sdd-core is not D003's
    // business (panic of scope creep): no findings.
    let findings = lint(
        "crates/core/src/score.rs",
        include_str!("../fixtures/d003_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// P001 — panic-freedom in spill I/O
// ---------------------------------------------------------------------------

#[test]
fn p001_fires_on_known_bad() {
    let findings = lint(
        "crates/table/src/shard.rs",
        include_str!("../fixtures/p001_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["P001"; 9], "{findings:?}");
    for needle in [
        ".unwrap()",
        ".expect()",
        "panic!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
        "todo!",
        "unimplemented!",
        "unreachable!",
    ] {
        assert!(
            findings.iter().any(|f| f.message.starts_with(needle)),
            "{needle}: {findings:?}"
        );
    }
}

#[test]
fn p001_silent_on_known_good() {
    let findings = lint(
        "crates/table/src/shard.rs",
        include_str!("../fixtures/p001_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// U001 — SAFETY comments on unsafe code
// ---------------------------------------------------------------------------

#[test]
fn u001_fires_on_known_bad() {
    let findings = lint(
        "crates/core/src/accel/fixture.rs",
        include_str!("../fixtures/u001_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["U001"; 2], "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("SAFETY")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("# Safety")),
        "{findings:?}"
    );
}

#[test]
fn u001_silent_on_known_good() {
    let findings = lint(
        "crates/core/src/accel/fixture.rs",
        include_str!("../fixtures/u001_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// E001 — environment reads in product crates
// ---------------------------------------------------------------------------

#[test]
fn e001_fires_on_known_bad() {
    let findings = lint(
        "crates/server/src/fixture.rs",
        include_str!("../fixtures/e001_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["E001", "E001"], "{findings:?}");
    assert!(findings[0].message.contains("env::var "), "{findings:?}");
    assert!(findings[1].message.contains("env::var_os"), "{findings:?}");
}

#[test]
fn e001_silent_on_known_good() {
    let findings = lint(
        "crates/server/src/fixture.rs",
        include_str!("../fixtures/e001_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn e001_exempts_the_two_owners_and_non_product_crates() {
    for path in [
        "crates/core/src/exec.rs",
        "crates/core/src/accel/cpu.rs",
        "crates/bench/src/lib.rs",
    ] {
        let findings = lint(path, include_str!("../fixtures/e001_bad.rs"));
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

// ---------------------------------------------------------------------------
// X001 — sharded/monolithic API parity
// ---------------------------------------------------------------------------

#[test]
fn x001_fires_on_orphan_sharded_fn() {
    let findings = lint(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/x001_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["X001"; 2], "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("monolithic twin")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("tests/shard_parity.rs")),
        "{findings:?}"
    );
}

#[test]
fn x001_silent_when_twin_and_parity_case_exist() {
    let sources = vec![
        (
            "crates/core/src/fixture.rs".to_owned(),
            include_str!("../fixtures/x001_good.rs").to_owned(),
        ),
        (
            "tests/shard_parity.rs".to_owned(),
            "fn parity() { let _ = paired_scan_sharded; }\n".to_owned(),
        ),
    ];
    let findings = lint_sources(&sources, &|_| true);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn x001_missing_parity_case_is_reported_once_per_family() {
    // Twin exists but the parity suite never names the family.
    let sources = vec![(
        "crates/core/src/fixture.rs".to_owned(),
        include_str!("../fixtures/x001_good.rs").to_owned(),
    )];
    let findings = lint_sources(&sources, &|_| true);
    assert_eq!(rules_of(&findings), vec!["X001"], "{findings:?}");
    assert!(
        findings[0].message.contains("not exercised"),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Suppression markers
// ---------------------------------------------------------------------------

#[test]
fn allow_markers_with_reasons_suppress() {
    let findings = lint(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/suppressed.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allow_marker_without_reason_does_not_suppress() {
    let src = "// sdd-lint: allow(D001)\nuse std::collections::HashMap;\n";
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(
        rules_of(&findings),
        vec!["D001"],
        "bare marker must not gag"
    );
}

#[test]
fn allow_marker_names_only_its_rule() {
    // A D002 marker does not excuse a D001 violation on the same line.
    let src = "// sdd-lint: allow(D002) wrong rule named here\nuse std::collections::HashMap;\n";
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&findings), vec!["D001"], "{findings:?}");
}

// ---------------------------------------------------------------------------
// Baseline round-trip
// ---------------------------------------------------------------------------

#[test]
fn baseline_round_trip_grandfathers_fixture_findings() {
    let findings = lint(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/d001_bad.rs"),
    );
    assert!(!findings.is_empty());
    let text = Baseline::render(&findings);
    let b = Baseline::parse(&text);
    for f in &findings {
        assert!(b.contains(f), "rendered baseline must cover {f}");
    }
    // A fresh finding in another file is not grandfathered.
    let other = Finding {
        file: "crates/core/src/other.rs".to_owned(),
        line: 1,
        rule: "D001",
        message: findings[0].message.clone(),
    };
    assert!(!b.contains(&other));
}
