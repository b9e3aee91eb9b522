//! `sdd-lint` — the workspace determinism & panic-freedom lint pass.
//!
//! The smart-drill-down workspace promises bit-identical results for any
//! thread count, shard count, or resident-or-spilled shard form, and
//! panic-free spill I/O. Those promises are invariants of *code shape*,
//! not of any one test input, so they are enforced statically: a std-only
//! token scanner ([`lexer`]) feeds a lightweight item walker ([`walker`])
//! which drives the rule catalog ([`rules`]) over every Rust source file
//! in the workspace. CI runs `cargo run -p sdd-lint -- --deny-all` on
//! every push.
//!
//! See `docs/DETERMINISM.md` for the invariant catalog and the
//! suppression-marker syntax.

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod walker;

use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Directory names never descended into when collecting workspace sources.
/// `fixtures` holds the linter's own known-bad test inputs.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Collects every `.rs` file under `root` (skipping `SKIP_DIRS`),
/// returning workspace-relative `/`-separated paths in sorted order so
/// report order never depends on directory-iteration order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parses and lints a set of `(relative path, source)` pairs, running the
/// per-file rules and the cross-file rule X001. Findings come back sorted
/// by (file, line, rule) regardless of input order.
pub fn lint_sources(sources: &[(String, String)], enabled: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    let models: Vec<(String, walker::FileModel)> = sources
        .iter()
        .map(|(path, src)| (path.clone(), walker::FileModel::parse(src)))
        .collect();
    let mut out = Vec::new();
    for (path, m) in &models {
        out.extend(rules::lint_file(path, m, enabled));
    }
    out.extend(rules::x001(&models, enabled));
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Reads and lints the whole workspace rooted at `root`.
pub fn lint_workspace(
    root: &Path,
    enabled: &dyn Fn(&str) -> bool,
) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for rel in collect_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(lint_sources(&sources, enabled))
}

/// Lints one in-memory file under its pretend workspace path (fixture
/// tests use this to aim a known-bad source at a rule's scope).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_owned(), src.to_owned())], &|_| true)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory holding a `Cargo.toml` with a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sort_and_display() {
        let src_bad = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = std::collections::HashMap::new(); let _ = m; }";
        let findings = lint_source("crates/core/src/lib.rs", src_bad);
        assert!(!findings.is_empty());
        let shown = findings[0].to_string();
        assert!(
            shown.starts_with("crates/core/src/lib.rs:1 D001 "),
            "{shown}"
        );
    }

    #[test]
    fn out_of_scope_paths_are_clean() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = std::time::Instant::now(); }";
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
    }
}
