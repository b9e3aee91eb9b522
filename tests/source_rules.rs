//! The source rules clippy cannot state (docs/DETERMINISM.md):
//! * **D003**: a fn in `crates/core/src/kernel.rs` that accumulates floats in a loop has a
//!   `det-order:` comment in it or in the lines above it;
//! * **X001**: a `pub fn *_sharded` in `sdd-core` has a monolithic twin and is called by name
//!   in `tests/shard_parity.rs`;
//! * **P001, asserts**: a file that denies `clippy::unwrap_used` has no `assert!`/`assert_eq!`/
//!   `assert_ne!` outside tests unless the line above is `// source-rules: allow(P001) <reason>`;
//! * **E001, no exceptions**: no product source outside tests names `std::env::var*`, so an
//!   `#[allow(clippy::disallowed_methods)]` cannot quietly add a setting.

use std::fs;
use std::ops::Range;
use std::path::Path;

/// The line that puts a file under P001 (clippy checks the rest of it).
const P001_DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";
const P001_MARKER: &str = "// source-rules: allow(P001)";

/// The code of `src` before its first `#[cfg(test)]`, comments and string/char literals blanked
/// to spaces byte for byte, so it can be searched as text at `src`'s offsets.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        let len = match rest {
            [b'/', b'/', ..] => rest.iter().take_while(|&&x| x != b'\n').count(),
            [b'/', b'*', ..] => src[i + 2..].find("*/").map_or(rest.len(), |n| n + 4),
            [b'"', ..] => {
                let mut j = 1;
                while j < rest.len() && rest[j] != b'"' {
                    j += 1 + usize::from(rest[j] == b'\\');
                }
                j + 1
            }
            [b'\'', b'\\', ..] => 4 + rest.iter().skip(3).take_while(|&&x| x != b'\'').count(),
            [b'\'', _, b'\'', ..] => 3,
            _ => 0,
        };
        out[i..(i + len).min(b.len())].fill(b' ');
        i += len.max(1);
    }
    let code = String::from_utf8(out).unwrap();
    code[..code.find("#[cfg(test)]").unwrap_or(code.len())].to_owned()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Offsets of `word` with no identifier character on either side.
fn word_at<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bare = move |&i: &usize| {
        !text[..i].ends_with(is_ident) && !text[i + word.len()..].starts_with(is_ident)
    };
    text.match_indices(word).map(|(i, _)| i).filter(bare)
}

fn has(text: &str, word: &str) -> bool {
    word_at(text, word).next().is_some()
}

/// Every fn with a body in `code` (as returned by [`code_only`]), as
/// (name, span from `fn` to the closing brace, `{ … }` body).
fn fns(code: &str) -> Vec<(&str, Range<usize>, &str)> {
    let mut out = Vec::new();
    for at in word_at(code, "fn") {
        let rest = code[at + 2..].trim_start();
        let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        let open = at + code[at..].find(['{', ';']).unwrap_or(0);
        if name.is_empty() || !code[open..].starts_with('{') {
            continue;
        }
        let mut depth = 0;
        let len = code[open..].find(|c| {
            depth += i32::from(c == '{') - i32::from(c == '}');
            depth == 0
        });
        let end = len.map_or(code.len(), |n| open + n + 1);
        out.push((name, at..end, &code[open..end]));
    }
    out
}

fn d003(src: &str) -> Vec<String> {
    let code = code_only(src);
    let mut out = Vec::new();
    for (name, span, body) in fns(&code) {
        let mut digits = body.as_bytes().windows(3);
        let literal = digits.any(|w| matches!(w, [b'0'..=b'9', b'.', b'0'..=b'9']));
        let looped = has(body, "for") || has(body, "while") || has(body, "loop");
        let sums = body.contains("+=") || body.contains("-=");
        // The note sits in the body or in the docs and attributes above.
        let head = src[..span.start].rfind("\n\n").unwrap_or(0);
        let noted = src[head..span.end].contains("det-order:");
        if (literal || has(body, "f64")) && looped && sums && !noted {
            out.push(format!("D003: fn {name} sums floats without det-order:"));
        }
    }
    out
}

fn x001(core: &str, parity: &str) -> Vec<String> {
    let (core, parity) = (code_only(core), code_only(parity));
    let mut out = Vec::new();
    for (name, span, _) in fns(&core) {
        let stem = name.strip_suffix("_sharded").unwrap_or_default();
        let stem = stem.strip_prefix("try_").unwrap_or(stem);
        let names = [stem.to_owned(), format!("try_{stem}")];
        let twin = names.iter().any(|n| has(&core, &format!("fn {n}")));
        let tested = names.iter().any(|n| has(&parity, &format!("{n}_sharded")));
        if !stem.is_empty() && core[..span.start].ends_with("pub ") && !(twin && tested) {
            out.push(format!("X001: {name} lacks a twin or a parity case"));
        }
    }
    out
}

fn p001_asserts(src: &str) -> Vec<String> {
    let code = code_only(src);
    let mut out = Vec::new();
    for mac in ["assert!", "assert_eq!", "assert_ne!"] {
        for at in word_at(&code, mac) {
            let above = src[..at].rsplit('\n').nth(1).unwrap_or_default();
            let reason = above.split_once(P001_MARKER).map(|(_, r)| r.trim());
            if reason.is_none_or(str::is_empty) {
                out.push(format!("P001: {mac} on line {}", src[..at].lines().count()));
            }
        }
    }
    out
}

fn e001(src: &str) -> Vec<String> {
    let code = code_only(src);
    let line = |at: usize| src[..at].lines().count();
    let reads = code.match_indices("env::var").map(|(at, _)| at);
    reads
        .map(|at| format!("E001: an environment read on line {}", line(at)))
        .collect()
}

#[test]
fn the_workspace_keeps_the_source_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut files) = (vec![root.join("crates")], Vec::new());
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path).unwrap();
                files.push((path.display().to_string(), src));
            }
        }
    }
    let none = Vec::<String>::new();
    let mut core = String::new();
    for (path, src) in files.iter().filter(|(p, _)| p.contains("crates/core/src/")) {
        if path.ends_with("kernel.rs") {
            assert_eq!(d003(src), none);
        }
        core += &code_only(src);
    }
    let parity = fs::read_to_string(root.join("tests/shard_parity.rs")).unwrap();
    assert_eq!(x001(&core, &parity), none);

    // Every crate but `sdd-bench` (the paper-figure bins and their knobs) is product.
    for (path, src) in files.iter().filter(|(p, _)| !p.contains("crates/bench/")) {
        if !path.contains("/tests/") {
            assert_eq!(e001(src), none, "{path}");
        }
    }
    let facade = fs::read_to_string(root.join("src/lib.rs")).unwrap();
    assert_eq!(e001(&facade), none, "src/lib.rs");

    let mut p001 = 0;
    for (path, src) in files.iter().filter(|(_, s)| s.contains(P001_DENY)) {
        assert_eq!(p001_asserts(src), none, "{path}");
        p001 += 1;
    }
    assert!(p001 >= 13, "{p001} files deny clippy::unwrap_used");
}

#[test]
fn the_rules_flag_known_bad_and_pass_known_good_sources() {
    let sum = "fn s(x: &[f64]) -> f64 { '}'; let mut a = 0.0; for v in x { a += v; } a }";
    let d003_cases = [
        (sum.to_owned(), 1),
        (format!("/// det-order: in row order.\n#[inline]\n{sum}"), 0),
        (format!("// det-order: another fn's\n\n{sum}"), 1),
        (sum.replace(" a }", " a // det-order: row order\n}"), 0),
        (sum.replace("f64", "u32").replace("0.0", "0"), 0),
        (format!("#[cfg(test)]\n{sum}"), 0),
    ];
    for (src, want) in d003_cases {
        assert_eq!(d003(&src).len(), want, "{src}");
    }
    let sharded = "/// `{`\npub fn try_scan_sharded<'a>(t: &'a T) -> u64 { \"}\"; 0 }";
    let twin = format!("pub fn scan(t: &T) -> u64 {{ 0 }}\n{sharded}");
    let parity = "fn t() { try_scan_sharded(&t); }";
    assert_eq!(x001(sharded, parity).len(), 1);
    assert_eq!(x001(&twin, "").len(), 1);
    assert_eq!(x001(&twin, parity).len(), 0);
    assert_eq!(x001("fn scan_sharded() {}", "").len(), 0);
    let asserts = "fn f(x: u8) {\n    assert!(x);\n    assert_eq!(x, 1);\n    assert_ne!(x, 2);\n}";
    let p001_cases = [
        (asserts.to_owned(), 3),
        ("fn f() { debug_assert!(x); \"assert!(x)\" }".into(), 0),
        ("// assert!(x)\n/* assert!(x) */".into(), 0),
        (format!("#[cfg(test)]\n{asserts}"), 0),
        (format!("{P001_MARKER} why\nassert!(\n    ok\n);"), 0),
        (format!("{P001_MARKER}\nassert!(ok);"), 1),
        (format!("{P001_MARKER} why\nok();\nassert!(ok);"), 1),
    ];
    for (src, want) in p001_cases {
        assert_eq!(p001_asserts(&src).len(), want, "{src}");
    }
    let read = "#[allow(clippy::disallowed_methods, reason = \"one knob\")]\nfn threads() -> usize {\n    std::env::var(\"N\").map_or(1, |v| v.len())\n}";
    assert_eq!(e001(read), ["E001: an environment read on line 3"]);
    let no_read = "fn f() -> usize {\n    // std::env::var(\"N\")\n    std::env::args().count() + \"env::var\".len()\n}";
    assert_eq!(e001(no_read).len(), 0);
    assert_eq!(e001(&format!("#[cfg(test)]\n{read}")).len(), 0);
}
