//! PAPER_MAP.md is keyed on `file.rs::Symbol`, not on line numbers; this
//! checks every key still resolves, so a refactor that moves or renames a
//! mapped symbol fails here instead of silently rotting the map.
//!
//! Two kinds of backticked token are checked:
//!
//! * `path/to/file.rs::Seg::seg` — the file must exist and define every
//!   segment as an item (`fn`/`struct`/`enum`/`const`/`static`/`type`/
//!   `trait`/`mod`/`union`/`macro_rules!`);
//! * any other token that starts with a top-level source directory — the
//!   path must exist.

use std::path::Path;

const ROOTS: [&str; 8] = [
    "benchmark/",
    "crates/",
    "tests/",
    "tools/",
    "third_party/",
    "examples/",
    "tla/",
    ".github/",
];

/// `true` if `src` has an item definition named `name`.
fn defines(src: &str, name: &str) -> bool {
    const KINDS: [&str; 10] = [
        "fn", "struct", "enum", "const", "static", "type", "trait", "mod", "union",
        "macro_rules!",
    ];
    src.match_indices(name).any(|(at, _)| {
        let after = src[at + name.len()..].chars().next();
        if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return false; // a longer identifier
        }
        let before = src[..at].trim_end();
        at > before.len() // whitespace between keyword and name
            && KINDS.iter().any(|k| {
                before.strip_suffix(k).is_some_and(|head| {
                    !head.ends_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            })
    })
}

#[test]
fn every_anchor_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let map = std::fs::read_to_string(root.join("PAPER_MAP.md")).expect("PAPER_MAP.md");
    let line_anchors = map
        .match_indices(".rs:")
        .filter(|(at, _)| map[at + 4..].starts_with(|c: char| c.is_ascii_digit()))
        .count();
    assert_eq!(
        line_anchors, 0,
        "PAPER_MAP.md carries `file.rs:line` anchors; key them on `file.rs::Symbol`"
    );
    let mut symbols = 0;
    let mut broken = Vec::new();
    // Odd-numbered pieces of a split on '`' are the backticked tokens.
    for token in map.split('`').skip(1).step_by(2) {
        if let Some((file, path)) = token.split_once(".rs::") {
            let file = format!("{file}.rs");
            let Ok(src) = std::fs::read_to_string(root.join(&file)) else {
                broken.push(format!("{token}: no such file {file}"));
                continue;
            };
            symbols += 1;
            for seg in path.split("::") {
                if !defines(&src, seg) {
                    broken.push(format!("{token}: {file} defines no item `{seg}`"));
                }
            }
        } else if ROOTS.iter().any(|r| token.starts_with(r)) && !root.join(token).exists() {
            broken.push(format!("{token}: no such path"));
        }
    }
    assert!(broken.is_empty(), "stale PAPER_MAP.md anchors:\n{}", broken.join("\n"));
    assert!(symbols >= 50, "only {symbols} symbol anchors found — did the key syntax change?");
}

#[test]
fn the_checker_can_fail() {
    let src = "pub(crate) fn acquire_slot() {}\nstruct WcqRing;\nconst FIN: u64 = 1;";
    assert!(defines(src, "acquire_slot") && defines(src, "WcqRing") && defines(src, "FIN"));
    assert!(!defines(src, "acquire"), "prefix of a longer name");
    assert!(!defines(src, "slot"), "suffix of a longer name");
    assert!(!defines("let x = WcqRing::new();", "WcqRing"), "a use is not a definition");
}
