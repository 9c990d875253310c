//! The contract lint against the real tree: the checked-in sources must
//! be clean, no verdict may depend on a line number, and every failure
//! mode the CI gate exists for must be demonstrably fatal, not
//! theoretical.

use std::path::Path;
use wcq_lint::{check, load_tree, Pass, Report};

fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    load_tree(root.expect("tools/wcq-lint sits two levels under the workspace root"))
        .expect("read crates/*/src")
}

/// Checks the real tree plus one injected file, and returns the errors.
fn errors_with(text: &str) -> Vec<String> {
    let mut files = tree();
    files.push(("crates/core/src/injected.rs".to_string(), text.to_string()));
    check(&files).errors
}

/// Asserts the injection produced exactly one error, of `kind`, at the
/// injected file.
fn assert_only(errors: &[String], kind: &str) {
    assert_eq!(
        errors.len(),
        1,
        "expected one `{kind}` error, got: {errors:#?}"
    );
    assert!(
        errors[0].contains(kind) && errors[0].contains("injected.rs"),
        "{}",
        errors[0]
    );
}

fn count(report: &Report, pass: Pass) -> usize {
    report.sites.iter().filter(|s| s.pass == pass).count()
}

#[test]
fn checked_in_tree_is_clean() {
    let report = check(&tree());
    assert!(
        report.errors.is_empty(),
        "wcq-lint dirty:\n{}",
        report.errors.join("\n\n")
    );
    // Scanner-regression floors: a pass that silently stops finding
    // sites would otherwise read as "clean". Pinned ~5% under the
    // inventory (429 atomic / 102 loops / 152 unsafe at PR 15); when a
    // simplification shrinks the inventory, re-pin — never keep code to
    // satisfy a floor.
    assert!(
        count(&report, Pass::Ordering) >= 400,
        "{:?}",
        report.summary()
    );
    assert!(
        count(&report, Pass::Progress) >= 95,
        "{:?}",
        report.summary()
    );
    assert!(
        count(&report, Pass::Unsafety) >= 140,
        "{:?}",
        report.summary()
    );
}

/// The property the in-source contracts exist for: moving code costs
/// nothing. Shifting every file down changes each site's line and
/// nothing else — same sites, same covering contract text, same verdict.
#[test]
fn verdicts_are_line_shift_invariant() {
    let files = tree();
    let shifted: Vec<_> = files
        .iter()
        .map(|(f, t)| (f.clone(), format!("\n\n\n{t}")))
        .collect();
    let (before, after) = (check(&files), check(&shifted));
    assert_eq!(before.sites.len(), after.sites.len());
    for (b, a) in before.sites.iter().zip(&after.sites) {
        assert_eq!(a.line, b.line + 3, "{}:{} {}", b.file, b.line, b.sig);
        assert_eq!(
            (a.pass, &a.file, &a.sig, &a.note),
            (b.pass, &b.file, &b.sig, &b.note)
        );
    }
    assert_eq!(before.errors, after.errors);
    assert_eq!(before.summary(), after.summary());
}

#[test]
fn uncovered_atomic_fails() {
    let errors = errors_with("fn f(a: &AtomicU64) -> u64 { a.load(Relaxed) }\n");
    assert_only(&errors, "uncovered atomic site");
    // A placeholder is not an argument — `SeqCst` or weaker alike.
    let errors = errors_with("// ORDERING: TODO\nfn f(a: &AtomicU64) { a.store(1, SeqCst) }\n");
    assert_only(&errors, "uncovered atomic site");
}

#[test]
fn inner_ordering_overrides_an_enclosing_one() {
    let text = "//! ORDERING: file-wide argument\n\
                // ORDERING: fn-wide argument\n\
                fn f(a: &AtomicU64) {\n\
                    a.store(1, SeqCst);\n\
                    // ORDERING: this statement's argument\n\
                    a.store(2, Release);\n\
                }\n\
                fn g(a: &AtomicU64) { a.store(3, SeqCst); }\n";
    let sites = wcq_lint::scan_source("x.rs", text);
    let notes: Vec<_> = sites.iter().map(|s| s.note.as_deref().unwrap()).collect();
    assert_eq!(
        notes,
        [
            "fn-wide argument",
            "this statement's argument",
            "file-wide argument"
        ]
    );
}

#[test]
fn loop_without_bound_fails() {
    assert_only(&errors_with("fn f() { loop {} }\n"), "loop without BOUND");
    // A BOUND that is not adjacent to the head does not count.
    let errors = errors_with("// BOUND: const — once\n\nfn f() {\n    while go() {}\n}\n");
    assert_only(&errors, "loop without BOUND");
}

#[test]
fn bound_class_outside_the_taxonomy_fails() {
    let errors =
        errors_with("fn f() {\n    // BOUND: vibes — it stops eventually\n    loop {}\n}\n");
    assert_only(&errors, "unclassified loop");
}

#[test]
fn wait_edge_without_a_why_fails() {
    let errors = errors_with("fn f() {\n    // BOUND: wait-edge —\n    loop {}\n}\n");
    assert_only(&errors, "unjustified wait-edge");
    // Every other class may stand on its name alone.
    assert_eq!(
        errors_with("fn f() {\n    // BOUND: finite-iter\n    loop {}\n}\n"),
        [""; 0]
    );
}

#[test]
fn unsafe_block_without_safety_fails() {
    let errors = errors_with("fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n");
    assert_only(&errors, "undocumented unsafe site");
    let commented = "fn f(p: *mut u8) {\n    // SAFETY: `p` is live.\n    unsafe { *p = 1 };\n}\n";
    assert_eq!(errors_with(commented), [""; 0]);
}

#[test]
fn crate_root_missing_the_deny_attribute_fails() {
    let mut files = tree();
    let root = files
        .iter_mut()
        .find(|(f, _)| f == "crates/hazard/src/lib.rs")
        .unwrap();
    assert!(root.1.contains(wcq_lint::DENY_ATTR));
    root.1 = root.1.replace(wcq_lint::DENY_ATTR, "");
    let errors = check(&files).errors;
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert!(
        errors[0].contains("missing #![deny(unsafe_op_in_unsafe_fn)]"),
        "{}",
        errors[0]
    );
    assert!(
        errors[0].contains("crates/hazard/src/lib.rs"),
        "{}",
        errors[0]
    );
}
