//! CLI for the contract lint. Clippy-style exit codes: 0 clean, 1
//! contract violations, 2 usage/IO error.
//!
//! ```text
//! cargo run -p wcq-lint     # check crates/*/src and the DESIGN.md
//!                            # citations; prints the inventory
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: wcq-lint [--root <workspace-root>]";

fn main() -> ExitCode {
    let fail = |msg: String| {
        eprintln!("error: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return fail("--root needs a path".to_string()),
            },
            "-h" | "--help" => {
                println!("wcq-lint: check the ORDERING / BOUND / SAFETY contracts under crates/*/src and that every DESIGN.md citation resolves\n{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(format!("unknown argument `{other}`")),
        }
    }
    let Some(root) = root.or_else(|| wcq_lint::find_root(&std::env::current_dir().ok()?)) else {
        return fail("could not locate the workspace root (pass --root)".to_string());
    };
    let files = match wcq_lint::load_tree(&root) {
        Ok(files) => files,
        Err(e) => return fail(format!("scanning {}: {e}", root.display())),
    };

    let (citing, design) = match wcq_lint::load_citing(&root)
        .and_then(|citing| Ok((citing, std::fs::read_to_string(root.join("DESIGN.md"))?)))
    {
        Ok(loaded) => loaded,
        Err(e) => {
            return fail(format!(
                "reading the DESIGN citations under {}: {e}",
                root.display()
            ))
        }
    };

    let report = wcq_lint::check(&files);
    let (citations, citation_errors) = wcq_lint::check_citations(&citing, &design);
    let errors: Vec<&String> = report.errors.iter().chain(&citation_errors).collect();
    for e in &errors {
        eprintln!("{e}\n");
    }
    for line in report.summary() {
        println!("wcq-lint: {line}");
    }
    println!(
        "wcq-lint: citations: {citations} DESIGN section citations in {} files",
        citing.len()
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("wcq-lint: {} error(s)", errors.len());
        ExitCode::from(1)
    }
}
