//! CLI for the contract lint. Clippy-style exit codes: 0 clean, 1
//! contract violations, 2 usage/IO error.
//!
//! ```text
//! cargo run -p wcq-lint     # check crates/*/src; prints the inventory
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
                println!("wcq-lint: check the ORDERING / BOUND / SAFETY contracts under crates/*/src\n{USAGE}");
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

    let report = wcq_lint::check(&files);
    for e in &report.errors {
        eprintln!("{e}\n");
    }
    for line in report.summary() {
        println!("wcq-lint: {line}");
    }
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("wcq-lint: {} error(s)", report.errors.len());
        ExitCode::from(1)
    }
}
