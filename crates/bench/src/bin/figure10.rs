//! Figure 10 — memory test, x86-64 (paper §6, Figs. 10a/10b).
//!
//! Workload: enqueue/dequeue chosen randomly (50/50) with tiny random
//! delays between operations, "standard malloc" (here: the counting
//! allocator wrapping the system allocator so we can census per-queue
//! usage).
//!
//! * Panel (a): memory consumed per queue as threads grow. Expected shape:
//!   LCRQ balloons (closed rings), YMC grows (pinned segments), wCQ/SCQ
//!   stay flat at ring size (wCQ ≈ 2× SCQ: 16-byte entry pairs).
//! * Panel (b): throughput of the same runs.
//!
//! This is the only binary that installs the counting allocator: it costs
//! two shared atomic RMWs per allocation, so every other figure runs in
//! the `figures` binary on the system allocator (DESIGN.md §5).
//!
//! Usage: `cargo run --release -p bench --bin figure10 [-- --panel mem|tput|both]`

use bench::{ladder, parse_panel, print_env_banner, reject, run_figure, BenchOpts};
use bench::{LADDER_X86, PAPER};
use harness::workload::Workload;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = parse_panel(&args, &["mem", "tput", "both"]).unwrap_or_else(|e| reject(&e));
    let mut opts = BenchOpts::from_env(LADDER_X86);
    opts.delay = 64; // the paper's "tiny random delays"
    print_env_banner("Figure 10: memory test (random 50/50 ops, tiny random delays)");
    let series = run_figure(Workload::Mixed5050, PAPER, &ladder(&opts), &opts, true);
    if panel != "tput" {
        series.print_mem("Figure 10a: Memory usage (MB, peak during run)");
    }
    if panel != "mem" {
        series.print_tput("Figure 10b: Throughput (Mops/s, mean of reps)");
    }
}
