//! `cargo bench-guard` — performance regression gate.
//!
//! Re-runs the pipeline benchmark at the committed baseline's own
//! configuration and fails (exit 1) when any stage regressed:
//!
//! - hosts/sec more than 10% below the baseline, or
//! - allocs/op more than 5% above the baseline (only for baselines that
//!   carry the allocation columns), or
//! - any behavior counter in the baseline's `metrics` block differs
//!   from the current run — those counts (connects, replies, retries…)
//!   are a pure function of the pinned seed, so they are compared
//!   exactly: a mismatch is a behavior change hiding in a perf PR.
//!
//! ```text
//! cargo bench-guard [--baseline PATH]
//! ```
//!
//! The stage gate compares like with like or not at all: when the
//! baseline was recorded on a machine with a different
//! `threads_available`, the hosts/sec and allocs/op comparisons are
//! skipped rather than failing on hardware differences. The behavior
//! counters do not depend on the hardware, so their exact comparison
//! runs on every machine. A missing baseline file skips everything (exit
//! 0) — the gate guards committed numbers, it does not create them.

use bench::pipeline;

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc::new();

/// Throughput may drop to this fraction of baseline before failing.
const HOSTS_PER_SEC_FLOOR: f64 = 0.90;
/// Allocs/op may grow to this multiple of baseline before failing.
const ALLOCS_PER_OP_CEILING: f64 = 1.05;

fn main() {
    obs::diag_to_stderr();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|ix| args.get(ix + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
        eprintln!("bench-guard: no baseline at {baseline_path}; skipping");
        return;
    };
    let servers = pipeline::extract_u64(&baseline, "servers").unwrap_or(600) as usize;
    let mut failures = stage_failures(&baseline, &baseline_path, servers);

    // Behavior-count gate: baselines carrying a metrics block pin the
    // exact event counts the study produces at the benchmark seed.
    let base_metrics = pipeline::parse_baseline_metrics(&baseline);
    if !base_metrics.is_empty() {
        match pipeline::behavior_metrics(servers) {
            Some(now) => {
                let current: Vec<(String, u64)> = obs::Counter::ALL
                    .iter()
                    .map(|c| (c.name().to_owned(), now.counter(*c)))
                    .collect();
                for (name, base_value) in &base_metrics {
                    match current.iter().find(|(n, _)| n == name) {
                        Some((_, now_value)) if now_value == base_value => {}
                        Some((_, now_value)) => {
                            eprintln!(
                                "bench-guard: FAIL metric {name}: {now_value} != baseline {base_value}"
                            );
                            failures += 1;
                        }
                        None => {
                            eprintln!("bench-guard: metric {name} missing from current build");
                            failures += 1;
                        }
                    }
                }
            }
            None => {
                eprintln!("bench-guard: baseline has metrics but this build collected none");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("bench-guard: {failures} regression(s) vs {baseline_path}");
        std::process::exit(1);
    }
    eprintln!("bench-guard: no regression vs {baseline_path}");
}

/// Re-runs the pipeline stages and counts hosts/sec and allocs/op
/// regressions against the baseline's stage rows. Skips (0 failures)
/// when the baseline was recorded with a different `threads_available`
/// or carries no stage rows.
fn stage_failures(baseline: &str, baseline_path: &str, servers: usize) -> u32 {
    let base_threads = pipeline::extract_u64(baseline, "threads_available").unwrap_or(1);
    let here_threads = pipeline::threads_available() as u64;
    if base_threads != here_threads {
        eprintln!(
            "bench-guard: baseline recorded with threads_available={base_threads}, \
             this machine has {here_threads}; skipping the stage comparisons (numbers \
             are not comparable)"
        );
        return 0;
    }
    let shards = pipeline::extract_u64(baseline, "shards").unwrap_or(8).max(1);
    let iters = pipeline::extract_u64(baseline, "iters").unwrap_or(3) as u32;
    let base_stages = pipeline::parse_baseline_stages(baseline);
    if base_stages.is_empty() {
        eprintln!("bench-guard: baseline {baseline_path} has no stage rows; skipping them");
        return 0;
    }

    eprintln!("bench-guard: re-running {servers} servers, best of {iters} iters");
    let current = pipeline::run_stages(servers, shards, iters).stages;

    let mut failures = 0u32;
    for base in &base_stages {
        let Some(now) = current.iter().find(|s| s.name == base.name) else {
            eprintln!("bench-guard: stage {} missing from current run", base.name);
            failures += 1;
            continue;
        };
        // Shard-scaling stages measure parallelism; on a single thread
        // the shards serialize and any comparison is hardware noise,
        // not a regression (ROADMAP item 5).
        if pipeline::is_shard_scaling_stage(&base.name) {
            let base_stage_threads = base.threads_available.unwrap_or(base_threads);
            if base_stage_threads == 1 || now.threads_available == 1 {
                eprintln!(
                    "bench-guard: skipping shard-scaling stage {} (threads_available: \
                     baseline {base_stage_threads}, here {})",
                    base.name, now.threads_available
                );
                continue;
            }
        }
        let floor = base.hosts_per_sec * HOSTS_PER_SEC_FLOOR;
        if now.hosts_per_sec < floor {
            eprintln!(
                "bench-guard: FAIL {}: {:.1} hosts/s < {:.1} (90% of baseline {:.1})",
                base.name, now.hosts_per_sec, floor, base.hosts_per_sec
            );
            failures += 1;
        }
        // Baselines predating the allocation columns (or recorded with
        // allocs_per_op = 0, i.e. without the counting allocator) carry
        // no allocation budget to enforce.
        if let Some(base_allocs) = base.allocs_per_op.filter(|&a| a > 0) {
            let ceiling = base_allocs as f64 * ALLOCS_PER_OP_CEILING;
            if now.allocs_per_op as f64 > ceiling {
                eprintln!(
                    "bench-guard: FAIL {}: {} allocs/op > {:.0} (105% of baseline {})",
                    base.name, now.allocs_per_op, ceiling, base_allocs
                );
                failures += 1;
            }
        }
    }
    if failures == 0 {
        eprintln!("bench-guard: all {} stages within budget", base_stages.len());
    }
    failures
}
