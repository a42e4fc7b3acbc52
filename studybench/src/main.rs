//! The repository benchmark: complete FTP studies, end to end and layer
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload study-clean --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats the workload's complete study
//! through the program's own runner, cycling through the seed's worlds
//! for `--seconds`, and reports `hosts_per_s`, `setup_s` (both
//! normalized for machine speed, see `calib.rs`), `peak_heap_mb` and
//! `pass_frac`. With `--trace 1` it alternates untraced studies with a
//! traced recomposition of the same study (see `trace.rs`) and reports
//! per-layer times and counts. Every study's output is checked (see
//! `check.rs`). The last line of standard output is one JSON object with
//! the verdict and the metrics; `NOTES.md` describes the workloads.
//! `--pin` prints the check values of the seed's worlds for
//! `check::PINS`.

mod alloc;
mod calib;
mod check;
mod kernels;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{WorkDir, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Per-layer metrics of the traced run, in output order, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("worldgen.plan_s", "s"),
    ("worldgen.materialize_s", "s"),
    ("worldgen.allocs", "count"),
    ("vfs_nodes", "count"),
    ("hosts_materialized", "count"),
    ("zscan.order_s", "s"),
    ("zscan.run_s", "s"),
    ("zscan.cb_s", "s"),
    ("probes_sent", "count"),
    ("enumerate.run_s", "s"),
    ("enumerator.cb_s", "s"),
    ("enumerator.calls", "count"),
    ("enumerator.allocs", "count"),
    ("replies_total", "count"),
    ("codec_lines_borrowed", "count"),
    ("listing_bytes", "bytes"),
    ("listing_entries", "count"),
    ("server_dispatch_s", "s"),
    ("sim_events", "count"),
    ("wheel_inserts", "count"),
    ("wheel_cascaded_entries", "count"),
    ("list_cache_hits", "count"),
    ("connect_retries", "count"),
    ("connect_failures", "count"),
    ("step_timeouts", "count"),
    ("gave_ups", "count"),
    ("backoff_wait_us", "us"),
    ("webprobe.run_s", "s"),
    ("webprobe.cb_s", "s"),
    ("http_observations", "count"),
    ("study.assemble_s", "s"),
    ("analysis.fold_s", "s"),
    ("analysis.merge_s", "s"),
    ("report.render_s", "s"),
    ("report.bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("journal.render_s", "s"),
    ("journal.write_s", "s"),
    ("journal.lines", "count"),
    ("journal.bytes", "bytes"),
    ("worldgen.bucket_s", "s"),
    ("sim.reset_s", "s"),
    ("shard.0.busy_s", "s"),
    ("shard.1.busy_s", "s"),
    ("shard.skew", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("machine.slowdown", "ratio"),
    ("kernel.codec_split_ns", "ns/line"),
    ("kernel.reply_parse_ns", "ns/line"),
    ("kernel.listing_unix_ns", "ns/line"),
    ("kernel.listing_dos_ns", "ns/line"),
    ("kernel.listing_mlsd_ns", "ns/line"),
];

/// Program-side counters copied into the per-layer output.
const OBS_COUNTERS: &[obs::Counter] = &[
    obs::Counter::VfsNodes,
    obs::Counter::HostsMaterialized,
    obs::Counter::ProbesSent,
    obs::Counter::RepliesTotal,
    obs::Counter::CodecLinesBorrowed,
    obs::Counter::ListingBytes,
    obs::Counter::SimEvents,
    obs::Counter::WheelInserts,
    obs::Counter::WheelCascadedEntries,
    obs::Counter::ListCacheHits,
    obs::Counter::ConnectRetries,
    obs::Counter::ConnectFailures,
    obs::Counter::StepTimeouts,
    obs::Counter::GaveUps,
    obs::Counter::BackoffWaitUs,
    obs::Counter::HttpObservations,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pin,
    })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Successful and failed studies of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one study attempt; a panic, an error or a failed check
    /// counts it as failed.
    fn attempt<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(why)) => {
                eprintln!("study {} failed: {why}", self.attempted);
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("study {} panicked", self.attempted);
                self.failed += 1;
                None
            }
        }
    }
}

struct RunResult {
    tally: Tally,
    /// The metrics the JSON line carries.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures printed in the table only.
    raw: Vec<(&'static str, f64, &'static str)>,
}

/// One world's studies in an untraced run.
#[derive(Default)]
struct WorldSamples {
    walls: Vec<f64>,
    setups: Vec<f64>,
    slowdowns: Vec<f64>,
    peaks: Vec<f64>,
}

impl WorldSamples {
    fn normalized(&self, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .zip(&self.slowdowns)
            .map(|(t, s)| t / s)
            .collect()
    }
}

/// The mean over worlds of each world's median of `f`: every world
/// weighs the same, however its studies' times spread.
fn per_world(worlds: &[WorldSamples], f: impl Fn(&WorldSamples) -> Vec<f64>) -> f64 {
    let medians: Vec<f64> = worlds
        .iter()
        .filter(|w| !w.walls.is_empty())
        .map(|w| median(&f(w)))
        .collect();
    mean(&medians)
}

/// The untraced run: complete studies, cycling through the run's
/// worlds — each at least once — until the time is up. Each study is
/// bracketed by the machine-speed kernel (see `calib.rs`).
fn run_end_to_end(args: &Args, work: &WorkDir) -> RunResult {
    let mut worlds = workload::worlds(args.workload, args.seed, work);
    let mut tally = Tally::default();
    let mut samples: Vec<WorldSamples> = worlds.iter().map(|_| WorldSamples::default()).collect();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Every world once, then on until the time is up.
    for i in 0.. {
        if i >= worlds.len() && Instant::now() >= deadline {
            break;
        }
        let k = i % worlds.len();
        let (world, samples) = (&mut worlds[k], &mut samples[k]);
        let before = calib::measure(world.threads());
        let done = tally.attempt(|| {
            let setup_s = workload::time_setup(&world.cfg);
            let sample = workload::run_untraced(world, work)?;
            world.check(&sample.outcome)?;
            Ok((setup_s, sample))
        });
        let slowdown = calib::slowdown(before, calib::measure(world.threads()));
        if let Some((setup_s, sample)) = done {
            eprintln!(
                "study {} world {}: {:.4} s, set-up {setup_s:.4} s, peak heap {} B, \
                 machine slowdown {slowdown:.3}",
                tally.attempted, world.cfg.population.seed, sample.wall_s, sample.peak_heap_bytes
            );
            samples.walls.push(sample.wall_s);
            samples.setups.push(setup_s);
            samples.slowdowns.push(slowdown);
            samples.peaks.push(sample.peak_heap_bytes as f64);
        }
    }
    // Every world has the same number of planned FTP servers.
    let hosts = worlds[0].cfg.population.ftp_servers as f64;
    let passed = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    RunResult {
        metrics: vec![
            (
                "hosts_per_s",
                hosts / per_world(&samples, |w| w.normalized(&w.walls)),
                "1/s",
            ),
            (
                "setup_s",
                per_world(&samples, |w| w.normalized(&w.setups)),
                "s",
            ),
            (
                "peak_heap_mb",
                per_world(&samples, |w| w.peaks.clone()) / 1e6,
                "MB",
            ),
            ("pass_frac", passed, "ratio"),
        ],
        raw: vec![
            (
                "raw.hosts_per_s",
                hosts / per_world(&samples, |w| w.walls.clone()),
                "1/s",
            ),
            (
                "raw.setup_s",
                per_world(&samples, |w| w.setups.clone()),
                "s",
            ),
            (
                "machine.slowdown",
                per_world(&samples, |w| w.slowdowns.clone()),
                "ratio",
            ),
        ],
        tally,
    }
}

/// Per-layer values of one traced study.
fn layer_values(t: &trace::Traced, untraced_wall_s: f64) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        v.insert(name, t.layers.get(name));
    }
    for &c in OBS_COUNTERS {
        v.insert(c.name(), t.metrics.counter(c) as f64);
    }
    v.insert(
        "server_dispatch_s",
        t.layers.get("enumerate.run_s") - t.layers.get("enumerator.cb_s"),
    );
    v.insert("listing_entries", t.listing_entries as f64);
    v.insert("report.bytes", t.report_bytes as f64);
    for (i, name) in ["shard.0.busy_s", "shard.1.busy_s"].into_iter().enumerate() {
        v.insert(name, t.shard_busy.get(i).copied().unwrap_or(0.0));
    }
    let busy_max = t.shard_busy.iter().copied().fold(0.0, f64::max);
    let busy_min = t.shard_busy.iter().copied().fold(f64::INFINITY, f64::min);
    v.insert("shard.skew", busy_max / busy_min);
    let covered: f64 = trace::SELF_TIMES
        .iter()
        .map(|name| t.layers.get(name))
        .sum();
    v.insert("trace.wall_s", t.wall_s);
    v.insert("trace.coverage", covered / t.thread_s);
    v.insert(
        "trace.overhead_pct",
        (t.wall_s / untraced_wall_s - 1.0) * 100.0,
    );
    v
}

/// The traced run: untraced and traced studies of each world in
/// alternation, so the tracing overhead is measured pair by pair, plus
/// the kernel timings.
fn run_traced(args: &Args, work: &WorkDir) -> RunResult {
    let mut worlds = workload::worlds(args.workload, args.seed, work);
    let mut tally = Tally::default();
    let mut pairs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let kernels = kernels::measure();
    // Every world once, then on until the time is up.
    for i in 0.. {
        if i >= worlds.len() && Instant::now() >= deadline {
            break;
        }
        let k = i % worlds.len();
        let world = &mut worlds[k];
        let before = calib::measure(world.threads());
        let done = tally.attempt(|| {
            let untraced = workload::run_untraced(world, work)?;
            world.check(&untraced.outcome)?;
            let traced = match &world.opts {
                None => trace::traced_study(&world.cfg)?,
                Some(opts) => trace::traced_stream(&world.cfg, opts, work)?,
            };
            if traced.outcome.digest != untraced.outcome.digest {
                return Err(format!(
                    "traced report digest {:016x} differs from untraced {:016x}",
                    traced.outcome.digest, untraced.outcome.digest
                ));
            }
            world.check(&traced.outcome)?;
            Ok(layer_values(&traced, untraced.wall_s))
        });
        let slowdown = calib::slowdown(before, calib::measure(world.threads()));
        pairs.extend(done.map(|mut values| {
            values.insert("machine.slowdown", slowdown);
            values
        }));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match kernels.iter().find(|(k, _)| *k == name) {
                Some(&(_, ns)) => ns,
                None => median(&pairs.iter().map(|p| p[name]).collect::<Vec<_>>()),
            };
            (name, value, unit)
        })
        .collect();
    RunResult {
        tally,
        metrics,
        raw: Vec::new(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Removes this run's work directory, and its parent once empty (other
/// runs may share it).
fn cleanup(work: &WorkDir) {
    if let Err(e) = work.remove() {
        eprintln!("studybench: removing the work directory: {e}");
    }
    let _ = std::fs::remove_dir(WORK_ROOT);
}

/// Parent of every run's work directory, relative to the checkout.
const WORK_ROOT: &str = ".studybench";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("studybench: {why}");
            eprintln!(
                "usage: studybench --workload <study-clean|study-hostile|stream-journal> \
                 --seed <n> --seconds <n> --trace <0|1> [--pin]"
            );
            return ExitCode::from(2);
        }
    };
    let work = WorkDir::new(&PathBuf::from(WORK_ROOT).join(std::process::id().to_string()));

    if args.pin {
        for world in workload::worlds(args.workload, args.seed, &work) {
            match workload::run_untraced(&world, &work) {
                Ok(sample) => println!(
                    "{}",
                    check::pin_line(
                        args.workload.name(),
                        world.cfg.population.seed,
                        &sample.outcome
                    )
                ),
                Err(why) => {
                    eprintln!("studybench: {why}");
                    cleanup(&work);
                    return ExitCode::FAILURE;
                }
            }
        }
        cleanup(&work);
        return ExitCode::SUCCESS;
    }

    let pinned = workload::worlds(args.workload, args.seed, &work)
        .iter()
        .all(|w| w.reference.pinned());
    let result = if args.trace {
        run_traced(&args, &work)
    } else {
        run_end_to_end(&args, &work)
    };
    cleanup(&work);

    let Tally { attempted, failed } = result.tally;
    println!(
        "workload {} seed {} ({}) studies {attempted} failed {failed} fail_frac {}",
        args.workload.name(),
        args.seed,
        if pinned {
            "pinned"
        } else {
            "checked against its first study"
        },
        failed as f64 / attempted as f64,
    );
    for (name, value, unit) in result.metrics.iter().chain(&result.raw) {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
