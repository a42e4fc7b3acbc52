//! `ftpcloud` — command-line front end for the *FTP: The Forgotten
//! Cloud* reproduction.
//!
//! ```text
//! ftpcloud study [--scale N] [--servers N] [--seed S] [--shards K]
//!                [--batch-size B] [--checkpoint-dir DIR] [--resume DIR]
//!                [--trace OUT.jsonl] [--metrics OUT.json] [--profile]
//!                [--journal OUT.jsonl] [--timeseries OUT.csv]
//!                [--timeseries-every MS] [--progress]
//!                                            run the full pipeline, print every table;
//!                                            --servers sizes the world by host count
//!                                            (e.g. --servers 1000000) instead of paper
//!                                            scale; --shards runs K parallel simulations
//!                                            whose merged results are byte-identical to
//!                                            K=1; --batch-size streams the study through
//!                                            B-host batches with O(batch) memory and
//!                                            prints the streamed report; --checkpoint-dir
//!                                            persists per-shard progress after every
//!                                            batch, and --resume continues from such a
//!                                            directory to a byte-identical report;
//!                                            --trace/--metrics/--profile turn on the
//!                                            observability layer (never changes results);
//!                                            --journal records one flight-recorder line
//!                                            per host, --timeseries samples every metric
//!                                            every MS sim-milliseconds (default 500), and
//!                                            --progress prints a wall-clock heartbeat in
//!                                            streamed mode — none of which changes results
//! ftpcloud funnel [--servers N] [--seed S] [--faults PCT] [--shards K]
//!                [--trace OUT.jsonl] [--metrics OUT.json] [--profile]
//!                [--journal OUT.jsonl] [--timeseries OUT.csv]
//!                                            quick Table I funnel on a small world;
//!                                            --faults makes PCT% of it hostile
//! ftpcloud explain [IP] --journal J.jsonl [--top gave-up|faults]
//!                                            reconstruct a host's timeline from a journal
//!                                            written by `study --journal`; without an IP,
//!                                            summarize the whole journal (funnel, top
//!                                            gave-up reasons, fault encounters)
//! ftpcloud honeypot [--days D] [--pots N]    run the §VIII experiment
//! ftpcloud certify [--servers N]             CyberUL fleet audit (§X)
//! ftpcloud notify [--servers N]              responsible-disclosure digests (§III-A)
//! ftpcloud verdicts [--servers N]            paper-vs-measured scoreboard
//! ```

use ftp_study::{
    aggregate_of, run_study, run_study_sharded, run_study_streamed, tables, StreamOptions,
    StreamOutcome, StudyConfig,
};
use worldgen::PopulationSpec;

/// Writes report output to stdout. A reader that went away
/// (`ftpcloud … | head`) ends the process quietly with exit 0 instead of
/// a panic; any other write error is reported and exits 1.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: could not write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The numeric value of `name`, or `None` when the flag is absent. A
/// present flag whose value is missing or not a number is a usage error
/// (exit 2), never a silent fall-back to the default.
fn flag(args: &[String], name: &str) -> Option<u64> {
    let value = str_flag(args, name)?;
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("error: {name} expects a number, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// The value following `name`, or `None` when the flag is absent. A
/// present flag with nothing after it is a usage error (exit 2).
fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let ix = args.iter().position(|a| a == name)?;
    match args.get(ix + 1) {
        Some(value) => Some(value),
        None => {
            eprintln!("error: {name} expects a value");
            std::process::exit(2);
        }
    }
}

fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The observability flags shared by `study` and `funnel`: the sink
/// paths to write plus the pipeline-facing [`obs::ObsConfig`].
struct ObsCli<'a> {
    trace: Option<&'a str>,
    metrics: Option<&'a str>,
    profile: bool,
    journal: Option<&'a str>,
    timeseries: Option<&'a str>,
    cfg: obs::ObsConfig,
}

fn obs_flags(args: &[String]) -> ObsCli<'_> {
    let trace = str_flag(args, "--trace");
    let metrics = str_flag(args, "--metrics");
    let profile = switch(args, "--profile");
    let journal = str_flag(args, "--journal");
    let timeseries = str_flag(args, "--timeseries");
    let every_ms = flag(args, "--timeseries-every").unwrap_or(500).max(1);
    let cfg = obs::ObsConfig {
        // A metrics file is always worth collecting alongside a trace;
        // the snapshot rides in the same recorder for free.
        metrics: metrics.is_some() || trace.is_some() || profile,
        trace: trace.is_some(),
        profile,
        journal: journal.is_some(),
        timeseries_every_us: if timeseries.is_some() { every_ms * 1_000 } else { 0 },
    };
    ObsCli { trace, metrics, profile, journal, timeseries, cfg }
}

/// Writes the requested observability sinks out of a finished study.
/// `journal` overrides [`ObsCli::journal`] — streamed runs flush their
/// journals per batch through [`StreamOptions::journal_path`] and pass
/// `None` here so the already-written file is not clobbered.
fn write_obs_outputs(report: Option<&obs::Report>, cli: &ObsCli, journal: Option<&str>) {
    let Some(report) = report else { return };
    if let Some(path) = cli.trace {
        if let Err(e) = std::fs::write(path, report.trace_jsonl()) {
            eprintln!("warning: could not write trace {path}: {e}");
        } else {
            eprintln!("trace written to {path} ({} lines)", report.trace.len());
        }
    }
    if let Some(path) = cli.metrics {
        if let Err(e) = std::fs::write(path, report.metrics.render_json()) {
            eprintln!("warning: could not write metrics {path}: {e}");
        } else {
            eprintln!("metrics snapshot written to {path}");
        }
    }
    if let Some(path) = journal {
        if let Err(e) = std::fs::write(path, report.journal_jsonl()) {
            eprintln!("warning: could not write journal {path}: {e}");
        } else {
            eprintln!("host journal written to {path} ({} hosts)", report.journal.len());
        }
    }
    if let Some(path) = cli.timeseries {
        if let Err(e) = std::fs::write(path, report.timeseries_csv()) {
            eprintln!("warning: could not write timeseries {path}: {e}");
        } else {
            eprintln!("timeseries written to {path} ({} samples)", report.series.len());
        }
    }
    if cli.profile {
        outln!("{}", report.render_profile());
    }
}

/// `ftpcloud explain`: reconstructs host timelines (or a whole-journal
/// summary) from a `--journal` file alone — no rerun needed.
fn explain(args: &[String]) {
    let Some(path) = str_flag(args, "--journal") else {
        eprintln!("explain needs --journal FILE (written by `study --journal FILE`)");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(journals) = obs::ParsedJournal::parse_file(&text) else {
        eprintln!("error: {path} is not a v{} host journal", obs::JOURNAL_VERSION);
        std::process::exit(1);
    };

    // A bare positional argument after the subcommand is the host to
    // explain; without one the whole journal is summarized.
    if let Some(raw) = args.get(1).filter(|a| !a.starts_with("--")) {
        let Ok(ip) = raw.parse::<std::net::Ipv4Addr>() else {
            eprintln!("error: {raw} is not an IPv4 address");
            std::process::exit(2);
        };
        let matched: Vec<_> = journals.iter().filter(|j| j.ip == ip).collect();
        if matched.is_empty() {
            eprintln!("no journal entry for {ip} in {path} ({} hosts)", journals.len());
            std::process::exit(1);
        }
        for j in matched {
            outln!("{}", j.timeline());
        }
        return;
    }

    let s = obs::summarize(&journals);
    let top = str_flag(args, "--top");
    let gave_up_total: u64 = s.gave_up.iter().map(|&(_, n)| n).sum();
    if top.is_none() {
        outln!(
            "journal: {} hosts probed, {} open, {} sessions, {} ftp, {} anonymous, \
             {} gave up, {} connect retries",
            s.hosts, s.open, s.sessions, s.ftp, s.anonymous, gave_up_total, s.retries
        );
        let funnel = analysis::Funnel {
            ips_scanned: s.hosts,
            open_port: s.open,
            ftp_servers: s.ftp,
            anonymous: s.anonymous,
            gave_up: gave_up_total,
        };
        let violations = funnel.invariant_violations();
        if violations.is_empty() {
            outln!("funnel invariants: ok");
        } else {
            outln!("funnel invariants: VIOLATED: {}", violations.join("; "));
        }
    }
    if matches!(top, None | Some("gave-up")) {
        outln!("gave up, by reason:");
        for (reason, n) in &s.gave_up {
            outln!("{n:>8}  {reason}");
        }
    }
    if matches!(top, None | Some("faults")) {
        outln!("fault encounters, by kind:");
        for (kind, n) in &s.faults {
            outln!("{n:>8}  {kind}");
        }
    }
    if let Some(other) = top {
        if other != "gave-up" && other != "faults" {
            eprintln!("error: --top takes gave-up or faults, not {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    obs::diag_to_stderr();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&args, "--seed").unwrap_or(42);
    match args.first().map(String::as_str) {
        Some("study") => {
            let scale = flag(&args, "--scale").unwrap_or(4_096);
            let shards = flag(&args, "--shards").unwrap_or(1).max(1);
            let batch_size = flag(&args, "--batch-size");
            let checkpoint_dir = str_flag(&args, "--checkpoint-dir");
            let resume = str_flag(&args, "--resume");
            let obs_cli = obs_flags(&args);

            // --servers sizes the world directly (the million-host
            // entry point); --scale keeps the paper-ratio sizing.
            let spec = match flag(&args, "--servers") {
                Some(n) => PopulationSpec::sized(seed, n as usize),
                None => PopulationSpec::study(seed, scale),
            };
            eprintln!(
                "building world with {} FTP servers, seed {seed}, {shards} shard(s)…",
                spec.ftp_servers
            );
            let mut cfg = StudyConfig::new(spec);
            cfg.request_gap = netsim::SimDuration::from_millis(20);
            cfg.obs = obs_cli.cfg;

            let Some(batch_size) = batch_size else {
                if checkpoint_dir.is_some() || resume.is_some() {
                    eprintln!("--checkpoint-dir/--resume need --batch-size (streamed mode)");
                    std::process::exit(2);
                }
                let results = run_study_sharded(&cfg, shards);
                outln!("{}", tables::full_report(&results));
                write_obs_outputs(results.obs.as_ref(), &obs_cli, obs_cli.journal);
                return;
            };

            // Streamed mode: bounded memory, no record vector. The
            // observability recorder rides along per shard exactly as
            // in the in-memory path; journals flush per batch.
            let opts = StreamOptions {
                shards,
                checkpoint_dir: checkpoint_dir.or(resume).map(std::path::PathBuf::from),
                journal_path: obs_cli.journal.map(std::path::PathBuf::from),
                progress: switch(&args, "--progress"),
                ..StreamOptions::new(batch_size as usize)
            };
            match run_study_streamed(&cfg, &opts) {
                Ok(StreamOutcome::Complete(results)) => {
                    outln!("{}", tables::stream_report(&results.aggregate, &results.spec));
                    eprintln!(
                        "streamed {} shard(s) × {} batch(es) of ≤{} hosts",
                        results.shards, results.batches, batch_size
                    );
                    if let Some(path) = obs_cli.journal {
                        eprintln!("host journal written to {path}");
                    }
                    write_obs_outputs(results.obs.as_ref(), &obs_cli, None);
                }
                Ok(StreamOutcome::Interrupted { next_batches }) => {
                    eprintln!("study interrupted; per-shard resume cursors: {next_batches:?}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("funnel") => {
            let servers = flag(&args, "--servers").unwrap_or(800) as usize;
            let faults = flag(&args, "--faults").unwrap_or(0);
            let shards = flag(&args, "--shards").unwrap_or(1).max(1);
            let obs_cli = obs_flags(&args);
            let mut cfg =
                StudyConfig::small(seed, servers).with_fault_fraction(faults as f64 / 100.0);
            cfg.obs = obs_cli.cfg;
            let results = run_study_sharded(&cfg, shards);
            outln!("{}", tables::table01_funnel(&aggregate_of(&results)));
            write_obs_outputs(results.obs.as_ref(), &obs_cli, obs_cli.journal);
        }
        Some("explain") => {
            explain(&args);
        }
        Some("honeypot") => {
            let days = flag(&args, "--days").unwrap_or(90);
            let pots = flag(&args, "--pots").unwrap_or(8) as usize;
            let report = ftp_study::run_honeypot_experiment(seed, pots, days);
            outln!("{report:#?}");
        }
        Some("certify") => {
            let servers = flag(&args, "--servers").unwrap_or(800) as usize;
            let results = run_study(&StudyConfig::small(seed, servers));
            let (rate, failing) = analysis::cyberul::fleet_summary(&results.records);
            outln!("CyberUL pass rate: {:.1}%", rate * 100.0);
            for (check, count) in failing {
                outln!("{count:>6}  {check}");
            }
        }
        Some("verdicts") => {
            let servers = flag(&args, "--servers").unwrap_or(900) as usize;
            let results = run_study(&StudyConfig::small(seed, servers));
            outln!("{}", ftp_study::verdicts::render(&results));
            let (ok, approx, noise) = ftp_study::verdicts::scoreboard(&results);
            outln!("{ok} reproduced, {approx} approximate, {noise} small-N");
        }
        Some("notify") => {
            let servers = flag(&args, "--servers").unwrap_or(800) as usize;
            let results = run_study(&StudyConfig::small(seed, servers));
            let digests =
                analysis::notify::build_digests(&results.records, &results.truth.registry);
            outln!("{} networks require notification\n", digests.len());
            for d in digests.iter().take(10) {
                outln!("{}", d.render());
            }
        }
        _ => {
            eprintln!(
                "usage: ftpcloud <study|funnel|explain|honeypot|certify|notify|verdicts> [--scale N] [--seed S] [--shards K] [--servers N] [--batch-size B] [--checkpoint-dir DIR] [--resume DIR] [--faults PCT] [--days D] [--pots N] [--trace OUT.jsonl] [--metrics OUT.json] [--profile] [--journal OUT.jsonl] [--timeseries OUT.csv] [--timeseries-every MS] [--progress] [--top gave-up|faults]"
            );
            std::process::exit(2);
        }
    }
}
