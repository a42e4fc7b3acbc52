//! Host-journal and time-series validation (DESIGN.md §9).
//!
//! The flight recorder's contract: journaling and sim-time sampling are
//! write-only — study results stay **byte-identical** with them on or
//! off, at any shard count, clean or hostile world — and the journal
//! itself is a faithful, partition-invariant reconstruction of each
//! host's journey: the same host produces the same record (modulo
//! partition-relative timestamps) whichever `(shard, batch)` cell it
//! lands in, and `explain`-style summaries rebuilt from the journal
//! alone agree with the study's own funnel.

use ftp_study::{
    run_study_sharded, run_study_streamed, tables, StreamOptions, StreamOutcome, StudyConfig,
    StudyResults,
};
use obs::ParsedJournal;

const SEED: u64 = 7177;
const SERVERS: usize = 150;

fn journal_obs() -> obs::ObsConfig {
    obs::ObsConfig {
        metrics: true,
        trace: false,
        profile: false,
        journal: true,
        timeseries_every_us: 500_000,
    }
}

fn study(fraction: f64, shards: u64, obs_on: bool) -> StudyResults {
    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(fraction);
    if obs_on {
        cfg.obs = journal_obs();
    }
    run_study_sharded(&cfg, shards)
}

/// Field-by-field identity of the measured results; the `obs` report is
/// the only field allowed to differ.
fn assert_identical(a: &StudyResults, b: &StudyResults, label: &str) {
    assert_eq!(a.ips_scanned, b.ips_scanned, "{label}: ips_scanned");
    assert_eq!(a.open_port, b.open_port, "{label}: open_port");
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(a.bounce_hits, b.bounce_hits, "{label}: bounce hits");
    assert_eq!(a.http, b.http, "{label}: http observations");
    assert_eq!(a.funnel(), b.funnel(), "{label}: funnel");
    assert_eq!(a.truth.hosts, b.truth.hosts, "{label}: ground truth");
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ftpcloud_jtest_{}_{name}", std::process::id()))
}

/// Runs the streamed study with journaling into `path`, returning the
/// rendered report.
fn streamed_report(cfg: &StudyConfig, shards: u64, path: Option<&std::path::Path>) -> String {
    let opts = StreamOptions {
        shards,
        journal_path: path.map(std::path::Path::to_path_buf),
        ..StreamOptions::new(25)
    };
    match run_study_streamed(cfg, &opts).expect("streamed study runs") {
        StreamOutcome::Complete(r) => tables::stream_report(&r.aggregate, &r.spec),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
}

#[test]
fn journaling_is_invisible_to_study_results() {
    for fraction in [0.0, 0.5] {
        let off = study(fraction, 1, false);
        assert!(off.obs.is_none(), "no collection requested, no report");
        for shards in [1, 8] {
            let on = study(fraction, shards, true);
            let report = on.obs.as_ref().expect("collection requested");
            assert!(!report.journal.is_empty(), "journals collected");
            assert!(!report.series.is_empty(), "timeseries sampled");
            assert_identical(&off, &on, &format!("{:.0}% faults, K={shards}", fraction * 100.0));
        }
    }
}

#[test]
fn streamed_report_is_identical_with_journaling_on() {
    let mut plain = StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.5);
    let baseline = streamed_report(&plain, 1, None);

    plain.obs = journal_obs();
    for shards in [1, 8] {
        let path = temp(&format!("stream_k{shards}.jsonl"));
        let report = streamed_report(&plain, shards, Some(&path));
        assert_eq!(
            baseline, report,
            "streamed report must be byte-identical with journaling on (K={shards})"
        );
        let text = std::fs::read_to_string(&path).expect("journal written");
        let parsed = ParsedJournal::parse_file(&text).expect("every flushed line parses");
        assert!(!parsed.is_empty(), "streamed journal is non-empty");
        let _ = std::fs::remove_file(&path);
    }
}

/// The same host's journal is identical — modulo the partition-relative
/// wall/sim-time fields that [`ParsedJournal::normalized`] zeroes —
/// whether it was recorded by the in-memory runner at K=1 or K=8, or by
/// the streaming runner in any batch geometry.
#[test]
fn journal_content_is_partition_invariant_modulo_time() {
    let normalize = |lines: Vec<ParsedJournal>| -> Vec<ParsedJournal> {
        let mut out: Vec<ParsedJournal> = lines.iter().map(ParsedJournal::normalized).collect();
        out.sort_by_key(|j| u32::from(j.ip));
        out
    };
    let in_memory = |shards: u64| -> Vec<ParsedJournal> {
        let report = study(0.5, shards, true);
        let report = report.obs.expect("collection requested");
        ParsedJournal::parse_file(&report.journal_jsonl()).expect("in-memory journal parses")
    };

    let k1 = normalize(in_memory(1));
    let k8 = normalize(in_memory(8));
    assert_eq!(k1.len(), k8.len(), "one journal per probed address at any K");
    assert_eq!(k1, k8, "journals must be shard-invariant modulo time fields");

    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.5);
    cfg.obs = journal_obs();
    let path = temp("partition.jsonl");
    let _ = streamed_report(&cfg, 1, Some(&path));
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let streamed = normalize(ParsedJournal::parse_file(&text).expect("streamed journal parses"));
    assert_eq!(k1, streamed, "journals must be batch-invariant modulo time fields");
}

/// `explain` reconstructs the study from the journal alone: the funnel
/// stages derivable from per-host outcomes must agree exactly with the
/// study's measured funnel, and every line must round-trip through the
/// parser into a renderable timeline.
#[test]
fn explain_summary_agrees_with_the_measured_funnel() {
    let results = study(0.5, 1, true);
    let funnel = results.funnel();
    let report = results.obs.expect("collection requested");
    let journals =
        ParsedJournal::parse_file(&report.journal_jsonl()).expect("every line parses");

    assert_eq!(journals.len() as u64, results.ips_scanned, "one journal per probed address");
    let summary = obs::summarize(&journals);
    assert_eq!(summary.hosts, results.ips_scanned);
    assert_eq!(summary.open, funnel.open_port, "open verdicts match the funnel");
    assert_eq!(summary.anonymous, funnel.anonymous, "anonymous logins match the funnel");
    let gave_up: u64 = summary.gave_up.iter().map(|&(_, n)| n).sum();
    assert_eq!(gave_up, funnel.gave_up, "give-ups match the funnel");
    assert!(summary.sessions >= summary.ftp, "sessions cover every ftp host");

    for j in journals.iter().take(64) {
        let timeline = j.timeline();
        assert!(timeline.contains("journal timeline"), "timeline renders: {timeline}");
    }
}

/// The acceptance scenario: a 600-server streamed hostile run writes a
/// journal from which `explain` can reconstruct at least one gave-up
/// host's full fault-and-backoff history.
#[test]
fn streamed_600_server_journal_explains_a_gave_up_host() {
    let mut cfg = StudyConfig::small(SEED, 600).with_fault_fraction(0.5);
    cfg.obs = journal_obs();
    let path = temp("acceptance.jsonl");
    let opts = StreamOptions {
        journal_path: Some(path.clone()),
        ..StreamOptions::new(64)
    };
    match run_study_streamed(&cfg, &opts).expect("streamed study runs") {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let journals = ParsedJournal::parse_file(&text).expect("every flushed line parses");

    let batches: std::collections::HashSet<u64> = journals.iter().map(|j| j.batch).collect();
    assert!(batches.len() > 1, "journals span multiple batches");

    let hostile = journals
        .iter()
        .find(|j| j.gave_up.is_some() && !j.faults.is_empty() && !j.retries.is_empty())
        .expect("a hostile world yields a gave-up host with faults and retries");
    let timeline = hostile.timeline();
    assert!(timeline.contains("fault encountered"), "timeline shows faults:\n{timeline}");
    assert!(timeline.contains("connect retry"), "timeline shows backoff:\n{timeline}");
    assert!(timeline.contains("gave_up="), "timeline shows the outcome:\n{timeline}");
}

/// FNV-1a 64-bit digest, used to pin whole journal files byte for byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The journal's bytes are pinned, not just its schema: a 1-shard
/// streamed journal file and the in-memory `Report::journal_jsonl()`
/// of a hostile world hash to digests recorded before the recorder's
/// storage was rewritten, so any change to line content, line order, or
/// per-cell grouping fails here.
#[test]
fn journal_bytes_match_pinned_digests() {
    let mut cfg = StudyConfig::small(SEED, SERVERS);
    cfg.obs = journal_obs();
    let path = temp("digest.jsonl");
    let _ = streamed_report(&cfg, 1, Some(&path));
    let streamed = std::fs::read(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(streamed.len(), 74_768_683, "1-shard streamed journal length changed");
    assert_eq!(fnv1a(&streamed), 0xf36a_d80b_27bb_d8b1, "1-shard streamed journal bytes changed");

    let in_memory = study(0.5, 1, true).obs.expect("collection requested").journal_jsonl();
    assert_eq!(in_memory.len(), 75_040_166, "in-memory journal length changed");
    assert_eq!(
        fnv1a(in_memory.as_bytes()),
        0x606b_8377_bd42_9ede,
        "in-memory journal bytes changed (50% faults, K=1)"
    );
}
