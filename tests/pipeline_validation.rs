//! Cross-crate validation: the full measurement pipeline against
//! worldgen ground truth.
//!
//! These are the reproduction's most important tests: every analysis is
//! computed *only* from what the scanner and enumerator observed, and
//! then checked against what the generator actually built. They fail if
//! any stage — protocol handling, traversal, fingerprinting, detection —
//! loses or fabricates information.

use analysis::{bounce, campaigns, cve, exposure, fingerprint, ftps, writable};
use ftp_study::{run_study, StudyConfig, StudyResults};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;
use worldgen::Campaign;

fn study() -> &'static StudyResults {
    static STUDY: OnceLock<StudyResults> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&StudyConfig::small(4242, 900)))
}

fn records_by_ip(r: &StudyResults) -> HashMap<Ipv4Addr, &enumerator::HostRecord> {
    r.records.iter().map(|rec| (rec.ip, rec)).collect()
}

#[test]
fn every_ftp_host_was_discovered_and_enumerated() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in &s.truth.hosts {
        let rec = by_ip.get(&h.ip).unwrap_or_else(|| panic!("{} never enumerated", h.ip));
        assert!(rec.ftp_compliant, "{} not recognized as FTP", h.ip);
    }
    // And the non-FTP responders were discovered but not misclassified.
    for ip in &s.truth.non_ftp_open {
        if let Some(rec) = by_ip.get(ip) {
            assert!(!rec.ftp_compliant, "{ip} misclassified as FTP");
        }
    }
}

#[test]
fn funnel_matches_paper_shape() {
    let f = study().funnel();
    assert!((f.ftp_rate() - 0.6316).abs() < 0.05, "FTP per open: {}", f.ftp_rate());
    assert!((f.anonymous_rate() - 0.0815).abs() < 0.02, "anon rate: {}", f.anonymous_rate());
}

#[test]
fn anonymous_measurement_equals_truth() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in &s.truth.hosts {
        let rec = by_ip[&h.ip];
        assert_eq!(
            rec.is_anonymous(),
            h.anonymous,
            "{}: measured {:?} vs truth {} (banner {:?})",
            h.ip,
            rec.login,
            h.anonymous,
            h.banner
        );
    }
}

#[test]
fn classification_recovers_generated_categories() {
    let s = study();
    let by_ip = records_by_ip(s);
    let mut agree = 0;
    let mut total = 0;
    for h in &s.truth.hosts {
        let rec = by_ip[&h.ip];
        let measured = fingerprint::classify(rec);
        let expected = match h.category {
            worldgen::Category::Generic => fingerprint::Classification::Generic,
            worldgen::Category::Hosted => fingerprint::Classification::Hosted,
            worldgen::Category::Embedded => fingerprint::Classification::Embedded,
            worldgen::Category::Unknown => fingerprint::Classification::Unknown,
        };
        total += 1;
        if measured == expected {
            agree += 1;
        }
    }
    let accuracy = agree as f64 / total as f64;
    assert!(accuracy > 0.95, "classification accuracy {accuracy}");
}

#[test]
fn device_fingerprints_match_truth() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in s.truth.hosts.iter().filter(|h| h.device.is_some()) {
        let rec = by_ip[&h.ip];
        let fp = fingerprint::device_of(rec)
            .unwrap_or_else(|| panic!("{}: device {:?} not fingerprinted", h.ip, h.device));
        assert_eq!(Some(fp.name), h.device, "{}", h.ip);
    }
}

#[test]
fn writable_detection_is_sound_and_useful() {
    let s = study();
    let summary = writable::detect(&s.records, Some(&s.truth.registry));
    let truth: HashMap<Ipv4Addr, bool> =
        s.truth.hosts.iter().map(|h| (h.ip, h.writable)).collect();
    // Soundness: every flagged server is genuinely writable (reference
    // files only land on writable hosts in the generator).
    for ip in &summary.servers {
        assert_eq!(truth.get(ip), Some(&true), "{ip} flagged but not writable");
    }
    // Utility: the passive method is a lower bound (the paper says so)
    // but must catch a substantial share.
    let writable_total = s.truth.writable_count();
    assert!(writable_total > 0);
    let recall = summary.servers.len() as f64 / writable_total as f64;
    assert!(recall > 0.3, "recall {recall} ({}/{writable_total})", summary.servers.len());
    assert!(recall <= 1.0);
    assert!(summary.as_count >= 1);
}

#[test]
fn bounce_probe_matches_truth_exactly() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in s.truth.hosts.iter().filter(|h| h.anonymous && !h.ramnit) {
        let rec = by_ip[&h.ip];
        if let Some(accepts) = rec.port_accepts_third_party {
            assert_eq!(
                accepts, !h.validates_port,
                "{}: probe said {accepts}, truth validates={}",
                h.ip, h.validates_port
            );
        }
    }
    let summary = bounce::summarize(&s.records, &s.bounce_hits);
    assert!(summary.probed > 0);
    // Acceptance rate near the paper's 12.74%.
    assert!(
        (summary.acceptance_rate() - 0.1274).abs() < 0.06,
        "acceptance {}",
        summary.acceptance_rate()
    );
    // Every accepted PORT was confirmed by an actual connection at the
    // collector (the simulator guarantees delivery).
    assert_eq!(summary.confirmed, summary.accepted);
}

#[test]
fn nat_detection_matches_truth() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in s.truth.hosts.iter().filter(|h| h.anonymous) {
        let rec = by_ip[&h.ip];
        if rec.pasv_addr.is_some() {
            assert_eq!(bounce::is_nated(rec), h.nat, "{}", h.ip);
        }
    }
}

#[test]
fn campaign_detection_recall_and_precision() {
    let s = study();
    let summary = campaigns::detect(&s.records);
    let pairs = [
        (Campaign::Ftpchk3, campaigns::CampaignClass::Ftpchk3),
        (Campaign::Ddos, campaigns::CampaignClass::Ddos),
        (Campaign::HolyBible, campaigns::CampaignClass::HolyBible),
        (Campaign::KeygenFlier, campaigns::CampaignClass::KeygenFlier),
        (Campaign::Warez, campaigns::CampaignClass::Warez),
    ];
    for (truth_c, measured_c) in pairs {
        // Hosts whose deny-all robots.txt we honored are invisible to
        // the crawler by design; recall is defined over observable hosts.
        let truth: std::collections::HashSet<Ipv4Addr> = s
            .truth
            .hosts
            .iter()
            .filter(|h| h.campaigns.contains(&truth_c) && !h.robots_deny_all)
            .map(|h| h.ip)
            .collect();
        let measured = summary.servers.get(&measured_c).cloned().unwrap_or_default();
        assert!(!truth.is_empty(), "{truth_c:?} never generated — boost too low");
        // Precision: nothing detected that was not planted.
        for ip in &measured {
            assert!(truth.contains(ip), "{measured_c:?}: false positive {ip}");
        }
        // Recall: most planted instances detected (traversal truncation
        // can hide a few).
        let recall = measured.len() as f64 / truth.len() as f64;
        assert!(recall > 0.6, "{measured_c:?} recall {recall}");
    }
    // Ramnit: baseline banner detection is exact.
    let ramnit_truth = s.truth.hosts.iter().filter(|h| h.ramnit).count();
    let ramnit_measured = summary
        .servers
        .get(&campaigns::CampaignClass::Ramnit)
        .map(|s| s.len())
        .unwrap_or(0);
    assert_eq!(ramnit_measured, ramnit_truth);
}

#[test]
fn cve_counts_match_generated_versions() {
    let s = study();
    // Ground truth: count hosts whose *generated banner* is in a
    // vulnerable range, then compare with the measured table.
    let mut truth_counts: HashMap<&str, u64> = HashMap::new();
    for h in &s.truth.hosts {
        for id in cve::cves_of_banner(&h.banner) {
            *truth_counts.entry(id).or_default() += 1;
        }
    }
    for (rule, measured) in cve::table(&s.records) {
        let expected = truth_counts.get(rule.id).copied().unwrap_or(0);
        assert_eq!(measured, expected, "{}", rule.id);
    }
    // The headline: a vulnerable population near the paper's ~10%.
    let share = cve::vulnerable_hosts(&s.records) as f64 / s.records.iter().filter(|r| r.ftp_compliant).count() as f64;
    assert!((0.04..0.25).contains(&share), "vulnerable share {share}");
}

#[test]
fn ftps_summary_matches_truth() {
    let s = study();
    let summary = ftps::summarize(&s.records);
    let truth_ftps = s.truth.hosts.iter().filter(|h| h.ftps).count() as u64;
    assert_eq!(summary.ftps_supported, truth_ftps);
    // Support rate near the paper's 25%.
    let rate = summary.ftps_supported as f64 / summary.ftp_total as f64;
    assert!((rate - 0.2466).abs() < 0.06, "ftps rate {rate}");
    // Certificate dedup: unique fingerprints measured == unique truth.
    let truth_unique: std::collections::HashSet<u64> =
        s.truth.hosts.iter().filter_map(|h| h.cert_fp).collect();
    assert_eq!(summary.unique_certs, truth_unique.len() as u64);
    assert!(summary.unique_certs < summary.certs_seen, "certs are shared");
    // Around half self-signed (§IX) — hosting wildcard pools skew this a
    // little, as they did in the paper.
    assert!((0.3..0.7).contains(&summary.self_signed_share), "{}", summary.self_signed_share);
}

#[test]
fn sensitive_files_surface_with_correct_readability() {
    let s = study();
    let table = exposure::sensitive_exposure(&s.records);
    let total_rows: u64 = table.values().map(|r| r.servers).sum();
    assert!(total_rows > 0, "boost guarantees sensitive signal");
    // SSH host keys are mostly non-readable (Table IX: 1,427 of 1,597).
    if let Some(row) = table.get(&exposure::SensitiveClass::SshHostKey) {
        if row.files >= 10 {
            assert!(
                row.non_readable > row.readable,
                "ssh keys should skew non-readable: {row:?}"
            );
        }
    }
    // TurboTax files are mostly readable (8,139 of 8,190).
    if let Some(row) = table.get(&exposure::SensitiveClass::TurboTax) {
        if row.files >= 10 {
            assert!(row.readable > row.non_readable, "{row:?}");
        }
    }
}

#[test]
fn os_roots_and_photo_libraries_detected() {
    let s = study();
    let truth_roots = s
        .truth
        .hosts
        .iter()
        .filter(|h| matches!(h.content, worldgen::ContentKind::OsRoot(_)))
        .count();
    let measured_roots =
        s.records.iter().filter(|r| exposure::os_root_of(r).is_some()).count();
    assert!(truth_roots > 0);
    assert!(
        measured_roots >= truth_roots * 7 / 10,
        "roots: measured {measured_roots} vs truth {truth_roots}"
    );
    let photo_servers = s.records.iter().filter(|r| exposure::is_photo_library(r, 50)).count();
    assert!(photo_servers > 0, "photo libraries present and detected");
}

#[test]
fn http_overlap_measured() {
    let s = study();
    let truth_http = s.truth.hosts.iter().filter(|h| h.http).count();
    assert_eq!(s.http.len(), truth_http, "HTTP sweep found every co-hosted server");
    let truth_scripting = s.truth.hosts.iter().filter(|h| h.scripting).count();
    let measured_scripting = s.http.values().filter(|o| o.powered_by.is_some()).count();
    assert_eq!(measured_scripting, truth_scripting);
    // Rates near §VI-B's 65.27% / 15.01%.
    let ftp_total = s.truth.hosts.len() as f64;
    assert!((s.http.len() as f64 / ftp_total - 0.6527).abs() < 0.06);
    assert!((measured_scripting as f64 / ftp_total - 0.1501).abs() < 0.05);
}

#[test]
fn robots_exclusions_honored() {
    let s = study();
    let with_robots = s.records.iter().filter(|r| r.robots.present).count();
    assert!(with_robots > 0, "robots.txt population generated");
    for r in s.records.iter().filter(|r| r.robots.denies_all) {
        assert!(
            r.files.is_empty(),
            "{}: traversed despite deny-all robots ({} files)",
            r.ip,
            r.files.len()
        );
    }
}

#[test]
fn deep_trees_hit_the_request_cap() {
    let s = study();
    let by_ip = records_by_ip(s);
    for h in s.truth.hosts.iter().filter(|h| h.deep_tree && h.anonymous) {
        let rec = by_ip[&h.ip];
        if rec.is_anonymous() && !rec.robots.denies_all && !rec.server_terminated {
            assert!(rec.truncated, "{}: deep tree fully traversed?", h.ip);
            assert!(rec.requests_used <= 500);
        }
    }
}

#[test]
fn enumerator_counts_unparsed_nothing_on_clean_servers() {
    // All our servers emit well-formed listings; the tolerant parser
    // should not misreport failures.
    let s = study();
    let unparsed: u64 = s.records.iter().map(|r| r.unparsed_lines).sum();
    assert_eq!(unparsed, 0, "listing parser failed on generated output");
}

/// FNV-1a 64-bit digest, used to pin whole report texts byte for byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Both reports' bytes are pinned, so a change to how any table is
/// rendered fails here: `full_report` of a clean and of a 50%-hostile
/// world (K=1), and `stream_report` of a 2-shard streamed run of the
/// clean one. The digests were recorded before the shared renderers
/// were split out of the two reports.
#[test]
fn report_bytes_match_pinned_digests() {
    let clean = StudyConfig::small(7177, 400);
    let full = ftp_study::full_report(&run_study(&clean));
    assert_eq!(full.len(), 12_735, "clean full_report length changed");
    assert_eq!(fnv1a(full.as_bytes()), 0xfe20_de1a_2368_c4f1, "clean full_report bytes changed");

    let hostile = ftp_study::full_report(&run_study(&clean.clone().with_fault_fraction(0.5)));
    assert_eq!(hostile.len(), 12_692, "hostile full_report length changed");
    assert_eq!(fnv1a(hostile.as_bytes()), 0x17da_6534_fe72_ee40, "hostile full_report bytes changed (50% faults)");

    let opts = ftp_study::StreamOptions { shards: 2, ..ftp_study::StreamOptions::new(64) };
    let streamed = match ftp_study::run_study_streamed(&clean, &opts).expect("streamed study runs") {
        ftp_study::StreamOutcome::Complete(r) => ftp_study::stream_report(&r.aggregate, &r.spec),
        ftp_study::StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    };
    assert_eq!(streamed.len(), 8_524, "streamed report length changed");
    assert_eq!(fnv1a(streamed.as_bytes()), 0xfc1b_4802_cce1_1f7e, "streamed report bytes changed (2 shards, batch 64)");
}

/// Every behaviour counter of a 600-server study (seed 1, K=1),
/// pinned exactly, on a clean world and with half the hosts hostile.
/// The counts are a pure function of the seed and the configuration,
/// so any difference is a behaviour change, never timing noise. A
/// counter added to `obs::Counter` fails here until its values are
/// pinned. The hostile row shows the fault paths firing: connect
/// retries and failures, backoff waits, and `codec_lines_copied` —
/// garbage replies are random bytes, so some lines are not valid UTF-8
/// and take the lossy copy instead of the borrow.
#[test]
fn behaviour_counters_match_pinned_table() {
    // (counter, clean, 50% hostile)
    const PINNED: &[(&str, u64, u64)] = &[
        ("sim_events",                  100_116,   63_312),
        ("sim_ev_data",                 40_347,    25_578),
        ("sim_ev_timer",                30_025,    18_541),
        ("sim_ev_connect",              21_381,    13_515),
        ("sim_ev_close",                6_901,     4_216),
        ("sim_ev_probe",                262_144,   262_144),
        ("connects",                    7_127,     4_572),
        ("connect_failures",            0,         149),
        ("connect_retries",             0,         98),
        ("backoff_wait_us",             0,         147_000_000),
        ("replies_total",               19_866,    11_411),
        ("reply_1xx",                   5_533,     3_013),
        ("reply_2xx",                   12_648,    7_174),
        ("reply_3xx",                   540,       405),
        ("reply_4xx",                   0,         0),
        ("reply_5xx",                   1_145,     819),
        ("reply_other",                 0,         0),
        ("sessions_started",            950,       950),
        ("sessions_finished",           950,       950),
        ("gave_ups",                    350,       495),
        ("step_timeouts",               171,       224),
        ("listing_bytes",               6_882_807, 3_884_618),
        ("probes_sent",                 262_144,   262_144),
        ("vfs_ops",                     203_005,   195_959),
        ("vfs_nodes",                   182_467,   182_467),
        ("vfs_interned_bytes",          309_477,   309_477),
        ("scan_slots",                  262_144,   262_144),
        ("wheel_inserts",               100_116,   63_312),
        ("wheel_cascades",              95_868,    69_848),
        ("wheel_cascaded_entries",      248_425,   160_967),
        ("hosts_materialized",          950,       950),
        ("http_observations",           374,       267),
        ("funnel_invariant_violations", 0,         0),
        ("codec_lines_borrowed",        34_304,    19_958),
        ("codec_lines_copied",          0,         12),
        ("list_cache_hits",             0,         0),
        ("vfs_dead_nodes",              0,         0),
    ];
    let metrics = |mut cfg: StudyConfig| {
        cfg.obs = obs::ObsConfig { metrics: true, ..obs::ObsConfig::default() };
        run_study(&cfg).obs.expect("metrics requested").metrics
    };
    let clean = metrics(StudyConfig::small(1, 600));
    let hostile = metrics(StudyConfig::small(1, 600).with_fault_fraction(0.5));

    let mut diffs = Vec::new();
    for c in obs::Counter::ALL {
        let name = c.name();
        let now = (clean.counter(c), hostile.counter(c));
        match PINNED.iter().find(|(n, ..)| *n == name) {
            Some(&(_, want_clean, want_hostile)) if now == (want_clean, want_hostile) => {}
            Some(&(_, want_clean, want_hostile)) => diffs.push(format!(
                "{name}: (clean, hostile) = {now:?}, pinned ({want_clean}, {want_hostile})"
            )),
            None => diffs.push(format!("{name}: no pinned value; measured {now:?}")),
        }
    }
    for (name, ..) in PINNED {
        if !obs::Counter::ALL.iter().any(|c| c.name() == *name) {
            diffs.push(format!("{name}: pinned, but no such counter"));
        }
    }
    assert!(diffs.is_empty(), "behaviour counters changed:\n{}", diffs.join("\n"));
}
