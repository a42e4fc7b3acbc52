//! Farm assembly and §VIII-A log analysis.

use crate::attackers::{script_for, AttackerSpec};
use crate::sensor::{Sensor, SensorLog};
use enumerator::BounceCollector;
use ftp_proto::Command;
use ftpd::profile::{AnonPolicy, ServerProfile, UploadQuirk};
use ftpd::{FtpServerEngine, ScriptedFtpClient};
use netsim::{SimDuration, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simtls::SimCertificate;
use simvfs::Vfs;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// The /16 standing in for the "China Unicom Henan Province Network"
/// AS that §VIII-A says originated over 30% of scanning addresses.
const HENAN: [u8; 2] = [61, 52];

/// A deployed honeypot farm with its logs.
#[derive(Debug)]
pub struct HoneypotFarm {
    /// The honeypot addresses (the paper ran eight).
    pub honeypot_ips: Vec<Ipv4Addr>,
    logs: Vec<SensorLog>,
    bounce_hits: enumerator::collector::BounceHits,
    observation_window: SimDuration,
}

impl HoneypotFarm {
    /// Deploys `n` honeypots plus the attacker population into `sim`.
    /// Attackers fire at deterministic random times across `window`.
    pub fn deploy(
        sim: &mut Simulator,
        n: usize,
        spec: &AttackerSpec,
        seed: u64,
        window: SimDuration,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut honeypot_ips = Vec::new();
        let mut logs = Vec::new();
        for i in 0..n {
            let ip = Ipv4Addr::new(141, 212, 99, 10 + i as u8);
            // Anonymous, world-writable, with FTPS so fingerprinters get
            // a certificate — the paper's honeypots were reactive
            // fully-featured servers.
            let profile = ServerProfile::new("FTP server (Version 6.4/OpenBSD) ready.")
                .with_anonymous(AnonPolicy::Allowed)
                .with_writable("/")
                .with_upload_quirk(UploadQuirk::UniqueSuffix)
                // Deliberately bounce-vulnerable so PORT testers reveal
                // their third-party target to our watched collector.
                .without_port_validation()
                .with_ftps(SimCertificate::self_signed("honeypot.local", 4242 + i as u64), false);
            let mut vfs = Vfs::new();
            // Reactive seeding: paths attackers blindly probed for,
            // populated with representative files (§VIII).
            for dir in ["www", "public_html", "cgi-bin"] {
                let _ = vfs.add_file(
                    &format!("/{dir}/index.html"),
                    simvfs::FileAttrs::public(2_048),
                );
            }
            let engine = FtpServerEngine::new(ip, profile, vfs);
            let (sensor, log) = Sensor::new(engine);
            let id = sim.register_endpoint(Box::new(sensor));
            sim.bind(ip, 21, id);
            honeypot_ips.push(ip);
            logs.push(log);
        }

        // The third-party address bounce testers aim at: we watch it, as
        // the study watched its own collector.
        let (collector, bounce_hits) = BounceCollector::new();
        let cid = sim.register_endpoint(Box::new(collector));
        sim.bind(spec.bounce_target, 80, cid);

        // Attacker population.
        let mut used: HashSet<Ipv4Addr> = HashSet::new();
        for &(kind, count) in &spec.mix {
            for _ in 0..count {
                let ip = loop {
                    let ip = if rng.random_bool(0.31) {
                        // The Henan AS share.
                        Ipv4Addr::new(HENAN[0], HENAN[1], rng.random(), rng.random())
                    } else {
                        Ipv4Addr::new(
                            rng.random_range(2..200),
                            rng.random(),
                            rng.random(),
                            rng.random(),
                        )
                    };
                    if !used.contains(&ip) && ip.octets()[0] != 141 {
                        used.insert(ip);
                        break ip;
                    }
                };
                let target = honeypot_ips[rng.random_range(0..honeypot_ips.len())];
                let script = script_for(kind, &mut rng, spec.bounce_target);
                let client = ScriptedFtpClient::new(ip, (target, 21), script);
                let id = sim.register_endpoint(Box::new(client));
                let at = SimDuration::from_micros(rng.random_range(0..window.as_micros().max(1)));
                sim.schedule_timer(id, at, 0);
            }
        }
        HoneypotFarm { honeypot_ips, logs, bounce_hits, observation_window: window }
    }

    /// Distills §VIII-A statistics from the logs (nothing here consults
    /// the attacker ground truth).
    pub fn report(&self) -> FarmReport {
        let mut r = FarmReport { observation_days: self.observation_window.as_secs() / 86_400, ..Default::default() };
        let mut unique: HashSet<Ipv4Addr> = HashSet::new();
        let mut speakers: HashSet<Ipv4Addr> = HashSet::new();
        let mut traversers: HashSet<Ipv4Addr> = HashSet::new();
        let mut listers: HashSet<Ipv4Addr> = HashSet::new();
        let mut authers: HashSet<Ipv4Addr> = HashSet::new();
        let mut bouncers: HashSet<Ipv4Addr> = HashSet::new();
        let mut cve: HashSet<Ipv4Addr> = HashSet::new();
        let mut root_logins: HashSet<Ipv4Addr> = HashSet::new();
        let mut uploaders: HashSet<Ipv4Addr> = HashSet::new();
        let mut creds: HashSet<(String, String)> = HashSet::new();
        let mut bounce_targets: HashSet<Ipv4Addr> = HashSet::new();
        let mut last_user: HashMap<Ipv4Addr, String> = HashMap::new();
        let mut henan = 0usize;

        for log in &self.logs {
            let log = log.borrow();
            for &(_, ip) in &log.connections {
                if unique.insert(ip) && ip.octets()[0] == HENAN[0] && ip.octets()[1] == HENAN[1] {
                    henan += 1;
                }
            }
            for event in &log.lines {
                let peer = event.peer;
                if event.line.starts_with("GET ") || event.line.starts_with("HEAD ") {
                    r.http_gets += 1;
                    continue;
                }
                let Ok(cmd) = event.line.parse::<Command>() else { continue };
                if matches!(cmd, Command::Other(_, _)) {
                    continue;
                }
                speakers.insert(peer);
                match &cmd {
                    Command::User(u) => {
                        if u.eq_ignore_ascii_case("root") {
                            root_logins.insert(peer);
                        }
                        last_user.insert(peer, u.clone());
                    }
                    Command::Pass(p) => {
                        if let Some(u) = last_user.get(&peer) {
                            if !u.eq_ignore_ascii_case("anonymous")
                                && !u.eq_ignore_ascii_case("ftp")
                            {
                                creds.insert((u.clone(), p.clone()));
                            }
                        }
                    }
                    Command::Cwd(_) | Command::Cdup => {
                        traversers.insert(peer);
                    }
                    Command::List(_) | Command::Nlst(_) | Command::Mlsd(_) => {
                        listers.insert(peer);
                    }
                    Command::Auth(_) => {
                        authers.insert(peer);
                    }
                    Command::Port(hp)
                        if hp.ip() != peer => {
                            bouncers.insert(peer);
                            bounce_targets.insert(hp.ip());
                        }
                    Command::Site(arg) => {
                        let upper = arg.to_ascii_uppercase();
                        if upper.starts_with("CPFR") || upper.starts_with("CPTO") {
                            cve.insert(peer);
                        }
                    }
                    Command::Stor(_) | Command::Appe(_) | Command::Stou => {
                        r.upload_attempts += 1;
                        uploaders.insert(peer);
                    }
                    Command::Mkd(name) => {
                        r.mkdir_attempts += 1;
                        let base = name.rsplit('/').next().unwrap_or(name);
                        if crate::warez_like(base) {
                            r.warez_mkdirs += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        r.unique_ips = unique.len();
        r.henan_share = if unique.is_empty() { 0.0 } else { henan as f64 / unique.len() as f64 };
        r.ftp_speakers = speakers.len();
        r.traversers = traversers.len();
        r.listers = listers.len();
        r.credential_pairs = creds.len();
        r.auth_fingerprinters = authers.len();
        r.bounce_attempt_ips = bouncers.len();
        r.bounce_targets = bounce_targets.len();
        r.cve_2015_3306_attempts = cve.len();
        // The Seagate signature is a root login *followed by* an upload
        // attempt — plain root guesses are everyday brute forcing.
        r.root_login_attempts = root_logins.intersection(&uploaders).count();
        r.bounces_received_at_target = self.bounce_hits.borrow().len();
        r
    }
}

/// §VIII-A statistics, measured from honeypot logs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FarmReport {
    /// Length of the observation window in days.
    pub observation_days: u64,
    /// Unique source addresses that connected.
    pub unique_ips: usize,
    /// Share of sources from the dominant (Henan) network.
    pub henan_share: f64,
    /// Sources that issued at least one valid FTP command.
    pub ftp_speakers: usize,
    /// Sources that traversed directories (`CWD`).
    pub traversers: usize,
    /// Sources that listed directories.
    pub listers: usize,
    /// Unique non-anonymous username/password pairs attempted.
    pub credential_pairs: usize,
    /// Sources issuing `AUTH` (certificate fingerprinting).
    pub auth_fingerprinters: usize,
    /// Sources sending third-party `PORT`s.
    pub bounce_attempt_ips: usize,
    /// Distinct third-party addresses named in those `PORT`s.
    pub bounce_targets: usize,
    /// Bounced connections actually received at the watched target.
    pub bounces_received_at_target: usize,
    /// Sources attempting the ProFTPD mod_copy exploit.
    pub cve_2015_3306_attempts: usize,
    /// Sources attempting root logins (Seagate-style).
    pub root_login_attempts: usize,
    /// `GET`/`HEAD` requests aimed at port 21.
    pub http_gets: u64,
    /// `STOR`-family attempts observed.
    pub upload_attempts: u64,
    /// `MKD` attempts observed.
    pub mkdir_attempts: u64,
    /// `MKD`s whose directory names match the WaReZ signature.
    pub warez_mkdirs: u64,
}

/// Convenience: run a full §VIII experiment and return its report.
pub fn run_experiment(seed: u64, n_honeypots: usize, days: u64) -> FarmReport {
    let mut sim = Simulator::new(seed);
    let spec = AttackerSpec::default();
    let window = SimDuration::from_days(days);
    let farm = HoneypotFarm::deploy(&mut sim, n_honeypots, &spec, seed, window);
    sim.run();
    farm.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    use ftp_proto::HostPort;

    /// A PORT argument is a bounce when it names someone other than the
    /// sender.
    fn is_bounce_port(hp: &HostPort, peer: Ipv4Addr) -> bool {
        hp.ip() != peer
    }

    #[test]
    fn full_experiment_reproduces_section_eight_shape() {
        let report = run_experiment(7, 8, 90);
        // 457-ish unique IPs (the spec's 472 minus any that failed to
        // connect — none should fail here).
        assert!(report.unique_ips >= 450, "{report:?}");
        // ~30% from the Henan network.
        assert!((0.2..0.45).contains(&report.henan_share), "{report:?}");
        // 85-ish FTP speakers.
        assert!((70..=110).contains(&report.ftp_speakers), "{report:?}");
        // Traversal and listing populations are small.
        assert!((4..=20).contains(&report.traversers), "{report:?}");
        assert!((5..=25).contains(&report.listers), "{report:?}");
        // >1,400 credential pairs.
        assert!(report.credential_pairs > 1_000, "{report:?}");
        // Eight bounce testers, all naming one shared target.
        assert_eq!(report.bounce_attempt_ips, 8, "{report:?}");
        assert_eq!(report.bounce_targets, 1, "{report:?}");
        assert!(report.bounces_received_at_target >= 1, "{report:?}");
        // One CVE attempt, one Seagate root attempt, 36 AUTH probes.
        assert_eq!(report.cve_2015_3306_attempts, 1);
        assert_eq!(report.root_login_attempts, 1);
        assert_eq!(report.auth_fingerprinters, 36, "{report:?}");
        assert!(report.http_gets >= 150, "{report:?}");
        assert!(report.warez_mkdirs >= 1, "{report:?}");
        assert_eq!(report.observation_days, 90);
    }

    #[test]
    fn determinism() {
        assert_eq!(run_experiment(3, 8, 30), run_experiment(3, 8, 30));
    }

    #[test]
    fn bounce_port_helper() {
        let peer = Ipv4Addr::new(1, 1, 1, 1);
        assert!(is_bounce_port(&HostPort::new(Ipv4Addr::new(2, 2, 2, 2), 80), peer));
        assert!(!is_bounce_port(&HostPort::new(peer, 80), peer));
    }
}

/// Arrival-process statistics over the observation window — how attacker
/// contacts distributed across the paper's three months.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// First-contact events per 7-day bucket.
    pub per_week: Vec<usize>,
    /// The busiest week's index (0-based).
    pub busiest_week: usize,
    /// Mean inter-arrival time between first contacts, in seconds.
    pub mean_interarrival_secs: f64,
}

impl HoneypotFarm {
    /// Computes the arrival timeline from the sensors' connection logs.
    pub fn timeline(&self) -> Timeline {
        let mut arrivals: Vec<u64> = self
            .logs
            .iter()
            .flat_map(|log| log.borrow().connections.iter().map(|&(at, _)| at).collect::<Vec<_>>())
            .collect();
        arrivals.sort_unstable();
        let weeks =
            (self.observation_window.as_secs() / (7 * 86_400)).max(1) as usize;
        let mut per_week = vec![0usize; weeks];
        let week_us = 7 * 86_400 * 1_000_000u64;
        for &at in &arrivals {
            let ix = ((at / week_us) as usize).min(weeks - 1);
            per_week[ix] += 1;
        }
        let busiest_week = per_week
            .iter()
            .enumerate()
            .max_by_key(|&(_, n)| *n)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mean_interarrival_secs = if arrivals.len() < 2 {
            0.0
        } else {
            let span = arrivals.last().expect("nonempty") - arrivals[0];
            span as f64 / 1_000_000.0 / (arrivals.len() - 1) as f64
        };
        Timeline { per_week, busiest_week, mean_interarrival_secs }
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    #[test]
    fn timeline_spreads_across_the_window() {
        let mut sim = Simulator::new(21);
        let spec = AttackerSpec::default();
        let farm = HoneypotFarm::deploy(&mut sim, 8, &spec, 21, SimDuration::from_days(90));
        sim.run();
        let t = farm.timeline();
        assert_eq!(t.per_week.len(), 12, "90 days ≈ 12 full weeks");
        let total: usize = t.per_week.iter().sum();
        assert!(total >= spec.total(), "every attacker contacted at least once: {total}");
        // Uniform arrival process: no week is empty and no week holds
        // more than a third of the contacts.
        assert!(t.per_week.iter().all(|&n| n > 0), "{:?}", t.per_week);
        assert!(t.per_week[t.busiest_week] < total / 3, "{:?}", t.per_week);
        assert!(t.mean_interarrival_secs > 0.0);
        // ~480 arrivals over 90 days ⇒ mean gap on the order of hours.
        assert!(t.mean_interarrival_secs < 86_400.0, "{}", t.mean_interarrival_secs);
    }
}
