//! Responsible-disclosure digests (§III-A).
//!
//! The paper: *"We are working to notify responsible entities in likely
//! instances of sensitive information disclosure."* This module builds
//! those notifications: per-AS digests of affected hosts grouped by
//! issue class. Deliberately, digests contain **counts and issue
//! classes only — never file names or paths** — matching the paper's
//! decision not to publish anything that would let a third party
//! trivially retrieve the exposed data.

use crate::{exposure, writable};
use enumerator::HostRecord;
use netsim::{AsRegistry, Asn};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Issue classes a notification can raise.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Issue {
    /// Sensitive files (Table IX classes) publicly readable.
    SensitiveExposure,
    /// Anonymous write access evidenced.
    WorldWritable,
    /// `PORT` validation missing (bounce-attack proxy).
    BounceVulnerable,
    /// An operating-system root is published.
    OsRootExposed,
    /// Known-vulnerable daemon version advertised.
    VulnerableVersion,
}

impl Issue {
    fn describe(self) -> &'static str {
        match self {
            Issue::SensitiveExposure => {
                "hosts expose sensitive files (financial/key material/mail archives) to anonymous users"
            }
            Issue::WorldWritable => "hosts allow anonymous uploads and show abuse artifacts",
            Issue::BounceVulnerable => {
                "hosts accept third-party PORT commands and can proxy attacks"
            }
            Issue::OsRootExposed => "hosts publish an entire operating-system root",
            Issue::VulnerableVersion => {
                "hosts advertise daemon versions with public CVEs"
            }
        }
    }
}

/// One per-AS notification digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Digest {
    /// The network's AS number.
    pub asn: u32,
    /// Organization name from the registry.
    pub organization: String,
    /// Issue → affected-host count. No hostnames, paths, or file names.
    pub issues: BTreeMap<Issue, u64>,
}

impl Digest {
    /// Total affected hosts (hosts with multiple issues counted once per
    /// issue).
    pub fn total_findings(&self) -> u64 {
        self.issues.values().sum()
    }

    /// Renders the notification email body.
    pub fn render(&self) -> String {
        let mut out = format!(
            "To the network operations contact for AS{} ({}):\n\
             During an authorized measurement study of public FTP services\n\
             we observed the following within your network:\n",
            self.asn, self.organization
        );
        for (issue, count) in &self.issues {
            out.push_str(&format!("  - {count} {}\n", issue.describe()));
        }
        out.push_str(
            "Per-host details are available to the verified network owner on\n\
             request. No file contents were retrieved in bulk and no exhaustive\n\
             listing will be published.\n",
        );
        out
    }
}

/// Issues detected for a single host (observable evidence only).
pub fn issues_of(record: &HostRecord) -> Vec<Issue> {
    let mut out = Vec::new();
    if exposure::exposes_sensitive(record) {
        out.push(Issue::SensitiveExposure);
    }
    if writable::appears_writable(record) {
        out.push(Issue::WorldWritable);
    }
    if record.port_accepts_third_party == Some(true) {
        out.push(Issue::BounceVulnerable);
    }
    if exposure::os_root_of(record).is_some() {
        out.push(Issue::OsRootExposed);
    }
    if record
        .banner
        .as_deref()
        .map(|b| !crate::cve::cves_of_banner(b).is_empty())
        .unwrap_or(false)
    {
        out.push(Issue::VulnerableVersion);
    }
    out
}

/// Builds one digest per AS that has at least one finding, ordered by
/// finding count (largest first) — the notification priority queue.
pub fn build_digests(records: &[HostRecord], registry: &AsRegistry) -> Vec<Digest> {
    let mut by_as: HashMap<Asn, BTreeMap<Issue, u64>> = HashMap::new();
    for r in records.iter().filter(|r| r.ftp_compliant) {
        let issues = issues_of(r);
        if issues.is_empty() {
            continue;
        }
        let Some(asn) = registry.lookup(r.ip) else { continue };
        let entry = by_as.entry(asn).or_default();
        for issue in issues {
            *entry.entry(issue).or_default() += 1;
        }
    }
    let mut digests: Vec<Digest> = by_as
        .into_iter()
        .map(|(asn, issues)| Digest {
            asn: asn.0,
            organization: registry
                .info(asn)
                .map(|i| i.name.clone())
                .unwrap_or_else(|| "unknown".to_owned()),
            issues,
        })
        .collect();
    digests.sort_by(|a, b| {
        b.total_findings().cmp(&a.total_findings()).then(a.asn.cmp(&b.asn))
    });
    digests
}

/// Sanity guard used by tests and callers: a digest body must never leak
/// path-like strings.
pub fn leaks_paths(digest_text: &str) -> bool {
    digest_text.lines().any(|l| l.contains("/") && (l.contains(".pst") || l.contains("shadow")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enumerator::{HostRecord, LoginOutcome};
    use ftp_proto::listing::Readability;
    use netsim::{AsKind, Ipv4Net};
    use std::net::Ipv4Addr;

    fn registry() -> AsRegistry {
        let mut reg = AsRegistry::new();
        reg.register(Asn(100), "Example ISP", AsKind::Isp);
        reg.announce(Asn(100), Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), 24));
        reg.register(Asn(200), "Example Hosting", AsKind::Hosting);
        reg.announce(Asn(200), Ipv4Net::new(Ipv4Addr::new(10, 0, 1, 0), 24));
        reg.freeze();
        reg
    }

    fn host(ip: [u8; 4], files: &[&str], bounce: bool) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::from(ip));
        r.ftp_compliant = true;
        r.login = LoginOutcome::Anonymous;
        r.banner = Some("FTP server ready.".into());
        if bounce {
            r.port_accepts_third_party = Some(true);
        }
        r.files = crate::file_table(files.iter().map(|&p| (p, false, Readability::Readable)));
        r
    }

    #[test]
    fn digests_group_by_as_and_sort_by_volume() {
        let records = vec![
            host([10, 0, 0, 1], &["/a/archive.pst"], false),
            host([10, 0, 0, 2], &["/b/shadow"], true),
            host([10, 0, 1, 1], &[], true),
        ];
        let digests = build_digests(&records, &registry());
        assert_eq!(digests.len(), 2);
        assert_eq!(digests[0].asn, 100, "busier AS first");
        assert_eq!(digests[0].issues[&Issue::SensitiveExposure], 2);
        assert_eq!(digests[0].issues[&Issue::BounceVulnerable], 1);
        assert_eq!(digests[1].asn, 200);
    }

    #[test]
    fn clean_hosts_produce_no_digest() {
        let records = vec![host([10, 0, 0, 1], &["/pub/readme.txt"], false)];
        assert!(build_digests(&records, &registry()).is_empty());
    }

    #[test]
    fn rendered_digest_never_names_files() {
        let records = vec![host(
            [10, 0, 0, 1],
            &["/home/alice/secret-taxes.qdf", "/etc/shadow", "/mail/archive.pst"],
            false,
        )];
        let digests = build_digests(&records, &registry());
        let text = digests[0].render();
        assert!(text.contains("AS100"));
        assert!(text.contains("sensitive files"));
        assert!(!text.contains("alice"), "{text}");
        assert!(!text.contains("secret-taxes"), "{text}");
        assert!(!leaks_paths(&text), "{text}");
    }

    #[test]
    fn vulnerable_version_issue() {
        let mut r = host([10, 0, 0, 3], &[], false);
        r.banner = Some("ProFTPD 1.3.5 Server".into());
        assert!(issues_of(&r).contains(&Issue::VulnerableVersion));
    }
}
