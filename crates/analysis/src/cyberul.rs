//! A "CyberUL" device-certification test suite (§X).
//!
//! The paper's discussion proposes an external certification body that
//! checks consumer devices for "well known and often exploited
//! vulnerabilities such as anonymous logins and port bouncing". This
//! module implements that suite over an enumeration record: every check
//! consumes only scanner-observable evidence, so the same audit could
//! run against a lab device.

use crate::{cve, exposure, writable};
use enumerator::HostRecord;
use serde::{Deserialize, Serialize};

/// Finding severity, ordered: `Critical` is worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational.
    Info,
    /// Should fix.
    Medium,
    /// Certification-blocking.
    High,
    /// Actively exploited classes of vulnerability.
    Critical,
}

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Stable check identifier (kebab-case).
    pub check: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable detail.
    pub detail: String,
}

/// The audit result for one host/device.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Audit {
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
}

impl Audit {
    /// Certification verdict: no `High` or `Critical` findings.
    pub fn certified(&self) -> bool {
        self.findings.iter().all(|f| f.severity < Severity::High)
    }

    /// The worst severity present.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Renders a short certification report.
    pub fn render(&self, subject: &str) -> String {
        let mut out = format!(
            "CyberUL audit of {subject}: {}\n",
            if self.certified() { "CERTIFIED" } else { "FAILED" }
        );
        for f in &self.findings {
            out.push_str(&format!("  [{:?}] {}: {}\n", f.severity, f.check, f.detail));
        }
        if self.findings.is_empty() {
            out.push_str("  no findings\n");
        }
        out
    }
}

/// Known installer-default / fleet-shared certificate CNs; presenting
/// one means the private key is extractable from any sibling device
/// (§IX).
const SHARED_CERT_CNS: &[&str] = &[
    "localhost",
    "ftp.Serv-U.com",
    "NAS.qnap.com",
    "zyxel-device.local",
    "BUFFALO-LS.local",
    "lge-nas.local",
    "ftpd.default.local",
    "proftpd.example.default",
    "filezilla-server.default",
];

/// Runs the full check suite over one enumeration record.
pub fn audit(record: &HostRecord) -> Audit {
    let mut findings = Vec::new();

    if record.is_anonymous() {
        findings.push(Finding {
            check: "anonymous-login",
            severity: Severity::High,
            detail: "anonymous FTP login enabled; all published data is world-readable".into(),
        });
    }
    if writable::appears_writable(record) {
        findings.push(Finding {
            check: "anonymous-write",
            severity: Severity::Critical,
            detail: "anonymous upload evidence found (write-probe files present)".into(),
        });
    }
    if record.port_accepts_third_party == Some(true) {
        findings.push(Finding {
            check: "port-bounce",
            severity: Severity::Critical,
            detail: "PORT accepts third-party addresses (FTP bounce attack, CERT CA-1997-27)"
                .into(),
        });
    }
    if let Some(banner) = &record.banner {
        let cves = cve::cves_of_banner(banner);
        if !cves.is_empty() {
            findings.push(Finding {
                check: "known-cves",
                severity: Severity::Critical,
                detail: format!("banner version is vulnerable to: {}", cves.join(", ")),
            });
        }
        if ftp_proto::Banner::parse(banner).leaked_private_ip().is_some() {
            findings.push(Finding {
                check: "banner-leaks-internal-address",
                severity: Severity::Info,
                detail: "banner discloses an RFC 1918 address (NAT deployment visible)".into(),
            });
        }
    }
    if crate::bounce::is_nated(record) {
        findings.push(Finding {
            check: "pasv-leaks-internal-address",
            severity: Severity::Medium,
            detail: "PASV advertises a private or mismatching address".into(),
        });
    }
    if exposure::exposes_sensitive(record) {
        findings.push(Finding {
            check: "sensitive-data-exposed",
            severity: Severity::High,
            detail: "sensitive file classes visible to anonymous users (Table IX)".into(),
        });
    }
    if exposure::os_root_of(record).is_some() {
        findings.push(Finding {
            check: "os-root-exposed",
            severity: Severity::High,
            detail: "the device exposes an operating-system root over FTP".into(),
        });
    }
    if !record.ftps.supported {
        findings.push(Finding {
            check: "no-transport-security",
            severity: Severity::Medium,
            detail: "no FTPS support: credentials and data travel in cleartext".into(),
        });
    } else if let Some(cert) = &record.ftps.cert {
        if SHARED_CERT_CNS.contains(&cert.subject_cn.as_str()) {
            findings.push(Finding {
                check: "shared-built-in-certificate",
                severity: Severity::High,
                detail: format!(
                    "presents the fleet-shared certificate CN={} (private key extractable)",
                    cert.subject_cn
                ),
            });
        } else if cert.is_self_signed() {
            findings.push(Finding {
                check: "self-signed-certificate",
                severity: Severity::Info,
                detail: "FTPS certificate is self-signed (trust-on-first-use only)".into(),
            });
        }
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    Audit { findings }
}

/// Fleet summary: audits every record and reports the certification
/// pass rate plus the most common failing checks.
pub fn fleet_summary(records: &[HostRecord]) -> (f64, Vec<(&'static str, u64)>) {
    let mut passed = 0u64;
    let mut total = 0u64;
    let mut by_check: std::collections::HashMap<&'static str, u64> =
        std::collections::HashMap::new();
    for r in records.iter().filter(|r| r.ftp_compliant) {
        total += 1;
        let a = audit(r);
        if a.certified() {
            passed += 1;
        }
        for f in a.findings.iter().filter(|f| f.severity >= Severity::High) {
            *by_check.entry(f.check).or_default() += 1;
        }
    }
    let mut checks: Vec<(&'static str, u64)> = by_check.into_iter().collect();
    checks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let rate = if total == 0 { 1.0 } else { passed as f64 / total as f64 };
    (rate, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enumerator::LoginOutcome;
    use ftp_proto::listing::Readability;
    use std::net::Ipv4Addr;

    fn base() -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::new(7, 7, 7, 7));
        r.ftp_compliant = true;
        r.banner = Some("FTP server ready.".into());
        r
    }

    #[test]
    fn locked_down_host_certifies() {
        let mut r = base();
        r.ftps.supported = true;
        r.ftps.cert =
            Some(simtls::SimCertificate::browser_trusted("unique.example", "CA GlobalTrust", 99));
        let a = audit(&r);
        assert!(a.certified(), "{a:?}");
        assert!(a.findings.is_empty());
    }

    #[test]
    fn anonymous_login_blocks_certification() {
        let mut r = base();
        r.login = LoginOutcome::Anonymous;
        let a = audit(&r);
        assert!(!a.certified());
        assert!(a.findings.iter().any(|f| f.check == "anonymous-login"));
    }

    #[test]
    fn bounce_and_cve_are_critical() {
        let mut r = base();
        r.banner = Some("ProFTPD 1.3.5 Server".into());
        r.port_accepts_third_party = Some(true);
        let a = audit(&r);
        assert_eq!(a.worst(), Some(Severity::Critical));
        let checks: Vec<_> = a.findings.iter().map(|f| f.check).collect();
        assert!(checks.contains(&"port-bounce"));
        assert!(checks.contains(&"known-cves"));
        // Sorted most severe first.
        assert!(a.findings.windows(2).all(|w| w[0].severity >= w[1].severity));
    }

    #[test]
    fn shared_certificate_flagged() {
        let mut r = base();
        r.ftps.supported = true;
        r.ftps.cert = Some(simtls::SimCertificate::self_signed("NAS.qnap.com", 1));
        let a = audit(&r);
        assert!(!a.certified());
        assert!(a.findings.iter().any(|f| f.check == "shared-built-in-certificate"));
    }

    #[test]
    fn self_signed_is_only_informational() {
        let mut r = base();
        r.ftps.supported = true;
        r.ftps.cert = Some(simtls::SimCertificate::self_signed("my-own-nas.example", 5));
        let a = audit(&r);
        assert!(a.certified());
        assert!(a.findings.iter().any(|f| f.check == "self-signed-certificate"));
    }

    #[test]
    fn sensitive_exposure_flagged() {
        let mut r = base();
        r.login = LoginOutcome::Anonymous;
        r.files = crate::file_table([("/etc/shadow", false, Readability::Readable)]);
        let a = audit(&r);
        assert!(a.findings.iter().any(|f| f.check == "sensitive-data-exposed"));
    }

    #[test]
    fn fleet_summary_counts() {
        let good = {
            let mut r = base();
            r.ftps.supported = true;
            r
        };
        let bad = {
            let mut r = base();
            r.login = LoginOutcome::Anonymous;
            r
        };
        let (rate, checks) = fleet_summary(&[good, bad]);
        assert!((rate - 0.5).abs() < 1e-9);
        assert_eq!(checks[0].0, "anonymous-login");
    }

    #[test]
    fn render_mentions_verdict() {
        let mut r = base();
        r.login = LoginOutcome::Anonymous;
        let a = audit(&r);
        let text = a.render("QNAP Turbo NAS");
        assert!(text.contains("FAILED"));
        assert!(text.contains("anonymous-login"));
    }
}
