//! Malicious-campaign detection (§VI-B/C): each detector keys on the
//! names, markers, and co-location signals the paper describes.

use crate::{ci, writable};
use enumerator::HostRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Campaigns the study identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CampaignClass {
    /// Four-stage `ftpchk3` infection.
    Ftpchk3,
    /// PHP remote-access tools co-located with reference-set files.
    Rat,
    /// `history.php` / `phzLtoxn.php` UDP-flood scripts.
    Ddos,
    /// Holy Bible SEO campaign (tag file).
    HolyBible,
    /// Software-cracking-service fliers.
    KeygenFlier,
    /// Dated WaReZ transport directories.
    Warez,
    /// Ramnit botnet FTP backdoor banner.
    Ramnit,
}

/// RAT basenames restricted to the reference set (the paper limited its
/// RAT count to files sourceable to FTP writes).
const RAT_NAMES: &[&str] = &["x.php", "up.php", "shell.php", "sh3ll.php", "cmd.php"];

/// DDoS script names.
const DDOS_NAMES: &[&str] = &["history.php", "phzltoxn.php"];

/// Flier names (the campaign's PDF/PS advertisements).
fn is_flier(name: &str) -> bool {
    (ci::ends_with(name, ".pdf") || ci::ends_with(name, ".ps"))
        && (ci::contains(name, "crack") || ci::contains(name, "keygen"))
}

/// The WaReZ directory-name signature: 12 digits (YYMMDDHHMMSS) plus a
/// trailing `p` (§VI-C).
pub fn is_warez_dir(name: &str) -> bool {
    name.len() == 13
        && (name.ends_with('p') || name.ends_with('P'))
        && name[..12].chars().all(|c| c.is_ascii_digit())
}

/// Detects the campaigns present on a single host. All name matching
/// folds ASCII case in place — no per-file lowercase copies.
pub fn campaigns_of(record: &HostRecord) -> HashSet<CampaignClass> {
    let mut out = HashSet::new();
    if record
        .banner
        .as_deref()
        .map(|b| ci::contains(b, "rmnetwork ftp"))
        .unwrap_or(false)
    {
        out.insert(CampaignClass::Ramnit);
    }
    let writable_evidence = writable::appears_writable(record);
    for f in &record.files {
        let name = f.name();
        if f.is_dir {
            if is_warez_dir(name) {
                out.insert(CampaignClass::Warez);
            }
            continue;
        }
        if ci::starts_with(name, "ftpchk3.") {
            out.insert(CampaignClass::Ftpchk3);
        }
        if DDOS_NAMES.iter().any(|d| name.eq_ignore_ascii_case(d)) {
            out.insert(CampaignClass::Ddos);
        }
        if name.eq_ignore_ascii_case("holy-bible.html") {
            out.insert(CampaignClass::HolyBible);
        }
        if is_flier(name) {
            out.insert(CampaignClass::KeygenFlier);
        }
        // RATs only count when sourceable to FTP writes (reference set
        // co-location), mirroring the paper's conservative 724-server
        // figure.
        if writable_evidence && RAT_NAMES.iter().any(|r| name.eq_ignore_ascii_case(r)) {
            out.insert(CampaignClass::Rat);
        }
    }
    out
}

/// Study-wide campaign summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Per-campaign infected-server addresses.
    pub servers: std::collections::HashMap<CampaignClass, HashSet<Ipv4Addr>>,
    /// Share of Holy Bible servers that also carry reference-set files
    /// (the paper's 55.35%).
    pub holy_bible_writable_share: f64,
}

/// Runs every detector over the record set.
pub fn detect(records: &[HostRecord]) -> CampaignSummary {
    let mut servers: std::collections::HashMap<CampaignClass, HashSet<Ipv4Addr>> =
        std::collections::HashMap::new();
    let mut hb_total = 0u64;
    let mut hb_writable = 0u64;
    for r in records {
        let found = campaigns_of(r);
        for c in &found {
            servers.entry(*c).or_default().insert(r.ip);
        }
        if found.contains(&CampaignClass::HolyBible) {
            hb_total += 1;
            if writable::appears_writable(r) {
                hb_writable += 1;
            }
        }
    }
    CampaignSummary {
        servers,
        holy_bible_writable_share: if hb_total == 0 {
            0.0
        } else {
            hb_writable as f64 / hb_total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enumerator::LoginOutcome;
    use ftp_proto::listing::Readability;

    fn rec(files: &[(&str, bool)]) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::new(2, 2, 2, 2));
        r.ftp_compliant = true;
        r.login = LoginOutcome::Anonymous;
        let rows = files.iter().map(|&(p, is_dir)| (p, is_dir, Readability::Readable));
        r.files = crate::file_table(rows);
        r
    }

    #[test]
    fn ftpchk3_detected_at_any_stage() {
        let r = rec(&[("/www/ftpchk3.txt", false)]);
        assert!(campaigns_of(&r).contains(&CampaignClass::Ftpchk3));
        let r2 = rec(&[("/www/ftpchk3.php", false)]);
        assert!(campaigns_of(&r2).contains(&CampaignClass::Ftpchk3));
    }

    #[test]
    fn ddos_and_holy_bible() {
        let r = rec(&[("/www/history.php", false), ("/www/Holy-Bible.html", false)]);
        let c = campaigns_of(&r);
        assert!(c.contains(&CampaignClass::Ddos));
        assert!(c.contains(&CampaignClass::HolyBible));
    }

    #[test]
    fn rat_requires_reference_set_colocation() {
        let alone = rec(&[("/www/shell.php", false)]);
        assert!(!campaigns_of(&alone).contains(&CampaignClass::Rat), "not sourceable");
        let with_probe = rec(&[("/www/shell.php", false), ("/www/sjutd.txt", false)]);
        assert!(campaigns_of(&with_probe).contains(&CampaignClass::Rat));
    }

    #[test]
    fn warez_signature() {
        assert!(is_warez_dir("150618094301p"));
        assert!(!is_warez_dir("150618094301q"));
        assert!(!is_warez_dir("15061809430p")); // 11 digits
        assert!(!is_warez_dir("x50618094301p"));
        let r = rec(&[("/incoming/150618094301p", true)]);
        assert!(campaigns_of(&r).contains(&CampaignClass::Warez));
    }

    #[test]
    fn ramnit_from_banner() {
        let mut r = rec(&[]);
        r.banner = Some("220 RMNetwork FTP".into());
        assert!(campaigns_of(&r).contains(&CampaignClass::Ramnit));
    }

    #[test]
    fn fliers() {
        let r = rec(&[("/up/cool-cracking-service.pdf", false)]);
        assert!(campaigns_of(&r).contains(&CampaignClass::KeygenFlier));
        let neg = rec(&[("/up/report.pdf", false)]);
        assert!(!campaigns_of(&neg).contains(&CampaignClass::KeygenFlier));
    }

    #[test]
    fn summary_counts_and_holy_bible_share() {
        let hb_writable = rec(&[("/w/Holy-Bible.html", false), ("/w/sjutd.txt", false)]);
        let hb_plain = rec(&[("/w/Holy-Bible.html", false)]);
        let mut hb_plain = hb_plain;
        hb_plain.ip = Ipv4Addr::new(3, 3, 3, 3);
        let summary = detect(&[hb_writable, hb_plain]);
        assert_eq!(summary.servers[&CampaignClass::HolyBible].len(), 2);
        assert!((summary.holy_bible_writable_share - 0.5).abs() < 1e-9);
    }
}
