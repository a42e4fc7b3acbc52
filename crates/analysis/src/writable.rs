//! World-writable detection via the reference set (§VI-A).
//!
//! The paper never probed writability by uploading; instead it built a
//! *reference set* of files whose presence indicates that anonymous
//! write succeeded at some point: write-probe campaign files, and
//! probe-name files with the `.1`/`.2` unique-suffix trail. This module
//! implements that passive detector. It is a documented lower bound —
//! the ablation benchmark quantifies how much it misses against ground
//! truth.

use enumerator::HostRecord;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Probe filenames whose presence marks a server world-writable.
pub const REFERENCE_NAMES: &[&str] =
    &["w0000000t.txt", "w0000000t.php", "sjutd.txt", "hello.world.txt", "ftpchk3.txt", "ftpchk3.php"];

/// True when `name` is a reference-set file, including the
/// unique-suffix variants (`sjutd.txt.1`, `sjutd.txt.2`, …).
pub fn is_reference_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    for base in REFERENCE_NAMES {
        if name.eq_ignore_ascii_case(base) {
            return true;
        }
        // `base` + `.` + a non-empty digit trail, compared in place —
        // this runs per file per record, so no lowercase copies.
        if name.len() > base.len() + 1
            && crate::ci::starts_with(name, base)
            && bytes[base.len()] == b'.'
            && bytes[base.len() + 1..].iter().all(u8::is_ascii_digit)
        {
            return true;
        }
    }
    false
}

/// True when the record carries reference-set evidence of writability.
pub fn appears_writable(record: &HostRecord) -> bool {
    record.files.iter().any(|f| !f.is_dir && is_reference_name(f.name()))
}

/// §VI-A summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WritableSummary {
    /// Addresses flagged world-writable.
    pub servers: HashSet<Ipv4Addr>,
    /// Number of distinct ASes they fall in (filled by the caller when a
    /// registry is available).
    pub as_count: usize,
}

/// Scans records for writable evidence; `registry` (optional) fills the
/// AS count.
pub fn detect(records: &[HostRecord], registry: Option<&netsim::AsRegistry>) -> WritableSummary {
    let servers: HashSet<Ipv4Addr> = records
        .iter()
        .filter(|r| r.is_anonymous() && appears_writable(r))
        .map(|r| r.ip)
        .collect();
    let as_count = match registry {
        Some(reg) => {
            let set: HashSet<_> = servers.iter().filter_map(|&ip| reg.lookup(ip)).collect();
            set.len()
        }
        None => 0,
    };
    WritableSummary { servers, as_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enumerator::LoginOutcome;
    use ftp_proto::listing::Readability;

    fn rec(ip: [u8; 4], names: &[&str], anon: bool) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::from(ip));
        r.ftp_compliant = true;
        if anon {
            r.login = LoginOutcome::Anonymous;
        }
        r.files = crate::file_table(
            names.iter().map(|n| (format!("/up/{n}"), false, Readability::Readable)),
        );
        r
    }

    #[test]
    fn reference_names_match() {
        assert!(is_reference_name("w0000000t.txt"));
        assert!(is_reference_name("W0000000T.PHP"));
        assert!(is_reference_name("sjutd.txt.1"));
        assert!(is_reference_name("hello.world.txt.12"));
        assert!(!is_reference_name("hello.world.txt.backup"));
        assert!(!is_reference_name("w0000000t.txt."));
        assert!(!is_reference_name("readme.txt"));
    }

    #[test]
    fn detect_flags_only_anonymous_servers_with_evidence() {
        let records = vec![
            rec([1, 0, 0, 1], &["sjutd.txt"], true),
            rec([1, 0, 0, 2], &["photo.jpg"], true),
            rec([1, 0, 0, 3], &["sjutd.txt"], false), // not anonymous
        ];
        let summary = detect(&records, None);
        assert!(summary.servers.contains(&Ipv4Addr::new(1, 0, 0, 1)));
        assert_eq!(summary.servers.len(), 1);
    }

    #[test]
    fn as_count_via_registry() {
        let mut reg = netsim::AsRegistry::new();
        reg.register(netsim::Asn(1), "A", netsim::AsKind::Hosting);
        reg.announce(netsim::Asn(1), netsim::Ipv4Net::new(Ipv4Addr::new(1, 0, 0, 0), 24));
        reg.freeze();
        let records = vec![
            rec([1, 0, 0, 1], &["sjutd.txt"], true),
            rec([1, 0, 0, 2], &["w0000000t.php"], true),
        ];
        let summary = detect(&records, Some(&reg));
        assert_eq!(summary.servers.len(), 2);
        assert_eq!(summary.as_count, 1);
    }
}
