//! Measurement analysis for the *FTP: The Forgotten Cloud* reproduction.
//!
//! Everything in this crate consumes the enumerator's
//! [`enumerator::HostRecord`]s (plus the AS registry and scan counters)
//! and produces the paper's tables and figures. Nothing here touches
//! worldgen ground truth: like the original study, the analyses work
//! only from what a scanner could observe — banners, listings,
//! certificates, and reply behavior. Tests compare these measurements
//! against ground truth to validate the pipeline.
//!
//! Module ↔ paper mapping:
//!
//! | module | reproduces |
//! |---|---|
//! | [`funnel`] | Table I |
//! | [`fingerprint`] | Tables II, IV, V, VII |
//! | [`ases`] | Tables III, VI and Figure 1 |
//! | [`exposure`] | §V, Tables VIII, IX, X |
//! | [`writable`] | §VI-A |
//! | [`campaigns`] | §VI-B/C |
//! | [`cve`] | Table XI |
//! | [`bounce`] | §VII-B |
//! | [`ftps`] | §IX, Tables XII, XIII |
//! | [`cyberul`] | §X's proposed device-certification suite |
//! | [`notify`] | §III-A's responsible-disclosure workflow |
//! | [`report`] | paper-style table rendering |
//! | [`stream`] | bounded-memory aggregation for streamed studies |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ases;
pub mod bounce;
pub mod campaigns;
mod ci;
pub mod cve;
pub mod cyberul;
pub mod exposure;
pub mod fingerprint;
pub mod funnel;
pub mod ftps;
pub mod notify;
pub mod report;
pub mod stream;
pub mod writable;

pub use fingerprint::{classify, Classification, DeviceClass};
pub use funnel::Funnel;
pub use stream::StreamingAggregate;

/// A host's file table with one row per `(path, is_dir, readability)`:
/// size 1, no owner or write bit — how the analysis tests build records.
#[cfg(test)]
fn file_table<P: AsRef<str>>(
    rows: impl IntoIterator<Item = (P, bool, ftp_proto::listing::Readability)>,
) -> enumerator::FileTable {
    let mut t = enumerator::FileTable::default();
    for (path, is_dir, readability) in rows {
        let (dir, name) = path.as_ref().rsplit_once('/').expect("absolute path");
        let dir = if dir.is_empty() { "/" } else { dir };
        t.push_parts(dir, name, is_dir, Some(1), readability, None, None);
    }
    t
}
