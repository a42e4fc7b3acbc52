//! `ftp-proto` kernel timings on fixed generated inputs: nanoseconds per
//! line for the control-channel line split, reply assembly, and listing
//! parse in the three dialects the simulated servers emit. Multiplied by
//! the in-situ counts of the traced run (`codec_lines_borrowed`,
//! `replies_total`, `listing_entries`) they estimate how much of
//! `enumerator.cb_s` the codec and listing ingest take.

use ftp_proto::codec::LineCodec;
use ftp_proto::listing::{self, ListingEntryRef, ListingFormat, Permissions};
use ftp_proto::reply::ReplyBuf;
use std::hint::black_box;
use std::time::Instant;

/// Lines per input.
const LINES: usize = 4_096;
/// Timed passes over each input; the median pass is reported.
const PASSES: usize = 15;

/// Median nanoseconds per line of `pass`, which handles `lines` lines.
fn ns_per_line(lines: usize, mut pass: impl FnMut() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let handled = black_box(pass());
            assert_eq!(handled, lines, "kernel pass handled every line");
            start.elapsed().as_nanos() as f64 / lines as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[PASSES / 2]
}

/// A control-channel transcript, one string per reply as a server
/// sends it: single-line replies interleaved with multiline ones,
/// CRLF-terminated.
fn reply_transcript() -> Vec<String> {
    let mut out = Vec::new();
    let mut lines = 0;
    while lines < LINES {
        if lines % 8 == 0 && lines + 3 <= LINES {
            out.push(format!("211-Features {lines}:\r\n MDTM\r\n211 End\r\n"));
            lines += 3;
        } else {
            out.push(format!(
                "227 Entering Passive Mode (10,0,{},{},19,137).\r\n",
                lines % 256,
                lines / 256
            ));
            lines += 1;
        }
    }
    out
}

/// A directory body of `LINES` entries in `format`.
fn listing_body(format: ListingFormat) -> Vec<String> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..LINES)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let name = format!("file-{i:05}.dat");
            let entry = ListingEntryRef {
                name: &name,
                is_dir: x.is_multiple_of(10),
                size: Some(x % 1_000_000_000),
                permissions: Some(Permissions::public_file()),
                owner: Some("ftp"),
                mtime: None,
            };
            let mut line = String::new();
            listing::render_line_into(entry, format, &mut line);
            line
        })
        .collect()
}

/// `(metric name, ns per line)` for every kernel.
pub fn measure() -> Vec<(&'static str, f64)> {
    let replies = reply_transcript();

    // Replies reach the codec one segment at a time, as in a session.
    let codec = ns_per_line(LINES, || {
        let mut codec = LineCodec::new();
        let mut n = 0;
        for reply in &replies {
            codec.extend(reply.as_bytes());
            while let Ok(Some(line)) = codec.next_line_str() {
                black_box(line);
                n += 1;
            }
        }
        n
    });

    let lines: Vec<&str> = replies
        .iter()
        .flat_map(|r| r.split("\r\n"))
        .filter(|l| !l.is_empty())
        .collect();
    let reply = ns_per_line(LINES, || {
        let mut buf = ReplyBuf::new();
        let mut n = 0;
        for line in &lines {
            black_box(buf.push_line(line).expect("generated replies parse"));
            n += 1;
        }
        n
    });

    let mut out = vec![
        ("kernel.codec_split_ns", codec),
        ("kernel.reply_parse_ns", reply),
    ];
    for (name, format) in [
        ("kernel.listing_unix_ns", ListingFormat::Unix),
        ("kernel.listing_dos_ns", ListingFormat::Dos),
        ("kernel.listing_mlsd_ns", ListingFormat::Mlsd),
    ] {
        let body = listing_body(format);
        out.push((
            name,
            ns_per_line(LINES, || {
                body.iter()
                    .filter(|line| {
                        black_box(
                            listing::parse_line_ref(line, format).expect("generated lines parse"),
                        )
                        .is_some()
                    })
                    .count()
            }),
        ));
    }
    out
}
