//! Micro-benchmarks of the hot protocol and scanning kernels, plus the
//! ablation comparisons DESIGN.md §5 calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftp_proto::decimal::push_u64;
use ftp_proto::listing::{self, ListingEntryRef, ListingFormat, Permissions};
use ftp_proto::{Banner, Command, HostPort, ReplyBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvfs::{FileAttrs, PathScratch, Vfs};
use std::hint::black_box;
use zscan::CyclicPermutation;

/// Ablation 1: cyclic-group permutation vs the alternatives ZMap
/// rejected — materialized Fisher-Yates shuffle (O(n) memory) and the
/// linear sweep (no memory, no randomness).
fn scan_order_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scan_order");
    for &size in &[1u64 << 16, 1 << 20] {
        g.bench_with_input(BenchmarkId::new("cyclic_group", size), &size, |b, &size| {
            b.iter(|| {
                let perm = CyclicPermutation::new(size, 7);
                let mut acc = 0u64;
                for v in perm.iter() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("fisher_yates", size), &size, |b, &size| {
            b.iter(|| {
                use rand::seq::SliceRandom;
                let mut v: Vec<u64> = (0..size).collect();
                v.shuffle(&mut StdRng::seed_from_u64(7));
                let mut acc = 0u64;
                for x in &v {
                    acc = acc.wrapping_add(*x);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("linear_sweep", size), &size, |b, &size| {
            b.iter(|| {
                let mut acc = 0u64;
                for v in 0..size {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

const LISTING_FORMATS: [(ListingFormat, &str); 4] = [
    (ListingFormat::Unix, "unix"),
    (ListingFormat::Dos, "dos"),
    (ListingFormat::Eplf, "eplf"),
    (ListingFormat::Mlsd, "mlsd"),
];

/// 1,000 directory entries shaped like a generated listing:
/// `(name, is_dir, size)`.
fn listing_entries() -> Vec<(String, bool, u64)> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..1_000)
        .map(|i| {
            let is_dir = rng.random_bool(0.1);
            (format!("file-{i:05}.dat"), is_dir, rng.random_range(0..1_000_000_000))
        })
        .collect()
}

/// The borrowed rendering view of one [`listing_entries`] row.
fn entry_ref(&(ref name, is_dir, size): &(String, bool, u64)) -> ListingEntryRef<'_> {
    ListingEntryRef {
        name,
        is_dir,
        size: Some(size),
        permissions: Some(Permissions::public_file()),
        owner: Some("ftp"),
        mtime: Some("Jun 18  2015"),
    }
}

/// The enumerator's listing kernel: every line of a 1,000-entry body
/// parsed, entries and failures counted.
fn listing_parse_bench(c: &mut Criterion) {
    let entries = listing_entries();
    let mut g = c.benchmark_group("listing_parse_1k_lines");
    for (fmt, label) in LISTING_FORMATS {
        let mut body = String::new();
        for entry in &entries {
            listing::render_line_into(entry_ref(entry), fmt, &mut body);
            body.push_str("\r\n");
        }
        g.bench_function(label, |b| {
            b.iter(|| {
                let (mut parsed, mut failures) = (0usize, 0usize);
                for line in black_box(&body).lines() {
                    match listing::parse_line_ref(line, fmt) {
                        Ok(Some(e)) => {
                            black_box(e);
                            parsed += 1;
                        }
                        Ok(None) => {}
                        Err(_) => failures += 1,
                    }
                }
                black_box((parsed, failures))
            })
        });
    }
    g.finish();
}

/// The ftpd `LIST` kernel: 1,000 entries rendered into one reused body.
fn listing_render_bench(c: &mut Criterion) {
    let entries = listing_entries();
    let mut g = c.benchmark_group("listing_render_1k_lines");
    for (fmt, label) in LISTING_FORMATS {
        let mut body = String::new();
        g.bench_function(label, |b| {
            b.iter(|| {
                body.clear();
                for entry in &entries {
                    listing::render_line_into(entry_ref(entry), fmt, &mut body);
                    body.push_str("\r\n");
                }
                black_box(body.len())
            })
        });
    }
    g.finish();
}

/// The worldgen deep-tree kernel: 400 `roll-NNN` directories of 18
/// `IMG_NNNN.jpg` files each, inserted through directory handles in
/// ascending name order.
fn vfs_build_bench(c: &mut Criterion) {
    let attrs = FileAttrs::public(2_000_000);
    c.bench_function("vfs_build_deep_tree", |b| {
        b.iter(|| {
            let mut vfs = Vfs::new();
            let mut path = PathScratch::new();
            let mut name = String::new();
            for roll in 0..400 {
                name.clear();
                name.push_str("roll-");
                push_u64(&mut name, roll, 3, '0');
                path.set("/share/photos");
                path.push(&name);
                let dir = vfs.dir_handle(path.as_str()).expect("fresh path");
                for i in 0..18 {
                    name.clear();
                    name.push_str("IMG_");
                    push_u64(&mut name, i, 4, '0');
                    name.push_str(".jpg");
                    vfs.add_file_in(dir, &name, attrs).expect("valid name");
                }
            }
            black_box(vfs.node_count())
        })
    });
}

fn protocol_bench(c: &mut Criterion) {
    c.bench_function("command_parse", |b| {
        b.iter(|| {
            for line in
                ["USER anonymous", "PASS a@b.c", "PORT 10,0,0,1,19,137", "LIST /pub", "RETR robots.txt"]
            {
                black_box(line.parse::<Command>().unwrap());
            }
        })
    });
    let mut replies = ReplyBuf::new();
    c.bench_function("reply_parse", |b| {
        b.iter(|| {
            let line = black_box("227 Entering Passive Mode (10,0,0,5,19,137).");
            black_box(replies.push_line(line).unwrap().map(|r| r.code()))
        })
    });
    c.bench_function("pasv_extract", |b| {
        b.iter(|| {
            black_box(
                HostPort::parse_pasv_reply("Entering Passive Mode (10,0,0,5,19,137).").unwrap(),
            )
        })
    });
    let banners = [
        "ProFTPD 1.3.5 Server (Debian)",
        "(vsFTPd 3.0.2)",
        "Welcome to Pure-FTPd [privsep] [TLS]",
        "QNAP NAS FTP server ready",
        "220 RMNetwork FTP",
        "Some unknown banner text here",
    ];
    c.bench_function("banner_fingerprint", |b| {
        b.iter(|| {
            for raw in banners {
                black_box(Banner::parse(raw));
            }
        })
    });
}

/// Ablation 4 micro-view: hardened vs strict-shaped reply handling cost
/// (the tolerance is effectively free).
fn reply_tolerance_bench(c: &mut Criterion) {
    let clean = "230 Login successful";
    let quirky = "230Login successful"; // jammed text
    let mut replies = ReplyBuf::new();
    let mut g = c.benchmark_group("ablation_reply_tolerance");
    g.bench_function("clean_line", |b| {
        b.iter(|| black_box(replies.push_line(black_box(clean)).unwrap().map(|r| r.code())))
    });
    g.bench_function("quirky_line", |b| {
        b.iter(|| black_box(replies.push_line(black_box(quirky)).unwrap().map(|r| r.code())))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(2));
    targets = scan_order_ablation, listing_parse_bench, listing_render_bench, vfs_build_bench,
        protocol_bench, reply_tolerance_bench
}
criterion_main!(benches);
