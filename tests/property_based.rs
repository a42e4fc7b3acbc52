//! Property-based tests (proptest) on the core data structures and
//! invariants the whole reproduction leans on.

use analysis::StreamingAggregate;
use ftp_proto::listing::{self, ListingEntryRef, ListingFormat, Permissions};
use ftp_proto::reply::reply;
use ftp_proto::{Command, FtpPath, HostPort, LineCodec, ReplyBuf, Robots};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use zscan::CyclicPermutation;

/// A synthetic [`StreamingAggregate`] delta built from a flat pool of
/// counts and a list of map keys, touching every merge shape: plain
/// counters, fixed-order count arrays, keyed maps, the AS set, and the
/// request histogram. Counts are drawn from the pool cyclically; the
/// `provider` flag of a device entry is a pure function of the device
/// name — exactly as in real folds, where it derives from the
/// fingerprint database — which is the property that makes map merging
/// order-insensitive.
fn synth_aggregate(nums: &[u64], names: &[String]) -> StreamingAggregate {
    let mut cursor = 0usize;
    let mut next = || {
        let v = nums.get(cursor % nums.len().max(1)).copied().unwrap_or(0);
        cursor += 1;
        v
    };
    let mut agg = StreamingAggregate::default();
    agg.fold_scan(next(), next());
    agg.fold_http(next() % 2 == 0);
    agg.summary.hosts = next();
    agg.summary.ftp = next();
    agg.summary.total_requests = next();
    for slot in agg.classes.iter_mut() {
        *slot = (next(), next());
    }
    for slot in agg.device_classes.iter_mut() {
        *slot = (next(), next());
    }
    for slot in agg.campaigns.iter_mut() {
        *slot = next();
    }
    agg.hb_total = next();
    agg.hb_writable = next();
    agg.bounce.probed = next();
    agg.bounce.accepted = next();
    agg.ftps_supported = next();
    agg.certs_seen = next();
    agg.writable_servers = next();
    agg.soho_servers = next();
    for row in agg.sensitive.iter_mut() {
        row.servers = next();
        row.files = next();
        row.readable = next();
    }
    for slot in agg.requests_hist.iter_mut() {
        *slot = next();
    }
    for name in names {
        let provider = name.len() % 2 == 0;
        let e = agg.devices.entry(name.clone()).or_insert((0, 0, provider));
        e.0 += next();
        e.1 += next();
        let x = agg.extensions.entry(name.clone()).or_default();
        x.0 += next();
        x.1 += next();
        *agg.cves.entry(format!("CVE-{name}")).or_default() += next();
        agg.writable_asns.insert((next() % 200) as u32);
    }
    agg
}

fn merged(parts: &[&StreamingAggregate]) -> StreamingAggregate {
    let mut out = StreamingAggregate::default();
    for p in parts {
        out.merge(p);
    }
    out
}

/// Splits a flat pool into `k` aggregates, chunk by chunk.
fn synth_parts(nums: &[u64], names: &[String], k: usize) -> Vec<StreamingAggregate> {
    let num_step = nums.len().div_ceil(k).max(1);
    let name_step = names.len().div_ceil(k).max(1);
    (0..k)
        .map(|i| {
            let lo = (i * num_step).min(nums.len());
            let hi = ((i + 1) * num_step).min(nums.len());
            let nlo = (i * name_step).min(names.len());
            let nhi = ((i + 1) * name_step).min(names.len());
            synth_aggregate(&nums[lo..hi], &names[nlo..nhi])
        })
        .collect()
}

proptest! {
    /// PORT argument encoding round-trips for every address/port.
    #[test]
    fn hostport_roundtrip(a in 0u8.., b in 0u8.., c in 0u8.., d in 0u8.., port in 0u16..) {
        let hp = HostPort::new(Ipv4Addr::new(a, b, c, d), port);
        let encoded = hp.to_port_args();
        prop_assert_eq!(encoded.parse::<HostPort>().unwrap(), hp);
        let eprt = hp.to_eprt_args();
        prop_assert_eq!(HostPort::parse_eprt(&eprt).unwrap(), hp);
    }

    /// PASV reply scanning finds the tuple regardless of phrasing noise.
    #[test]
    fn pasv_reply_extraction(a in 0u8.., b in 0u8.., c in 0u8.., d in 0u8.., port in 0u16..,
                             prefix in "[a-zA-Z ,.]{0,30}", suffix in "[a-zA-Z ,.)]{0,20}") {
        let hp = HostPort::new(Ipv4Addr::new(a, b, c, d), port);
        let text = format!("{prefix}({}){suffix}", hp.to_port_args());
        prop_assert_eq!(HostPort::parse_pasv_reply(&text).unwrap(), hp);
    }

    /// Permission bits survive the ls-mode text encoding.
    #[test]
    fn permissions_roundtrip(mode in 0u16..0o1000) {
        let p = Permissions::from_mode(mode);
        prop_assert_eq!(Permissions::parse_rwx(&p.to_rwx()).unwrap(), p);
    }

    /// Path canonicalization is idempotent and never emits `.`/`..`.
    #[test]
    fn path_canonicalization(segments in proptest::collection::vec("[a-zA-Z0-9._-]{1,8}", 0..8)) {
        let raw = format!("/{}", segments.join("/"));
        if let Ok(p) = raw.parse::<FtpPath>() {
            let reparsed: FtpPath = p.as_str().parse().unwrap();
            prop_assert_eq!(&reparsed, &p, "idempotent");
            prop_assert!(p.as_str().starts_with('/'));
            for comp in p.components() {
                prop_assert_ne!(comp, ".");
                prop_assert_ne!(comp, "..");
            }
            prop_assert_eq!(p.depth(), p.components().count());
        }
    }

    /// join() keeps paths inside the ancestor unless absolute.
    #[test]
    fn path_join_confinement(base in proptest::collection::vec("[a-z]{1,5}", 1..4),
                             rel in "[a-z]{1,6}") {
        let base_path: FtpPath = format!("/{}", base.join("/")).parse().unwrap();
        let joined = base_path.join(&rel).unwrap();
        prop_assert!(joined.starts_with(&base_path));
        prop_assert_eq!(joined.parent(), base_path);
    }

    /// A reply serialized to wire format re-parses to the same reply, no
    /// matter how the bytes are chunked in transit.
    #[test]
    fn reply_wire_roundtrip_chunked(code in 100u16..600,
                                    lines in proptest::collection::vec("[a-zA-Z0-9 .,]{0,40}", 1..5),
                                    chunk in 1usize..7) {
        let mut wire = String::new();
        reply(&mut wire, code, lines.iter().map(String::as_str));
        let mut codec = LineCodec::new();
        let mut parser = ReplyBuf::new();
        let mut out = None;
        for piece in wire.as_bytes().chunks(chunk) {
            codec.extend(piece);
            while let Some(line) = codec.next_line_str().unwrap() {
                if let Some(r) = parser.push_line(line).unwrap() {
                    out = Some((r.code().value(), r.line_count(), r.full_text().to_owned()));
                }
            }
        }
        prop_assert_eq!(out.expect("complete reply"), (code, lines.len(), lines.join("\n")));
    }

    /// Every command the wire format can print is re-parseable to an
    /// equal value (display/parse round-trip on the safe subset).
    #[test]
    fn command_display_parse_roundtrip(arg in "[a-zA-Z0-9/_.-]{1,20}") {
        for cmd in [
            Command::User(arg.clone()),
            Command::Cwd(arg.clone()),
            Command::Retr(arg.clone()),
            Command::Stor(arg.clone()),
            Command::List(Some(arg.clone())),
            Command::Size(arg.clone()),
        ] {
            let wire = cmd.to_string();
            prop_assert_eq!(wire.parse::<Command>().unwrap(), cmd);
        }
    }

    /// Rendered listings parse back with the same name/size/kind in
    /// every dialect.
    #[test]
    fn listing_render_parse(name in "[a-zA-Z0-9_.-]{1,20}", size in 0u64..10_000_000_000,
                            is_dir in any::<bool>()) {
        let entry = ListingEntryRef {
            name: &name,
            is_dir,
            size: Some(size),
            permissions: Some(Permissions::public_file()),
            owner: Some("ftp"),
            mtime: Some("Jun 18  2015"),
        };
        for fmt in [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd] {
            let mut line = String::new();
            listing::render_line_into(entry, fmt, &mut line);
            let parsed = listing::parse_line_ref(&line, fmt).unwrap().unwrap();
            prop_assert_eq!(parsed.name, name.as_str(), "{:?}: {}", fmt, line);
            prop_assert_eq!(parsed.is_dir, is_dir);
            if !is_dir {
                prop_assert_eq!(parsed.size, Some(size));
            }
        }
    }

    /// The scan permutation is a bijection on every domain size.
    #[test]
    fn cyclic_permutation_bijective(size in 1u64..4_000, seed in any::<u64>()) {
        let perm = CyclicPermutation::new(size, seed);
        let mut seen = vec![false; size as usize];
        let mut count = 0u64;
        for v in perm.iter() {
            prop_assert!(v < size);
            prop_assert!(!seen[v as usize], "duplicate {v}");
            seen[v as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, size);
    }

    /// Sharding partitions the permutation losslessly.
    #[test]
    fn cyclic_shards_partition(size in 1u64..2_000, seed in any::<u64>(), shards in 1u64..6) {
        let perm = CyclicPermutation::new(size, seed);
        let mut seen = vec![false; size as usize];
        for i in 0..shards {
            for v in perm.shard(i, shards) {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Robots longest-match: a more specific Allow always beats a shorter
    /// Disallow prefix of it.
    #[test]
    fn robots_allow_overrides(dir in "[a-z]{1,8}", sub in "[a-z]{1,8}", file in "[a-z]{1,8}") {
        let body = format!("User-agent: *\nDisallow: /{dir}/\nAllow: /{dir}/{sub}/\n");
        let robots = Robots::parse(&body, "any");
        let blocked = format!("/{dir}/{file}.x");
        let allowed = format!("/{dir}/{sub}/{file}");
        let elsewhere = format!("/elsewhere/{file}");
        prop_assert!(!robots.is_allowed(&blocked));
        prop_assert!(robots.is_allowed(&allowed));
        prop_assert!(robots.is_allowed(&elsewhere));
    }

    /// StreamingAggregate merge is associative: folding shard deltas
    /// pairwise in any grouping gives the same total. This is what lets
    /// the streaming runner merge per-shard aggregates that are
    /// themselves merges of per-batch folds.
    #[test]
    fn aggregate_merge_associative(nums in proptest::collection::vec(0u64..1 << 40, 9..60),
                                   names in proptest::collection::vec("[a-z]{1,6}", 0..9)) {
        let parts = synth_parts(&nums, &names, 3);
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        let left = merged(&[&merged(&[a, b]), c]);
        let right = merged(&[a, &merged(&[b, c])]);
        prop_assert_eq!(left, right);
    }

    /// StreamingAggregate merge is order-insensitive: every permutation
    /// of the same deltas produces an identical aggregate, so batch and
    /// shard completion order can never leak into the report.
    #[test]
    fn aggregate_merge_order_insensitive(nums in proptest::collection::vec(0u64..1 << 40, 8..64),
                                         names in proptest::collection::vec("[a-z]{1,6}", 0..10),
                                         k in 1usize..5, rot in 0usize..5,
                                         i in 0usize..5, j in 0usize..5) {
        let parts = synth_parts(&nums, &names, k);
        let refs: Vec<&StreamingAggregate> = parts.iter().collect();
        let forward = merged(&refs);

        let mut reordered = refs.clone();
        let rot = rot % reordered.len();
        reordered.rotate_left(rot);
        let (i, j) = (i % reordered.len(), j % reordered.len());
        reordered.swap(i, j);
        prop_assert_eq!(&merged(&reordered), &forward, "rotation+swap changed the merge");

        let mut reversed = refs;
        reversed.reverse();
        prop_assert_eq!(&merged(&reversed), &forward, "reversal changed the merge");
    }

    /// The empty aggregate is the merge identity (modulo nothing: even
    /// the bookkeeping fields of a default aggregate are zero).
    #[test]
    fn aggregate_merge_identity(nums in proptest::collection::vec(0u64..1 << 40, 4..40),
                                names in proptest::collection::vec("[a-z]{1,6}", 0..8)) {
        let a = synth_aggregate(&nums, &names);
        let mut left = StreamingAggregate::default();
        left.merge(&a);
        prop_assert_eq!(&left, &a, "left identity");
        let mut right = a.clone();
        right.merge(&StreamingAggregate::default());
        prop_assert_eq!(&right, &a, "right identity");
    }

    /// Checkpoint encoding round-trips every aggregate the strategy can
    /// produce — maps with awkward keys included.
    #[test]
    fn aggregate_encode_decode_roundtrip(nums in proptest::collection::vec(0u64..1 << 40, 4..40),
                                         names in proptest::collection::vec("[a-z]{1,6}", 0..8)) {
        let a = synth_aggregate(&nums, &names);
        let decoded = StreamingAggregate::decode(&a.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&a));
    }

    /// The line codec is invariant to chunk boundaries.
    #[test]
    fn codec_chunking_invariance(lines in proptest::collection::vec("[a-zA-Z0-9 ]{0,30}", 1..6),
                                 chunk in 1usize..5) {
        let stream: String = lines.iter().map(|l| format!("{l}\r\n")).collect();
        let mut whole = LineCodec::new();
        whole.extend(stream.as_bytes());
        let mut expected = Vec::new();
        while let Some(l) = whole.next_line_str().unwrap() {
            expected.push(l.to_owned());
        }
        let mut chunked = LineCodec::new();
        let mut got = Vec::new();
        for piece in stream.as_bytes().chunks(chunk) {
            chunked.extend(piece);
            while let Some(l) = chunked.next_line_str().unwrap() {
                got.push(l.to_owned());
            }
        }
        prop_assert_eq!(got, expected);
    }
}
