//! Property-based tests for the virtual filesystem.

use proptest::prelude::*;
use simvfs::{FileAttrs, Vfs};

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 1..5)
        .prop_filter("dot segments canonicalize away", |segs| {
            segs.iter().all(|s| s != "." && s != "..")
        })
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    /// Files added are retrievable; counts track additions.
    #[test]
    fn add_then_lookup(paths in proptest::collection::hash_set(path_strategy(), 1..20)) {
        let mut vfs = Vfs::new();
        let mut added = Vec::new();
        for p in &paths {
            // A path may fail if a previously-added file occupies one of
            // its parent components; that's legal and must error cleanly.
            if vfs.add_file(p, FileAttrs::public(1)).is_ok() {
                added.push(p.clone());
            }
        }
        for p in &added {
            // Unless a later add replaced an ancestor, the file exists.
            if let Ok(meta) = vfs.file(p) {
                prop_assert_eq!(meta.size, 1);
            }
        }
        prop_assert!(vfs.file_count() <= added.len());
        prop_assert!(vfs.file_count() >= 1);
    }

    /// store_unique never overwrites: after N stores of the same name,
    /// N distinct files exist.
    #[test]
    fn store_unique_preserves(n in 1usize..12) {
        let mut vfs = Vfs::new();
        let mut stored = std::collections::HashSet::new();
        for i in 0..n {
            let id = vfs
                .store_unique("/up/probe.txt", FileAttrs::public(i as u64))
                .unwrap();
            let path = vfs.path_of(id);
            prop_assert!(stored.insert(path.clone()), "duplicate {path}");
        }
        prop_assert_eq!(vfs.file_count(), n);
        prop_assert!(vfs.exists("/up/probe.txt"));
    }

    /// walk() visits exactly file_count() files and dir_count() dirs,
    /// in sorted order, and every walked path resolves.
    #[test]
    fn walk_is_complete_and_sorted(paths in proptest::collection::hash_set(path_strategy(), 1..15)) {
        let mut vfs = Vfs::new();
        for p in &paths {
            let _ = vfs.add_file(p, FileAttrs::public(2));
        }
        let mut walked: Vec<(String, bool)> = Vec::new();
        vfs.walk(|p, n| walked.push((p.to_owned(), n.is_dir())));
        let files = walked.iter().filter(|(_, is_dir)| !is_dir).count();
        let dirs = walked.iter().filter(|(_, is_dir)| *is_dir).count();
        prop_assert_eq!(files, vfs.file_count());
        prop_assert_eq!(dirs, vfs.dir_count());
        for (p, _) in &walked {
            prop_assert!(vfs.exists(p), "{p}");
        }
        // Note: DFS over BTreeMaps is *sibling*-sorted, not globally
        // string-sorted (a sibling can be a prefix of another plus a
        // character smaller than '/'), so we assert per-directory order.
        let mut by_parent: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        for (p, _) in &walked {
            let parent = match p.rfind('/') {
                Some(0) => "/".to_owned(),
                Some(ix) => p[..ix].to_owned(),
                None => "/".to_owned(),
            };
            by_parent.entry(parent).or_default().push(p.clone());
        }
        for siblings in by_parent.values() {
            let mut sorted = siblings.clone();
            sorted.sort();
            prop_assert_eq!(siblings, &sorted, "siblings listed in name order");
        }
    }

    /// rename moves the whole subtree and removes the source.
    #[test]
    fn rename_moves_subtree(leaf in "[a-z]{1,6}") {
        let mut vfs = Vfs::new();
        vfs.add_file(&format!("/src/a/{leaf}"), FileAttrs::public(1)).unwrap();
        vfs.add_file("/src/b", FileAttrs::public(1)).unwrap();
        let before = vfs.file_count();
        vfs.rename("/src", "/dst").unwrap();
        prop_assert_eq!(vfs.file_count(), before);
        let moved = format!("/dst/a/{leaf}");
        prop_assert!(vfs.exists(&moved));
        prop_assert!(vfs.exists("/dst/b"));
        prop_assert!(!vfs.exists("/src"));
    }

    /// remove() deletes exactly the target subtree.
    #[test]
    fn remove_subtree(n in 1usize..8) {
        let mut vfs = Vfs::new();
        for i in 0..n {
            vfs.add_file(&format!("/doomed/f{i}"), FileAttrs::public(1)).unwrap();
        }
        vfs.add_file("/kept/file", FileAttrs::public(1)).unwrap();
        vfs.remove("/doomed").unwrap();
        prop_assert_eq!(vfs.file_count(), 1);
        prop_assert!(vfs.exists("/kept/file"));
    }
}
