//! A virtual filesystem with UNIX permissions for simulated FTP servers.
//!
//! Every simulated server in the reproduction publishes a [`Vfs`]: a tree
//! of directories and files with permission bits, owners, sizes and
//! modification times. File *contents* are deliberately not stored —
//! matching the paper's ethics stance of not bulk-downloading files — but
//! each file can carry a small optional `content` used where the paper
//! did download or upload specific artifacts (write probes, the
//! `ftpchk3` stages, `robots.txt`).
//!
//! The metadata here is exactly what directory listings expose: the
//! enumerator reconstructs its view of a server from rendered listings,
//! never from this structure directly, so the measurement pipeline is
//! honest about what a real client could observe.
//!
//! # Arena representation
//!
//! Internally the tree is *not* a pointer structure: nodes live in a
//! single slab (`Vec<NodeSlot>`) indexed by `u32`, names and mtimes are
//! interned into a shared string arena (photo mtimes repeat across
//! thousands of files), and each directory holds a `Vec<u32>` of child
//! slot indices kept **sorted by name bytes**. That sort order is what
//! the previous `BTreeMap<String, Node>` representation iterated in, so
//! [`Vfs::list`] and [`Vfs::walk`] produce byte-identical orderings —
//! the rendered `LIST` bodies the whole study pipeline hashes against
//! do not change. What changes is the cost: inserting a file allocates
//! only when an arena grows (amortized ~0 per file) instead of one
//! owned `String` key plus tree nodes per path segment.
//!
//! Lookups return borrowed views ([`NodeRef`], [`FileRef`], [`DirRef`])
//! rather than `&Node`: plain `Copy` structs whose string fields borrow
//! from the arena, mirroring the enumerator's columnar `FileTable`.
//!
//! # Example
//!
//! ```
//! use simvfs::{FileAttrs, Vfs};
//!
//! let mut vfs = Vfs::new();
//! vfs.mkdir_p("/pub/photos")?;
//! vfs.add_file("/pub/photos/DSC_0001.JPG", FileAttrs::public(2_400_000))?;
//! assert_eq!(vfs.list("/pub/photos")?.len(), 1);
//! assert_eq!(vfs.file_count(), 1);
//! # Ok::<(), simvfs::VfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

use ftp_proto::listing::Permissions;
use ftp_proto::FtpPath;
use std::cmp::Ordering;
use std::fmt;

mod scratch;
pub use scratch::PathScratch;

/// Who owns a node — rendered as the owner column of UNIX listings and
/// used by upload-approval quirks (Pure-FTPd refuses to serve files still
/// owned by [`Owner::Anonymous`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Owner {
    /// `root`.
    Root,
    /// The FTP service account, `ftp`.
    #[default]
    Ftp,
    /// An anonymous upload not yet approved by the administrator.
    Anonymous,
    /// A local user account (uid rendered as `user<N>`).
    User(u16),
}

impl serde::Serialize for Owner {}
impl serde::Deserialize for Owner {}

impl Owner {
    /// The owner column text, without `core::fmt`: a static name, or
    /// `user<N>` rendered into `scratch` for [`Owner::User`].
    pub fn text(self, scratch: &mut String) -> &str {
        match self {
            Owner::Root => "root",
            Owner::Ftp | Owner::Anonymous => "ftp",
            Owner::User(n) => {
                scratch.clear();
                scratch.push_str("user");
                ftp_proto::decimal::push_u64(scratch, u64::from(n), 0, ' ');
                scratch
            }
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text(&mut String::new()))
    }
}

/// Attributes of a file to insert. Every text field is borrowed:
/// worldgen renders the mtime into a reused scratch buffer and passes it
/// here by reference, so materializing a file costs no owned `String`s
/// at all — the arena interns what it needs. For reading back what the
/// tree stores see [`FileRef`].
#[derive(Debug, Clone, Copy)]
pub struct FileAttrs<'a> {
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub perms: Permissions,
    /// Owner account.
    pub owner: Owner,
    /// Modification time as rendered in listings (`"Jun 18  2015"`).
    pub mtime: &'a str,
    /// Optional small content (write probes, scripts, robots.txt).
    pub content: Option<&'a str>,
}

impl<'a> FileAttrs<'a> {
    /// A world-readable (`0644`) file of the given size, owned by `ftp`,
    /// with the default mtime.
    pub fn public(size: u64) -> Self {
        FileAttrs {
            size,
            perms: Permissions::public_file(),
            owner: Owner::Ftp,
            mtime: DEFAULT_MTIME,
            content: None,
        }
    }

    /// An owner-only (`0600`) file of the given size.
    pub fn private(size: u64) -> Self {
        FileAttrs { perms: Permissions::private_file(), ..FileAttrs::public(size) }
    }

    /// Builder-style: replaces the content (and size, to match).
    pub fn with_content(self, content: &'a str) -> Self {
        FileAttrs { size: content.len() as u64, content: Some(content), ..self }
    }

    /// Builder-style: replaces the owner.
    pub fn with_owner(self, owner: Owner) -> Self {
        FileAttrs { owner, ..self }
    }

    /// Builder-style: replaces the mtime text.
    pub fn with_mtime(self, mtime: &'a str) -> Self {
        FileAttrs { mtime, ..self }
    }
}

/// The mtime every implicitly-created node carries.
const DEFAULT_MTIME: &str = "Jun 18  2015";

/// Errors from [`Vfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VfsError {
    /// The path (or one of its parents) does not exist.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// A file exists where a directory is required (or vice versa).
    NotADirectory {
        /// The conflicting path.
        path: String,
    },
    /// Target name already exists.
    AlreadyExists {
        /// The conflicting path.
        path: String,
    },
    /// The path string itself is malformed.
    BadPath {
        /// The malformed input.
        path: String,
    },
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            VfsError::NotADirectory { path } => write!(f, "not a directory: {path}"),
            VfsError::AlreadyExists { path } => write!(f, "already exists: {path}"),
            VfsError::BadPath { path } => write!(f, "malformed path: {path}"),
        }
    }
}

impl std::error::Error for VfsError {}

// ---------------------------------------------------------------------
// Interner: the shared name/mtime arena.
// ---------------------------------------------------------------------

/// Id of an interned string (index into [`Interner::spans`]).
type StrId = u32;

/// Append-only string arena with open-addressing dedup. All node names
/// and mtimes live here; repeated strings (mtimes, `index.html`, …)
/// cost nothing after their first appearance, and unique strings cost
/// only amortized arena growth — never a per-string allocation.
#[derive(Debug, Clone, Default)]
struct Interner {
    /// Every interned string, concatenated.
    buf: String,
    /// `id -> (offset, len)` into `buf`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of `StrId`s (power-of-two capacity,
    /// `EMPTY` marks free slots). Rebuilt on growth; never tombstoned —
    /// the arena is append-only.
    table: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Interner {
    fn get(&self, id: StrId) -> &str {
        let (off, len) = self.spans[id as usize];
        &self.buf[off as usize..(off + len) as usize]
    }

    /// Total bytes held by the arena (unique strings only).
    fn bytes(&self) -> usize {
        self.buf.len()
    }

    fn intern(&mut self, s: &str) -> StrId {
        if self.table.is_empty() {
            self.table = vec![EMPTY; 16];
        }
        let mask = self.table.len() - 1;
        let mut ix = (fnv1a(s) as usize) & mask;
        loop {
            match self.table[ix] {
                EMPTY => break,
                id if self.get(id) == s => return id,
                _ => ix = (ix + 1) & mask,
            }
        }
        let id = self.spans.len() as u32;
        let off = self.buf.len() as u32;
        self.buf.push_str(s);
        self.spans.push((off, s.len() as u32));
        if obs::enabled() {
            obs::counter(obs::Counter::VfsInternedBytes, s.len() as u64);
        }
        self.table[ix] = id;
        // Keep load factor under 1/2.
        if self.spans.len() * 2 > self.table.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let mut table = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for id in 0..self.spans.len() as u32 {
            let mut ix = (fnv1a(self.get(id)) as usize) & mask;
            while table[ix] != EMPTY {
                ix = (ix + 1) & mask;
            }
            table[ix] = id;
        }
        self.table = table;
    }
}

// ---------------------------------------------------------------------
// Node slab.
// ---------------------------------------------------------------------

/// Index of a node slot in the arena. Returned by write operations that
/// used to return owned paths ([`Vfs::store_unique`]); resolve it back
/// to text with [`Vfs::path_of`]. Stable until the node is removed or
/// renamed away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

/// Handle to a directory node from [`Vfs::dir_handle`], for bulk
/// insertion with [`Vfs::add_file_in`]. Valid for the `Vfs`'s lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirId(u32);

const ROOT: u32 = 0;
/// Sentinel for "no content" in a file slot.
const NO_CONTENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
struct FileData {
    size: u64,
    perms: Permissions,
    owner: Owner,
    mtime: StrId,
    /// Index into `Vfs::contents`, or `NO_CONTENT`.
    content: u32,
}

#[derive(Debug, Clone, PartialEq)]
struct DirData {
    perms: Permissions,
    owner: Owner,
    mtime: StrId,
    /// Child slot indices, sorted by name bytes — the same order the
    /// old `BTreeMap<String, _>` iterated in, so listings are
    /// byte-identical.
    children: Vec<u32>,
}

#[derive(Debug, Clone, PartialEq)]
enum Slot {
    File(FileData),
    Dir(DirData),
}

#[derive(Debug, Clone, PartialEq)]
struct NodeSlot {
    /// Interned name (the root's is the empty string).
    name: StrId,
    kind: Slot,
}

// ---------------------------------------------------------------------
// Borrowed views.
// ---------------------------------------------------------------------

/// Borrowed view of a file node. Plain `Copy` fields; the string fields
/// borrow from the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileRef<'v> {
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub perms: Permissions,
    /// Owner account.
    pub owner: Owner,
    /// Modification time as rendered in listings.
    pub mtime: &'v str,
    /// Optional small content.
    pub content: Option<&'v str>,
}

/// Borrowed view of a directory node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirRef<'v> {
    /// Permission bits (other-read governs anonymous LIST).
    pub perms: Permissions,
    /// Owner account.
    pub owner: Owner,
    /// Modification time as rendered in listings.
    pub mtime: &'v str,
    /// Number of children.
    pub len: usize,
}

/// Borrowed view of any node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeRef<'v> {
    /// A regular file.
    File(FileRef<'v>),
    /// A directory.
    Dir(DirRef<'v>),
}

impl NodeRef<'_> {
    /// True for directory nodes.
    pub fn is_dir(&self) -> bool {
        matches!(self, NodeRef::Dir(_))
    }
}

/// Mutable access to a file's listing-visible attributes (from
/// [`Vfs::file_mut`]). Mtime and content are append-only arena data and
/// stay immutable; nothing in the pipeline rewrites them in place.
#[derive(Debug)]
pub struct FileMut<'v> {
    /// Size in bytes.
    pub size: &'v mut u64,
    /// Permission bits.
    pub perms: &'v mut Permissions,
    /// Owner account.
    pub owner: &'v mut Owner,
}

/// Name-ordered iterator over a directory's children (from
/// [`Vfs::list`]). Items borrow from the tree, not the iterator, so it
/// composes with `collect`/`filter` like any slice iterator.
#[derive(Debug, Clone)]
pub struct DirList<'v> {
    vfs: &'v Vfs,
    children: std::slice::Iter<'v, u32>,
}

impl<'v> Iterator for DirList<'v> {
    type Item = (&'v str, NodeRef<'v>);

    fn next(&mut self) -> Option<Self::Item> {
        let &child = self.children.next()?;
        let slot = &self.vfs.nodes[child as usize];
        Some((self.vfs.strings.get(slot.name), self.vfs.node_ref(child)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.children.size_hint()
    }
}

impl ExactSizeIterator for DirList<'_> {}

/// The virtual filesystem: a tree rooted at `/`, stored as an indexed
/// arena (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Vfs {
    /// Node slab; slot 0 is the root directory. Slots detached by
    /// `remove` simply become unreachable — removal is rare (FTP `DELE`
    /// on simulated hosts) and the slab lives only as long as its host.
    nodes: Vec<NodeSlot>,
    /// Interned names and mtimes.
    strings: Interner,
    /// File contents (write probes, scripts, robots.txt) — rare, so
    /// they live out-of-line from the slots.
    contents: Vec<Box<str>>,
}

// The serde stubs are marker traits (nothing in the workspace
// serializes); a real serializer would need a path-walk representation
// for the arena anyway, so these stay manual rather than derived.
impl serde::Serialize for Vfs {}
impl serde::Deserialize for Vfs {}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

/// Equality compares tree *content* only: two filesystems with the same
/// nodes are equal regardless of how many mutations produced them or
/// how their arenas are laid out.
impl PartialEq for Vfs {
    fn eq(&self, other: &Self) -> bool {
        fn dir_eq(a: &Vfs, an: u32, b: &Vfs, bn: u32) -> bool {
            let (Slot::Dir(da), Slot::Dir(db)) =
                (&a.nodes[an as usize].kind, &b.nodes[bn as usize].kind)
            else {
                return false;
            };
            if da.children.len() != db.children.len()
                || da.perms != db.perms
                || da.owner != db.owner
                || a.strings.get(da.mtime) != b.strings.get(db.mtime)
            {
                return false;
            }
            da.children.iter().zip(&db.children).all(|(&ca, &cb)| {
                let (sa, sb) = (&a.nodes[ca as usize], &b.nodes[cb as usize]);
                if a.strings.get(sa.name) != b.strings.get(sb.name) {
                    return false;
                }
                match (&sa.kind, &sb.kind) {
                    (Slot::File(fa), Slot::File(fb)) => {
                        fa.size == fb.size
                            && fa.perms == fb.perms
                            && fa.owner == fb.owner
                            && a.strings.get(fa.mtime) == b.strings.get(fb.mtime)
                            && a.content_of(fa) == b.content_of(fb)
                    }
                    (Slot::Dir(_), Slot::Dir(_)) => dir_eq(a, ca, b, cb),
                    _ => false,
                }
            })
        }
        dir_eq(self, ROOT, other, ROOT)
    }
}
impl Eq for Vfs {}

impl Vfs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        let mut strings = Interner::default();
        let root_name = strings.intern("");
        let default_mtime = strings.intern(DEFAULT_MTIME);
        let root = NodeSlot {
            name: root_name,
            kind: Slot::Dir(DirData {
                perms: Permissions::public_dir(),
                owner: Owner::Ftp,
                mtime: default_mtime,
                children: Vec::new(),
            }),
        };
        Vfs { nodes: vec![root], strings, contents: Vec::new() }
    }

    /// Node slots ever created (the root included; detached slots too —
    /// this measures arena footprint, not live-tree size).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes held by the name/mtime intern arena.
    pub fn interned_bytes(&self) -> usize {
        self.strings.bytes()
    }

    fn canon(path: &str) -> Result<FtpPath, VfsError> {
        path.parse().map_err(|_| VfsError::BadPath { path: path.to_owned() })
    }

    /// True if `path` is already in the canonical form [`canon`] would
    /// produce, so lookups can walk its segments without allocating a
    /// parsed path first. Control bytes disqualify (they must surface as
    /// [`VfsError::BadPath`] through the slow path).
    fn is_canonical(path: &str) -> bool {
        path == "/"
            || (path.len() > 1
                && path.starts_with('/')
                && !path.ends_with('/')
                && path[1..].split('/').all(|seg| {
                    !seg.is_empty()
                        && seg != "."
                        && seg != ".."
                        && !seg.bytes().any(|b| matches!(b, 0 | b'\r' | b'\n'))
                }))
    }

    fn content_of<'v>(&'v self, f: &FileData) -> Option<&'v str> {
        (f.content != NO_CONTENT).then(|| &*self.contents[f.content as usize])
    }

    fn node_ref(&self, ix: u32) -> NodeRef<'_> {
        match &self.nodes[ix as usize].kind {
            Slot::File(f) => NodeRef::File(FileRef {
                size: f.size,
                perms: f.perms,
                owner: f.owner,
                mtime: self.strings.get(f.mtime),
                content: self.content_of(f),
            }),
            Slot::Dir(d) => NodeRef::Dir(DirRef {
                perms: d.perms,
                owner: d.owner,
                mtime: self.strings.get(d.mtime),
                len: d.children.len(),
            }),
        }
    }

    /// Finds `name` among `dir`'s children: `Ok(child slot)` when
    /// present, `Err(insertion position)` when not. Generators add
    /// names in ascending order, so the last child is compared first and
    /// an append costs one comparison; anything else binary-searches
    /// the rest.
    fn find_child(&self, dir: u32, name: &str) -> Result<u32, usize> {
        let Slot::Dir(d) = &self.nodes[dir as usize].kind else {
            unreachable!("find_child on a file slot");
        };
        let name_of = |c: u32| self.strings.get(self.nodes[c as usize].name);
        let Some((&last, rest)) = d.children.split_last() else { return Err(0) };
        match name_of(last).cmp(name) {
            Ordering::Less => Err(d.children.len()),
            Ordering::Equal => Ok(last),
            Ordering::Greater => {
                rest.binary_search_by(|&c| name_of(c).cmp(name)).map(|pos| rest[pos])
            }
        }
    }

    /// Walks canonical `path` segments from the root; `Ok(slot)` or the
    /// error the legacy tree produced for the same shape.
    fn resolve_canonical(&self, path: &str) -> Result<u32, VfsError> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|s| !s.is_empty()) {
            if !matches!(self.nodes[cur as usize].kind, Slot::Dir(_)) {
                return Err(VfsError::NotADirectory { path: path.to_owned() });
            }
            cur = self
                .find_child(cur, comp)
                .map_err(|_| VfsError::NotFound { path: path.to_owned() })?;
        }
        Ok(cur)
    }

    fn resolve(&self, path: &str) -> Result<u32, VfsError> {
        if Self::is_canonical(path) {
            return self.resolve_canonical(path);
        }
        let p = Self::canon(path)?;
        self.resolve_canonical(p.as_str())
    }

    /// Allocates a node slot and links it into `dir`'s children at
    /// `pos` (from a failed [`Self::find_child`] search for `name`).
    fn insert_child(&mut self, dir: u32, pos: usize, name: &str, kind: Slot) -> u32 {
        let name = self.strings.intern(name);
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeSlot { name, kind });
        if obs::enabled() {
            obs::counter(obs::Counter::VfsNodes, 1);
        }
        match &mut self.nodes[dir as usize].kind {
            Slot::Dir(d) => d.children.insert(pos, id),
            Slot::File(_) => unreachable!("insert_child on a file slot"),
        }
        id
    }

    fn new_dir_slot(&mut self) -> Slot {
        Slot::Dir(DirData {
            perms: Permissions::public_dir(),
            owner: Owner::Ftp,
            mtime: self.strings.intern(DEFAULT_MTIME),
            children: Vec::new(),
        })
    }

    fn file_data(&mut self, attrs: FileAttrs<'_>) -> FileData {
        let content = match attrs.content {
            Some(c) => {
                self.contents.push(c.into());
                (self.contents.len() - 1) as u32
            }
            None => NO_CONTENT,
        };
        FileData {
            size: attrs.size,
            perms: attrs.perms,
            owner: attrs.owner,
            mtime: self.strings.intern(attrs.mtime),
            content,
        }
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if any component is missing,
    /// [`VfsError::NotADirectory`] if a file appears mid-path.
    pub fn node(&self, path: &str) -> Result<NodeRef<'_>, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        self.resolve(path).map(|ix| self.node_ref(ix))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.node(path).is_ok()
    }

    /// True if `path` exists and is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        matches!(self.node(path), Ok(NodeRef::Dir(_)))
    }

    /// Creates a directory and all missing parents (like `mkdir -p`).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a file blocks the path.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if Self::is_canonical(path) {
            return self.descend_creating(path).map(|_| ());
        }
        let p = Self::canon(path)?;
        self.descend_creating(p.as_str()).map(|_| ())
    }

    /// Walks canonical `path`, creating missing directories, and returns
    /// the final slot (a directory).
    fn descend_creating(&mut self, path: &str) -> Result<u32, VfsError> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|s| !s.is_empty()) {
            if !matches!(self.nodes[cur as usize].kind, Slot::Dir(_)) {
                return Err(VfsError::NotADirectory { path: path.to_owned() });
            }
            cur = match self.find_child(cur, comp) {
                Ok(child) => {
                    if matches!(self.nodes[child as usize].kind, Slot::File(_)) {
                        return Err(VfsError::NotADirectory { path: path.to_owned() });
                    }
                    child
                }
                Err(pos) => {
                    let slot = self.new_dir_slot();
                    self.insert_child(cur, pos, comp, slot)
                }
            };
        }
        Ok(cur)
    }

    /// Creates a directory whose parent must already exist (FTP `MKD`).
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken;
    /// [`VfsError::NotFound`]/[`VfsError::NotADirectory`] for bad parents.
    pub fn mkdir(&mut self, path: &str) -> Result<(), VfsError> {
        let p = Self::canon(path)?;
        let Some(name) = p.file_name() else {
            return Err(VfsError::BadPath { path: path.to_owned() });
        };
        let parent = self.resolve(p.parent().as_str())?;
        if !matches!(self.nodes[parent as usize].kind, Slot::Dir(_)) {
            return Err(VfsError::NotADirectory { path: path.to_owned() });
        }
        match self.find_child(parent, name) {
            Ok(_) => Err(VfsError::AlreadyExists { path: path.to_owned() }),
            Err(pos) => {
                let name = name.to_owned();
                let slot = self.new_dir_slot();
                self.insert_child(parent, pos, &name, slot);
                Ok(())
            }
        }
    }

    /// Adds a file, creating parent directories as needed. Overwrites an
    /// existing file at the same path. One descent creates missing
    /// parents and places the file; nothing is allocated beyond
    /// amortized arena growth.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if the target is an existing directory
    /// or a file blocks a parent component.
    pub fn add_file(&mut self, path: &str, attrs: FileAttrs<'_>) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if Self::is_canonical(path) {
            return self.add_file_canonical(path, attrs).map(|_| ());
        }
        let p = Self::canon(path)?;
        if p.file_name().is_none() {
            return Err(VfsError::BadPath { path: path.to_owned() });
        }
        self.add_file_canonical(p.as_str(), attrs).map(|_| ())
    }

    /// Descends to `path` once (creating missing directories, like
    /// [`Vfs::mkdir_p`]) and returns a handle for direct insertion via
    /// [`Vfs::add_file_in`]. The worldgen bulk path: generators place
    /// dozens to thousands of files per directory, and the handle
    /// replaces a full root-to-leaf descent per file with one descent
    /// per directory.
    ///
    /// The handle stays valid for the `Vfs`'s lifetime (nodes are never
    /// removed), but points at whatever the directory becomes.
    ///
    /// # Errors
    ///
    /// As [`Vfs::mkdir_p`]: a file blocking a component or a malformed
    /// path.
    pub fn dir_handle(&mut self, path: &str) -> Result<DirId, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if Self::is_canonical(path) {
            return self.descend_creating(path).map(DirId);
        }
        let p = Self::canon(path)?;
        self.descend_creating(p.as_str()).map(DirId)
    }

    /// Adds (or overwrites) the file `name` directly inside the
    /// directory `dir` — [`Vfs::add_file`] without the per-file
    /// path render and descent. `name` is a single component: no `/`.
    ///
    /// # Errors
    ///
    /// [`VfsError::BadPath`] for an empty/`.`/`..`/separator-bearing
    /// name, [`VfsError::NotADirectory`] when a directory named `name`
    /// already exists.
    pub fn add_file_in(
        &mut self,
        dir: DirId,
        name: &str,
        attrs: FileAttrs<'_>,
    ) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if name.is_empty()
            || name == "."
            || name == ".."
            || name.bytes().any(|b| matches!(b, 0 | b'\r' | b'\n' | b'/'))
        {
            return Err(VfsError::BadPath { path: name.to_owned() });
        }
        let data = self.file_data(attrs);
        match self.find_child(dir.0, name) {
            Ok(child) => {
                if matches!(self.nodes[child as usize].kind, Slot::Dir(_)) {
                    return Err(VfsError::NotADirectory { path: name.to_owned() });
                }
                self.nodes[child as usize].kind = Slot::File(data);
            }
            Err(pos) => {
                self.insert_child(dir.0, pos, name, Slot::File(data));
            }
        }
        Ok(())
    }

    fn add_file_canonical(&mut self, path: &str, attrs: FileAttrs<'_>) -> Result<u32, VfsError> {
        if path == "/" {
            return Err(VfsError::BadPath { path: path.to_owned() });
        }
        let (parent_path, name) = match path.rfind('/') {
            Some(0) => ("/", &path[1..]),
            Some(ix) => (&path[..ix], &path[ix + 1..]),
            None => return Err(VfsError::BadPath { path: path.to_owned() }),
        };
        let parent = self.descend_creating(parent_path).map_err(|e| match e {
            // The legacy single-descent insert reported blocked parents
            // against the full target path; keep that.
            VfsError::NotADirectory { .. } => VfsError::NotADirectory { path: path.to_owned() },
            other => other,
        })?;
        let data = self.file_data(attrs);
        let id = match self.find_child(parent, name) {
            Ok(child) => {
                if matches!(self.nodes[child as usize].kind, Slot::Dir(_)) {
                    return Err(VfsError::NotADirectory { path: path.to_owned() });
                }
                self.nodes[child as usize].kind = Slot::File(data);
                child
            }
            Err(pos) => self.insert_child(parent, pos, name, Slot::File(data)),
        };
        Ok(id)
    }

    /// Stores an upload with the *unique-suffix* quirk: if `name` exists,
    /// the stored file becomes `name.1`, then `name.2`, … (the behavior
    /// §VI-A uses as a world-writable indicator). Returns the stored
    /// node's id; render it with [`Vfs::path_of`] when the text is
    /// needed — the candidate probing itself no longer builds paths.
    ///
    /// # Errors
    ///
    /// Propagates [`Vfs::add_file`] errors.
    pub fn store_unique(&mut self, path: &str, attrs: FileAttrs<'_>) -> Result<NodeId, VfsError> {
        use fmt::Write as _;
        let canonical;
        let path = if Self::is_canonical(path) {
            path
        } else {
            canonical = Self::canon(path)?;
            if canonical.file_name().is_none() {
                return Err(VfsError::BadPath { path: path.to_owned() });
            }
            canonical.as_str()
        };
        if path == "/" {
            return Err(VfsError::BadPath { path: path.to_owned() });
        }
        let (parent_path, name) = match path.rfind('/') {
            Some(0) => ("/", &path[1..]),
            Some(ix) => (&path[..ix], &path[ix + 1..]),
            None => return Err(VfsError::BadPath { path: path.to_owned() }),
        };
        let parent = self.descend_creating(parent_path).map_err(|e| match e {
            VfsError::NotADirectory { .. } => VfsError::NotADirectory { path: path.to_owned() },
            other => other,
        })?;
        if let Err(pos) = self.find_child(parent, name) {
            let data = self.file_data(attrs);
            let id = self.insert_child(parent, pos, name, Slot::File(data));
            return Ok(NodeId(id));
        }
        // Candidate names are probed inside the already-resolved parent:
        // one suffix scratch reused across candidates, no re-descent.
        let mut candidate = String::with_capacity(name.len() + 4);
        for n in 1u32.. {
            candidate.clear();
            let _ = write!(candidate, "{name}.{n}");
            if let Err(pos) = self.find_child(parent, &candidate) {
                let data = self.file_data(attrs);
                let id = self.insert_child(parent, pos, &candidate, Slot::File(data));
                return Ok(NodeId(id));
            }
        }
        unreachable!("u32 suffix space exhausted")
    }

    /// Renders the absolute path of a node returned by
    /// [`Vfs::store_unique`]. Walks parent links by searching from the
    /// root — this is a test/diagnostic affordance, not a hot path.
    pub fn path_of(&self, id: NodeId) -> String {
        fn rec(vfs: &Vfs, cur: u32, target: u32, out: &mut String) -> bool {
            if cur == target {
                return true;
            }
            if let Slot::Dir(d) = &vfs.nodes[cur as usize].kind {
                for &c in &d.children {
                    out.push('/');
                    out.push_str(vfs.strings.get(vfs.nodes[c as usize].name));
                    if rec(vfs, c, target, out) {
                        return true;
                    }
                    out.truncate(out.rfind('/').unwrap_or(0));
                }
            }
            false
        }
        let mut out = String::new();
        if !rec(self, ROOT, id.0, &mut out) {
            out.clear();
        }
        if out.is_empty() {
            out.push('/');
        }
        out
    }

    /// Removes a file or (recursively) a directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent; [`VfsError::BadPath`] for `/`.
    pub fn remove(&mut self, path: &str) -> Result<(), VfsError> {
        let p = Self::canon(path)?;
        let Some(name) = p.file_name() else {
            return Err(VfsError::BadPath { path: path.to_owned() });
        };
        let parent = self.resolve(p.parent().as_str())?;
        if !matches!(self.nodes[parent as usize].kind, Slot::Dir(_)) {
            return Err(VfsError::NotADirectory { path: path.to_owned() });
        }
        match self.detach_child(parent, name) {
            // The subtree's slots become unreachable garbage in the
            // slab; nothing frees them (removal is rare and the slab
            // dies with its host). The gauge makes that leak visible.
            Some(node) => {
                if obs::enabled() {
                    obs::counter(obs::Counter::VfsDeadNodes, self.subtree_slots(node));
                }
                Ok(())
            }
            None => Err(VfsError::NotFound { path: path.to_owned() }),
        }
    }

    /// Slab slots in the subtree rooted at `node`, including `node`.
    fn subtree_slots(&self, node: u32) -> u64 {
        let mut stack = vec![node];
        let mut n = 0u64;
        while let Some(ix) = stack.pop() {
            n += 1;
            if let Slot::Dir(d) = &self.nodes[ix as usize].kind {
                stack.extend_from_slice(&d.children);
            }
        }
        n
    }

    /// Renames `from` to `to` (FTP `RNFR`/`RNTO`). The subtree keeps its
    /// slots; only the parent links and the node's name change.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if `from` is missing,
    /// [`VfsError::AlreadyExists`] if `to` is taken.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), VfsError> {
        if self.exists(to) {
            return Err(VfsError::AlreadyExists { path: to.to_owned() });
        }
        let pf = Self::canon(from)?;
        let Some(name) = pf.file_name() else {
            return Err(VfsError::BadPath { path: from.to_owned() });
        };
        let parent = self.resolve(pf.parent().as_str())?;
        if !matches!(self.nodes[parent as usize].kind, Slot::Dir(_)) {
            return Err(VfsError::NotADirectory { path: from.to_owned() });
        }
        let node = self
            .detach_child(parent, name)
            .ok_or_else(|| VfsError::NotFound { path: from.to_owned() })?;
        let pt = Self::canon(to)?;
        let Some(to_name) = pt.file_name() else {
            return Err(VfsError::BadPath { path: to.to_owned() });
        };
        let to_name = to_name.to_owned();
        let new_parent = self.descend_creating(pt.parent().as_str()).map_err(|e| match e {
            VfsError::NotADirectory { .. } => VfsError::NotADirectory { path: to.to_owned() },
            other => other,
        })?;
        self.nodes[node as usize].name = self.strings.intern(&to_name);
        match self.find_child(new_parent, &to_name) {
            // `exists(to)` was checked above and nothing has been
            // created at `to` since; insert at the sorted position.
            Ok(_) => return Err(VfsError::AlreadyExists { path: to.to_owned() }),
            Err(pos) => match &mut self.nodes[new_parent as usize].kind {
                Slot::Dir(d) => d.children.insert(pos, node),
                Slot::File(_) => unreachable!("descend_creating returns dirs"),
            },
        }
        Ok(())
    }

    /// Unlinks `name` from `dir`'s child list, returning its slot.
    fn detach_child(&mut self, dir: u32, name: &str) -> Option<u32> {
        let Slot::Dir(d) = &self.nodes[dir as usize].kind else { return None };
        let pos = d
            .children
            .binary_search_by(|&c| self.strings.get(self.nodes[c as usize].name).cmp(name))
            .ok()?;
        match &mut self.nodes[dir as usize].kind {
            Slot::Dir(d) => Some(d.children.remove(pos)),
            Slot::File(_) => None,
        }
    }

    /// Lists a directory's children as `(name, node)` pairs in name
    /// order.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::NotADirectory`].
    pub fn list(&self, path: &str) -> Result<DirList<'_>, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        let ix = self.resolve(path)?;
        match &self.nodes[ix as usize].kind {
            Slot::Dir(d) => Ok(DirList { vfs: self, children: d.children.iter() }),
            Slot::File(_) => Err(VfsError::NotADirectory { path: path.to_owned() }),
        }
    }

    /// File metadata at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent or a directory.
    pub fn file(&self, path: &str) -> Result<FileRef<'_>, VfsError> {
        match self.node(path)? {
            NodeRef::File(f) => Ok(f),
            NodeRef::Dir(_) => Err(VfsError::NotFound { path: path.to_owned() }),
        }
    }

    /// Mutable file metadata at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent or a directory.
    pub fn file_mut(&mut self, path: &str) -> Result<FileMut<'_>, VfsError> {
        let ix = self.resolve(path)?;
        match &mut self.nodes[ix as usize].kind {
            Slot::File(f) => Ok(FileMut { size: &mut f.size, perms: &mut f.perms, owner: &mut f.owner }),
            Slot::Dir(_) => Err(VfsError::NotFound { path: path.to_owned() }),
        }
    }

    /// Total number of files in the (live) tree.
    pub fn file_count(&self) -> usize {
        fn rec(vfs: &Vfs, ix: u32) -> usize {
            match &vfs.nodes[ix as usize].kind {
                Slot::File(_) => 1,
                Slot::Dir(d) => d.children.iter().map(|&c| rec(vfs, c)).sum(),
            }
        }
        rec(self, ROOT)
    }

    /// Total number of directories (excluding the root).
    pub fn dir_count(&self) -> usize {
        fn rec(vfs: &Vfs, ix: u32) -> usize {
            match &vfs.nodes[ix as usize].kind {
                Slot::File(_) => 0,
                Slot::Dir(d) => d
                    .children
                    .iter()
                    .map(|&c| match &vfs.nodes[c as usize].kind {
                        Slot::Dir(_) => 1 + rec(vfs, c),
                        Slot::File(_) => 0,
                    })
                    .sum(),
            }
        }
        rec(self, ROOT)
    }

    /// Depth-first visit of every node as `(path, node)`, siblings in
    /// name order — the same preorder the old `Vec`-returning walk
    /// produced, minus the per-node `String` materialization: one path
    /// buffer is grown and truncated across the whole traversal.
    pub fn walk(&self, mut f: impl FnMut(&str, NodeRef<'_>)) {
        let mut path = String::new();
        self.walk_rec(ROOT, &mut path, &mut f);
    }

    fn walk_rec(&self, dir: u32, path: &mut String, f: &mut impl FnMut(&str, NodeRef<'_>)) {
        let Slot::Dir(d) = &self.nodes[dir as usize].kind else { return };
        for &child in &d.children {
            let len = path.len();
            path.push('/');
            path.push_str(self.strings.get(self.nodes[child as usize].name));
            f(path, self.node_ref(child));
            self.walk_rec(child, path, f);
            path.truncate(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects `walk`'s visit order for assertions.
    fn walked(v: &Vfs) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        v.walk(|p, n| out.push((p.to_owned(), n.is_dir())));
        out
    }

    #[test]
    fn mkdir_p_and_lookup() {
        let mut v = Vfs::new();
        v.mkdir_p("/a/b/c").unwrap();
        assert!(v.is_dir("/a/b/c"));
        assert!(v.is_dir("/a"));
        assert!(!v.exists("/a/b/c/d"));
        // Idempotent.
        v.mkdir_p("/a/b/c").unwrap();
        assert_eq!(v.dir_count(), 3);
    }

    #[test]
    fn add_and_read_file() {
        let mut v = Vfs::new();
        v.add_file("/pub/readme.txt", FileAttrs::public(42).with_content("hello")).unwrap();
        let f = v.file("/pub/readme.txt").unwrap();
        assert_eq!(f.size, 5); // with_content resizes
        assert_eq!(f.content, Some("hello"));
        assert_eq!(v.file_count(), 1);
    }

    #[test]
    fn insertion_order_does_not_change_the_tree() {
        // Mixed shapes: ascending runs, case and digit-width breaks
        // (`DSC_` < `IMG_` < `a`, `f10` < `f9`).
        let mut names: Vec<String> = (0..30).map(|i| format!("f{i}")).collect();
        names.extend(["IMG_0001.jpg", "DSC_0002.JPG", "a", "Z", "roll-007", "é"].map(String::from));
        let mut ascending = names.clone();
        ascending.sort();
        let descending: Vec<String> = ascending.iter().rev().cloned().collect();
        let shuffled: Vec<String> =
            (0..names.len()).map(|i| names[(i * 17) % names.len()].clone()).collect();
        let build = |order: &[String]| {
            obs::install(Box::new(obs::CollectingRecorder::new(0, false)));
            let mut v = Vfs::new();
            let d = v.dir_handle("/d").unwrap();
            for n in order {
                v.add_file_in(d, n, FileAttrs::public(n.len() as u64)).unwrap();
            }
            let report = obs::uninstall().expect("recorder installed").finish();
            (v, report.metrics.counter(obs::Counter::VfsNodes))
        };
        let (asc, asc_nodes) = build(&ascending);
        let listed = |v: &Vfs| v.list("/d").unwrap().map(|(n, _)| n.to_owned()).collect::<Vec<_>>();
        assert_eq!(listed(&asc), ascending);
        for order in [&descending, &shuffled] {
            let (v, nodes) = build(order);
            assert_eq!(v, asc);
            assert_eq!(listed(&v), ascending);
            assert_eq!(v.node_count(), asc.node_count());
            assert_eq!(nodes, asc_nodes);
        }
        // One node per name plus `/d`; the root is not an insertion.
        assert_eq!(asc_nodes, names.len() as u64 + 1);
        assert_eq!(asc.node_count(), names.len() + 2);

        // Re-adding the current last child overwrites it in place.
        let mut v = asc.clone();
        let d = v.dir_handle("/d").unwrap();
        let last = ascending.last().unwrap();
        v.add_file_in(d, last, FileAttrs::public(999)).unwrap();
        assert_eq!(v.node_count(), asc.node_count());
        assert_eq!(listed(&v), ascending);
        assert_eq!(v.file(&format!("/d/{last}")).unwrap().size, 999);
    }

    #[test]
    fn file_blocks_directory_path() {
        let mut v = Vfs::new();
        v.add_file("/x", FileAttrs::public(1)).unwrap();
        assert!(matches!(v.mkdir_p("/x/y"), Err(VfsError::NotADirectory { .. })));
        assert!(matches!(v.node("/x/y"), Err(VfsError::NotADirectory { .. })));
    }

    #[test]
    fn mkdir_requires_parent_and_uniqueness() {
        let mut v = Vfs::new();
        assert!(matches!(v.mkdir("/no/parent"), Err(VfsError::NotFound { .. })));
        v.mkdir("/top").unwrap();
        assert!(matches!(v.mkdir("/top"), Err(VfsError::AlreadyExists { .. })));
    }

    #[test]
    fn store_unique_appends_suffixes() {
        let mut v = Vfs::new();
        let a = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(a), "/up/probe.txt");
        let b = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(b), "/up/probe.txt.1");
        let c = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(c), "/up/probe.txt.2");
        assert_eq!(v.file_count(), 3);
    }

    #[test]
    fn remove_file_and_dir() {
        let mut v = Vfs::new();
        v.add_file("/d/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/d/sub/f2", FileAttrs::public(1)).unwrap();
        v.remove("/d/f1").unwrap();
        assert!(!v.exists("/d/f1"));
        v.remove("/d").unwrap(); // recursive
        assert!(!v.exists("/d/sub/f2"));
        assert!(matches!(v.remove("/d"), Err(VfsError::NotFound { .. })));
        assert!(matches!(v.remove("/"), Err(VfsError::BadPath { .. })));
    }

    #[test]
    fn rename_moves_subtree() {
        let mut v = Vfs::new();
        v.add_file("/a/b/file", FileAttrs::public(9)).unwrap();
        v.rename("/a/b", "/c/moved").unwrap();
        assert!(v.exists("/c/moved/file"));
        assert!(!v.exists("/a/b"));
        assert!(matches!(v.rename("/missing", "/x"), Err(VfsError::NotFound { .. })));
        v.add_file("/taken", FileAttrs::public(1)).unwrap();
        assert!(matches!(v.rename("/c", "/taken"), Err(VfsError::AlreadyExists { .. })));
    }

    #[test]
    fn list_is_name_ordered() {
        let mut v = Vfs::new();
        v.add_file("/d/zeta", FileAttrs::public(1)).unwrap();
        v.add_file("/d/alpha", FileAttrs::public(1)).unwrap();
        v.mkdir_p("/d/beta").unwrap();
        let names: Vec<&str> = v.list("/d").unwrap().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "beta", "zeta"]);
        assert!(matches!(v.list("/d/alpha"), Err(VfsError::NotADirectory { .. })));
    }

    #[test]
    fn walk_visits_everything() {
        let mut v = Vfs::new();
        v.add_file("/a/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/a/b/f2", FileAttrs::public(1)).unwrap();
        let paths: Vec<String> = walked(&v).into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["/a", "/a/b", "/a/b/f2", "/a/f1"]);
    }

    #[test]
    fn counts() {
        let mut v = Vfs::new();
        v.add_file("/a/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/a/b/f2", FileAttrs::public(1)).unwrap();
        v.mkdir_p("/empty/nested").unwrap();
        assert_eq!(v.file_count(), 2);
        assert_eq!(v.dir_count(), 4); // a, a/b, empty, empty/nested
    }

    #[test]
    fn bad_paths_rejected() {
        let mut v = Vfs::new();
        assert!(matches!(v.mkdir_p("/../escape"), Err(VfsError::BadPath { .. })));
        assert!(matches!(v.add_file("/", FileAttrs::public(1)), Err(VfsError::BadPath { .. })));
    }

    #[test]
    fn owner_display() {
        assert_eq!(Owner::Root.to_string(), "root");
        assert_eq!(Owner::Ftp.to_string(), "ftp");
        assert_eq!(Owner::Anonymous.to_string(), "ftp");
        assert_eq!(Owner::User(3).to_string(), "user3");
    }

    #[test]
    fn file_mut_updates_in_place() {
        let mut v = Vfs::new();
        v.add_file("/f", FileAttrs::public(1).with_owner(Owner::Anonymous)).unwrap();
        *v.file_mut("/f").unwrap().owner = Owner::Ftp;
        assert_eq!(v.file("/f").unwrap().owner, Owner::Ftp);
        assert!(v.file_mut("/nope").is_err());
    }

    #[test]
    fn interner_dedups_and_counts_bytes() {
        let mut v = Vfs::new();
        let before = v.interned_bytes();
        v.add_file("/x/a.txt", FileAttrs::public(1)).unwrap();
        let after_first = v.interned_bytes();
        assert!(after_first > before);
        // Same names elsewhere in the tree intern to the same spans.
        v.add_file("/y/a.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.interned_bytes(), after_first + 1, "only the new name byte 'y'");
        assert_eq!(v.node_count(), 1 + 4); // root + x, a.txt, y, a.txt
    }

    #[test]
    fn content_equality_ignores_history() {
        let mut a = Vfs::new();
        let mut b = Vfs::new();
        a.add_file("/d/one", FileAttrs::public(1)).unwrap();
        a.add_file("/d/two", FileAttrs::public(2)).unwrap();
        // Same tree, different construction order and extra churn.
        b.add_file("/d/two", FileAttrs::public(2)).unwrap();
        b.add_file("/d/tmp", FileAttrs::public(9)).unwrap();
        b.remove("/d/tmp").unwrap();
        b.add_file("/d/one", FileAttrs::public(1)).unwrap();
        assert_eq!(a, b);
        b.add_file("/d/one", FileAttrs::public(7)).unwrap();
        assert_ne!(a, b);
    }
}
