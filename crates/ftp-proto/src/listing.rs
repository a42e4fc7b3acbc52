//! Directory-listing formats: UNIX `ls -l`, MS-DOS/IIS, EPLF and MLSD.
//!
//! `LIST` output is not standardized; the paper's enumerator had to parse
//! whatever each implementation produced. This module implements both
//! directions — parsing (for the enumerator and honeypot log analysis)
//! and rendering (for the simulated servers) — so the reproduction's
//! client and servers exercise realistic, mutually-independent code
//! paths: servers render a format, the enumerator sniffs and parses it.
//!
//! The `# Readable` / `# Non-readable` / `# Unk-readability` columns of
//! the paper's Table IX come straight from the permission bits carried
//! here: UNIX-style listings expose an all-users read bit, DOS-style
//! listings do not (the paper labels those files "unk-readability").

use crate::decimal;
use crate::error::ProtoError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The listing dialect a server emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ListingFormat {
    /// `drwxr-xr-x  2 ftp ftp 4096 Jun 18  2015 pub` — the common case.
    #[default]
    Unix,
    /// `06-18-15  09:43AM       <DIR>          aspnet_client` — IIS/DOS.
    Dos,
    /// `+i8388621.48594,m825718503,r,s280,\tdjb.html` — EPLF.
    Eplf,
    /// RFC 3659 `MLSD` fact lines.
    Mlsd,
}

/// Whether the anonymous (all-users) read permission could be determined.
///
/// Mirrors the paper's three-way readability split (§III): UNIX listings
/// carry an "other" read bit; DOS-style listings carry no permissions at
/// all, so files on most Windows-based servers are *unk-readability*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Readability {
    /// All-users read bit set.
    Readable,
    /// All-users read bit clear.
    NonReadable,
    /// Listing format exposes no permission information.
    Unknown,
}

/// UNIX permission bits as shown in an `ls -l` mode string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permissions {
    bits: u16,
}

impl Permissions {
    /// Permissions from the low nine mode bits (`0o755`-style).
    pub fn from_mode(mode: u16) -> Self {
        Permissions { bits: mode & 0o777 }
    }

    /// The standard anonymous-directory permissions, `0o755`.
    pub fn public_dir() -> Self {
        Permissions::from_mode(0o755)
    }

    /// World-readable file permissions, `0o644`.
    pub fn public_file() -> Self {
        Permissions::from_mode(0o644)
    }

    /// Owner-only file permissions, `0o600`.
    pub fn private_file() -> Self {
        Permissions::from_mode(0o600)
    }

    /// The raw nine permission bits.
    pub fn mode(&self) -> u16 {
        self.bits
    }

    /// True if the all-users ("other") read bit is set — the bit the
    /// paper used to decide whether an anonymous user could likely
    /// retrieve a file.
    pub fn other_read(&self) -> bool {
        self.bits & 0o004 != 0
    }

    /// True if the all-users write bit is set.
    pub fn other_write(&self) -> bool {
        self.bits & 0o002 != 0
    }

    /// Renders the nine-character `rwxr-xr-x` suffix of a mode string.
    pub fn to_rwx(&self) -> String {
        let mut s = String::with_capacity(9);
        self.push_rwx(&mut s);
        s
    }

    /// Appends the nine-character `rwx` suffix to `out`: one table
    /// lookup per permission group, no `core::fmt`.
    fn push_rwx(&self, out: &mut String) {
        for shift in [6u16, 3, 0] {
            out.push_str(RWX_TRIOS[usize::from((self.bits >> shift) & 0o7)]);
        }
    }

    /// Parses the nine-character `rwx` triple-group; returns `None` on
    /// unexpected characters (setuid `s`/`t` letters are accepted).
    pub fn parse_rwx(s: &str) -> Option<Self> {
        Self::parse_rwx_bytes(s.as_bytes())
    }

    /// [`Permissions::parse_rwx`] over raw bytes. Mode strings are
    /// ASCII; a multi-byte character can never match an expected
    /// letter, so byte-wise inspection rejects exactly the same inputs a
    /// char-wise scan would.
    fn parse_rwx_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 9 {
            return None;
        }
        let mut bits = 0u16;
        for (i, &c) in bytes.iter().enumerate() {
            let expected = [b'r', b'w', b'x'][i % 3];
            let set = match c {
                b'-' => false,
                b's' | b't' if expected == b'x' => true,
                b'S' | b'T' if expected == b'x' => false,
                c if c == expected => true,
                _ => return None,
            };
            if set {
                bits |= 1 << (8 - i);
            }
        }
        Some(Permissions { bits })
    }
}

/// The `rwx` text of a three-bit permission group, indexed by its value.
const RWX_TRIOS: [&str; 8] = ["---", "--x", "-w-", "-wx", "r--", "r-x", "rw-", "rwx"];

impl fmt::Display for Permissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for shift in [6u16, 3, 0] {
            f.write_str(RWX_TRIOS[usize::from((self.bits >> shift) & 0o7)])?;
        }
        Ok(())
    }
}

/// One parsed entry from a directory listing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListingEntry {
    /// File or directory name (final component only).
    pub name: String,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes when the format exposes it.
    pub size: Option<u64>,
    /// UNIX permissions when the format exposes them.
    pub permissions: Option<Permissions>,
    /// Owner name when the format exposes it (e.g. `ftp`).
    pub owner: Option<String>,
    /// Raw modification-time text as shown in the listing.
    pub mtime: Option<String>,
    /// True for symlinks (UNIX `l` type); the link target is stripped.
    pub is_symlink: bool,
}

impl ListingEntry {
    /// Creates a directory entry with only a name (as from `NLST`).
    pub fn bare(name: impl Into<String>, is_dir: bool) -> Self {
        ListingEntry {
            name: name.into(),
            is_dir,
            size: None,
            permissions: None,
            owner: None,
            mtime: None,
            is_symlink: false,
        }
    }

    /// The paper's three-way readability classification for this entry.
    pub fn readability(&self) -> Readability {
        match self.permissions {
            Some(p) if p.other_read() => Readability::Readable,
            Some(_) => Readability::NonReadable,
            None => Readability::Unknown,
        }
    }
}

/// Modification-time text as parsed from a listing line, kept as slices
/// of the source columns so the borrowed parse path allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtimeRef<'a> {
    /// Format exposes no mtime.
    None,
    /// A single contiguous slice (EPLF `m…` fact, MLSD `modify=` value).
    Raw(&'a str),
    /// UNIX `ls -l` columns, conventionally joined as `month day tail`.
    Unix {
        /// Month name column (`Jun`).
        month: &'a str,
        /// Day-of-month column (`18`).
        day: &'a str,
        /// Time-or-year column (`09:43` or `2015`).
        tail: &'a str,
    },
    /// DOS columns, conventionally joined as `date time`.
    Dos {
        /// Date column (`06-18-15`).
        date: &'a str,
        /// Time column (`09:43AM`).
        time: &'a str,
    },
}

impl MtimeRef<'_> {
    /// The owned single-string form [`ListingEntry::mtime`] carries.
    pub fn to_owned_string(self) -> Option<String> {
        match self {
            MtimeRef::None => None,
            MtimeRef::Raw(s) => Some(s.to_owned()),
            MtimeRef::Unix { month, day, tail } => Some(format!("{month} {day} {tail}")),
            MtimeRef::Dos { date, time } => Some(format!("{date} {time}")),
        }
    }
}

/// A borrowed parsed listing entry: every text field is a slice of the
/// source line, so parsing a 10 000-entry directory body allocates
/// nothing — the enumerator copies the fields it keeps straight into its
/// columnar `FileTable` arenas.
#[derive(Debug, Clone, Copy)]
pub struct ParsedEntryRef<'a> {
    /// File or directory name (final component only).
    pub name: &'a str,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes when the format exposes it.
    pub size: Option<u64>,
    /// UNIX permissions when the format exposes them.
    pub permissions: Option<Permissions>,
    /// Owner name when the format exposes it (e.g. `ftp`).
    pub owner: Option<&'a str>,
    /// Modification-time columns when the format exposes them.
    pub mtime: MtimeRef<'a>,
    /// True for symlinks (UNIX `l` type); the link target is stripped.
    pub is_symlink: bool,
}

impl ParsedEntryRef<'_> {
    /// The paper's three-way readability classification for this entry.
    pub fn readability(&self) -> Readability {
        match self.permissions {
            Some(p) if p.other_read() => Readability::Readable,
            Some(_) => Readability::NonReadable,
            None => Readability::Unknown,
        }
    }

    /// Copies into an owned [`ListingEntry`].
    pub fn to_owned_entry(&self) -> ListingEntry {
        ListingEntry {
            name: self.name.to_owned(),
            is_dir: self.is_dir,
            size: self.size,
            permissions: self.permissions,
            owner: self.owner.map(str::to_owned),
            mtime: self.mtime.to_owned_string(),
            is_symlink: self.is_symlink,
        }
    }
}

/// Parses one listing line, trying the given format first and falling
/// back to sniffing the others — the tolerance strategy the paper's
/// enumerator converged on after iterative testing against live servers.
///
/// Lines that are recognized as noise (e.g. `total 52` headers) return
/// `Ok(None)`.
///
/// # Errors
///
/// Returns [`ProtoError::BadListing`] if no parser recognizes the line.
pub fn parse_line(line: &str, hint: ListingFormat) -> Result<Option<ListingEntry>, ProtoError> {
    Ok(parse_line_ref(line, hint)?.map(|e| e.to_owned_entry()))
}

/// Borrowed-view variant of [`parse_line`]: the returned entry's text
/// fields are slices of `line`, so the per-line hot path allocates
/// nothing.
///
/// # Errors
///
/// Returns [`ProtoError::BadListing`] if no parser recognizes the line.
pub fn parse_line_ref(
    line: &str,
    hint: ListingFormat,
) -> Result<Option<ParsedEntryRef<'_>>, ProtoError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(None);
    }
    let order: [ListingFormat; 4] = match hint {
        ListingFormat::Unix => {
            [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd]
        }
        ListingFormat::Dos => {
            [ListingFormat::Dos, ListingFormat::Unix, ListingFormat::Eplf, ListingFormat::Mlsd]
        }
        ListingFormat::Eplf => {
            [ListingFormat::Eplf, ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Mlsd]
        }
        ListingFormat::Mlsd => {
            [ListingFormat::Mlsd, ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf]
        }
    };
    if line.starts_with("total ") && line[6..].trim().chars().all(|c| c.is_ascii_digit()) {
        return Ok(None);
    }
    for fmt in order {
        let parsed = match fmt {
            ListingFormat::Unix => parse_unix(line),
            ListingFormat::Dos => parse_dos(line),
            ListingFormat::Eplf => parse_eplf(line),
            ListingFormat::Mlsd => parse_mlsd(line),
        };
        if let Some(e) = parsed {
            return Ok(Some(e));
        }
    }
    Err(ProtoError::bad_listing(line))
}

/// Parses a full multi-line listing body, skipping noise lines and
/// collecting per-line failures separately so a single weird line does
/// not abort a 10 000-entry directory (a real-world lesson from §III).
pub fn parse_body(body: &str, hint: ListingFormat) -> (Vec<ListingEntry>, usize) {
    let mut entries = Vec::new();
    let mut failures = 0;
    for line in body.lines() {
        match parse_line(line, hint) {
            Ok(Some(e)) => entries.push(e),
            Ok(None) => {}
            Err(_) => failures += 1,
        }
    }
    (entries, failures)
}

/// The whitespace-separated columns of a listing line, read left to
/// right. Columns split exactly where `str::split_whitespace` splits, and
/// the reader remembers where the last column ended, so the name column
/// (which may hold spaces, and even words that look like the time or
/// size column) is taken verbatim from that position. ASCII is
/// classified byte by byte; a non-ASCII byte costs one char decode.
struct Columns<'a> {
    line: &'a str,
    /// Byte offset of the next unread char (always a char boundary).
    pos: usize,
}

impl<'a> Columns<'a> {
    /// `(is whitespace, byte length)` of the non-ASCII char starting at
    /// byte `i`.
    fn unicode_space_at(&self, i: usize) -> (bool, usize) {
        let c = self.line[i..].chars().next().expect("columns advance by whole chars");
        (c.is_whitespace(), c.len_utf8())
    }

    /// The next column, or `None` at the end of the line.
    fn next(&mut self) -> Option<&'a str> {
        // `char::is_whitespace` on ASCII is `\t`..=`\r` and space.
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        loop {
            match bytes.get(i) {
                None => {
                    self.pos = i;
                    return None;
                }
                Some(b'\t'..=b'\r' | b' ') => i += 1,
                Some(b) if b.is_ascii() => break,
                Some(_) => match self.unicode_space_at(i) {
                    (true, len) => i += len,
                    (false, _) => break,
                },
            }
        }
        let start = i;
        loop {
            match bytes.get(i) {
                None | Some(b'\t'..=b'\r' | b' ') => break,
                Some(b) if b.is_ascii() => i += 1,
                Some(_) => match self.unicode_space_at(i) {
                    (true, _) => break,
                    (false, len) => i += len,
                },
            }
        }
        self.pos = i;
        Some(&self.line[start..i])
    }

    /// Everything after the last column read, leading whitespace
    /// trimmed: the name column.
    fn name(&self) -> &'a str {
        self.line[self.pos..].trim_start()
    }
}

fn parse_unix(line: &str) -> Option<ParsedEntryRef<'_>> {
    // drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub
    // -rw-r--r--   1 1000     1000      1048576 Jun 18 09:43 photo.jpg
    // lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www
    let bytes = line.as_bytes();
    if bytes.len() < 11 {
        return None;
    }
    let (is_dir, is_symlink) = match bytes[0] {
        b'd' => (true, false),
        b'-' => (false, false),
        b'l' => (false, true),
        b'b' | b'c' | b'p' | b's' => (false, false),
        _ => return None,
    };
    // ASCII mode letters, so byte 10 is a char boundary.
    let perms = Permissions::parse_rwx_bytes(&bytes[1..10])?;
    // Columns: links owner group size month day time-or-year name...
    let mut cols = Columns { line, pos: 10 };
    let _links = cols.next()?;
    let owner = cols.next()?;
    let group_or_size = cols.next()?;
    // Some embedded servers omit the group column; detect by checking if
    // the next column after `group_or_size` is a month name.
    let mut size_tok;
    let month;
    let maybe = cols.next()?;
    if is_month(maybe) {
        size_tok = group_or_size;
        month = maybe;
    } else {
        size_tok = maybe;
        let m = cols.next()?;
        if !is_month(m) {
            // device files have "maj, min" instead of size
            size_tok = m;
            let m2 = cols.next()?;
            if !is_month(m2) {
                return None;
            }
            month = m2;
        } else {
            month = m;
        }
    }
    let day = cols.next()?;
    let time_or_year = cols.next()?;
    let size: Option<u64> = size_tok.trim_end_matches(',').parse().ok();
    // The name is everything after the time column.
    let mut name = cols.name();
    if name.is_empty() {
        return None;
    }
    if is_symlink {
        if let Some(ix) = name.find(" -> ") {
            name = &name[..ix];
        }
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: Some(perms),
        owner: Some(owner),
        mtime: MtimeRef::Unix { month, day, tail: time_or_year },
        is_symlink,
    })
}

fn is_month(s: &str) -> bool {
    matches!(
        s,
        "Jan" | "Feb" | "Mar" | "Apr" | "May" | "Jun" | "Jul" | "Aug" | "Sep" | "Oct" | "Nov"
            | "Dec"
    )
}

fn parse_dos(line: &str) -> Option<ParsedEntryRef<'_>> {
    // 06-18-15  09:43AM       <DIR>          aspnet_client
    // 06-18-15  09:43AM              1043901 products.mdb
    let mut cols = Columns { line, pos: 0 };
    let date = cols.next()?;
    let time = cols.next()?;
    if !looks_like_dos_date(date) || !looks_like_dos_time(time) {
        return None;
    }
    let size_or_dir = cols.next()?;
    let (is_dir, size) = if size_or_dir.eq_ignore_ascii_case("<dir>") {
        (true, None)
    } else {
        (false, size_or_dir.parse::<u64>().ok())
    };
    if !is_dir && size.is_none() {
        return None;
    }
    // The name is everything after the size/`<DIR>` column.
    let name = cols.name();
    if name.is_empty() {
        return None;
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime: MtimeRef::Dos { date, time },
        is_symlink: false,
    })
}

fn looks_like_dos_date(s: &str) -> bool {
    let b = s.as_bytes();
    (b.len() == 8 || b.len() == 10)
        && b[2] == b'-'
        && b[5] == b'-'
        && b.iter().filter(|c| c.is_ascii_digit()).count() >= 6
}

/// `09:43AM`-shaped: a `:` and a case-insensitive `AM`/`PM` suffix.
fn looks_like_dos_time(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() >= 2
        && matches!(b[b.len() - 2].to_ascii_uppercase(), b'A' | b'P')
        && b[b.len() - 1].eq_ignore_ascii_case(&b'M')
        && b.contains(&b':')
}

fn parse_eplf(line: &str) -> Option<ParsedEntryRef<'_>> {
    // +i8388621.48594,m825718503,r,s280,\tdjb.html
    let rest = line.strip_prefix('+')?;
    let tab = rest.find('\t')?;
    let (facts, name) = (&rest[..tab], &rest[tab + 1..]);
    if name.is_empty() {
        return None;
    }
    let mut is_dir = false;
    let mut size = None;
    let mut mtime = MtimeRef::None;
    for fact in facts.split(',') {
        if fact == "/" {
            is_dir = true;
        } else if let Some(s) = fact.strip_prefix('s') {
            size = s.parse::<u64>().ok();
        } else if let Some(m) = fact.strip_prefix('m') {
            mtime = MtimeRef::Raw(m);
        }
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime,
        is_symlink: false,
    })
}

fn parse_mlsd(line: &str) -> Option<ParsedEntryRef<'_>> {
    // type=dir;modify=20150618094300;perm=el; pub
    let space = line.find("; ")?;
    let (facts, name) = (&line[..space + 1], &line[space + 2..]);
    if name.is_empty() || !facts.contains('=') {
        return None;
    }
    let mut is_dir = false;
    let mut size = None;
    let mut mtime = MtimeRef::None;
    let mut seen_type = false;
    for fact in facts.split(';') {
        let Some((k, v)) = fact.split_once('=') else { continue };
        let k = k.trim();
        if k.eq_ignore_ascii_case("type") {
            seen_type = true;
            is_dir = matches!(v, "dir" | "cdir" | "pdir");
        } else if k.eq_ignore_ascii_case("size") {
            size = v.parse::<u64>().ok();
        } else if k.eq_ignore_ascii_case("modify") {
            mtime = MtimeRef::Raw(v);
        }
    }
    if !seen_type && size.is_none() && matches!(mtime, MtimeRef::None) {
        return None;
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime,
        is_symlink: false,
    })
}

/// A borrowed view of a listing entry, for rendering without building an
/// owned [`ListingEntry`] first — the simulated servers render straight
/// from their VFS metadata through this.
#[derive(Debug, Clone, Copy)]
pub struct ListingEntryRef<'a> {
    /// File or directory name (final component only).
    pub name: &'a str,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes when known.
    pub size: Option<u64>,
    /// UNIX permissions when known.
    pub permissions: Option<Permissions>,
    /// Owner name when known.
    pub owner: Option<&'a str>,
    /// Modification-time text when known.
    pub mtime: Option<&'a str>,
}

impl ListingEntry {
    /// The borrowed view of this entry, as [`render_line_into`] takes.
    pub fn as_entry_ref(&self) -> ListingEntryRef<'_> {
        ListingEntryRef {
            name: &self.name,
            is_dir: self.is_dir,
            size: self.size,
            permissions: self.permissions,
            owner: self.owner.as_deref(),
            mtime: self.mtime.as_deref(),
        }
    }
}

/// Renders a listing line in the given format — used by the simulated
/// servers so the enumerator parses realistic output it did not itself
/// produce.
pub fn render_line(entry: &ListingEntry, format: ListingFormat) -> String {
    let mut out = String::new();
    render_line_into(entry.as_entry_ref(), format, &mut out);
    out
}

/// Appends one rendered listing line (no trailing CRLF) to `out`.
///
/// This is the allocation-free path behind [`render_line`]: the hot
/// server loop renders whole directory bodies into one reused buffer.
/// Every column is written by hand, without `core::fmt`; the bytes are
/// those of the `write!` templates noted per format.
pub fn render_line_into(entry: ListingEntryRef<'_>, format: ListingFormat, out: &mut String) {
    match format {
        ListingFormat::Unix => {
            // "{t}{perms}   1 {owner:<8} {owner:<8} {size:>12} {mtime} {name}"
            let perms = entry.permissions.unwrap_or_else(Permissions::public_file);
            let owner = entry.owner.unwrap_or("ftp");
            let size = entry.size.unwrap_or(if entry.is_dir { 4096 } else { 0 });
            let mtime = entry.mtime.unwrap_or("Jun 18  2015");
            out.push(if entry.is_dir { 'd' } else { '-' });
            perms.push_rwx(out);
            out.push_str("   1 ");
            push_left_aligned(out, owner, 8);
            out.push(' ');
            push_left_aligned(out, owner, 8);
            out.push(' ');
            decimal::push_u64(out, size, 12, ' ');
            out.push(' ');
            out.push_str(mtime);
            out.push(' ');
            out.push_str(entry.name);
        }
        ListingFormat::Dos => {
            // Only reuse the entry's mtime when it is already DOS-shaped;
            // a UNIX "Jun 18  2015" string would render an unparseable line.
            let mtime = match entry.mtime {
                Some(m)
                    if m.split_whitespace().next().map(looks_like_dos_date).unwrap_or(false) =>
                {
                    m
                }
                _ => "06-18-15 09:43AM",
            };
            out.push_str(mtime);
            if entry.is_dir {
                // "{mtime}       <DIR>          {name}"
                out.push_str("       <DIR>          ");
            } else {
                // "{mtime} {size:>20} {name}"
                out.push(' ');
                decimal::push_u64(out, entry.size.unwrap_or(0), 20, ' ');
                out.push(' ');
            }
            out.push_str(entry.name);
        }
        ListingFormat::Eplf => {
            // "+/,s{size},\t{name}" (`r,` for files; no size fact when unknown)
            out.push('+');
            out.push_str(if entry.is_dir { "/," } else { "r," });
            if let Some(s) = entry.size {
                out.push('s');
                decimal::push_u64(out, s, 0, ' ');
                out.push(',');
            }
            out.push('\t');
            out.push_str(entry.name);
        }
        ListingFormat::Mlsd => {
            // "type={t};size={size};modify=20150618094300; {name}"
            out.push_str(if entry.is_dir { "type=dir;" } else { "type=file;" });
            if let Some(s) = entry.size {
                out.push_str("size=");
                decimal::push_u64(out, s, 0, ' ');
                out.push(';');
            }
            out.push_str("modify=20150618094300; ");
            out.push_str(entry.name);
        }
    }
}

/// Appends `s` left-aligned in at least `width` chars (`{s:<width$}`:
/// padding counts chars, not bytes).
fn push_left_aligned(out: &mut String, s: &str, width: usize) {
    out.push_str(s);
    for _ in s.chars().count()..width {
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permissions_roundtrip() {
        for mode in [0o777u16, 0o755, 0o644, 0o600, 0o000, 0o700] {
            let p = Permissions::from_mode(mode);
            assert_eq!(Permissions::parse_rwx(&p.to_rwx()).unwrap(), p);
        }
    }

    #[test]
    fn permissions_setuid_letters() {
        let p = Permissions::parse_rwx("rwsr-xr-t").unwrap();
        assert!(p.other_read());
        assert_eq!(p.mode() & 0o100, 0o100);
        assert!(Permissions::parse_rwx("rwSr-xr-T").is_some());
        assert!(Permissions::parse_rwx("rwzr-xr-x").is_none());
    }

    #[test]
    fn unix_dir_line() {
        let e = parse_line("drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub", ListingFormat::Unix)
            .unwrap()
            .unwrap();
        assert!(e.is_dir);
        assert_eq!(e.name, "pub");
        assert_eq!(e.readability(), Readability::Readable);
        assert_eq!(e.owner.as_deref(), Some("ftp"));
    }

    #[test]
    fn unix_file_with_spaces_in_name() {
        let e = parse_line(
            "-rw-r--r--   1 user     user      1048576 Jun 18 09:43 Tax Return 2014.pdf",
            ListingFormat::Unix,
        )
        .unwrap()
        .unwrap();
        assert_eq!(e.name, "Tax Return 2014.pdf");
        assert_eq!(e.size, Some(1_048_576));
    }

    #[test]
    fn unix_private_file_nonreadable() {
        let e = parse_line(
            "-rw-------   1 root     root          718 Jan  5  2015 shadow",
            ListingFormat::Unix,
        )
        .unwrap()
        .unwrap();
        assert_eq!(e.readability(), Readability::NonReadable);
    }

    #[test]
    fn unix_symlink_strips_target() {
        let e = parse_line(
            "lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www",
            ListingFormat::Unix,
        )
        .unwrap()
        .unwrap();
        assert!(e.is_symlink);
        assert_eq!(e.name, "www");
    }

    #[test]
    fn unix_total_header_skipped() {
        assert_eq!(parse_line("total 52", ListingFormat::Unix).unwrap(), None);
    }

    #[test]
    fn dos_lines() {
        let d = parse_line(
            "06-18-15  09:43AM       <DIR>          aspnet_client",
            ListingFormat::Dos,
        )
        .unwrap()
        .unwrap();
        assert!(d.is_dir);
        assert_eq!(d.name, "aspnet_client");
        assert_eq!(d.readability(), Readability::Unknown);

        let f = parse_line("06-18-15  09:43AM              1043901 products.mdb", ListingFormat::Dos)
            .unwrap()
            .unwrap();
        assert!(!f.is_dir);
        assert_eq!(f.size, Some(1_043_901));
        assert_eq!(f.readability(), Readability::Unknown);
    }

    #[test]
    fn eplf_lines() {
        let f = parse_line("+i8388621.48594,m825718503,r,s280,\tdjb.html", ListingFormat::Eplf)
            .unwrap()
            .unwrap();
        assert_eq!(f.name, "djb.html");
        assert_eq!(f.size, Some(280));
        assert!(!f.is_dir);

        let d = parse_line("+i8388621.50690,m824255907,/,\t514", ListingFormat::Eplf)
            .unwrap()
            .unwrap();
        assert!(d.is_dir);
        assert_eq!(d.name, "514");
    }

    #[test]
    fn mlsd_lines() {
        let e = parse_line("type=dir;modify=20150618094300;perm=el; pub", ListingFormat::Mlsd)
            .unwrap()
            .unwrap();
        assert!(e.is_dir);
        assert_eq!(e.name, "pub");
        let f = parse_line("type=file;size=1024;modify=20150618094300; a.txt", ListingFormat::Mlsd)
            .unwrap()
            .unwrap();
        assert_eq!(f.size, Some(1024));
    }

    #[test]
    fn sniffing_falls_back_across_formats() {
        // Ask for DOS but feed UNIX.
        let e = parse_line(
            "drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub",
            ListingFormat::Dos,
        )
        .unwrap()
        .unwrap();
        assert!(e.is_dir);
    }

    #[test]
    fn unparseable_line_is_error() {
        assert!(parse_line("not a listing at all %%%", ListingFormat::Unix).is_err());
    }

    #[test]
    fn parse_body_counts_failures() {
        let body = "total 8\r\ndrwxr-xr-x   2 ftp ftp 4096 Jun 18  2015 pub\r\n???garbage???\r\n";
        let (entries, failures) = parse_body(body, ListingFormat::Unix);
        assert_eq!(entries.len(), 1);
        assert_eq!(failures, 1);
    }

    #[test]
    fn render_parse_roundtrip_all_formats() {
        let entry = ListingEntry {
            name: "backup.tar.gz".into(),
            is_dir: false,
            size: Some(123_456),
            permissions: Some(Permissions::public_file()),
            owner: Some("ftp".into()),
            mtime: Some("Jun 18  2015".into()),
            is_symlink: false,
        };
        for fmt in [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd]
        {
            let line = render_line(&entry, fmt);
            let back = parse_line(&line, fmt).unwrap().unwrap();
            assert_eq!(back.name, entry.name, "{fmt:?}: {line}");
            assert_eq!(back.size, entry.size, "{fmt:?}: {line}");
            assert!(!back.is_dir);
        }
    }

    #[test]
    fn borrowed_parse_matches_owned_parse() {
        let lines = [
            "drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub",
            "-rw-r--r--   1 user     user      1048576 Jun 18 09:43 photo.jpg",
            "lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www",
            "06-18-15  09:43AM       <DIR>          aspnet_client",
            "06-18-15  09:43AM              1043901 products.mdb",
            "+i8388621.48594,m825718503,r,s280,\tdjb.html",
            "type=dir;modify=20150618094300;perm=el; pub",
        ];
        for line in lines {
            let owned = parse_line(line, ListingFormat::Unix).unwrap().unwrap();
            let borrowed = parse_line_ref(line, ListingFormat::Unix).unwrap().unwrap();
            assert_eq!(borrowed.to_owned_entry(), owned, "{line}");
            assert_eq!(borrowed.readability(), owned.readability(), "{line}");
        }
        assert!(parse_line_ref("total 52", ListingFormat::Unix).unwrap().is_none());
        assert!(parse_line_ref("garbage %%%", ListingFormat::Unix).is_err());
    }

    #[test]
    fn unix_name_keeps_a_year_word() {
        let e = parse_line_ref(
            "-rw-r--r--   1 ftp      ftp          1043 Jun 18  2015 Report 2015 final.pdf",
            ListingFormat::Unix,
        )
        .unwrap()
        .unwrap();
        assert_eq!(e.name, "Report 2015 final.pdf");
        assert_eq!(e.mtime, MtimeRef::Unix { month: "Jun", day: "18", tail: "2015" });
    }

    #[test]
    fn unix_name_keeps_a_time_word() {
        let e = parse_line_ref(
            "-rw-r--r--   1 ftp      ftp          1043 Jun 18 09:43 meeting 09:43 notes.txt",
            ListingFormat::Unix,
        )
        .unwrap()
        .unwrap();
        assert_eq!(e.name, "meeting 09:43 notes.txt");
        assert_eq!(e.mtime, MtimeRef::Unix { month: "Jun", day: "18", tail: "09:43" });
    }

    #[test]
    fn dos_name_keeps_a_size_word() {
        let e = parse_line_ref(
            "06-18-15  09:43AM                 1043 backup 1043 old.zip",
            ListingFormat::Dos,
        )
        .unwrap()
        .unwrap();
        assert_eq!(e.name, "backup 1043 old.zip");
        assert_eq!(e.size, Some(1043));
    }

    #[test]
    fn dos_name_keeps_a_dir_word() {
        let e = parse_line_ref(
            "06-18-15  09:43AM       <DIR>          my <DIR> stuff",
            ListingFormat::Dos,
        )
        .unwrap()
        .unwrap();
        assert!(e.is_dir);
        assert_eq!(e.name, "my <DIR> stuff");
    }

    #[test]
    fn columns_split_like_split_whitespace() {
        // Tabs, vertical tab, form feed and non-ASCII whitespace (NBSP,
        // ideographic space) separate columns; other non-ASCII text is
        // part of a column.
        for text in [
            "a b  c",
            "  lead\ttab\x0bvt\x0cff  ",
            "n\u{a0}nbsp\u{3000}ideo",
            "été 日本 x",
            "",
            "   ",
        ] {
            let mut cols = Columns { line: text, pos: 0 };
            let got: Vec<&str> = std::iter::from_fn(|| cols.next()).collect();
            assert_eq!(got, text.split_whitespace().collect::<Vec<_>>(), "{text:?}");
        }
        let mut cols = Columns { line: "1 ftp ftp  naïve name ", pos: 0 };
        for _ in 0..3 {
            cols.next();
        }
        assert_eq!(cols.name(), "naïve name ");
    }

    #[test]
    fn dos_time_is_case_insensitive() {
        assert!(looks_like_dos_time("09:43AM"));
        assert!(looks_like_dos_time("11:59pm"));
        assert!(looks_like_dos_time("1:05Pm"));
        assert!(!looks_like_dos_time("0943AM"));
        assert!(!looks_like_dos_time("09:43"));
        assert!(!looks_like_dos_time("M"));
        assert!(!looks_like_dos_time("09:43AMé"));
    }

    /// The `write!` templates the hand-written renderer replaced.
    fn render_with_fmt(entry: ListingEntryRef<'_>, format: ListingFormat) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match format {
            ListingFormat::Unix => {
                let perms = entry.permissions.unwrap_or_else(Permissions::public_file);
                let t = if entry.is_dir { 'd' } else { '-' };
                let owner = entry.owner.unwrap_or("ftp");
                let size = entry.size.unwrap_or(if entry.is_dir { 4096 } else { 0 });
                let mtime = entry.mtime.unwrap_or("Jun 18  2015");
                let _ = write!(
                    out,
                    "{t}{perms}   1 {owner:<8} {owner:<8} {size:>12} {mtime} {}",
                    entry.name
                );
            }
            ListingFormat::Dos => {
                let mtime = match entry.mtime {
                    Some(m)
                        if m.split_whitespace()
                            .next()
                            .map(looks_like_dos_date)
                            .unwrap_or(false) =>
                    {
                        m
                    }
                    _ => "06-18-15 09:43AM",
                };
                if entry.is_dir {
                    let _ = write!(out, "{mtime}       <DIR>          {}", entry.name);
                } else {
                    let _ = write!(out, "{mtime} {:>20} {}", entry.size.unwrap_or(0), entry.name);
                }
            }
            ListingFormat::Eplf => {
                out.push('+');
                out.push_str(if entry.is_dir { "/," } else { "r," });
                if let Some(s) = entry.size {
                    let _ = write!(out, "s{s},");
                }
                out.push('\t');
                out.push_str(entry.name);
            }
            ListingFormat::Mlsd => {
                let t = if entry.is_dir { "dir" } else { "file" };
                let _ = write!(out, "type={t};");
                if let Some(s) = entry.size {
                    let _ = write!(out, "size={s};");
                }
                let _ = write!(out, "modify=20150618094300; {}", entry.name);
            }
        }
        out
    }

    const FORMATS: [ListingFormat; 4] =
        [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd];

    #[test]
    fn render_matches_the_fmt_templates() {
        let owners =
            [None, Some("ftp"), Some("root"), Some("user12345"), Some("averylongowner"), Some("é")];
        let sizes = [None, Some(0), Some(123_456_789_012), Some(u64::MAX)];
        let mtimes =
            [None, Some("Jun 18  2015"), Some("Jan  5 09:43"), Some("06-18-15 09:43AM")];
        let check = |entry: ListingEntryRef<'_>, format| {
            let mut out = String::from("prefix|");
            render_line_into(entry, format, &mut out);
            assert_eq!(out, format!("prefix|{}", render_with_fmt(entry, format)), "{entry:?}");
        };
        for format in FORMATS {
            for is_dir in [false, true] {
                for owner in owners {
                    for size in sizes {
                        for mtime in mtimes {
                            let permissions = Some(Permissions::public_file());
                            let entry = ListingEntryRef {
                                name: "file.txt",
                                is_dir,
                                size,
                                permissions,
                                owner,
                                mtime,
                            };
                            check(entry, format);
                            check(ListingEntryRef { permissions: None, ..entry }, format);
                        }
                    }
                }
                for mode in 0..=0o777 {
                    let entry = ListingEntryRef {
                        name: "x",
                        is_dir,
                        size: Some(u64::from(mode)),
                        permissions: Some(Permissions::from_mode(mode)),
                        owner: Some("ftp"),
                        mtime: None,
                    };
                    check(entry, format);
                }
            }
        }
    }

    #[test]
    fn render_parse_roundtrip_names_with_column_words() {
        let names = [
            "Report 2015 final.pdf",
            "meeting 09:43 notes.txt",
            "backup 1043 old.zip",
            "my <DIR> stuff",
            "Jun 18  2015",
            "4096 Jun 18 09:43 x",
            "two  spaces",
            "trailing space ",
            "2015",
        ];
        for format in FORMATS {
            // Each dialect's own mtime shapes: the year and the time
            // column for UNIX, the DOS pair; EPLF and MLSD ignore it.
            let mtimes: &[&str] = match format {
                ListingFormat::Unix => &["Jun 18  2015", "Jun 18 09:43"],
                _ => &["06-18-15 09:43AM"],
            };
            for is_dir in [false, true] {
                for &mtime in mtimes {
                    for name in names {
                        let size = if is_dir { None } else { Some(1043) };
                        let entry = ListingEntryRef {
                            name,
                            is_dir,
                            size,
                            permissions: Some(Permissions::public_file()),
                            owner: Some("ftp"),
                            mtime: Some(mtime),
                        };
                        let mut line = String::new();
                        render_line_into(entry, format, &mut line);
                        let back = parse_line_ref(&line, format).unwrap().unwrap();
                        assert_eq!(back.name, name, "{format:?}: {line}");
                        assert_eq!(back.is_dir, is_dir, "{format:?}: {line}");
                        if !is_dir {
                            assert_eq!(back.size, size, "{format:?}: {line}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn render_parse_roundtrip_dir() {
        let entry = ListingEntry {
            name: "pub".into(),
            is_dir: true,
            size: None,
            permissions: Some(Permissions::public_dir()),
            owner: Some("ftp".into()),
            mtime: None,
            is_symlink: false,
        };
        for fmt in [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd]
        {
            let line = render_line(&entry, fmt);
            let back = parse_line(&line, fmt).unwrap().unwrap();
            assert!(back.is_dir, "{fmt:?}: {line}");
            assert_eq!(back.name, "pub");
        }
    }
}
