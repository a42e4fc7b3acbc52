//! Per-host flight recorder: the *host journal* (DESIGN.md §9).
//!
//! Where the metrics registry answers "how many hosts timed out?", the
//! journal answers "what happened to host 10.3.7.9?". Every instrumented
//! stage feeds one [`JournalEvent`] stream per host — probe tx/rx from
//! the scanner, fault encounters from the network layer, phase
//! transitions / replies / retries from the enumerator — and the
//! recorder folds them into one [`HostJournal`] wide record per host,
//! rendered as a single versioned JSONL line.
//!
//! Everything in a journal line is **sim-time data**: there are no
//! wall-clock fields, so a journal is deterministic for a fixed
//! partitioning. Sim timestamps are coordinates *relative to the host's
//! simulator*, and therefore shift with the shard/batch geometry (a
//! shard holding fewer hosts scans each of them sooner); the
//! partition-invariant content is the event sequence itself — statuses,
//! phases in order, retry counts, backoff durations, reply tallies, and
//! final outcome. [`ParsedJournal::normalized`] strips the
//! geometry-dependent coordinates so tests can assert that invariance.
//!
//! The line format is versioned (`"v":1` leads every line) and the key
//! order is pinned by a golden schema test, so downstream consumers can
//! parse by position or by name and CI catches drift.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::Ipv4Addr;

/// Journal line format version; bumped on any schema change.
pub const JOURNAL_VERSION: u64 = 1;

/// Reply-class slots in a journal's `replies` array: 1xx–5xx plus
/// out-of-range codes.
pub const REPLY_CLASSES: usize = 6;

/// One observation in a host's journey, stamped with sim time by the
/// recorder. Labels are `'static` so recording never allocates for the
/// event itself.
#[derive(Debug, Clone, Copy)]
pub enum JournalEvent {
    /// The scanner transmitted a SYN probe (attempt is 1-based).
    ProbeSent {
        /// 1-based probe attempt number for this address.
        attempt: u8,
    },
    /// A probe answer (or its timeout) arrived at the scanner.
    ProbeReply {
        /// Probe status label: `open`, `closed`, or `filtered`.
        status: &'static str,
    },
    /// The scanner resolved its final verdict for this address.
    ProbeVerdict {
        /// Verdict label (best status over all attempts).
        verdict: &'static str,
    },
    /// The network fault layer acted on this host's traffic.
    FaultHit {
        /// Fault kind label (e.g. `tarpit`, `syn_blackhole`).
        kind: &'static str,
    },
    /// An enumeration session was opened against this host.
    SessionStart,
    /// The session entered a new protocol phase.
    Phase {
        /// Phase label (e.g. `banner`, `user`, `trav_list`).
        phase: &'static str,
    },
    /// A complete FTP reply line was parsed.
    Reply {
        /// The 3-digit reply code.
        code: u16,
    },
    /// A connect attempt failed and a backoff retry was scheduled.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Scheduled backoff before the retry, sim-microseconds.
        backoff_us: u64,
    },
    /// Bytes arrived on a data channel (listings and transfers).
    DataBytes {
        /// Byte count in this delivery.
        n: u64,
    },
    /// The session finished and its record was pushed.
    SessionEnd {
        /// Login outcome label (see `enumerator::LoginOutcome`).
        login: &'static str,
        /// Give-up reason label, if the enumerator gave up.
        gave_up: Option<&'static str>,
        /// Control-channel requests issued.
        requests: u32,
        /// Files enumerated.
        files: u64,
    },
}

/// The accumulated wide record for one host: every journal event folded
/// into per-category timelines and tallies. Owned by the recorder,
/// rendered to one JSONL line at flush time.
#[derive(Debug, Clone, Default)]
pub struct HostJournal {
    ip: u32,
    shard: u64,
    batch: u64,
    probe_tx: Vec<(u64, u8)>,
    probe_rx: Vec<(u64, &'static str)>,
    verdict: Option<&'static str>,
    faults: Vec<(u64, &'static str)>,
    phases: Vec<(u64, &'static str)>,
    retries: Vec<(u64, u32, u64)>,
    replies: [u64; REPLY_CLASSES],
    listing_bytes: u64,
    requests: u32,
    files: u64,
    login: Option<&'static str>,
    gave_up: Option<&'static str>,
    start_us: Option<u64>,
    end_us: Option<u64>,
}

impl HostJournal {
    /// A fresh journal for `ip`, tagged with the recorder's shard and the
    /// batch the stream runner is currently executing.
    #[must_use]
    pub fn new(ip: Ipv4Addr, shard: u64, batch: u64) -> Self {
        HostJournal { ip: u32::from(ip), shard, batch, ..HostJournal::default() }
    }

    /// Empties the record for the next host, keeping the timelines'
    /// capacity (the drain folds every host through one scratch record).
    fn reset(&mut self, ip: u32, shard: u64, batch: u64) {
        self.ip = ip;
        self.shard = shard;
        self.batch = batch;
        self.probe_tx.clear();
        self.probe_rx.clear();
        self.verdict = None;
        self.faults.clear();
        self.phases.clear();
        self.retries.clear();
        self.replies = [0; REPLY_CLASSES];
        self.listing_bytes = 0;
        self.requests = 0;
        self.files = 0;
        self.login = None;
        self.gave_up = None;
        self.start_us = None;
        self.end_us = None;
    }

    /// Folds one event, stamped at `sim_us`, into the record.
    pub fn note(&mut self, sim_us: u64, ev: &JournalEvent) {
        match *ev {
            JournalEvent::ProbeSent { attempt } => self.probe_tx.push((sim_us, attempt)),
            JournalEvent::ProbeReply { status } => self.probe_rx.push((sim_us, status)),
            JournalEvent::ProbeVerdict { verdict } => self.verdict = Some(verdict),
            JournalEvent::FaultHit { kind } => self.faults.push((sim_us, kind)),
            JournalEvent::SessionStart => self.start_us = Some(sim_us),
            JournalEvent::Phase { phase } => self.phases.push((sim_us, phase)),
            JournalEvent::Reply { code } => {
                let class = match code {
                    100..=599 => (code / 100) as usize - 1,
                    _ => REPLY_CLASSES - 1,
                };
                self.replies[class] += 1;
            }
            JournalEvent::Retry { attempt, backoff_us } => {
                self.retries.push((sim_us, attempt, backoff_us));
            }
            JournalEvent::DataBytes { n } => self.listing_bytes += n,
            JournalEvent::SessionEnd { login, gave_up, requests, files } => {
                self.login = Some(login);
                self.gave_up = gave_up;
                self.requests = requests;
                self.files = files;
                self.end_us = Some(sim_us);
            }
        }
    }

    /// Appends the journal as one versioned JSONL line (no trailing
    /// newline) to `out`. Key order is part of the v1 schema and pinned
    /// by the golden test — do not reorder without bumping
    /// [`JOURNAL_VERSION`]. Numbers and the address are formatted by
    /// hand: this runs once per probed address.
    pub fn render(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"v\":");
        push_u64(out, JOURNAL_VERSION);
        out.extend_from_slice(b",\"ip\":\"");
        push_ipv4(out, self.ip);
        out.extend_from_slice(b"\",\"shard\":");
        push_u64(out, self.shard);
        out.extend_from_slice(b",\"batch\":");
        push_u64(out, self.batch);
        out.extend_from_slice(b",\"probe_tx\":[");
        for (i, &(us, attempt)) in self.probe_tx.iter().enumerate() {
            open_pair(out, i, us);
            push_u64(out, u64::from(attempt));
            out.push(b']');
        }
        out.extend_from_slice(b"],\"probe_rx\":[");
        render_labels(&self.probe_rx, out);
        out.extend_from_slice(b"],\"verdict\":");
        render_opt_str(self.verdict, out);
        out.extend_from_slice(b",\"faults\":[");
        render_labels(&self.faults, out);
        out.extend_from_slice(b"],\"phases\":[");
        render_labels(&self.phases, out);
        out.extend_from_slice(b"],\"retries\":[");
        for (i, &(us, attempt, backoff)) in self.retries.iter().enumerate() {
            open_pair(out, i, us);
            push_u64(out, u64::from(attempt));
            out.push(b',');
            push_u64(out, backoff);
            out.push(b']');
        }
        out.extend_from_slice(b"],\"replies\":[");
        for (i, &n) in self.replies.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            push_u64(out, n);
        }
        out.extend_from_slice(b"],\"listing_bytes\":");
        push_u64(out, self.listing_bytes);
        out.extend_from_slice(b",\"requests\":");
        push_u64(out, u64::from(self.requests));
        out.extend_from_slice(b",\"files\":");
        push_u64(out, self.files);
        out.extend_from_slice(b",\"login\":");
        render_opt_str(self.login, out);
        out.extend_from_slice(b",\"gave_up\":");
        render_opt_str(self.gave_up, out);
        out.extend_from_slice(b",\"start_us\":");
        render_opt_num(self.start_us, out);
        out.extend_from_slice(b",\"end_us\":");
        render_opt_num(self.end_us, out);
        out.push(b'}');
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends `ip` in dotted-quad form, as `Ipv4Addr`'s `Display` does.
fn push_ipv4(out: &mut Vec<u8>, ip: u32) {
    for (i, octet) in ip.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        push_u64(out, u64::from(octet));
    }
}

/// Opens the `i`-th `[sim_us,` tuple of a timeline array.
fn open_pair(out: &mut Vec<u8>, i: usize, us: u64) {
    if i > 0 {
        out.push(b',');
    }
    out.push(b'[');
    push_u64(out, us);
    out.push(b',');
}

/// Renders a `[sim_us,"label"]` timeline; labels are `'static`
/// identifiers written unescaped.
fn render_labels(items: &[(u64, &'static str)], out: &mut Vec<u8>) {
    for (i, &(us, label)) in items.iter().enumerate() {
        open_pair(out, i, us);
        out.push(b'"');
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(b"\"]");
    }
}

fn render_opt_str(v: Option<&str>, out: &mut Vec<u8>) {
    match v {
        Some(s) => {
            out.push(b'"');
            if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
                out.extend_from_slice(s.as_bytes());
            } else {
                let mut escaped = String::new();
                crate::recorder::escape_json(s, &mut escaped);
                out.extend_from_slice(escaped.as_bytes());
            }
            out.push(b'"');
        }
        None => out.extend_from_slice(b"null"),
    }
}

fn render_opt_num(v: Option<u64>, out: &mut Vec<u8>) {
    match v {
        Some(n) => push_u64(out, n),
        None => out.extend_from_slice(b"null"),
    }
}

/// One event in the flat log: the host, its arrival order, and the
/// coordinates the recorder stamped it with.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    /// `ip << 32 | arrival seq`: sorting by this one key groups each
    /// host's events together, in the order they arrived.
    key: u64,
    sim_us: u64,
    batch: u64,
    ev: JournalEvent,
}

/// A shard's host journals as a flat event log (DESIGN.md §9).
///
/// Recording is an O(1) push of the raw event; the per-host grouping
/// is deferred to [`JournalLog::drain`], which sorts the log in place,
/// folds each host's run of events into one reused scratch
/// [`HostJournal`], and writes its line straight to the sink. The log
/// keeps its capacity across drains, so a streamed run allocates for
/// journaling only while the first batches grow it.
#[derive(Debug, Default)]
pub(crate) struct JournalLog {
    shard: u64,
    entries: Vec<LogEntry>,
    host: HostJournal,
    line: Vec<u8>,
}

impl JournalLog {
    /// An empty log for shard `shard`.
    pub(crate) fn new(shard: u64) -> Self {
        JournalLog { shard, ..JournalLog::default() }
    }

    /// Appends one event for `ip`, stamped at `sim_us` in batch `batch`.
    pub(crate) fn push(&mut self, ip: Ipv4Addr, sim_us: u64, batch: u64, ev: &JournalEvent) {
        // The arrival seq is the log position; it must fit the key's low
        // half for the sort to keep a host's events in arrival order.
        let seq = self.entries.len() as u64;
        assert!(seq < 1 << 32, "journal log holds 2^32 events; drain it more often");
        let key = u64::from(u32::from(ip)) << 32 | seq;
        self.entries.push(LogEntry { key, sim_us, batch, ev: *ev });
    }

    /// Writes one JSONL line per logged host to `out`, in address order
    /// (each line in a single `write_all`), and empties the log. A
    /// host's `batch` tag is the batch of its first event.
    pub(crate) fn drain(&mut self, out: &mut dyn Write) -> io::Result<()> {
        let JournalLog { shard, entries, host, line } = self;
        entries.sort_unstable_by_key(|e| e.key);
        let result = entries.chunk_by(|a, b| a.key >> 32 == b.key >> 32).try_for_each(|run| {
            host.reset((run[0].key >> 32) as u32, *shard, run[0].batch);
            for e in run {
                host.note(e.sim_us, &e.ev);
            }
            line.clear();
            host.render(line);
            line.push(b'\n');
            out.write_all(line)
        });
        entries.clear();
        result
    }
}

// ---------------------------------------------------------------------
// Parsing: owned journal records, reconstructed from the JSONL file
// alone (the vendored serde is a stub, so this is a hand-rolled reader
// for the pinned v1 schema).
// ---------------------------------------------------------------------

/// A journal line parsed back into owned data; everything `ftpcloud
/// explain` needs to reconstruct a host's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedJournal {
    /// The host this journal describes.
    pub ip: Ipv4Addr,
    /// Shard that executed the host.
    pub shard: u64,
    /// Batch (streamed runs; 0 in-memory) that executed the host.
    pub batch: u64,
    /// Probe transmissions as `(sim_us, attempt)`.
    pub probe_tx: Vec<(u64, u64)>,
    /// Probe answers as `(sim_us, status)`.
    pub probe_rx: Vec<(u64, String)>,
    /// Final scan verdict, when the scanner resolved one.
    pub verdict: Option<String>,
    /// Fault-layer encounters as `(sim_us, kind)`.
    pub faults: Vec<(u64, String)>,
    /// Session phase transitions as `(sim_us, phase)`.
    pub phases: Vec<(u64, String)>,
    /// Connect retries as `(sim_us, attempt, backoff_us)`.
    pub retries: Vec<(u64, u64, u64)>,
    /// Reply tallies by class (1xx..5xx, other).
    pub replies: [u64; REPLY_CLASSES],
    /// Bytes received on data channels.
    pub listing_bytes: u64,
    /// Control-channel requests issued.
    pub requests: u64,
    /// Files enumerated.
    pub files: u64,
    /// Login outcome label, when a session finished.
    pub login: Option<String>,
    /// Give-up reason label, when the enumerator gave up.
    pub gave_up: Option<String>,
    /// Session open sim-time.
    pub start_us: Option<u64>,
    /// Session close sim-time.
    pub end_us: Option<u64>,
}

impl ParsedJournal {
    /// Parses one v1 journal line; `None` on malformed input or an
    /// unsupported version.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<ParsedJournal> {
        let json = Json::parse(line)?;
        let obj = json.as_obj()?;
        let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if get("v")?.as_u64()? != JOURNAL_VERSION {
            return None;
        }
        let ip: Ipv4Addr = get("ip")?.as_str()?.parse().ok()?;
        let pair_num = |v: &Json| -> Option<(u64, u64)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?))
        };
        let pair_str = |v: &Json| -> Option<(u64, String)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_str()?.to_owned()))
        };
        let triple = |v: &Json| -> Option<(u64, u64, u64)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?, a.get(2)?.as_u64()?))
        };
        let mut replies = [0u64; REPLY_CLASSES];
        for (slot, v) in replies.iter_mut().zip(get("replies")?.as_arr()?.iter()) {
            *slot = v.as_u64()?;
        }
        Some(ParsedJournal {
            ip,
            shard: get("shard")?.as_u64()?,
            batch: get("batch")?.as_u64()?,
            probe_tx: get("probe_tx")?.as_arr()?.iter().filter_map(pair_num).collect(),
            probe_rx: get("probe_rx")?.as_arr()?.iter().filter_map(pair_str).collect(),
            verdict: get("verdict")?.as_str().map(str::to_owned),
            faults: get("faults")?.as_arr()?.iter().filter_map(pair_str).collect(),
            phases: get("phases")?.as_arr()?.iter().filter_map(pair_str).collect(),
            retries: get("retries")?.as_arr()?.iter().filter_map(triple).collect(),
            replies,
            listing_bytes: get("listing_bytes")?.as_u64()?,
            requests: get("requests")?.as_u64()?,
            files: get("files")?.as_u64()?,
            login: get("login")?.as_str().map(str::to_owned),
            gave_up: get("gave_up")?.as_str().map(str::to_owned),
            start_us: get("start_us")?.as_u64(),
            end_us: get("end_us")?.as_u64(),
        })
    }

    /// Parses a whole journal file (one line per host), skipping blank
    /// lines; `None` if any non-blank line fails to parse.
    #[must_use]
    pub fn parse_file(text: &str) -> Option<Vec<ParsedJournal>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(ParsedJournal::parse_line)
            .collect()
    }

    /// The partition-invariant projection of this journal: shard, batch,
    /// and every sim-time coordinate zeroed, keeping event order,
    /// statuses, attempt counts, backoff *durations* (pure per-host
    /// quantities), tallies, and outcomes. Two runs of the same world at
    /// any shard count × batch size agree on this projection.
    #[must_use]
    pub fn normalized(&self) -> ParsedJournal {
        let mut n = self.clone();
        n.shard = 0;
        n.batch = 0;
        for (us, _) in &mut n.probe_tx {
            *us = 0;
        }
        for (us, _) in &mut n.probe_rx {
            *us = 0;
        }
        for (us, _) in &mut n.faults {
            *us = 0;
        }
        for (us, _) in &mut n.phases {
            *us = 0;
        }
        for (us, _, _) in &mut n.retries {
            *us = 0;
        }
        n.start_us = n.start_us.map(|_| 0);
        n.end_us = n.end_us.map(|_| 0);
        n
    }

    /// Renders the human-readable timeline `ftpcloud explain` prints:
    /// every journal event in sim-time order, then an outcome summary.
    /// Purely a function of the parsed record, so the output is stable
    /// across re-renders and re-runs.
    #[must_use]
    pub fn timeline(&self) -> String {
        let mut entries: Vec<(u64, u8, String)> = Vec::new();
        for (us, attempt) in &self.probe_tx {
            entries.push((*us, 0, format!("probe #{attempt} sent")));
        }
        for (us, status) in &self.probe_rx {
            entries.push((*us, 1, format!("probe reply: {status}")));
        }
        if let Some(start) = self.start_us {
            entries.push((start, 2, "session opened".to_owned()));
        }
        for (us, kind) in &self.faults {
            entries.push((*us, 3, format!("fault encountered: {kind}")));
        }
        for (us, attempt, backoff) in &self.retries {
            entries.push((
                *us,
                4,
                format!("connect retry #{attempt} scheduled (backoff {:.1} ms)", *backoff as f64 / 1_000.0),
            ));
        }
        for (us, phase) in &self.phases {
            entries.push((*us, 5, format!("phase -> {phase}")));
        }
        if let Some(end) = self.end_us {
            entries.push((end, 6, "session closed".to_owned()));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut out = String::new();
        let _ = writeln!(out, "host {} — journal timeline (shard {}, batch {})", self.ip, self.shard, self.batch);
        if let Some(v) = &self.verdict {
            let _ = writeln!(out, "  scan verdict: {v}");
        }
        for (us, _, text) in &entries {
            let _ = writeln!(out, "  [{:>12.3} ms] {text}", *us as f64 / 1_000.0);
        }
        let classes = ["1xx", "2xx", "3xx", "4xx", "5xx", "other"];
        let tallies: Vec<String> = classes
            .iter()
            .zip(self.replies.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(c, n)| format!("{c}×{n}"))
            .collect();
        let _ = writeln!(
            out,
            "  replies: {}; data bytes: {}; requests: {}; files: {}",
            if tallies.is_empty() { "none".to_owned() } else { tallies.join(" ") },
            self.listing_bytes,
            self.requests,
            self.files
        );
        let _ = writeln!(
            out,
            "  outcome: login={}, gave_up={}",
            self.login.as_deref().unwrap_or("-"),
            self.gave_up.as_deref().unwrap_or("-")
        );
        out
    }
}

/// Aggregate view over a parsed journal file: the `--top` summaries and
/// the counts `ftpcloud explain` turns into a funnel check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Journaled hosts (= addresses the scanner touched).
    pub hosts: u64,
    /// Hosts whose scan verdict was `open`.
    pub open: u64,
    /// Hosts that got an enumeration session.
    pub sessions: u64,
    /// Hosts whose login outcome marks a real FTP service.
    pub ftp: u64,
    /// Hosts that logged in anonymously.
    pub anonymous: u64,
    /// Give-up reasons, tallied, sorted by count descending then label.
    pub gave_up: Vec<(String, u64)>,
    /// Fault kinds encountered, tallied, same order.
    pub faults: Vec<(String, u64)>,
    /// Total connect retries across all hosts.
    pub retries: u64,
}

/// Builds the aggregate summary from parsed journal records.
#[must_use]
pub fn summarize(journals: &[ParsedJournal]) -> JournalSummary {
    use std::collections::BTreeMap;
    let mut gave: BTreeMap<String, u64> = BTreeMap::new();
    let mut faults: BTreeMap<String, u64> = BTreeMap::new();
    let mut s = JournalSummary { hosts: journals.len() as u64, ..JournalSummary::default() };
    for j in journals {
        if j.verdict.as_deref() == Some("open") {
            s.open += 1;
        }
        if j.start_us.is_some() {
            s.sessions += 1;
        }
        match j.login.as_deref() {
            Some("anonymous") => {
                s.ftp += 1;
                s.anonymous += 1;
            }
            Some("denied") | Some("skipped_banner_forbids") => s.ftp += 1,
            _ => {}
        }
        if let Some(reason) = &j.gave_up {
            *gave.entry(reason.clone()).or_default() += 1;
        }
        for (_, kind) in &j.faults {
            *faults.entry(kind.clone()).or_default() += 1;
        }
        s.retries += j.retries.len() as u64;
    }
    let rank = |m: BTreeMap<String, u64>| {
        let mut v: Vec<(String, u64)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    };
    s.gave_up = rank(gave);
    s.faults = rank(faults);
    s
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the journal's own output (numbers are u64,
// no nested objects beyond the top level).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Json {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => {
            if b.get(*pos..*pos + 4)? == b"null" {
                *pos += 4;
                Some(Json::Null)
            } else {
                None
            }
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if *b.get(*pos)? != b':' {
                    return None;
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'0'..=b'9' => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok().map(Json::Num)
        }
        _ => None,
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through; find the char span.
                let s = std::str::from_utf8(&b[*pos..]).ok()?;
                let ch = s.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HostJournal {
        let mut j = HostJournal::new(Ipv4Addr::new(10, 3, 7, 9), 2, 5);
        j.note(1_000, &JournalEvent::ProbeSent { attempt: 1 });
        j.note(21_000, &JournalEvent::ProbeReply { status: "open" });
        j.note(21_000, &JournalEvent::ProbeVerdict { verdict: "open" });
        j.note(30_000, &JournalEvent::SessionStart);
        j.note(30_000, &JournalEvent::Phase { phase: "connecting" });
        j.note(32_000, &JournalEvent::FaultHit { kind: "tarpit" });
        j.note(35_000, &JournalEvent::Retry { attempt: 1, backoff_us: 250_000 });
        j.note(40_000, &JournalEvent::Phase { phase: "banner" });
        j.note(41_000, &JournalEvent::Reply { code: 220 });
        j.note(42_000, &JournalEvent::Reply { code: 530 });
        j.note(43_000, &JournalEvent::DataBytes { n: 512 });
        j.note(
            90_000,
            &JournalEvent::SessionEnd {
                login: "denied",
                gave_up: Some("step_timeout"),
                requests: 7,
                files: 0,
            },
        );
        j
    }

    fn rendered(j: &HostJournal) -> String {
        let mut line = Vec::new();
        j.render(&mut line);
        String::from_utf8(line).expect("journal lines are UTF-8")
    }

    fn drained(log: &mut JournalLog) -> Vec<ParsedJournal> {
        let mut text = Vec::new();
        log.drain(&mut text).expect("writing to memory cannot fail");
        let text = String::from_utf8(text).expect("journal lines are UTF-8");
        ParsedJournal::parse_file(&text).expect("every drained line parses")
    }

    #[test]
    fn flat_log_groups_hosts_in_address_order() {
        let (a, b, c) = (Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(9, 9, 9, 9));
        let mut log = JournalLog::new(1);
        log.push(a, 10, 0, &JournalEvent::ProbeSent { attempt: 1 });
        log.push(b, 11, 0, &JournalEvent::ProbeSent { attempt: 1 });
        log.push(a, 12, 0, &JournalEvent::ProbeReply { status: "open" });
        log.push(c, 13, 0, &JournalEvent::ProbeSent { attempt: 1 });
        log.push(b, 14, 0, &JournalEvent::ProbeSent { attempt: 2 });
        let hosts = drained(&mut log);
        let ips: Vec<Ipv4Addr> = hosts.iter().map(|j| j.ip).collect();
        assert_eq!(ips, vec![c, b, a], "one line per host, in address order");
        assert_eq!(hosts[1].probe_tx, vec![(11, 1), (14, 2)]);
        assert_eq!(hosts[2].probe_rx, vec![(12, "open".to_owned())]);
        assert!(hosts.iter().all(|j| j.shard == 1));
    }

    #[test]
    fn flat_log_keeps_arrival_order_within_a_timestamp() {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut log = JournalLog::new(0);
        for phase in ["connecting", "banner", "user", "pass"] {
            log.push(ip, 500, 0, &JournalEvent::Phase { phase });
        }
        let phases: Vec<String> = drained(&mut log)[0].phases.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(phases, ["connecting", "banner", "user", "pass"]);
    }

    #[test]
    fn flat_log_tags_a_host_with_its_first_batch() {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut log = JournalLog::new(0);
        log.push(ip, 1, 3, &JournalEvent::ProbeSent { attempt: 1 });
        log.push(ip, 2, 4, &JournalEvent::ProbeReply { status: "open" });
        assert_eq!(drained(&mut log)[0].batch, 3);
    }

    #[test]
    fn flat_log_drain_empties_the_log() {
        let mut log = JournalLog::new(0);
        log.push(Ipv4Addr::new(10, 0, 0, 1), 1, 0, &JournalEvent::SessionStart);
        assert_eq!(drained(&mut log).len(), 1);
        assert!(log.entries.is_empty());
        assert!(log.entries.capacity() > 0, "the log keeps its capacity across drains");
        assert!(drained(&mut log).is_empty(), "a second drain writes nothing");
    }

    #[test]
    fn hand_written_numbers_match_display() {
        for n in [0, 7, 10, 99, 1_000, 123_456_789, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
        for ip in [Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(4, 10, 200, 255)] {
            let mut out = Vec::new();
            push_ipv4(&mut out, u32::from(ip));
            assert_eq!(out, ip.to_string().as_bytes());
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let line = rendered(&sample());
        assert!(line.starts_with("{\"v\":1,\"ip\":\"10.3.7.9\",\"shard\":2,\"batch\":5,"));
        let p = ParsedJournal::parse_line(&line).expect("line parses");
        assert_eq!(p.ip, Ipv4Addr::new(10, 3, 7, 9));
        assert_eq!(p.shard, 2);
        assert_eq!(p.batch, 5);
        assert_eq!(p.probe_tx, vec![(1_000, 1)]);
        assert_eq!(p.probe_rx, vec![(21_000, "open".to_owned())]);
        assert_eq!(p.verdict.as_deref(), Some("open"));
        assert_eq!(p.faults, vec![(32_000, "tarpit".to_owned())]);
        assert_eq!(p.retries, vec![(35_000, 1, 250_000)]);
        assert_eq!(p.replies, [0, 1, 0, 0, 1, 0]);
        assert_eq!(p.listing_bytes, 512);
        assert_eq!(p.requests, 7);
        assert_eq!(p.files, 0);
        assert_eq!(p.login.as_deref(), Some("denied"));
        assert_eq!(p.gave_up.as_deref(), Some("step_timeout"));
        assert_eq!(p.start_us, Some(30_000));
        assert_eq!(p.end_us, Some(90_000));
    }

    #[test]
    fn normalization_strips_partition_coordinates() {
        let line = rendered(&sample());
        let p = ParsedJournal::parse_line(&line).unwrap();
        let n = p.normalized();
        assert_eq!(n.shard, 0);
        assert_eq!(n.batch, 0);
        assert_eq!(n.probe_tx, vec![(0, 1)]);
        assert_eq!(n.retries, vec![(0, 1, 250_000)], "backoff durations survive");
        assert_eq!(n.start_us, Some(0));
        // Outcome content untouched.
        assert_eq!(n.gave_up.as_deref(), Some("step_timeout"));
    }

    #[test]
    fn timeline_is_stable_and_ordered() {
        let line = rendered(&sample());
        let p = ParsedJournal::parse_line(&line).unwrap();
        let a = p.timeline();
        let b = p.timeline();
        assert_eq!(a, b);
        let probe = a.find("probe #1 sent").unwrap();
        let fault = a.find("fault encountered: tarpit").unwrap();
        let closed = a.find("session closed").unwrap();
        assert!(probe < fault && fault < closed, "timeline must be chronological:\n{a}");
        assert!(a.contains("gave_up=step_timeout"));
    }

    #[test]
    fn summary_tallies_outcomes() {
        let line = rendered(&sample());
        let p = ParsedJournal::parse_line(&line).unwrap();
        let mut other = p.clone();
        other.ip = Ipv4Addr::new(10, 3, 7, 10);
        other.gave_up = None;
        other.login = Some("anonymous".to_owned());
        other.faults.clear();
        let s = summarize(&[p, other]);
        assert_eq!(s.hosts, 2);
        assert_eq!(s.open, 2);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.ftp, 2);
        assert_eq!(s.anonymous, 1);
        assert_eq!(s.gave_up, vec![("step_timeout".to_owned(), 1)]);
        assert_eq!(s.faults, vec![("tarpit".to_owned(), 1)]);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn malformed_and_wrong_version_lines_are_rejected() {
        assert!(ParsedJournal::parse_line("not json").is_none());
        assert!(ParsedJournal::parse_line("{\"v\":99,\"ip\":\"1.2.3.4\"}").is_none());
        let line = rendered(&sample());
        assert!(ParsedJournal::parse_file(&format!("{line}\n\n{line}\n")).is_some());
        assert!(ParsedJournal::parse_file("{}\n").is_none());
    }
}
