//! Sim-time-aware tracing, metrics, and profiling for the study
//! pipeline (DESIGN.md §9).
//!
//! Instrumented crates sprinkle [`span!`], [`event!`], [`counter`],
//! and [`observe`] calls through their hot paths. Two gates keep this
//! free when unused:
//!
//! 1. **Compile-time** — the `enabled` cargo feature (off by default).
//!    Without it, [`enabled()`] is `const false` and every macro body
//!    folds away to nothing: zero instructions, zero allocations.
//! 2. **Run-time** — a thread-local [`Recorder`] trait object. Even in
//!    `enabled` builds nothing is recorded until [`install`] puts a
//!    recorder on the current thread; the fast path is one
//!    thread-local boolean load.
//!
//! Recorders are per-thread by design: the sharded study runner gives
//! every shard its own simulator thread, so per-shard collection is
//! naturally lock-free and the shard [`Report`]s are merged in
//! shard-index order afterwards — the same merge discipline
//! `run_study_sharded` uses for its result sets.
//!
//! **Determinism contract.** A recorder observes the simulation and
//! never writes back: no RNG access, no event scheduling, no visible
//! side effects. Study output with a recorder installed must stay
//! byte-identical to a run without one (`tests/obs_validation.rs`
//! enforces this at K ∈ {1, 8} with and without faults).
//!
//! Separately from the hot-path recorder there is a cold-path **diag**
//! channel ([`diag!`]) for operator-facing progress/warning lines.
//! Library crates must never print to stdio directly (enforced by
//! `clippy::print_stdout`/`print_stderr` lints); they call `diag!`,
//! which is silent unless the hosting binary routes it somewhere with
//! [`diag_to_stderr`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod journal;
mod metrics;
mod recorder;

pub use journal::{
    summarize, HostJournal, JournalEvent, JournalSummary, ParsedJournal, JOURNAL_VERSION,
    REPLY_CLASSES,
};
pub use metrics::{
    reply_class_counter, Counter, Gauge, Hist, Histogram, MetricsSnapshot, HIST_BUCKETS,
};
pub use recorder::{field, CollectingRecorder, Field, Recorder, Report, SpanStat, Value};

use std::sync::OnceLock;

/// `true` when the crate was built with the `enabled` feature; mirrors
/// [`enabled()`] for use in `const` contexts and macro expansions
/// (a `#[cfg]` written inside a macro body would be evaluated against
/// the *calling* crate's features, so the gate must live here).
#[cfg(feature = "enabled")]
pub const ENABLED: bool = true;
/// `true` when the crate was built with the `enabled` feature.
#[cfg(not(feature = "enabled"))]
pub const ENABLED: bool = false;

/// Run/CLI-level switches for what the pipeline should collect.
///
/// Default is everything off, which preserves byte-identical study
/// output. Any flag set installs per-shard recorders; `trace`
/// additionally buffers JSONL lines for every event and span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect the metrics snapshot (counters/gauges/histograms).
    pub metrics: bool,
    /// Buffer a JSONL trace of events and spans.
    pub trace: bool,
    /// Collect span statistics for the self-profile table.
    pub profile: bool,
    /// Accumulate per-host [`HostJournal`] records (`--journal`).
    pub journal: bool,
    /// Sim-time telemetry sampling interval in microseconds
    /// (`--timeseries`); 0 disables the sampler.
    pub timeseries_every_us: u64,
}

impl ObsConfig {
    /// True when any collection is requested (recorders get installed).
    #[must_use]
    pub fn any(self) -> bool {
        self.metrics || self.trace || self.profile || self.journal || self.timeseries_every_us > 0
    }

    /// Everything from the PR-4 surface on — used by tests and the
    /// bench overhead stage. Journaling and the time-series sampler stay
    /// off here so the long-standing `full_study_k1_obs` bench baseline
    /// keeps measuring the same work; they have their own bench stage.
    #[must_use]
    pub fn all() -> Self {
        ObsConfig { metrics: true, trace: true, profile: true, ..ObsConfig::default() }
    }
}

#[cfg(feature = "enabled")]
mod gate {
    use super::Recorder;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Fast flag mirroring `RECORDER.is_some()`; a single TLS bool
        /// load is the entire disabled-at-runtime cost.
        pub(super) static ACTIVE: Cell<bool> = const { Cell::new(false) };
        /// Current simulated time in microseconds, published by the
        /// simulator event loop so recorders can stamp events without
        /// reaching into the sim.
        pub(super) static SIM_NOW: Cell<u64> = const { Cell::new(0) };
        /// Fast flag mirroring "the installed recorder journals"; keeps
        /// the [`crate::journal!`] no-journal cost to one TLS bool load.
        pub(super) static JOURNAL: Cell<bool> = const { Cell::new(false) };
        /// Current stream batch index, published by the stream runner so
        /// journal entries and telemetry rows carry their batch tag.
        pub(super) static BATCH: Cell<u64> = const { Cell::new(0) };
        /// Telemetry sampling interval (sim-µs); 0 when sampling is off.
        pub(super) static SAMPLE_EVERY: Cell<u64> = const { Cell::new(0) };
        /// Next sim-time boundary to sample at; `u64::MAX` parks the
        /// check so the hot `set_sim_now` path is one compare.
        pub(super) static SAMPLE_NEXT: Cell<u64> = const { Cell::new(u64::MAX) };
        pub(super) static RECORDER: RefCell<Option<Box<dyn Recorder>>> =
            const { RefCell::new(None) };
    }
}

/// True when a recorder is installed on the current thread. Inlines to
/// `false` in builds without the `enabled` feature, letting the
/// optimizer delete every guarded block.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        gate::ACTIVE.with(Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

#[cfg(feature = "enabled")]
use std::cell::Cell;

/// Installs a recorder on the current thread, replacing any previous
/// one (which is dropped, discarding its data).
pub fn install(recorder: Box<dyn Recorder>) {
    #[cfg(feature = "enabled")]
    {
        let journal = recorder.journal_enabled();
        let every = recorder.sample_interval_us();
        gate::RECORDER.with(|r| *r.borrow_mut() = Some(recorder));
        gate::ACTIVE.with(|a| a.set(true));
        gate::JOURNAL.with(|j| j.set(journal));
        gate::BATCH.with(|b| b.set(0));
        gate::SAMPLE_EVERY.with(|e| e.set(every));
        gate::SAMPLE_NEXT.with(|n| n.set(if every == 0 { u64::MAX } else { every }));
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = recorder;
    }
}

/// Removes and returns the current thread's recorder, if any. Call
/// [`Recorder::finish`] on the result to obtain its [`Report`].
pub fn uninstall() -> Option<Box<dyn Recorder>> {
    #[cfg(feature = "enabled")]
    {
        gate::ACTIVE.with(|a| a.set(false));
        gate::JOURNAL.with(|j| j.set(false));
        gate::BATCH.with(|b| b.set(0));
        gate::SAMPLE_EVERY.with(|e| e.set(0));
        gate::SAMPLE_NEXT.with(|n| n.set(u64::MAX));
        gate::RECORDER.with(|r| r.borrow_mut().take())
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

/// Publishes the current simulated time (microseconds). Called by the
/// simulator event loop once per dispatched event, only when
/// [`enabled()`]. This is also the telemetry sampler's clock source:
/// when sim time crosses the next sampling boundary the recorder is
/// asked for one metrics row per crossed boundary (the cost when
/// sampling is off is a single parked `u64` compare).
#[inline]
pub fn set_sim_now(sim_us: u64) {
    #[cfg(feature = "enabled")]
    {
        gate::SIM_NOW.with(|t| t.set(sim_us));
        if sim_us >= gate::SAMPLE_NEXT.with(Cell::get) {
            sample_crossed_boundaries(sim_us);
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = sim_us;
}

/// Emits one telemetry sample per sampling boundary in
/// `(SAMPLE_NEXT ..= sim_us]` and advances the boundary. Cold: only
/// entered when a boundary was actually crossed.
#[cfg(feature = "enabled")]
#[cold]
fn sample_crossed_boundaries(sim_us: u64) {
    let every = gate::SAMPLE_EVERY.with(Cell::get);
    if every == 0 {
        return;
    }
    let batch = gate::BATCH.with(Cell::get);
    let mut next = gate::SAMPLE_NEXT.with(Cell::get);
    while sim_us >= next {
        let boundary = next;
        with_recorder(|r| r.sim_sample(boundary, batch));
        next += every;
    }
    gate::SAMPLE_NEXT.with(|n| n.set(next));
}

/// The last published simulated time (microseconds); 0 outside a run.
#[inline]
#[must_use]
pub fn sim_now() -> u64 {
    #[cfg(feature = "enabled")]
    {
        gate::SIM_NOW.with(Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

#[cfg(feature = "enabled")]
#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    gate::RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_deref() {
            f(rec);
        }
    });
}

/// Adds `n` to counter `c` on the current thread's recorder (no-op when
/// none is installed).
#[inline]
pub fn counter(c: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    {
        if enabled() {
            with_recorder(|r| r.counter_add(c, n));
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (c, n);
    }
}

/// Raises gauge `g` to at least `v`.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    #[cfg(feature = "enabled")]
    {
        if enabled() {
            with_recorder(|r| r.gauge_max(g, v));
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (g, v);
    }
}

/// Records one observation of histogram `h`.
#[inline]
pub fn observe(h: Hist, v: u64) {
    #[cfg(feature = "enabled")]
    {
        if enabled() {
            with_recorder(|r| r.observe(h, v));
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (h, v);
    }
}

/// Forwards a structured event to the recorder, stamping it with the
/// last published sim time. Prefer the [`event!`] macro, which skips
/// argument evaluation entirely when disabled.
#[inline]
pub fn emit_event(name: &'static str, fields: &[Field<'_>]) {
    #[cfg(feature = "enabled")]
    {
        if enabled() {
            let now = sim_now();
            with_recorder(|r| r.event(now, name, fields));
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, fields);
    }
}

/// Publishes the stream batch index the current thread is executing.
/// Journal entries and telemetry rows opened after this call carry the
/// new batch tag; the telemetry sampling boundary is re-armed because
/// the stream runner resets the sim clock to 0 between batches.
pub fn set_batch(batch: u64) {
    #[cfg(feature = "enabled")]
    {
        gate::BATCH.with(|b| b.set(batch));
        let every = gate::SAMPLE_EVERY.with(Cell::get);
        gate::SAMPLE_NEXT.with(|n| n.set(if every == 0 { u64::MAX } else { every }));
    }
    #[cfg(not(feature = "enabled"))]
    let _ = batch;
}

/// The last published stream batch index (0 for in-memory runs).
#[inline]
#[must_use]
pub fn batch() -> u64 {
    #[cfg(feature = "enabled")]
    {
        gate::BATCH.with(Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// True when the installed recorder accumulates host journals; the
/// [`journal!`] macro's fast gate (one TLS bool load when off).
#[inline(always)]
#[must_use]
pub fn journal_on() -> bool {
    #[cfg(feature = "enabled")]
    {
        gate::JOURNAL.with(Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Forwards one host-journal event to the recorder, stamped with the
/// last published sim time and batch. Prefer the [`journal!`] macro,
/// which skips argument evaluation entirely when journaling is off.
#[inline]
pub fn journal_event(ip: std::net::Ipv4Addr, ev: &JournalEvent) {
    #[cfg(feature = "enabled")]
    {
        if journal_on() {
            let now = sim_now();
            let batch = batch();
            with_recorder(|r| r.journal(ip, now, batch, ev));
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (ip, ev);
    }
}

/// Renders the current thread's accumulated host journals into `out`
/// as JSONL (one line per host, in address order) and clears the
/// recorder's buffer. The stream runner calls this after every batch
/// with its locked sink, so journal memory never outlives a
/// `(shard, batch)` slice; journals still buffered at
/// [`Recorder::finish`] time ride out in the [`Report`].
pub fn write_journal(out: &mut dyn std::io::Write) -> std::io::Result<()> {
    #[cfg(feature = "enabled")]
    {
        let mut result = Ok(());
        if enabled() {
            with_recorder(|r| result = r.drain_journal(out));
        }
        result
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = out;
        Ok(())
    }
}

/// [`write_journal`] into owned lines: appends one rendered JSONL line
/// (no trailing newline) per host to `out`.
pub fn drain_journal(out: &mut Vec<String>) {
    write_journal(&mut recorder::LineSink::new(out)).expect("journal lines are UTF-8");
}

/// Records one [`JournalEvent`] for host `ip`:
///
/// ```
/// # let ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
/// obs::journal!(ip, obs::JournalEvent::Phase { phase: "banner" });
/// ```
///
/// Folds away entirely when the `enabled` feature is off; with the
/// feature on but journaling not requested, the cost is one
/// thread-local boolean load and the event expression is never
/// evaluated.
#[macro_export]
macro_rules! journal {
    ($ip:expr, $ev:expr) => {
        if $crate::ENABLED && $crate::journal_on() {
            $crate::journal_event($ip, &$ev);
        }
    };
}

/// RAII guard for a profiling span; created by [`span!`]. Records
/// sim-time and wall-time between construction and drop. Zero-sized
/// no-op when the `enabled` feature is off.
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    name: Option<&'static str>,
}

impl SpanGuard {
    /// Opens a span named `name` (a `'static` literal at call sites).
    #[inline]
    #[must_use]
    pub fn enter(name: &'static str) -> Self {
        #[cfg(feature = "enabled")]
        {
            if enabled() {
                let now = sim_now();
                let wall = std::time::Instant::now();
                with_recorder(|r| r.span_enter(now, name, wall));
                return SpanGuard { name: Some(name) };
            }
            SpanGuard { name: None }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            SpanGuard {}
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(name) = self.name {
            let now = sim_now();
            let wall = std::time::Instant::now();
            with_recorder(|r| r.span_exit(now, name, wall));
        }
    }
}

/// Opens a [`SpanGuard`] that closes when the bound variable drops:
///
/// ```
/// # fn stage() {}
/// let _span = obs::span!("stage.scan");
/// stage();
/// drop(_span);
/// ```
///
/// Always bind the result (`let _span = …`), never `let _ = …`, which
/// drops immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Records a structured event with `key = value` fields:
///
/// ```
/// let attempts = 3u32;
/// obs::event!("enum.retry", attempts = attempts, backoff_us = 1500u64);
/// ```
///
/// Field values are only evaluated when a recorder is installed, so
/// rendering-cost arguments (e.g. `ip.to_string()`) are free in the
/// disabled case.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::ENABLED && $crate::enabled() {
            $crate::emit_event($name, &[$($crate::field(stringify!($key), $val)),*]);
        }
    };
}

// ---------------------------------------------------------------------
// Diag channel: cold-path operator diagnostics, feature-independent.
// ---------------------------------------------------------------------

/// Sink for [`diag!`] lines (operator-facing progress and warnings).
pub trait DiagSink: Send + Sync {
    /// Consumes one rendered diagnostic line.
    fn line(&self, msg: &str);
}

static DIAG: OnceLock<Box<dyn DiagSink>> = OnceLock::new();

/// Installs a process-wide diag sink. First caller wins; later calls
/// are ignored (the sink is write-once to stay lock-free on read).
pub fn set_diag(sink: Box<dyn DiagSink>) {
    let _ = DIAG.set(sink);
}

/// True when a diag sink is installed; used by [`diag!`] to skip
/// formatting entirely when nobody is listening.
#[inline]
#[must_use]
pub fn diag_enabled() -> bool {
    DIAG.get().is_some()
}

/// Forwards one rendered line to the installed sink, if any.
pub fn diag_line(msg: &str) {
    if let Some(sink) = DIAG.get() {
        sink.line(msg);
    }
}

struct StderrDiag;

impl DiagSink for StderrDiag {
    #[allow(clippy::print_stderr)] // the one sanctioned stderr writer
    fn line(&self, msg: &str) {
        eprintln!("{msg}");
    }
}

/// Routes [`diag!`] lines to stderr; binaries call this near the top of
/// `main`. Library crates must not — they only ever emit.
pub fn diag_to_stderr() {
    set_diag(Box::new(StderrDiag));
}

/// Emits an operator-facing diagnostic line (format-string syntax).
/// Silent unless the hosting binary installed a sink; the format
/// arguments are not evaluated in that case. This is the replacement
/// for ad-hoc `eprintln!` in library crates.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        if $crate::diag_enabled() {
            $crate::diag_line(&format!($($arg)*));
        }
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn install_uninstall_roundtrip() {
        assert!(!enabled());
        install(Box::new(CollectingRecorder::new(0, false)));
        assert!(enabled());
        counter(Counter::Connects, 2);
        counter(Counter::Connects, 3);
        observe(Hist::SessionRequests, 4);
        gauge_max(Gauge::MaxActiveSessions, 9);
        gauge_max(Gauge::MaxActiveSessions, 5);
        let report = uninstall().expect("recorder installed").finish();
        assert!(!enabled());
        assert_eq!(report.metrics.counter(Counter::Connects), 5);
        assert_eq!(report.metrics.hist(Hist::SessionRequests).count, 1);
        assert_eq!(report.metrics.gauge(Gauge::MaxActiveSessions), 9);
        assert!(uninstall().is_none());
    }

    #[test]
    fn macros_are_silent_without_recorder() {
        // Nothing installed: must not panic, must not record anywhere.
        event!("no.recorder", x = 1u64);
        let _span = span!("no.recorder");
        counter(Counter::Connects, 1);
    }

    #[test]
    fn journal_macro_routes_through_gate() {
        use std::net::Ipv4Addr;
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        // No journaling requested: the macro is inert.
        install(Box::new(CollectingRecorder::new(0, false)));
        assert!(!journal_on());
        journal!(ip, JournalEvent::SessionStart);
        let report = uninstall().unwrap().finish();
        assert!(report.journal.is_empty());

        // Journaling on: events accumulate per host, batch tag applies.
        let cfg = ObsConfig { journal: true, ..ObsConfig::default() };
        install(Box::new(CollectingRecorder::with_config(3, cfg)));
        assert!(journal_on());
        set_batch(4);
        set_sim_now(1_500);
        journal!(ip, JournalEvent::SessionStart);
        journal!(ip, JournalEvent::Phase { phase: "banner" });
        let mut drained = Vec::new();
        drain_journal(&mut drained);
        assert_eq!(drained.len(), 1);
        assert!(drained[0].contains("\"ip\":\"10.0.0.9\""), "{}", drained[0]);
        assert!(drained[0].contains("\"shard\":3,\"batch\":4"), "{}", drained[0]);
        assert!(drained[0].contains("\"start_us\":1500"), "{}", drained[0]);
        // Drained journals are gone from the final report.
        let report = uninstall().unwrap().finish();
        assert!(report.journal.is_empty());
        assert!(!journal_on());
    }

    #[test]
    fn sampler_emits_one_row_per_crossed_boundary() {
        let cfg = ObsConfig { metrics: true, timeseries_every_us: 1_000, ..ObsConfig::default() };
        install(Box::new(CollectingRecorder::with_config(2, cfg)));
        counter(Counter::Connects, 1);
        set_sim_now(500); // below the first boundary
        counter(Counter::Connects, 1);
        set_sim_now(3_200); // crosses 1000, 2000, 3000
        let report = uninstall().unwrap().finish();
        assert_eq!(report.series.len(), 3);
        assert!(report.series[0].starts_with("2,0,1,"), "{}", report.series[0]);
        assert!(report.series[1].starts_with("2,0,2,"), "{}", report.series[1]);
        assert!(report.series[2].starts_with("2,0,3,"), "{}", report.series[2]);
        let header = Report::timeseries_header();
        assert!(header.starts_with("shard,batch,t_ms,sim_events,"));
        assert_eq!(header.split(',').count() - 3, Counter::COUNT);
        // Each row has one value per counter after the three tags.
        assert_eq!(report.series[0].split(',').count() - 3, Counter::COUNT);
    }

    #[test]
    fn span_macro_records_through_recorder() {
        install(Box::new(CollectingRecorder::new(7, true)));
        set_sim_now(100);
        {
            let _span = span!("unit.test");
            set_sim_now(250);
            event!("unit.inner", tag = "x");
        }
        let report = uninstall().unwrap().finish();
        let stat = report.spans.iter().find(|s| s.name == "unit.test").unwrap();
        assert_eq!(stat.count, 1);
        assert_eq!(stat.sim_total_us, 150);
        // trace: one event line + one span line
        assert_eq!(report.trace.len(), 2);
        assert!(report.trace[0].contains("\"shard\":7"));
    }
}
