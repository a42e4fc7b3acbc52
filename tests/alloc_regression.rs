//! Allocation-budget regression tests (DESIGN.md §8).
//!
//! Installs an exact counting global allocator (below) and pins three
//! memory invariants:
//!
//! 1. **Allocation pressure.** Enumerating a fixed 50-host world costs
//!    a bounded number of allocations per host. The zero-copy work in
//!    the server engine, enumerator, and codec (pooled reply buffers,
//!    reused line strings, listings parsed straight into the file
//!    table) is what keeps this low; a change that reintroduces
//!    per-event or per-reply heap churn fails here long before it shows
//!    up on a wall clock.
//! 2. **Peak live bytes.** A streamed study's live-heap high-water mark
//!    stays a fraction of the in-memory path's on the same world. This
//!    is the streaming pipeline's whole reason to exist — O(batch)
//!    instead of O(world) residency — expressed as a comparative
//!    ceiling so it holds on any machine and at any build profile.
//! 3. **Whole-study allocation counts.** Five study shapes at the
//!    600-server size stay within 5% of their recorded counts.
//!
//! The per-stage ceilings are deliberately loose (~2x the measured
//! cost) so they only trip on structural regressions — an accidental
//! `format!` in a per-reply path multiplies the count, it doesn't nudge
//! it.
//!
//! The allocator's counters are process-wide atomics updated with
//! read-modify-write instructions (`fetch_add`/`fetch_sub`, and
//! `fetch_max` for the high-water mark), so they stay exact while the
//! shard threads of a K>1 study allocate at once. They count every
//! thread of the process, so the tests serialize on a mutex to keep one
//! measurement in flight at a time.

use enumerator::{EnumConfig, Enumerator};
use ftp_study::{
    run_study, run_study_sharded, run_study_streamed, StreamOptions, StreamOutcome, StudyConfig,
};
use netsim::{SimDuration, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use worldgen::PopulationSpec;
use zscan::{Blocklist, HostDiscovery, ScanConfig};

/// Allocation count and live-heap gauges. The counters are statistics
/// that publish no other data, so every access is `Relaxed`.
struct Counters {
    /// Heap allocations (including reallocations) since the last reset.
    allocs: AtomicU64,
    /// Bytes currently live. Not zeroed by [`Counters::reset`]: it
    /// tracks real heap state, not a measurement window.
    live: AtomicU64,
    /// Highest value `live` reached since the last reset.
    high_water: AtomicU64,
    /// `live` when the window was last reset.
    live_at_reset: AtomicU64,
}

impl Counters {
    const fn new() -> Self {
        Counters {
            allocs: AtomicU64::new(0),
            live: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            live_at_reset: AtomicU64::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.high_water.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Zeroes the allocation count and re-arms the high-water mark at
    /// the current live-bytes level.
    fn reset(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        let live = self.live.load(Ordering::Relaxed);
        self.high_water.store(live, Ordering::Relaxed);
        self.live_at_reset.store(live, Ordering::Relaxed);
    }

    fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Peak heap growth since the last reset: how far above its starting
    /// level the live-bytes gauge climbed — the number the
    /// streaming-memory tests bound.
    fn peak_growth_since_reset(&self) -> u64 {
        let high = self.high_water.load(Ordering::Relaxed);
        high.saturating_sub(self.live_at_reset.load(Ordering::Relaxed))
    }
}

static COUNTERS: Counters = Counters::new();

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every call is forwarded to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the counter updates touch no allocated memory and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
        COUNTERS.grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
        COUNTERS.grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
        COUNTERS.shrink(layout.size());
        COUNTERS.grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Serializes the tests in this binary: they share the allocator's
/// process-wide counters.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The gauge arithmetic, exercised on a private instance so the
/// allocations of other threads cannot move it.
#[test]
fn high_water_ratchets_and_reset_rearms() {
    let c = Counters::new();
    c.grow(5_000);
    c.reset();
    c.grow(1000);
    c.shrink(400);
    c.grow(100);
    assert_eq!(c.peak_growth_since_reset(), 1000, "peak was the first spike");
    assert_eq!(c.live.load(Ordering::Relaxed), 5_700);
    c.reset();
    assert_eq!(c.peak_growth_since_reset(), 0, "reset re-arms at current live level");
    c.shrink(700);
    assert_eq!(c.peak_growth_since_reset(), 0, "shrinking never raises the peak");
}

const SEED: u64 = 1;
const SERVERS: usize = 50;

/// Enumerates the fixed world, counting only allocations made while the
/// event loop runs (world construction is setup cost, not the per-event
/// hot path this test pins). Returns `(records, allocs)`.
fn enumerate_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let truth = worldgen::build(&mut sim, &spec);
    let mut cfg = EnumConfig::new(std::net::Ipv4Addr::new(198, 108, 0, 1)).with_concurrency(64);
    cfg.request_gap = SimDuration::from_millis(10);
    let (en, results) = Enumerator::new(cfg, truth.ftp_addresses());
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    let before = COUNTERS.allocs();
    sim.run();
    let allocs = COUNTERS.allocs() - before;
    let n = results.borrow().len();
    (n, allocs)
}

#[test]
fn enumeration_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // First run pays one-time lazy initialization; measure the second.
    let (warmup_records, _) = enumerate_world();
    assert!(warmup_records > 0, "world produced no records");

    let (records, total) = enumerate_world();
    assert_eq!(records, warmup_records, "enumeration must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~113 allocs/host after the zero-alloc session-loop pass
    // (borrowed codec lines, `ReplyBuf` reuse, commands rendered into a
    // reused buffer, listings parsed straight into the columnar file
    // table — down from ~3.8k); the ceiling is pinned at ~2.5x that
    // (counts are deterministic, so the headroom covers code drift, not
    // machine noise). The obs feature is compiled into this test build,
    // so the ceiling also proves that instrumentation with no recorder
    // installed costs nothing on the per-event path.
    const CEILING: u64 = 280;
    assert!(
        per_host <= CEILING,
        "allocation budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );

    // Recorder neutrality: installing a recorder for one run and
    // removing it must leave the disabled path exactly where it was —
    // the same behavior and the same allocation count as the baseline.
    obs::install(Box::new(obs::CollectingRecorder::new(0, false)));
    let (recorded, _with_recorder_allocs) = enumerate_world();
    assert_eq!(recorded, warmup_records, "recorder must not change behavior");
    let report = obs::uninstall().expect("recorder installed").finish();
    assert!(
        report.metrics.counter(obs::Counter::SimEvents) > 0,
        "recorder observed the run"
    );
    let (after_records, after_allocs) = enumerate_world();
    assert_eq!(after_records, warmup_records, "behavior stable after uninstall");
    assert_eq!(
        after_allocs, total,
        "allocation count with the recorder uninstalled must match the baseline exactly"
    );
}

/// Builds the fixed world, counting every allocation the generator
/// makes. Unlike [`enumerate_world`] there is no setup to exclude:
/// world materialization *is* the stage under test. Returns
/// `(hosts, allocs)`.
fn generate_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let before = COUNTERS.allocs();
    let truth = worldgen::build(&mut sim, &spec);
    let allocs = COUNTERS.allocs() - before;
    (truth.hosts.len(), allocs)
}

/// Runs a TCP/21 discovery sweep over the fixed world, counting only
/// allocations made from scanner construction onward (the world itself
/// is the worldgen stage's cost). Returns `(open_hosts, allocs)`.
fn scan_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let _truth = worldgen::build(&mut sim, &spec);
    let mut cfg = ScanConfig::tcp21(spec.space, 7);
    cfg.blocklist = Blocklist::new();
    let before = COUNTERS.allocs();
    let (scanner, results) = HostDiscovery::new(cfg);
    let id = sim.register_endpoint(Box::new(scanner));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let allocs = COUNTERS.allocs() - before;
    let n = results.borrow().open.len();
    (n, allocs)
}

/// Worldgen stage budget: materializing a host against the arena VFS
/// allocates only for arena growth (node slab, interner, content
/// strings), not per-path or per-mtime `format!` churn. The scratch
/// threading through content.rs/campaigns.rs/population.rs is what
/// keeps this low; one revived `format!` in a per-file loop multiplies
/// the count.
#[test]
fn worldgen_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let (warmup_hosts, _) = generate_world();
    assert!(warmup_hosts > 0, "world produced no hosts");

    let (hosts, total) = generate_world();
    assert_eq!(hosts, warmup_hosts, "worldgen must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~111 allocs/host after the arena-VFS pass (the HashMap
    // VFS cost thousands); the ceiling is ~2x the measurement. Counts
    // are deterministic, so the headroom covers code drift, not noise.
    const CEILING: u64 = 250;
    assert!(
        per_host <= CEILING,
        "worldgen budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );
}

/// Scan stage budget: the discovery sweep's bookkeeping is a flat
/// slot-indexed table (2 B per address, one allocation up front), so
/// per-probe tracking allocates nothing. What remains is simulator
/// event churn and the result vectors; a revived per-target map entry
/// or per-probe allocation multiplies the count.
#[test]
fn scan_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let (warmup_open, _) = scan_world();
    assert!(warmup_open > 0, "scan found no open hosts");

    let (open, total) = scan_world();
    assert_eq!(open, warmup_open, "scan must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~16 allocs/host — the sweep's tracking is one up-front
    // slot-table allocation, so what remains is simulator plumbing and
    // the result vectors; ceiling ~2.5x. A revived per-target map blows
    // straight through it (the old HashMap cost ~16k allocs/host here).
    const CEILING: u64 = 40;
    assert!(
        per_host <= CEILING,
        "scan budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );
}

/// Peak-live-bytes ceiling for the streaming pipeline: on the same
/// world, a streamed run's live-heap high-water mark must stay well
/// under the in-memory path's, which holds every `HostRecord` (file
/// listings included) until the end. One shard on both sides, so the
/// two peaks measure the same work.
#[test]
fn streamed_study_peak_heap_stays_bounded() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 150);

    // Warm both paths once so lazy initialization doesn't count.
    let warm = run_study(&cfg);
    assert!(!warm.records.is_empty());
    drop(warm);

    COUNTERS.reset();
    let results = run_study(&cfg);
    let legacy_peak = COUNTERS.peak_growth_since_reset();
    assert!(!results.records.is_empty());
    drop(results);

    // 8 batches: small enough that the record vector never forms,
    // large enough that per-batch overhead stays secondary.
    let opts = StreamOptions::new(25);
    COUNTERS.reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = COUNTERS.peak_growth_since_reset();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }

    assert!(streamed_peak > 0, "allocator saw no streamed allocations — counter broken?");
    // The measured ratio is 0.46 at this size in both build profiles;
    // 0.7 is the structural-regression tripwire (e.g. batching silently
    // re-accumulating records).
    let ceiling = (legacy_peak as f64 * 0.7) as u64;
    assert!(
        streamed_peak <= ceiling,
        "streamed peak heap {streamed_peak} B exceeds {ceiling} B \
         (70% of in-memory peak {legacy_peak} B) — streaming is no longer bounded-memory"
    );
}

/// Peak-live-bytes ceiling with the flight recorder on: per-batch
/// journal flushing must keep a streamed run's high-water mark a
/// fraction of the in-memory path's, which holds every probed address's
/// journal in the recorder until shard end. Same 0.7 tripwire as the
/// baseline streaming test — if flushing silently stops draining (or
/// drains without rendering), the streamed side re-accumulates
/// O(space) journals and blows through it.
#[test]
fn streamed_study_peak_heap_stays_bounded_with_journaling() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let mut cfg = StudyConfig::small(SEED, 150);
    cfg.obs = obs::ObsConfig { journal: true, ..obs::ObsConfig::default() };
    let journal = std::env::temp_dir()
        .join(format!("ftpcloud_alloc_journal_{}.jsonl", std::process::id()));
    let opts = StreamOptions {
        journal_path: Some(journal.clone()),
        ..StreamOptions::new(25)
    };

    // Warm both paths once so lazy initialization doesn't count.
    drop(run_study(&cfg));
    drop(run_study_streamed(&cfg, &opts));

    COUNTERS.reset();
    let results = run_study(&cfg);
    let legacy_peak = COUNTERS.peak_growth_since_reset();
    let in_memory_journals = results.obs.as_ref().expect("journaling requested").journal.len();
    assert!(in_memory_journals > 0, "in-memory path collected journals");
    drop(results);

    COUNTERS.reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = COUNTERS.peak_growth_since_reset();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
    let flushed = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_file(&journal);
    assert_eq!(
        flushed.lines().count(),
        in_memory_journals,
        "streamed flushing must cover every journal the in-memory path collects"
    );

    let ceiling = (legacy_peak as f64 * 0.7) as u64;
    assert!(
        streamed_peak <= ceiling,
        "streamed+journal peak heap {streamed_peak} B exceeds {ceiling} B \
         (70% of in-memory peak {legacy_peak} B) — per-batch journal flushing regressed"
    );
}

/// Allocation-count ceiling for the streaming pipeline, pinned as a
/// ratio against the in-memory path on the same world. The perf-wave-2
/// diet (one `Simulator` arena per shard reset between batches, a
/// single orbit walk split per batch, plan bucketing) brought streamed
/// allocs from 2.3× the in-memory path to ~1.01×; this test is the
/// tripwire that keeps the diet from silently regressing — a revived
/// per-`(shard, batch)` rebuild multiplies the count, it doesn't nudge
/// it.
#[test]
fn streamed_study_allocation_count_stays_near_in_memory_path() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 150);
    let opts = StreamOptions::new(25);

    // Warm both paths once so lazy initialization doesn't count.
    drop(run_study(&cfg));
    drop(run_study_streamed(&cfg, &opts));

    COUNTERS.reset();
    let results = run_study(&cfg);
    let legacy_allocs = COUNTERS.allocs();
    assert!(!results.records.is_empty());
    drop(results);

    COUNTERS.reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_allocs = COUNTERS.allocs();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }

    assert!(streamed_allocs > 0, "allocator saw no streamed allocations — counter broken?");
    let ceiling = (legacy_allocs as f64 * 1.5) as u64;
    assert!(
        streamed_allocs <= ceiling,
        "streamed study made {streamed_allocs} allocs vs {legacy_allocs} in-memory \
         (ceiling 1.5×) — the streaming allocation diet regressed"
    );
}

/// Allocation-count tripwire for the flight recorder: a 1-shard
/// streamed study with its journal written to a file allocates at most
/// 1.1× what the same study makes with no recorder at all. Journal
/// events land in a flat per-shard log that keeps its capacity across
/// batches and render straight into the sink, so journaling every
/// probed address costs a handful of allocations per run, not several
/// per address (the per-host map it replaced made ~9.5× the
/// journal-off count).
#[test]
fn streamed_journal_allocations_stay_near_journal_off() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let off_cfg = StudyConfig::small(SEED, 150);
    let mut on_cfg = off_cfg.clone();
    on_cfg.obs = obs::ObsConfig { journal: true, ..obs::ObsConfig::default() };
    let journal = std::env::temp_dir()
        .join(format!("ftpcloud_alloc_journal_count_{}.jsonl", std::process::id()));
    let off_opts = StreamOptions::new(25);
    let on_opts = StreamOptions { journal_path: Some(journal.clone()), ..StreamOptions::new(25) };

    // Warm both paths once so lazy initialization doesn't count.
    drop(run_study_streamed(&off_cfg, &off_opts));
    drop(run_study_streamed(&on_cfg, &on_opts));

    COUNTERS.reset();
    let off = run_study_streamed(&off_cfg, &off_opts).expect("streamed study runs");
    let off_allocs = COUNTERS.allocs();
    drop(off);

    COUNTERS.reset();
    let on = run_study_streamed(&on_cfg, &on_opts).expect("streamed study runs");
    let on_allocs = COUNTERS.allocs();
    drop(on);
    let lines = std::fs::read_to_string(&journal).expect("journal written").lines().count();
    let _ = std::fs::remove_file(&journal);
    assert!(lines > 0, "the journal-on run wrote its journal");

    assert!(off_allocs > 0, "allocator saw no streamed allocations — counter broken?");
    let ceiling = (off_allocs as f64 * 1.1) as u64;
    assert!(
        on_allocs <= ceiling,
        "journal-on streamed study made {on_allocs} allocs vs {off_allocs} journal-off \
         (ceiling 1.1×) — journaling is allocating per host again"
    );
}

/// Whole-study allocation ceilings: five study shapes at
/// `StudyConfig::small(1, 600)`, each counted after one warm-up run,
/// may allocate at most 5% more than the count recorded for it before
/// this test existed. The recorded counts are from the unoptimized test
/// profile; an optimized build allocates about 950 fewer per shape, so
/// the ceilings hold under `--release` too. The counts are exact (the
/// K=8 and streamed shapes vary by one allocation between runs), so 5%
/// is headroom for code drift, not noise: a new per-host allocation on
/// any of these paths adds 600 or more to its count.
#[test]
fn study_allocation_counts_stay_within_five_percent() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 600);
    let mut obs_cfg = cfg.clone();
    obs_cfg.obs = obs::ObsConfig::all();
    let mut journal_cfg = cfg.clone();
    journal_cfg.obs = obs::ObsConfig {
        metrics: true,
        journal: true,
        timeseries_every_us: 500_000,
        ..obs::ObsConfig::default()
    };
    let stream_opts = StreamOptions::new(600 / 8);

    // Allocations of the second of two runs; `run` returns how much the
    // study produced, so an empty run cannot pass as a cheap one.
    let count = |run: &dyn Fn() -> usize| {
        assert!(run() > 0, "warm-up run produced nothing");
        COUNTERS.reset();
        let produced = run();
        let n = COUNTERS.allocs();
        assert!(produced > 0, "measured run produced nothing");
        n
    };
    // (shape, recorded count, count now)
    let shapes: [(&str, u64, u64); 5] = [
        ("K=1", 102_840, count(&|| run_study_sharded(&cfg, 1).records.len())),
        ("K=1, ObsConfig::all()", 107_871, count(&|| run_study_sharded(&obs_cfg, 1).records.len())),
        (
            "K=1, journal + 500 ms time series",
            367_593,
            count(&|| run_study_sharded(&journal_cfg, 1).obs.map_or(0, |r| r.journal.len())),
        ),
        ("K=8", 110_067, count(&|| run_study_sharded(&cfg, 8).records.len())),
        (
            "streamed, 8 batches",
            113_584,
            count(&|| match run_study_streamed(&cfg, &stream_opts) {
                Ok(StreamOutcome::Complete(r)) => r.aggregate.summary.hosts as usize,
                _ => 0,
            }),
        ),
    ];
    let over: Vec<String> = shapes
        .iter()
        .filter(|&&(_, recorded, now)| now > recorded * 105 / 100)
        .map(|(shape, recorded, now)| {
            format!("{shape}: {now} allocs > {} (105% of {recorded})", recorded * 105 / 100)
        })
        .collect();
    assert!(over.is_empty(), "study allocation ceilings exceeded:\n{}", over.join("\n"));
}
