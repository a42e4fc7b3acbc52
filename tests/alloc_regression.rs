//! Allocation-budget regression tests (DESIGN.md §8).
//!
//! Installs [`bench::CountingAlloc`] — the same counting global
//! allocator the pipeline benchmarks use — and pins two memory
//! invariants:
//!
//! 1. **Allocation pressure.** Enumerating a fixed 50-host world costs
//!    a bounded number of allocations per host. The zero-copy work in
//!    the server engine, enumerator, and codec (pooled reply buffers,
//!    cached LIST bodies, reused line strings) is what keeps this low;
//!    a change that reintroduces per-event or per-reply heap churn
//!    fails here long before it shows up on a wall clock.
//! 2. **Peak live bytes.** A streamed study's live-heap high-water mark
//!    stays a fraction of the in-memory path's on the same world. This
//!    is the streaming pipeline's whole reason to exist — O(batch)
//!    instead of O(world) residency — expressed as a comparative
//!    ceiling so it holds on any machine and at any build profile.
//!
//! Ceilings are deliberately loose (~2x the measured cost) so they only
//! trip on structural regressions — an accidental `format!` in a
//! per-reply path multiplies the count, it doesn't nudge it.
//!
//! The allocator's counters are process-wide and the bumps are
//! unsynchronized load+store pairs (see `bench::alloc_counter`), so the
//! tests serialize on a mutex and only measure single-threaded runs.

use enumerator::{EnumConfig, Enumerator};
use ftp_study::{run_study, run_study_streamed, StreamOptions, StreamOutcome, StudyConfig};
use netsim::{SimDuration, Simulator};
use std::sync::Mutex;
use worldgen::PopulationSpec;
use zscan::{Blocklist, HostDiscovery, ScanConfig};

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc::new();

/// Serializes the tests in this binary: they share the allocator's
/// process-wide counters.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

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
    let before = bench::snapshot().allocs;
    sim.run();
    let allocs = bench::snapshot().allocs - before;
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
    let before = bench::snapshot().allocs;
    let truth = worldgen::build(&mut sim, &spec);
    let allocs = bench::snapshot().allocs - before;
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
    let before = bench::snapshot().allocs;
    let (scanner, results) = HostDiscovery::new(cfg);
    let id = sim.register_endpoint(Box::new(scanner));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let allocs = bench::snapshot().allocs - before;
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
/// listings included) until the end. One shard on both sides — the
/// counter bumps are unsynchronized.
#[test]
fn streamed_study_peak_heap_stays_bounded() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 150);

    // Warm both paths once so lazy initialization doesn't count.
    let warm = run_study(&cfg);
    assert!(!warm.records.is_empty());
    drop(warm);

    bench::reset();
    let results = run_study(&cfg);
    let legacy_peak = bench::peak_growth_since_reset();
    assert!(!results.records.is_empty());
    drop(results);

    // 8 batches: small enough that the record vector never forms,
    // large enough that per-batch overhead stays secondary.
    let opts = StreamOptions::new(25);
    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = bench::peak_growth_since_reset();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }

    assert!(streamed_peak > 0, "allocator saw no streamed allocations — counter broken?");
    // The measured ratio is ~0.2 in release and well under 0.5 in
    // debug; 0.7 is the structural-regression tripwire (e.g. batching
    // silently re-accumulating records).
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

    bench::reset();
    let results = run_study(&cfg);
    let legacy_peak = bench::peak_growth_since_reset();
    let in_memory_journals = results.obs.as_ref().expect("journaling requested").journal.len();
    assert!(in_memory_journals > 0, "in-memory path collected journals");
    drop(results);

    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = bench::peak_growth_since_reset();
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

    bench::reset();
    let results = run_study(&cfg);
    let legacy_allocs = bench::snapshot().allocs;
    assert!(!results.records.is_empty());
    drop(results);

    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_allocs = bench::snapshot().allocs;
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

    bench::reset();
    let off = run_study_streamed(&off_cfg, &off_opts).expect("streamed study runs");
    let off_allocs = bench::snapshot().allocs;
    drop(off);

    bench::reset();
    let on = run_study_streamed(&on_cfg, &on_opts).expect("streamed study runs");
    let on_allocs = bench::snapshot().allocs;
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
