//! The three study workloads and their untraced runner: the program's
//! own entry points (`run_study` + `full_report`, `run_study_streamed` +
//! `stream_report`), called exactly as a user of the library would.

use crate::check::{Counters, Outcome, Reference};
use ftp_study::{StreamOptions, StreamOutcome, StudyConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// FTP servers per world. Every workload uses `PopulationSpec::small`'s
/// /14 space (262,144 addresses), sized so one complete study takes
/// about a second on a 2-core machine and a run holds a few dozen.
/// Worlds of 20,000 or more servers panic in `worldgen::build_ases`
/// (the /14 is too small), so sizes stay well below that.
const SERVERS: usize = 2_500;
/// Shard threads and target batch count of `stream-journal`.
const STREAM_SHARDS: u64 = 2;
const STREAM_BATCHES: usize = 8;
/// Worlds one run cycles through. Peak heap and work per host differ
/// by several percent from one world to the next; a run that covers
/// several worlds reports figures that depend less on which seed it
/// drew.
const WORLDS_PER_RUN: u64 = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_study` + `full_report` over a clean world.
    StudyClean,
    /// The same over a world with half the population hostile.
    StudyHostile,
    /// `run_study_streamed` (2 shards, ~8 batches, checkpoints, journal)
    /// + `stream_report`.
    StreamJournal,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StudyClean,
        Workload::StudyHostile,
        Workload::StreamJournal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyClean => "study-clean",
            Workload::StudyHostile => "study-hostile",
            Workload::StreamJournal => "stream-journal",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn streamed(self) -> bool {
        self == Workload::StreamJournal
    }

    /// The study configuration for `seed`: the benchmark generates the
    /// world itself from the seed.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = StudyConfig::small(seed, SERVERS);
        if self == Workload::StudyHostile {
            cfg = cfg.with_fault_fraction(0.5);
        }
        // Metrics feed the output check; the journal is part of the
        // streamed workload's work.
        cfg.obs.metrics = true;
        cfg.obs.journal = self.streamed();
        cfg
    }
}

/// The seeds of the worlds a run with `seed` studies.
fn world_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..WORLDS_PER_RUN).map(move |i| seed.wrapping_mul(WORLDS_PER_RUN).wrapping_add(i))
}

/// One world of a run: its configuration, its streaming options (for
/// `stream-journal`) and the expected outcome of studying it.
pub struct World {
    pub cfg: StudyConfig,
    pub opts: Option<StreamOptions>,
    pub reference: Reference,
}

impl World {
    /// Threads a study of this world keeps busy.
    pub fn threads(&self) -> usize {
        self.opts.as_ref().map_or(1, |o| o.shards as usize)
    }

    /// Checks one study of this world against its reference. On a clean
    /// world every planned FTP server must also reach the funnel, which
    /// holds for any seed, pinned or not.
    pub fn check(&mut self, got: &Outcome) -> Result<(), String> {
        self.reference.check(got)?;
        let planned = self.cfg.population.ftp_servers as u64;
        if self.cfg.population.fault_fraction == 0.0 && got.ftp_servers != planned {
            return Err(format!(
                "funnel counted {} of {planned} FTP servers",
                got.ftp_servers
            ));
        }
        Ok(())
    }
}

/// The worlds a run of `workload` with `seed` cycles through.
pub fn worlds(workload: Workload, seed: u64, work: &WorkDir) -> Vec<World> {
    world_seeds(seed)
        .map(|world_seed| {
            let cfg = workload.config(world_seed);
            let opts = workload.streamed().then(|| stream_options(&cfg, work));
            World {
                cfg,
                opts,
                reference: Reference::new(workload.name(), world_seed),
            }
        })
        .collect()
}

/// Where the streamed workload writes its checkpoints and journal.
#[derive(Debug, Clone)]
pub struct WorkDir {
    root: PathBuf,
    pub checkpoints: PathBuf,
    pub journal: PathBuf,
}

impl WorkDir {
    pub fn new(root: &Path) -> WorkDir {
        WorkDir {
            root: root.to_path_buf(),
            checkpoints: root.join("checkpoints"),
            journal: root.join("journal.jsonl"),
        }
    }

    /// Empties the directory so the next study starts fresh instead of
    /// resuming from the previous one's checkpoints.
    pub fn clear(&self) -> std::io::Result<()> {
        self.remove()?;
        std::fs::create_dir_all(&self.root)
    }

    /// Removes the directory and everything in it.
    pub fn remove(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Streaming options for `stream-journal`: about 8 batches per shard,
/// a checkpoint after every batch, and the journal on.
fn stream_options(cfg: &StudyConfig, work: &WorkDir) -> StreamOptions {
    let planned = worldgen::plan_world(&cfg.population).planned_host_count();
    let mut opts = StreamOptions::new(planned.div_ceil(STREAM_BATCHES));
    opts.shards = STREAM_SHARDS;
    opts.checkpoint_dir = Some(work.checkpoints.clone());
    opts.journal_path = Some(work.journal.clone());
    opts
}

/// One untraced complete study: its wall time, peak heap growth and
/// output.
pub struct Sample {
    pub wall_s: f64,
    pub peak_heap_bytes: u64,
    pub outcome: Outcome,
}

/// Runs one complete study through the program's own runner and report
/// renderer. Only the study itself is timed; clearing the work
/// directory and counting journal lines happen outside the clock.
pub fn run_untraced(world: &World, work: &WorkDir) -> Result<Sample, String> {
    let cfg = &world.cfg;
    match &world.opts {
        None => {
            let heap_base = crate::alloc::start_peak();
            let start = Instant::now();
            let results = ftp_study::run_study(cfg);
            let report = ftp_study::full_report(&results);
            let wall_s = start.elapsed().as_secs_f64();
            let peak_heap_bytes = crate::alloc::peak_since(heap_base);
            let metrics = results
                .obs
                .as_ref()
                .ok_or("study returned no metrics")?
                .metrics
                .clone();
            let funnel = results.funnel();
            let outcome = Outcome {
                digest: crate::check::digest(&report),
                counters: Counters::from_metrics(&metrics, 0),
                funnel_violations: funnel.invariant_violations().len(),
                ftp_servers: funnel.ftp_servers,
            };
            Ok(Sample {
                wall_s,
                peak_heap_bytes,
                outcome,
            })
        }
        Some(opts) => {
            work.clear()
                .map_err(|e| format!("clearing work dir: {e}"))?;
            let heap_base = crate::alloc::start_peak();
            let start = Instant::now();
            let outcome =
                ftp_study::run_study_streamed(cfg, opts).map_err(|e| format!("stream: {e}"))?;
            let StreamOutcome::Complete(results) = outcome else {
                return Err("streamed study stopped before its last batch".into());
            };
            let report = ftp_study::stream_report(&results.aggregate, &results.spec);
            let wall_s = start.elapsed().as_secs_f64();
            let peak_heap_bytes = crate::alloc::peak_since(heap_base);
            let metrics = results
                .obs
                .as_ref()
                .ok_or("study returned no metrics")?
                .metrics
                .clone();
            let journal_lines =
                count_lines(&work.journal).map_err(|e| format!("reading journal: {e}"))?;
            let funnel = results.aggregate.funnel();
            let outcome = Outcome {
                digest: crate::check::digest(&report),
                counters: Counters::from_metrics(&metrics, journal_lines),
                funnel_violations: funnel.invariant_violations().len(),
                ftp_servers: funnel.ftp_servers,
            };
            Ok(Sample {
                wall_s,
                peak_heap_bytes,
                outcome,
            })
        }
    }
}

/// Wall seconds to plan and materialize the workload's whole world into
/// a fresh simulator: the set-up every study pays before its first
/// probe.
pub fn time_setup(cfg: &StudyConfig) -> f64 {
    let start = Instant::now();
    let plan = worldgen::plan_world(&cfg.population);
    let mut sim = netsim::Simulator::new(cfg.population.seed);
    let world = plan.materialize(&mut sim, |_| true);
    let setup_s = start.elapsed().as_secs_f64();
    std::hint::black_box(&world);
    setup_s
}

/// Newline count of a file, read in blocks.
pub fn count_lines(path: &Path) -> std::io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut lines = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(lines);
        }
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
    }
}
