//! The traced run: each workload's runner recomposed from the layers'
//! public functions, with every call timed from outside. Nothing here
//! adds a span inside the program; endpoint callbacks are timed by a
//! delegating [`Endpoint`] wrapper this benchmark owns.
//!
//! The composition mirrors `ftp_study`'s runners call for call, so its
//! report digest and behaviour counters must equal the untraced run's;
//! a run whose traced digest differs is refused.

use crate::check::{Counters, Outcome};
use crate::workload::WorkDir;
use analysis::StreamingAggregate;
use enumerator::{BounceCollector, EnumConfig, Enumerator, HostRecord};
use ftp_proto::HostPort;
use ftp_study::{Checkpoint, HttpObservation, StreamOptions, StudyConfig, StudyResults, WebProbe};
use netsim::{ConnId, ConnectError, Ctx, Endpoint, ProbeStatus, SimDuration, Simulator};
use obs::{Counter, MetricsSnapshot};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;
use zscan::{Blocklist, HashBatch, HashShard, HostDiscovery, ScanConfig};

/// The study's own machines, as `ftp_study::study` places them.
const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 1);
const COLLECTOR_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 2);
const WEB_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 3);
const COLLECTOR_PORT: u16 = 2121;

/// Layers whose times partition the traced wall: their sum over the
/// wall is `trace.coverage`.
pub const SELF_TIMES: &[&str] = &[
    "worldgen.plan_s",
    "worldgen.bucket_s",
    "worldgen.materialize_s",
    "sim.reset_s",
    "zscan.order_s",
    "zscan.run_s",
    "enumerate.run_s",
    "webprobe.run_s",
    "study.assemble_s",
    "analysis.fold_s",
    "analysis.merge_s",
    "journal.render_s",
    "journal.write_s",
    "checkpoint.save_s",
    "report.render_s",
];

/// Named sums of seconds and counts measured around layer calls.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    entries: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => self.entries.push((name, v)),
        }
    }

    /// Runs `f`, adding its wall seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    pub fn absorb(&mut self, other: &Layers) {
        for &(name, v) in &other.entries {
            self.add(name, v);
        }
    }
}

/// Time, call count and heap allocations spent inside one endpoint's
/// callbacks.
#[derive(Debug, Clone, Copy, Default)]
struct CallStats {
    ns: u64,
    calls: u64,
    allocs: u64,
}

impl CallStats {
    fn secs(self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// Delegates every callback to `inner` and accumulates the time and
/// the calling thread's allocations spent in it.
struct Timed<E> {
    inner: E,
    stats: Rc<Cell<CallStats>>,
}

impl<E: Endpoint + 'static> Timed<E> {
    fn wrap(inner: E) -> (Box<dyn Endpoint>, Rc<Cell<CallStats>>) {
        let stats = Rc::new(Cell::new(CallStats::default()));
        (
            Box::new(Timed {
                inner,
                stats: Rc::clone(&stats),
            }),
            stats,
        )
    }
}

impl<E> Timed<E> {
    #[inline]
    fn measure(&mut self, f: impl FnOnce(&mut E)) {
        let allocs = crate::alloc::thread_allocs();
        let start = Instant::now();
        f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let mut s = self.stats.get();
        s.ns += ns;
        s.calls += 1;
        s.allocs += crate::alloc::thread_allocs().wrapping_sub(allocs);
        self.stats.set(s);
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {
        self.measure(|e| e.on_inbound(ctx, conn, local_port));
    }
    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<ConnId, ConnectError>) {
        self.measure(|e| e.on_outbound(ctx, token, result));
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        self.measure(|e| e.on_data(ctx, conn, data));
    }
    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.measure(|e| e.on_close(ctx, conn));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.measure(|e| e.on_timer(ctx, token));
    }
    fn on_probe(&mut self, ctx: &mut Ctx<'_>, target: Ipv4Addr, port: u16, status: ProbeStatus) {
        self.measure(|e| e.on_probe(ctx, target, port, status));
    }
}

/// Everything a traced study measured.
pub struct Traced {
    pub outcome: Outcome,
    pub layers: Layers,
    pub metrics: MetricsSnapshot,
    /// Listing entries the enumerator ingested.
    pub listing_entries: u64,
    pub report_bytes: u64,
    /// Busy seconds of each shard, in shard order.
    pub shard_busy: Vec<f64>,
    /// Elapsed wall seconds of the whole traced study.
    pub wall_s: f64,
    /// Thread-seconds the study occupied: the elapsed wall with the
    /// parallel section replaced by the sum of the shards' busy time.
    /// The layers' self-times sum to this when coverage is complete.
    pub thread_s: f64,
}

/// One partition's measurement stages: `ftp_study`'s `run_partition`,
/// recomposed with each `sim.run()` and endpoint timed.
struct PartitionOut {
    ips_scanned: u64,
    open_port: u64,
    records: Vec<HostRecord>,
    bounce_hits: HashSet<Ipv4Addr>,
    http: HashMap<Ipv4Addr, HttpObservation>,
}

fn traced_partition(
    cfg: &StudyConfig,
    sim: &mut Simulator,
    hash_shard: HashShard,
    hash_batch: Option<HashBatch>,
    scan_order: Option<Vec<u64>>,
    layers: &mut Layers,
) -> PartitionOut {
    let seed = cfg.population.seed;
    let mut scan_cfg = ScanConfig::tcp21(cfg.population.space, seed ^ 0x5ca);
    scan_cfg.blocklist = Blocklist::standard();
    scan_cfg.hash_shard = Some(hash_shard);
    scan_cfg.hash_batch = hash_batch;
    scan_cfg.per_probe_events = cfg.per_probe_events;
    let order = match scan_order {
        Some(order) => order,
        None => layers.time("zscan.order_s", || scan_cfg.materialize_order()),
    };
    let (scanner, scan_results) = HostDiscovery::with_order(scan_cfg, order);
    let (scanner, scan_stats) = Timed::wrap(scanner);
    let sid = sim.register_endpoint(scanner);
    sim.schedule_timer(sid, SimDuration::ZERO, 0);
    layers.time("zscan.run_s", || sim.run());
    layers.add("zscan.cb_s", scan_stats.get().secs());
    let (open, ips_scanned) = {
        let mut r = scan_results.borrow_mut();
        (std::mem::take(&mut r.open), r.probes_sent)
    };
    let open_port = open.len() as u64;

    let (collector, bounce_hits) = BounceCollector::new();
    let cid = sim.register_endpoint(Box::new(collector));
    sim.bind(COLLECTOR_IP, COLLECTOR_PORT, cid);
    let mut enum_cfg = EnumConfig::new(SCANNER_IP)
        .with_request_cap(cfg.request_cap)
        .with_concurrency(cfg.concurrency)
        .with_request_gap(cfg.request_gap);
    enum_cfg.respect_robots = cfg.respect_robots;
    enum_cfg.strict_replies = cfg.strict_replies;
    if cfg.probe_bounce {
        enum_cfg = enum_cfg.with_bounce_probe(HostPort::new(COLLECTOR_IP, COLLECTOR_PORT));
    }
    let (enumerator, records) = Enumerator::new(enum_cfg, open);
    let (enumerator, enum_stats) = Timed::wrap(enumerator);
    let eid = sim.register_endpoint(enumerator);
    sim.schedule_timer(eid, SimDuration::ZERO, 0);
    layers.time("enumerate.run_s", || sim.run());
    let calls = enum_stats.get();
    layers.add("enumerator.cb_s", calls.secs());
    layers.add("enumerator.calls", calls.calls as f64);
    layers.add("enumerator.allocs", calls.allocs as f64);

    let mut http = HashMap::new();
    if cfg.probe_http {
        let ftp_ips: Vec<Ipv4Addr> = records
            .borrow()
            .iter()
            .filter(|r| r.ftp_compliant)
            .map(|r| r.ip)
            .collect();
        let (probe, web_results) = WebProbe::new(WEB_IP, ftp_ips);
        let (probe, web_stats) = Timed::wrap(probe);
        let wid = sim.register_endpoint(probe);
        sim.schedule_timer(wid, SimDuration::ZERO, 0);
        layers.time("webprobe.run_s", || sim.run());
        layers.add("webprobe.cb_s", web_stats.get().secs());
        http = std::mem::take(&mut *web_results.borrow_mut());
    }
    let records = std::mem::take(&mut *records.borrow_mut());
    let bounce_hits = std::mem::take(&mut *bounce_hits.borrow_mut());
    PartitionOut {
        ips_scanned,
        open_port,
        records,
        bounce_hits,
        http,
    }
}

/// The shard-end harvest both runners perform into the recorder.
fn harvest_wheel(sim: &Simulator) {
    let ws = sim.wheel_stats();
    obs::counter(Counter::WheelInserts, ws.inserts);
    obs::counter(Counter::WheelCascades, ws.cascades);
    obs::counter(Counter::WheelCascadedEntries, ws.cascaded_entries);
    obs::gauge_max(obs::Gauge::WheelMaxOccupancy, ws.max_occupancy);
}

fn listing_entries(records: &[HostRecord]) -> u64 {
    records.iter().map(|r| r.files.len() as u64).sum()
}

/// `run_study` (one shard) + `full_report`, recomposed.
pub fn traced_study(cfg: &StudyConfig) -> Result<Traced, String> {
    let start = Instant::now();
    let mut layers = Layers::default();
    let seed = cfg.population.seed;
    let plan = layers.time("worldgen.plan_s", || worldgen::plan_world(&cfg.population));

    let shard_start = Instant::now();
    obs::install(Box::new(obs::CollectingRecorder::with_config(0, cfg.obs)));
    let mut sim = Simulator::new(seed);
    let allocs = crate::alloc::thread_allocs();
    let (mut hosts, mut non_ftp) = layers.time("worldgen.materialize_s", || {
        plan.materialize(&mut sim, |_| true)
    });
    layers.add(
        "worldgen.allocs",
        crate::alloc::thread_allocs().wrapping_sub(allocs) as f64,
    );
    let out = traced_partition(
        cfg,
        &mut sim,
        HashShard {
            seed,
            index: 0,
            shards: 1,
        },
        None,
        None,
        &mut layers,
    );
    harvest_wheel(&sim);
    obs::counter(Counter::HttpObservations, out.http.len() as u64);
    let report = obs::uninstall().ok_or("recorder vanished")?.finish();
    let shard_busy = shard_start.elapsed().as_secs_f64();

    let entries = listing_entries(&out.records);
    let results = layers.time("study.assemble_s", || {
        hosts.sort_by_key(|h| h.ip);
        non_ftp.sort_unstable();
        let mut records = out.records;
        records.sort_by_key(|r| r.ip);
        StudyResults {
            truth: plan.into_truth(hosts, non_ftp),
            ips_scanned: out.ips_scanned,
            open_port: out.open_port,
            records,
            bounce_hits: out.bounce_hits,
            http: out.http,
            obs: None,
        }
    });
    let text = layers.time("report.render_s", || ftp_study::full_report(&results));
    let wall_s = start.elapsed().as_secs_f64();
    let funnel = results.funnel();
    Ok(Traced {
        outcome: Outcome {
            digest: crate::check::digest(&text),
            counters: Counters::from_metrics(&report.metrics, 0),
            funnel_violations: funnel.invariant_violations().len(),
            ftp_servers: funnel.ftp_servers,
        },
        layers,
        metrics: report.metrics,
        listing_entries: entries,
        report_bytes: text.len() as u64,
        shard_busy: vec![shard_busy],
        wall_s,
        thread_s: wall_s,
    })
}

/// What one traced stream shard hands back.
struct ShardTrace {
    aggregate: StreamingAggregate,
    layers: Layers,
    metrics: MetricsSnapshot,
    listing_entries: u64,
    busy_s: f64,
}

/// The streamed runner's journal file, shared by the shard threads.
struct Journal {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

/// Shared, read-only inputs of every traced stream shard.
struct StreamShared<'a> {
    cfg: &'a StudyConfig,
    opts: &'a StreamOptions,
    plan: &'a worldgen::WorldPlan,
    batches: u64,
    fingerprint: u64,
    journal: &'a Journal,
}

/// `run_study_streamed` + `stream_report`, recomposed: the same shard
/// threads, per-batch reset and bucket materialization, fold, journal
/// flush and checkpoint, each timed.
pub fn traced_stream(
    cfg: &StudyConfig,
    opts: &StreamOptions,
    work: &WorkDir,
) -> Result<Traced, String> {
    work.clear()
        .map_err(|e| format!("clearing work dir: {e}"))?;
    let start = Instant::now();
    let mut layers = Layers::default();
    let plan = layers.time("worldgen.plan_s", || worldgen::plan_world(&cfg.population));
    let batches = (plan.planned_host_count() as u64)
        .div_ceil(opts.batch_size as u64)
        .max(1);
    let fingerprint =
        ftp_study::stream::config_fingerprint(cfg, opts.shards, batches, opts.batch_size);
    let file = std::fs::File::create(&work.journal).map_err(|e| format!("journal: {e}"))?;
    let journal = Journal {
        out: Mutex::new(std::io::BufWriter::new(file)),
    };
    let shared = StreamShared {
        cfg,
        opts,
        plan: &plan,
        batches,
        fingerprint,
        journal: &journal,
    };

    let parallel_start = Instant::now();
    let runs: Vec<Result<ShardTrace, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..opts.shards)
            .map(|index| {
                let shared = &shared;
                scope.spawn(move || traced_stream_shard(shared, index))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced shard panicked"))
            .collect()
    });
    let parallel_s = parallel_start.elapsed().as_secs_f64();
    layers.time("journal.write_s", || {
        journal
            .out
            .lock()
            .expect("journal lock poisoned")
            .flush()
            .map_err(|e| e.to_string())
    })?;

    let mut aggregate = StreamingAggregate::default();
    let mut metrics = MetricsSnapshot::default();
    let mut entries = 0;
    let mut shard_busy = Vec::new();
    for run in runs {
        let run = run?;
        layers.time("analysis.merge_s", || aggregate.merge(&run.aggregate));
        metrics.absorb(&run.metrics);
        layers.absorb(&run.layers);
        entries += run.listing_entries;
        shard_busy.push(run.busy_s);
    }
    let text = layers.time("report.render_s", || {
        ftp_study::stream_report(&aggregate, &cfg.population)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let journal_lines = layers.get("journal.lines") as u64;
    let funnel = aggregate.funnel();
    Ok(Traced {
        outcome: Outcome {
            digest: crate::check::digest(&text),
            counters: Counters::from_metrics(&metrics, journal_lines),
            funnel_violations: funnel.invariant_violations().len(),
            ftp_servers: funnel.ftp_servers,
        },
        layers,
        metrics,
        listing_entries: entries,
        report_bytes: text.len() as u64,
        thread_s: wall_s - parallel_s + shard_busy.iter().sum::<f64>(),
        shard_busy,
        wall_s,
    })
}

fn traced_stream_shard(shared: &StreamShared<'_>, index: u64) -> Result<ShardTrace, String> {
    let start = Instant::now();
    let cfg = shared.cfg;
    obs::install(Box::new(obs::CollectingRecorder::with_config(
        index, cfg.obs,
    )));
    let result = stream_shard_batches(shared, index);
    let report = obs::uninstall().ok_or("recorder vanished")?.finish();
    let (aggregate, layers, listing_entries) = result?;
    Ok(ShardTrace {
        aggregate,
        layers,
        metrics: report.metrics,
        listing_entries,
        busy_s: start.elapsed().as_secs_f64(),
    })
}

fn stream_shard_batches(
    shared: &StreamShared<'_>,
    index: u64,
) -> Result<(StreamingAggregate, Layers, u64), String> {
    let StreamShared {
        cfg,
        opts,
        plan,
        batches,
        fingerprint,
        journal,
    } = *shared;
    let shards = opts.shards;
    let seed = cfg.population.seed;
    let space = cfg.population.space;
    let mut layers = Layers::default();
    let mut aggregate = StreamingAggregate::default();
    let mut entries = 0;
    let mut sim = Simulator::new(seed);
    let buckets = layers.time("worldgen.bucket_s", || {
        plan.bucket_shard((index, shards), batches)
    });
    let shard_order = layers.time("zscan.order_s", || {
        let mut sc = ScanConfig::tcp21(space, seed ^ 0x5ca);
        sc.blocklist = Blocklist::standard();
        sc.hash_shard = Some(HashShard {
            seed,
            index,
            shards,
        });
        sc.materialize_order()
    });
    let mut lines = Vec::new();
    for batch in 0..batches {
        obs::set_batch(batch);
        layers.time("sim.reset_s", || sim.reset(seed));
        let allocs = crate::alloc::thread_allocs();
        layers.time("worldgen.materialize_s", || {
            let _ = plan.materialize_bucket(&mut sim, &buckets, batch);
        });
        layers.add(
            "worldgen.allocs",
            crate::alloc::thread_allocs().wrapping_sub(allocs) as f64,
        );
        let hash_batch = HashBatch {
            seed,
            index: batch,
            batches,
        };
        let batch_order: Vec<u64> = layers.time("zscan.order_s", || {
            shard_order
                .iter()
                .copied()
                .filter(|&ix| hash_batch.contains(space.addr_at(ix)))
                .collect()
        });
        let out = traced_partition(
            cfg,
            &mut sim,
            HashShard {
                seed,
                index,
                shards,
            },
            Some(hash_batch),
            Some(batch_order),
            &mut layers,
        );
        entries += listing_entries(&out.records);
        layers.time("analysis.fold_s", || {
            aggregate.fold_scan(out.ips_scanned, out.open_port);
            for r in &out.records {
                aggregate.fold_record(r, out.bounce_hits.contains(&r.ip), Some(plan.registry()));
            }
            for o in out.http.values() {
                aggregate.fold_http(o.powered_by.is_some());
            }
        });
        obs::counter(Counter::HttpObservations, out.http.len() as u64);

        lines.clear();
        layers.time("journal.render_s", || obs::drain_journal(&mut lines));
        layers.add("journal.lines", lines.len() as f64);
        layers.add(
            "journal.bytes",
            lines.iter().map(|l| l.len() as f64 + 1.0).sum(),
        );
        layers
            .time("journal.write_s", || {
                let mut out = journal.out.lock().expect("journal lock poisoned");
                lines.iter().try_for_each(|line| {
                    out.write_all(line.as_bytes())?;
                    out.write_all(b"\n")
                })
            })
            .map_err(|e| format!("journal write: {e}"))?;

        if let Some(dir) = &opts.checkpoint_dir {
            layers
                .time("checkpoint.save_s", || {
                    Checkpoint {
                        config: fingerprint,
                        shard: index,
                        shards,
                        batches,
                        next_batch: batch + 1,
                        aggregate: aggregate.clone(),
                    }
                    .save(dir)
                })
                .map_err(|e| format!("checkpoint: {e}"))?;
            let bytes = std::fs::metadata(dir.join(Checkpoint::file_name(index)))
                .map_err(|e| format!("checkpoint size: {e}"))?
                .len();
            layers.add("checkpoint.bytes", bytes as f64);
        }
    }
    harvest_wheel(&sim);
    Ok((aggregate, layers, entries))
}
