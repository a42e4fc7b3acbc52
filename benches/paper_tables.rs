//! One benchmark per table/figure of the paper: each prints the
//! regenerated artifact once, then measures the cost of rendering it
//! from the aggregate fold (or, for the record-only artifacts, from the
//! enumeration records and per-AS tallies).
//!
//! Run with `cargo bench --bench paper_tables`. The printed tables are
//! the reproduction's evaluation output; the timing shows each analysis
//! is cheap relative to data collection.

use analysis::{ases, bounce, campaigns, cve, exposure, fingerprint, ftps, writable};
use criterion::{criterion_group, criterion_main, Criterion};
use ftp_study::{aggregate_of, run_study, tables, StudyConfig, StudyResults};
use std::hint::black_box;
use std::sync::OnceLock;

fn study() -> &'static StudyResults {
    static STUDY: OnceLock<StudyResults> = OnceLock::new();
    STUDY.get_or_init(|| {
        eprintln!("[bench] building the shared study world (once)…");
        run_study(&StudyConfig::small(20_160, 1_200))
    })
}

/// Prints one regenerated artifact, then times rendering it.
fn bench_render(c: &mut Criterion, id: &str, render: impl Fn() -> String) {
    println!("{}", render());
    c.bench_function(id, |b| b.iter(|| black_box(render())));
}

fn tables_bench(c: &mut Criterion) {
    let s = study();
    // The shared artifacts render from one aggregate fold, as in
    // `full_report`; the fold itself is timed separately.
    c.bench_function("aggregate_of", |b| b.iter(|| black_box(aggregate_of(black_box(s)))));
    let agg = &aggregate_of(s);
    let tallies = &tables::as_tallies(s);
    let registry = &s.truth.registry;
    bench_render(c, "table01_funnel", || tables::table01_funnel(black_box(agg)));
    bench_render(c, "table02_classes", || tables::table02_classes(black_box(agg)));
    bench_render(c, "table03_as50", || tables::table03_as50(black_box(tallies), registry));
    bench_render(c, "table04_embedded", || tables::table04_device_classes(black_box(agg)));
    bench_render(c, "table05_provider", || tables::table05_07_devices(black_box(agg), true));
    bench_render(c, "table06_topas", || tables::table06_top_ases(black_box(tallies), registry));
    bench_render(c, "table07_standalone", || tables::table05_07_devices(black_box(agg), false));
    bench_render(c, "table08_ext", || tables::table08_extensions(black_box(agg)));
    bench_render(c, "table09_sensitive", || tables::table09_sensitive(black_box(agg)));
    bench_render(c, "table10_breakout", || tables::table10_breakout(black_box(s)));
    bench_render(c, "table11_cve", || tables::table11_cves(black_box(agg)));
    bench_render(c, "table12_certs", || tables::table12_certs(black_box(s)));
    bench_render(c, "table13_devcerts", || tables::table13_device_certs(black_box(s)));
    bench_render(c, "fig01_cdf", || tables::fig01_cdf(black_box(tallies)));
    bench_render(c, "sec6_campaigns", || tables::section6_malice(black_box(agg)));
    bench_render(c, "sec7_bounce", || tables::section7_bounce(black_box(agg)));
    bench_render(c, "sec9_ftps", || tables::section9_ftps(black_box(s)));
}

/// Raw analysis kernels (no rendering) — where the analytic time goes.
fn kernels_bench(c: &mut Criterion) {
    let s = study();
    c.bench_function("kernel_classify_all", |b| {
        b.iter(|| {
            black_box(fingerprint::class_breakdown(black_box(&s.records)));
        })
    });
    c.bench_function("kernel_sensitive_scan", |b| {
        b.iter(|| black_box(exposure::sensitive_exposure(black_box(&s.records))))
    });
    c.bench_function("kernel_writable_scan", |b| {
        b.iter(|| black_box(writable::detect(black_box(&s.records), None)))
    });
    c.bench_function("kernel_campaign_scan", |b| {
        b.iter(|| black_box(campaigns::detect(black_box(&s.records))))
    });
    c.bench_function("kernel_cve_match", |b| {
        b.iter(|| black_box(cve::table(black_box(&s.records))))
    });
    c.bench_function("kernel_cert_dedup", |b| {
        b.iter(|| black_box(ftps::summarize(black_box(&s.records))))
    });
    c.bench_function("kernel_bounce_join", |b| {
        b.iter(|| black_box(bounce::summarize(black_box(&s.records), black_box(&s.bounce_hits))))
    });
    let wr = writable::detect(&s.records, Some(&s.truth.registry));
    c.bench_function("kernel_as_cdf", |b| {
        b.iter(|| {
            let t = ases::tally_by_as(&s.records, &s.truth.registry, &wr.servers);
            black_box(ases::cdf_series(&t, |t| t.ftp))
        })
    });
}

/// The §VIII honeypot experiment.
fn honeypot_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec8_honeypot");
    g.sample_size(10);
    g.bench_function("8pots_90days", |b| {
        b.iter(|| black_box(ftp_study::run_honeypot_experiment(7, 8, 90)))
    });
    // Print the regenerated §VIII report once.
    let report = ftp_study::run_honeypot_experiment(7, 8, 90);
    println!("SECTION VIII (measured): {report:#?}");
    g.finish();
}

fn configured() -> Criterion {
    Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = tables_bench, kernels_bench, honeypot_bench
}
criterion_main!(benches);
