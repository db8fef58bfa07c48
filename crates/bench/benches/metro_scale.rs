//! Metro-scale sharded-run perf record (`BENCH_8.json`).
//!
//! Runs past 4 M users: quiescent swarm state spills to frozen form, and
//! the metro presets (`consume_local::trace::metro`) compose several
//! city-scale workloads with disjoint id ranges so a run can be
//! **sharded by city** (= by swarm) and folded back byte-identically
//! through `Simulator::simulate_sharded`. This bench records:
//!
//! 1. **Small metro, gated** — a 3-city composition at 1/500 city scale:
//!    the union-stream end-to-end pass vs the sequential sharded pass,
//!    multi-rep, byte-identity asserted. These entries use plain `wall_ms`
//!    field names, so CI's `bench_guard` gates them like every other
//!    kernel.
//! 2. **Ten-million preset, affordability** — `MetroConfig::ten_million()`
//!    (5 cities × 0.6-scale London ≈ 10.8 M users, > 2²² per-user ids on
//!    every session): one sharded end-to-end pass and one union-stream
//!    pass, reports asserted **byte-identical before the record is
//!    written**. Fields are named `*_wall_ms` so the gate skips them (a
//!    single rep of a minutes-long run is affordability tracking, not a
//!    gateable kernel). The sharded pass's `sharded_peak_rss_mb` is the
//!    scale headline: only one city's engine state is ever resident, so a
//!    10.8 M-user month fits the full-London RSS envelope.
//!
//! Both sections record per-pipeline peak RSS (`VmHWM`, best-effort
//! watermark reset between pipelines). The record lands in `BENCH_8.json`
//! at the workspace root (schema `consume-local/bench-v1`); CI's
//! `bench-quick` job regenerates it with `CL_SWEEP_QUICK=1` and gates the
//! `wall_ms` entries against the committed record and, run-over-run, the
//! previous CI artifact. Set `CL_BENCH_SKIP_FULL=1` to omit the
//! ten-million pass locally (the guard skips missing entries).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use consume_local::export::json::JsonValue;
use consume_local::prelude::*;
use consume_local::trace::metro::{MetroConfig, MetroTrace};
use consume_local_bench::{peak_rss_mb, reset_peak_rss, workspace_root};

/// Seed of the reference scenarios (same as the other perf records).
const SEED: u64 = 2018;

/// Generation workers / engine threads (part of the recorded
/// configuration, as in `BENCH_5.json`).
const WORKERS: usize = 8;

fn timed_reps() -> usize {
    // Multi-rep even in quick mode: these numbers are gated, and a single
    // rep is one scheduler hiccup away from a false alarm.
    if std::env::var("CL_SWEEP_QUICK").is_ok() {
        2
    } else {
        3
    }
}

/// Best-of-N without a warm-up call, returning the last repetition's
/// output; the previous repetition is dropped before the next one builds
/// so the recorded peak-RSS readings stay unbiased.
fn timed_cold<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(ms);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

fn rss_json(mb: Option<f64>) -> JsonValue {
    mb.map_or(JsonValue::Null, JsonValue::Num)
}

/// One sharded end-to-end pass: every city simulated in turn, reports
/// folded through the commutative merge.
fn run_sharded(metro: &MetroTrace, sim: &Simulator) -> SimReport {
    sim.simulate_sharded(
        metro
            .shard_streams()
            .expect("valid metro config")
            .iter_mut()
            .map(|s| &mut *s),
    )
    .expect("city shards partition the swarm space")
}

/// One union-stream end-to-end pass: all cities merged day by day.
fn run_union(metro: &MetroTrace, sim: &Simulator) -> SimReport {
    sim.simulate(&mut metro.stream().expect("valid metro config"))
}

/// The gated small-metro section: union vs sharded end-to-end passes,
/// byte-identity asserted, per-pipeline peak RSS.
fn metro_gated(reps: usize) -> JsonValue {
    let config = MetroConfig::five_city()
        .with_cities(3)
        .city_scaled(0.002)
        .expect("valid scale");
    let users = config.users();
    let cities = config.cities;
    println!("\n=== Small metro, gated ({cities} cities, {users} users) ===");
    let metro = MetroTrace::new(config, SEED)
        .expect("valid metro config")
        .workers(WORKERS);
    let sim = Simulator::new(SimConfig {
        threads: WORKERS,
        ..Default::default()
    });

    reset_peak_rss();
    let (union_ms, union_report) = timed_cold(reps, || run_union(&metro, &sim));
    let union_peak = peak_rss_mb();

    reset_peak_rss();
    let (sharded_ms, sharded_report) = timed_cold(reps, || run_sharded(&metro, &sim));
    let sharded_peak = peak_rss_mb();

    // The acceptance bar for the whole sharded mode: identical bytes.
    assert_eq!(
        sharded_report, union_report,
        "sharded metro report must be byte-identical to the union stream"
    );
    let sessions: u64 = union_report.swarms.iter().map(|s| s.sessions).sum();

    println!(
        "union={union_ms:.0} ms sharded={sharded_ms:.0} ms \
         ({sessions} sessions, {} swarms)",
        union_report.swarms.len()
    );
    println!(
        "peak RSS: union {} MB, sharded {} MB",
        union_peak.map_or("?".into(), |m| format!("{m:.0}")),
        sharded_peak.map_or("?".into(), |m| format!("{m:.0}")),
    );
    JsonValue::object()
        .field("preset", "metro-small")
        .field("seed", SEED)
        .field("cities", u64::from(cities))
        .field("users", users)
        .field("sessions", sessions)
        .field(
            "union_end_to_end",
            JsonValue::object()
                .field("threads", WORKERS)
                .field("wall_ms", union_ms),
        )
        .field(
            "sharded_end_to_end",
            JsonValue::object()
                .field("threads", WORKERS)
                .field("wall_ms", sharded_ms),
        )
        .field("union_peak_rss_mb", rss_json(union_peak))
        .field("sharded_peak_rss_mb", rss_json(sharded_peak))
}

/// The ungated ten-million affordability entry: the ≥ 10 M-user metro
/// month end to end, sharded then union, byte-identity asserted.
fn ten_million_record() -> JsonValue {
    let config = MetroConfig::ten_million();
    let users = config.users();
    let cities = config.cities;
    println!("\n=== Ten-million preset, affordability ({cities} cities, {users} users) ===");
    assert!(users > 10_000_000, "the preset must clear 10 M users");
    let metro = MetroTrace::new(config, SEED)
        .expect("valid metro config")
        .workers(WORKERS);
    let sim = Simulator::new(SimConfig {
        threads: WORKERS,
        ..Default::default()
    });

    // Sharded first: its watermark is the scale headline (one city's
    // engine state resident at a time).
    reset_peak_rss();
    let start = Instant::now();
    let sharded_report = run_sharded(&metro, &sim);
    let sharded_ms = start.elapsed().as_secs_f64() * 1e3;
    let sharded_peak = peak_rss_mb();

    reset_peak_rss();
    let start = Instant::now();
    let union_report = run_union(&metro, &sim);
    let union_ms = start.elapsed().as_secs_f64() * 1e3;
    let union_peak = peak_rss_mb();

    assert_eq!(
        sharded_report, union_report,
        "10.8 M-user sharded report must be byte-identical to the union stream"
    );
    let sessions: u64 = union_report.swarms.iter().map(|s| s.sessions).sum();
    let offload = union_report.total.offload_share();

    println!(
        "sharded={:.1} s union={:.1} s ({sessions} sessions, {} swarms)",
        sharded_ms / 1e3,
        union_ms / 1e3,
        union_report.swarms.len()
    );
    println!(
        "peak RSS: sharded {} MB, union {} MB | offload {:.1}%",
        sharded_peak.map_or("?".into(), |m| format!("{m:.0}")),
        union_peak.map_or("?".into(), |m| format!("{m:.0}")),
        offload * 100.0,
    );
    JsonValue::object()
        .field("preset", "metro-ten-million")
        .field("seed", SEED)
        .field("cities", u64::from(cities))
        .field("users", users)
        .field("sessions", sessions)
        .field("stream_workers", WORKERS)
        .field("engine_threads", WORKERS)
        .field("sharded_end_to_end_wall_ms", sharded_ms)
        .field("union_end_to_end_wall_ms", union_ms)
        .field("sharded_peak_rss_mb", rss_json(sharded_peak))
        .field("union_peak_rss_mb", rss_json(union_peak))
        .field("swarms", union_report.swarms.len())
        .field("offload_share", offload)
}

fn write_bench_record() {
    let quick = std::env::var("CL_SWEEP_QUICK").is_ok();
    let reps = timed_reps();
    let gated = metro_gated(reps);
    let mut doc = JsonValue::object()
        .field("schema", "consume-local/bench-v1")
        .field("pr", 10u64)
        .field("quick", quick)
        .field("baseline_commit", "7abab86")
        .field("metro_gated", gated);
    if std::env::var("CL_BENCH_SKIP_FULL").is_err() {
        doc = doc.field("ten_million", ten_million_record());
    } else {
        println!("\n[skip] CL_BENCH_SKIP_FULL set — omitting the ten-million pass");
    }
    let path = workspace_root().join("BENCH_8.json");
    // Hard-fail on a write error: CI's regression gate reads this file next,
    // and silently keeping the committed copy would make the gate compare
    // the baseline against itself.
    match consume_local::export::write_text(&path, &(doc.render() + "\n")) {
        Ok(()) => println!("  [json] {}", path.display()),
        Err(e) => panic!("failed to write {}: {e}", path.display()),
    }
}

fn benches(c: &mut Criterion) {
    write_bench_record();
    // Criterion kernels at smoke scale so the timed closures stay short.
    let metro = MetroTrace::new(
        MetroConfig::five_city()
            .with_cities(2)
            .city_scaled(0.0005)
            .expect("valid scale"),
        SEED,
    )
    .expect("valid metro config");
    let sim = Simulator::new(SimConfig {
        threads: 1,
        ..Default::default()
    });
    let mut group = c.benchmark_group("metro_scale");
    group.sample_size(10);
    group.bench_function("metro_union_smoke_t1", |b| {
        b.iter(|| run_union(&metro, &sim))
    });
    group.bench_function("metro_sharded_smoke_t1", |b| {
        b.iter(|| run_sharded(&metro, &sim))
    });
    group.finish();
}

criterion_group!(group, benches);
criterion_main!(group);
