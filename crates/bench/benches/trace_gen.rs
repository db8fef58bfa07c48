//! Trace-generation and engine-on-store perf record (`BENCH_3.json`).
//!
//! Times three things on the reference `medium` scenario (18 000 users,
//! ≈ 117 K sessions):
//!
//! 1. **Trace generation** — the parallel per-item pipeline at 1/2/8
//!    workers against the recorded pre-optimization serial baseline
//!    (measured at commit 583f985 on the development machine, best-of-3
//!    after warm-up, like every baseline in this record);
//! 2. **Columnarisation** — `SessionStore::from_trace`, the once-per-trace
//!    cost sweeps amortise across scenarios;
//! 3. **Engine on store** — `Simulator::simulate(&store)` on the prebuilt store at
//!    1 and 8 threads against the engine wall-times recorded in
//!    `BENCH_2.json` (no engine-path regression allowed).
//!
//! The combined record lands in `BENCH_3.json` at the workspace root
//! (schema `consume-local/bench-v1`); CI's `bench-quick` job regenerates it
//! with `CL_SWEEP_QUICK=1` (best-of-3 instead of 5, same workloads) and
//! fails if quick wall-times regress > 25 % against the committed record.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use consume_local::export::json::JsonValue;
use consume_local::prelude::*;
use consume_local::trace::SessionStore;

/// Seed of the reference scenario (same as `sweep_engine` / `BENCH_2.json`).
const SEED: u64 = 2018;

/// Serial `TraceGenerator::generate` wall-time for the `medium` preset at
/// the pre-optimization baseline commit (583f985), measured on the
/// development machine: best-of-3 after warm-up.
const BASELINE_GENERATE_MS: f64 = 24.3;

/// Engine baselines for the store-replaying engine: the
/// `engine_hot_path.runs[]` wall-times of `BENCH_2.json` at the workspace
/// root (same machine/seed/preset), read rather than hard-coded so the
/// reference moves whenever `sweep_engine` regenerates that record.
fn baseline_engine_ms() -> Vec<(usize, Option<f64>)> {
    let path = consume_local_bench::workspace_root().join("BENCH_2.json");
    let runs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| {
            let runs = doc.get("engine_hot_path")?.get("runs")?.as_array()?;
            runs.iter()
                .map(|run| {
                    let threads = run.get("threads")?.as_f64()? as usize;
                    let wall_ms = run.get("wall_ms")?.as_f64()?;
                    Some((threads, Some(wall_ms)))
                })
                .collect::<Option<Vec<_>>>()
        });
    runs.unwrap_or_else(|| {
        eprintln!(
            "  [warn] no engine baselines in {} — recording unbaselined runs",
            path.display()
        );
        vec![(1, None), (8, None)]
    })
}

fn timed_reps() -> usize {
    // Quick mode still takes a best-of-3: a 25 % regression gate sits on
    // these numbers, and a single rep is one scheduler hiccup away from a
    // false alarm.
    if std::env::var("CL_SWEEP_QUICK").is_ok() {
        3
    } else {
        5
    }
}

/// Best-of-N wall time (ms) after one warm-up call.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(ms);
    }
    best
}

fn speedup_json(s: Option<f64>) -> JsonValue {
    s.map_or(JsonValue::Null, JsonValue::Num)
}

fn trace_gen_record(reps: usize) -> (JsonValue, Trace) {
    let config = ScalePreset::Medium.apply(TraceConfig::london_sep2013());
    let users = config.users;
    println!("\n=== Trace generation (medium preset, {users} users) ===");
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let generator = TraceGenerator::new(config.clone(), SEED).workers(workers);
        let wall_ms = best_of(reps, || generator.generate().expect("valid preset"));
        let speedup = consume_local::analytics::sweep::speedup(BASELINE_GENERATE_MS, wall_ms);
        println!(
            "workers={workers}: {wall_ms:.1} ms (serial baseline {BASELINE_GENERATE_MS:.1} ms, {}× speedup)",
            speedup.map_or("?".into(), |s| format!("{s:.2}"))
        );
        runs.push(
            JsonValue::object()
                .field("workers", workers)
                .field("wall_ms", wall_ms)
                .field("baseline_serial_ms", BASELINE_GENERATE_MS)
                .field("speedup", speedup_json(speedup)),
        );
    }
    let trace = TraceGenerator::new(config, SEED)
        .generate()
        .expect("valid preset");
    let doc = JsonValue::object()
        .field("preset", "medium")
        .field("seed", SEED)
        .field("users", u64::from(users))
        .field("sessions", trace.sessions().len())
        .field("runs", runs);
    (doc, trace)
}

fn columnarize_record(reps: usize, trace: &Trace) -> (JsonValue, SessionStore) {
    let wall_ms = best_of(reps, || SessionStore::from_trace(trace));
    println!("columnarize: {wall_ms:.2} ms (once per trace, shared across sweep scenarios)");
    let store = SessionStore::from_trace(trace);
    let doc = JsonValue::object()
        .field("wall_ms", wall_ms)
        .field("sessions", store.len());
    (doc, store)
}

fn engine_on_store_record(reps: usize, store: &SessionStore) -> JsonValue {
    println!("=== Engine on store ({} sessions) ===", store.len());
    let mut runs = Vec::new();
    for (threads, baseline_ms) in baseline_engine_ms() {
        let sim = Simulator::new(SimConfig {
            threads,
            ..Default::default()
        });
        let wall_ms = best_of(reps, || sim.simulate(store));
        let speedup =
            baseline_ms.and_then(|b| consume_local::analytics::sweep::speedup(b, wall_ms));
        println!(
            "threads={threads}: {wall_ms:.1} ms (BENCH_2 engine {} ms, {}×)",
            baseline_ms.map_or("?".into(), |b| format!("{b:.1}")),
            speedup.map_or("?".into(), |s| format!("{s:.2}"))
        );
        runs.push(
            JsonValue::object()
                .field("threads", threads)
                .field("wall_ms", wall_ms)
                .field(
                    "baseline_wall_ms",
                    baseline_ms.map_or(JsonValue::Null, JsonValue::Num),
                )
                .field("speedup", speedup_json(speedup)),
        );
    }
    JsonValue::object()
        .field(
            "scenario",
            "medium/london5/hierarchical/isp+bitrate/dt10/q1",
        )
        .field("baseline_source", "BENCH_2.json engine_hot_path")
        .field("runs", runs)
}

fn write_bench_record() {
    let quick = std::env::var("CL_SWEEP_QUICK").is_ok();
    let reps = timed_reps();
    let (trace_gen, trace) = trace_gen_record(reps);
    let (columnarize, store) = columnarize_record(reps, &trace);
    let engine = engine_on_store_record(reps, &store);
    let doc = JsonValue::object()
        .field("schema", "consume-local/bench-v1")
        .field("pr", 3u64)
        .field("quick", quick)
        .field("baseline_commit", "583f985")
        .field("trace_gen", trace_gen)
        .field("columnarize", columnarize)
        .field("engine_on_store", engine);
    let path = consume_local_bench::workspace_root().join("BENCH_3.json");
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
    let config = ScalePreset::Smoke.apply(TraceConfig::london_sep2013());
    let serial = TraceGenerator::new(config.clone(), SEED);
    let parallel = TraceGenerator::new(config, SEED).workers(8);
    let trace = serial.generate().expect("valid preset");
    let store = SessionStore::from_trace(&trace);
    let sim = Simulator::new(SimConfig {
        threads: 1,
        ..Default::default()
    });
    let mut group = c.benchmark_group("trace_gen");
    group.sample_size(10);
    group.bench_function("generate_smoke_serial", |b| b.iter(|| serial.generate()));
    group.bench_function("generate_smoke_w8", |b| b.iter(|| parallel.generate()));
    group.bench_function("columnarize_smoke", |b| {
        b.iter(|| SessionStore::from_trace(&trace))
    });
    group.bench_function("engine_store_smoke_t1", |b| b.iter(|| sim.simulate(&store)));
    group.finish();
}

criterion_group!(group, benches);
criterion_main!(group);
