//! Columnar-engine and parallel-merge perf record (`BENCH_4.json`).
//!
//! Times the two PR-4 wins plus the newly affordable `large` preset:
//!
//! 1. **Engine on store** — `Simulator::simulate(&store)` with the fully columnar
//!    window loop (SoA active set feeding `match_window_into` slices
//!    directly) on the reference `medium` scenario at 1 and 8 threads,
//!    against the engine wall-times recorded in `BENCH_3.json`
//!    (pre-columnar loop, measured at baseline commit d26db11);
//! 2. **Merge phase** — `merge_session_batches` (the hour-bucketed scatter +
//!    per-bucket key sorts, ~40 % of generation wall-time) at
//!    1/2/8 workers, speedups against the in-run serial measurement — the
//!    per-bucket sorts fan out over disjoint bucket slices via
//!    `parallel_map_slices`, byte-identical for any worker count;
//! 3. **Large preset** — end-to-end generate (8 workers), columnarise and
//!    simulate (8 threads) at the `large` scale (≈ 180 K users / 1.2 M
//!    sessions), the first time this preset is cheap enough for a tracked
//!    record. Its fields are deliberately named `*_wall_ms` rather than
//!    `wall_ms` so the bench_guard gate skips them: quick mode times the
//!    large preset once (seconds per rep), which is affordability tracking,
//!    not a gateable kernel measurement.
//!
//! The combined record lands in `BENCH_4.json` at the workspace root
//! (schema `consume-local/bench-v1`); CI's `bench-quick` job regenerates it
//! with `CL_SWEEP_QUICK=1` and gates it **run-over-run** against the
//! previous CI run's artifact (`CL_BENCH_PREV`), falling back to the
//! committed record.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use consume_local::export::json::JsonValue;
use consume_local::prelude::*;
use consume_local::trace::{merge_session_batches, SessionRecord, SessionStore};

/// Seed of the reference scenario (same as `trace_gen` / `BENCH_3.json`).
const SEED: u64 = 2018;

/// Engine baselines for the columnar window loop: the
/// `engine_on_store.runs[]` wall-times of the committed `BENCH_3.json`
/// (pre-columnar loop, same machine/seed/preset), read rather than
/// hard-coded so the reference moves whenever `trace_gen` regenerates that
/// record.
fn baseline_engine_ms() -> Vec<(usize, Option<f64>)> {
    let path = consume_local_bench::workspace_root().join("BENCH_3.json");
    let runs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| {
            let runs = doc.get("engine_on_store")?.get("runs")?.as_array()?;
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
    // Quick mode still takes a best-of-3: a regression gate sits on these
    // numbers, and a single rep is one scheduler hiccup away from a false
    // alarm.
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

/// Best-of-N without a warm-up call, returning the last repetition's output
/// — for the `large` preset, where every repetition costs seconds, the
/// first run warms the allocator enough, and the timed artifact is reused
/// downstream instead of being regenerated.
fn timed_cold<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(ms);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

fn speedup_json(s: Option<f64>) -> JsonValue {
    s.map_or(JsonValue::Null, JsonValue::Num)
}

fn engine_on_store_record(reps: usize, store: &SessionStore) -> JsonValue {
    println!(
        "\n=== Columnar engine on store ({} sessions) ===",
        store.len()
    );
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
            "threads={threads}: {wall_ms:.1} ms (BENCH_3 engine {} ms, {}×)",
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
        .field("baseline_source", "BENCH_3.json engine_on_store")
        .field("runs", runs)
}

fn merge_phase_record(reps: usize, trace: &Trace) -> JsonValue {
    // Rebuild the merge input the generator's synthesis phase emits:
    // per-item session batches in catalogue order.
    let items = trace.catalogue().len();
    let mut per_item: Vec<Vec<SessionRecord>> = vec![Vec::new(); items];
    for s in trace.sessions() {
        per_item[s.content.0 as usize].push(*s);
    }
    println!(
        "=== Merge phase ({} sessions, {} item batches) ===",
        trace.sessions().len(),
        items
    );
    let serial_ms = best_of(reps, || merge_session_batches(&per_item, 1));
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let wall_ms = if workers == 1 {
            serial_ms
        } else {
            best_of(reps, || merge_session_batches(&per_item, workers))
        };
        let speedup = consume_local::analytics::sweep::speedup(serial_ms, wall_ms);
        println!(
            "workers={workers}: {wall_ms:.2} ms (serial {serial_ms:.2} ms, {}×)",
            speedup.map_or("?".into(), |s| format!("{s:.2}"))
        );
        runs.push(
            JsonValue::object()
                .field("workers", workers)
                .field("wall_ms", wall_ms)
                .field("baseline_serial_ms", serial_ms)
                .field("speedup", speedup_json(speedup)),
        );
    }
    JsonValue::object()
        .field("preset", "medium")
        .field("sessions", trace.sessions().len())
        .field("runs", runs)
}

fn large_preset_record(quick: bool) -> JsonValue {
    // One timed repetition in quick mode, two otherwise: the large preset
    // costs seconds per pass, and this entry tracks affordability, not a
    // tight kernel.
    let reps = if quick { 1 } else { 2 };
    let config = ScalePreset::Large.apply(TraceConfig::london_sep2013());
    let users = config.users;
    println!("=== Large preset ({users} users) ===");
    let generator = TraceGenerator::new(config, SEED).workers(8);
    let (generate_ms, trace) = timed_cold(reps, || generator.generate().expect("valid preset"));
    let (columnarize_ms, store) = timed_cold(reps, || SessionStore::from_trace(&trace));
    let sim = Simulator::new(SimConfig {
        threads: 8,
        ..Default::default()
    });
    let (simulate_ms, _) = timed_cold(reps, || sim.simulate(&store));
    println!(
        "generate(w8)={generate_ms:.0} ms columnarize={columnarize_ms:.0} ms \
         engine(t8)={simulate_ms:.0} ms ({} sessions)",
        store.len()
    );
    JsonValue::object()
        .field("preset", "large")
        .field("seed", SEED)
        .field("users", u64::from(users))
        .field("sessions", store.len())
        .field("generate_workers", 8u64)
        .field("engine_threads", 8u64)
        .field("generate_wall_ms", generate_ms)
        .field("columnarize_wall_ms", columnarize_ms)
        .field("engine_wall_ms", simulate_ms)
}

fn write_bench_record() {
    let quick = std::env::var("CL_SWEEP_QUICK").is_ok();
    let reps = timed_reps();
    let config = ScalePreset::Medium.apply(TraceConfig::london_sep2013());
    let trace = TraceGenerator::new(config, SEED)
        .generate()
        .expect("valid preset");
    let store = SessionStore::from_trace(&trace);
    let engine = engine_on_store_record(reps, &store);
    let merge = merge_phase_record(reps, &trace);
    let large = large_preset_record(quick);
    let doc = JsonValue::object()
        .field("schema", "consume-local/bench-v1")
        .field("pr", 4u64)
        .field("quick", quick)
        .field("baseline_commit", "d26db11")
        .field("engine_on_store", engine)
        .field("merge_phase", merge)
        .field("large_preset", large);
    let path = consume_local_bench::workspace_root().join("BENCH_4.json");
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
    let trace = TraceGenerator::new(config, SEED)
        .generate()
        .expect("valid preset");
    let mut per_item: Vec<Vec<SessionRecord>> = vec![Vec::new(); trace.catalogue().len()];
    for s in trace.sessions() {
        per_item[s.content.0 as usize].push(*s);
    }
    let store = SessionStore::from_trace(&trace);
    let sim = Simulator::new(SimConfig {
        threads: 1,
        ..Default::default()
    });
    let mut group = c.benchmark_group("columnar_engine");
    group.sample_size(10);
    group.bench_function("engine_store_smoke_t1", |b| b.iter(|| sim.simulate(&store)));
    group.bench_function("merge_smoke_serial", |b| {
        b.iter(|| merge_session_batches(&per_item, 1))
    });
    group.bench_function("merge_smoke_w8", |b| {
        b.iter(|| merge_session_batches(&per_item, 8))
    });
    group.finish();
}

criterion_group!(group, benches);
criterion_main!(group);
