//! Online ingest engine perf record (`BENCH_6.json`).
//!
//! PR 7 lands the online serving mode: sessions arrive through a bounded
//! channel with backpressure and watermarks cut the stream into batches
//! the engine simulates while it is still open (`consume_local_sim::online`).
//! This bench records the cost of that arrangement against the batch path
//! it must reproduce byte for byte:
//!
//! 1. **Batch reference** — `Simulator::simulate(&store)` on the `medium`
//!    preset (18 000 users / ≈ 117 K sessions) at 1, 2 and 8 threads; the
//!    same scenario BENCH_2 gates, so the two records stay comparable.
//! 2. **Max-throughput replay** — `online::replay` over the same store
//!    with hourly watermark ticks and the default 1024-envelope channel:
//!    the sustained events/sec mode where only backpressure throttles the
//!    producer. Each thread count's `wall_ms` is gated by CI's
//!    `bench_guard` (committed anchor + run-over-run); the derived
//!    `events_per_sec` figure rides along ungated.
//!
//! Every replay's report is asserted byte-identical to the batch reference
//! before the record is written — a perf record of a wrong answer would be worse than none.
//!
//! The record lands in `BENCH_6.json` at the workspace root (schema
//! `consume-local/bench-v1`); CI's `bench-quick` job regenerates it with
//! `CL_SWEEP_QUICK=1` and gates the `wall_ms` entries.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use consume_local::export::json::JsonValue;
use consume_local::prelude::*;
use consume_local::sim::online::{self, ReplayConfig};
use consume_local::trace::SessionStore;
use consume_local_bench::workspace_root;

/// Seed of the reference scenario (same as `sweep_engine` / BENCH_2).
const SEED: u64 = 2018;

/// Worker counts the online path must hold its throughput at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn timed_reps() -> usize {
    // Multi-rep even in quick mode: these numbers are gated, and a single
    // rep is one scheduler hiccup away from a false alarm.
    if std::env::var("CL_SWEEP_QUICK").is_ok() {
        2
    } else {
        3
    }
}

/// Best-of-N wall time (ms) plus the last repetition's output, after one
/// warm-up call.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let _ = f();
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

fn online_vs_batch(reps: usize) -> JsonValue {
    let config = ScalePreset::Medium.apply(TraceConfig::london_sep2013());
    let users = config.users;
    let trace = TraceGenerator::new(config, SEED)
        .generate()
        .expect("valid preset");
    let store = SessionStore::from_trace(&trace);
    let sessions = store.len();
    let replay_config = ReplayConfig::default(); // max throughput, hourly ticks
    println!("\n=== Online ingest vs batch ({users} users, {sessions} sessions) ===");
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let sim = Simulator::new(SimConfig {
            threads,
            ..Default::default()
        });
        let (batch_ms, expect) = timed(reps, || sim.simulate(&store));
        let (wall_ms, streamed) = timed(reps, || online::replay(&sim, &store, &replay_config));
        let (report, stats) = streamed;
        assert_eq!(
            report, expect,
            "online replay must be byte-identical to the batch report at {threads} threads"
        );
        assert_eq!(stats.events, sessions as u64);
        let events_per_sec = stats.events as f64 / (wall_ms / 1e3);
        println!(
            "threads={threads}: batch {batch_ms:.1} ms, online {wall_ms:.1} ms \
             ({events_per_sec:.0} events/s, {} watermarks, {} day closes)",
            stats.watermarks, stats.days_closed
        );
        runs.push(
            JsonValue::object()
                .field("threads", threads)
                .field("wall_ms", wall_ms)
                .field("batch_wall_ms", batch_ms)
                .field("events_per_sec", events_per_sec)
                .field("watermarks", stats.watermarks)
                .field("days_closed", stats.days_closed),
        );
    }
    JsonValue::object()
        .field(
            "scenario",
            "medium/london5/hierarchical/isp+bitrate/dt10/q1",
        )
        .field("seed", SEED)
        .field("users", u64::from(users))
        .field("sessions", sessions)
        .field("tick_secs", replay_config.tick_secs)
        .field("capacity", replay_config.capacity)
        .field("runs", runs)
}

fn write_bench_record() {
    let quick = std::env::var("CL_SWEEP_QUICK").is_ok();
    let doc = JsonValue::object()
        .field("schema", "consume-local/bench-v1")
        .field("pr", 7u64)
        .field("quick", quick)
        .field("baseline_commit", "785bb7a")
        .field("online_replay", online_vs_batch(timed_reps()));
    let path = workspace_root().join("BENCH_6.json");
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
    let trace = TraceGenerator::new(
        ScalePreset::Smoke.apply(TraceConfig::london_sep2013()),
        SEED,
    )
    .generate()
    .expect("valid preset");
    let store = SessionStore::from_trace(&trace);
    let sim = Simulator::new(SimConfig {
        threads: 1,
        ..Default::default()
    });
    let config = ReplayConfig::default();
    let mut group = c.benchmark_group("online_engine");
    group.sample_size(10);
    group.bench_function("replay_smoke_t1", |b| {
        b.iter(|| online::replay(&sim, &store, &config))
    });
    group.finish();
}

criterion_group!(group, benches);
criterion_main!(group);
