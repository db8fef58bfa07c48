//! Self-test of the benchmark at smoke scale: every workload runs in both
//! modes and prints every declared metric with its unit, the correctness
//! gate trips on tampered reports, and the sources pass the workspace lint.

use std::path::Path;
use std::process::Command;

use consume_local::sim::{SimConfig, SimReport, Simulator};
use consume_local::trace::{ScalePreset, SessionStore, TraceConfig, TraceGenerator};
use perfbench::gate::{check_invariants, check_report};
use perfbench::workloads::Workload;
use perfbench::{per_layer, END_TO_END, WALL_CLOCK};

/// Runs one smoke-scale benchmark and returns its stdout and exit status.
fn run(workload: Workload, trace: bool) -> (String, bool) {
    run_for(workload, trace, "0")
}

/// Like [`run`], measuring for `seconds`.
fn run_for(workload: Workload, trace: bool, seconds: &str) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{workload:?} wrote to stderr: {stderr}");
    (stdout, out.status.success())
}

/// Asserts the result line reports `name` as a finite number in `unit`.
fn assert_metric(line: &str, name: &str, unit: &str) {
    let key = format!(r#""{name}": {{"value": "#);
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let (value, rest) = rest.split_once(", ").expect("value, then unit");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("{name}: {value} is not a number"));
    assert!(value.is_finite(), "{name} = {value}");
    assert!(
        rest.starts_with(&format!(r#""unit": "{unit}"}}"#)),
        "{name} unit: {rest}"
    );
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (stdout, ok) = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(ok, "{workload:?} trace={trace} failed:\n{stdout}");
            assert!(
                last.starts_with(r#"{"correct": true, "attempted": "#),
                "{last}"
            );
            assert!(last.contains(r#""failed": 0, "metrics": {"#), "{last}");
            let declared: Vec<(&str, &str)> = if trace {
                per_layer().collect()
            } else {
                END_TO_END.to_vec()
            };
            for (name, unit) in &declared {
                assert_metric(last, name, unit);
            }
            assert_eq!(
                last.matches(r#""unit": "#).count(),
                declared.len(),
                "{last}"
            );
            assert!(stdout.contains(r#""available_parallelism": "#), "{stdout}");
            let first = stdout.lines().next().expect("a facts line");
            for (name, unit) in WALL_CLOCK {
                assert_metric(first, name, unit);
            }
        }
    }
}

/// The value of metric `name` on a result line.
fn metric_value(line: &str, name: &str) -> String {
    let key = format!(r#""{name}": {{"value": "#);
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    rest[..rest.find(',').expect("value, then unit")].to_string()
}

/// A traced smoke run of `month_oneshot` for `seconds`: its result line and
/// how many traces it reached.
fn traced_month(seconds: &str) -> (String, String) {
    let (stdout, ok) = run_for(Workload::MonthOneshot, true, seconds);
    assert!(ok, "failed:\n{stdout}");
    let traces = stdout
        .split_once(r#""traces": ""#)
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(n, _)| n.to_string())
        .expect("the traces fact");
    let last = stdout.lines().last().expect("a result line").to_string();
    (last, traces)
}

#[test]
fn traced_swarm_counts_repeat_across_runs_of_one_seed() {
    let (first, few) = traced_month("0");
    // A longer run, until it reaches more traces than the first.
    let (second, more) = ["3", "8", "20"]
        .into_iter()
        .map(traced_month)
        .find(|(_, more)| *more != few)
        .expect("a longer run reaches more traces");
    for (name, _) in per_layer().filter(|(name, _)| name.starts_with("swarm.")) {
        assert_eq!(
            metric_value(&first, name),
            metric_value(&second, name),
            "{name} after {few} and {more} traces"
        );
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = END_TO_END.into_iter().chain(per_layer());
    for (name, unit) in declared {
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "#);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!(r#"{{"name": "{}", "why": "#, workload.name())));
    }
}

/// A named change to a sound report.
type Tampering = (&'static str, fn(&mut SimReport));

fn smoke_report(seed: u64) -> (SimReport, u64) {
    let config = ScalePreset::Smoke.apply(TraceConfig::london_sep2013());
    let trace = TraceGenerator::new(config, seed)
        .generate()
        .expect("valid config");
    let store = SessionStore::from_trace(&trace);
    let report = Simulator::new(SimConfig::default()).simulate(&store);
    (report, store.len() as u64)
}

#[test]
fn the_gate_trips_on_tampered_reports() {
    let (reference, sessions) = smoke_report(5);
    check_report(&reference, &reference, sessions).expect("the untouched report passes");

    let tamperings: [Tampering; 6] = [
        ("a user's watched bytes", |r| r.users[0].watched_bytes += 1),
        ("a daily cell", |r| r.daily[0].ledger.active_windows += 1),
        ("a swarm's session count", |r| r.swarms[0].sessions += 1),
        ("a swarm ledger", |r| r.swarms[0].ledger.peer_windows += 1),
        ("server bytes", |r| r.total.server_bytes -= 1),
        ("a capacity", |r| r.swarms[0].capacity += 1.0),
    ];
    for (what, tamper) in tamperings {
        let mut report = reference.clone();
        tamper(&mut report);
        assert!(
            check_report(&report, &reference, sessions).is_err(),
            "tampering with {what} went unnoticed"
        );
    }
    assert!(
        check_invariants(&reference, sessions + 1).is_err(),
        "a lost session went unnoticed"
    );

    let (other, other_sessions) = smoke_report(6);
    check_invariants(&other, other_sessions).expect("another seed's report is sound");
    assert!(check_report(&other, &reference, other_sessions).is_err());
}

#[test]
fn sources_pass_the_workspace_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = consume_local_lint::lint_workspace(root).expect("the sources are readable");
    assert!(report.files_scanned > 0);
    let findings: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.join("\n")
    );
}
