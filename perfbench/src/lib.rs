//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! derives a sequence of traces from the seed and takes them one at a
//! time for about `--seconds`: it sets the workload up on the trace, runs
//! one iteration on it, checks the output against the correctness gate in
//! [`gate`] and drops the trace. Traces differ in cost (the popularity draw
//! decides how large the swarms grow), so a run reports means and medians
//! over many of them. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it give
//! the host facts, the wall-clock figures and a readable table.
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]).
//! * `--trace 1` follows each untraced iteration with a traced one that
//!   drives the same layers call by call under [`spans`], checks that both
//!   produce byte-identical outputs, and reports the per-layer metrics
//!   ([`per_layer`]). The spans are written to
//!   `.perfbench/spans-<workload>-<seed>.jsonl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod host;
pub mod spans;
pub mod workloads;

use std::ops::Range;
use std::path::PathBuf;
// lint:allow(no-wall-clock) the benchmark times the program from outside
use std::time::{Duration, Instant};

use gate::Tally;
use spans::{Span, Tracer};
use workloads::{Extras, Iteration, Scale, Workload};

/// Where runs keep their scratch files and spans, relative to the working
/// directory.
pub const OUT_DIR: &str = ".perfbench";

/// The end-to-end metrics, `(name, unit)`, that untraced runs report and
/// `BENCHMARK.json` bounds:
///
/// * `cpu_s`: CPU time the process spends per iteration, from the
///   iteration's first input (its seed or first event) to its checked
///   output: user and system time over all its threads, mean over the
///   iterations;
/// * `setup_s`: CPU time of one trace's set-up: generating it and building
///   its reference outputs through another feeding shape; mean over the
///   run's traces;
/// * `peak_rss_mb`: the process's peak resident set during an iteration
///   (`VmHWM`, reset before each, while only that trace's set-up state is
///   resident); median over the iterations.
///
/// Times are CPU times because the wall-clock ones ([`WALL_CLOCK`]) follow
/// the host: on a shared host the hypervisor gives this host's cores to
/// other guests for 0–25 % of the time (steal), shifting from one minute
/// to the next, and a two-thread iteration waits for whichever core is
/// taken. CPU time leaves the stolen time out.
pub const END_TO_END: [(&str, &str); 3] = [("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Wall-clock figures, `(name, unit)`, that every run prints beside its
/// metrics without a bound, because stolen time moves them (see
/// [`END_TO_END`]):
///
/// * `run_s`: wall time from an iteration's first input to its checked
///   output; median over the iterations. On `online_hourly` the open-loop
///   schedule sets it (the last tick is due 167/125 s after the first);
/// * `setup_wall_s`: wall time of one trace's set-up; median;
/// * `tick_latency_p50_ms`, `tick_latency_p98_ms`: percentiles over every
///   tick of the run (a tick is the unit of output the workload's user
///   waits for; see [`workloads::Bench`]). The tail also follows the seed:
///   it is set by the few hours in which a trace's most popular items draw
///   large swarms, and how many such hours a trace has varies widely.
pub const WALL_CLOCK: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_wall_s", "s"),
    ("tick_latency_p50_ms", "ms"),
    ("tick_latency_p98_ms", "ms"),
];

/// How a per-layer metric is derived from a traced run.
#[derive(Debug, Clone, Copy)]
enum Derive {
    /// Total duration of the named spans in an iteration.
    Sum(&'static str),
    /// Number of the named spans in an iteration.
    Count(&'static str),
    /// Longest of the named spans in an iteration.
    Max(&'static str),
    /// Percentile of the named spans' durations over the whole run.
    Pooled(&'static str, f64),
    /// Total self time of the layer's spans in an iteration.
    SelfTime(&'static str),
    /// A count or modelled statistic the workload reports beside its
    /// spans, from the run's first trace: how many traces a run reaches
    /// depends on the host's speed, its first trace does not, so runs of
    /// one seed repeat these exactly.
    Extra,
    /// Traced minus untraced median iteration time.
    Overhead,
}

/// The per-layer metrics, `(name, unit, derivation)`, reported by traced
/// runs. Per-iteration values are reported as their median over the run.
const LAYERS: &[(&str, &str, Derive)] = &[
    ("trace.generate_ms", "ms", Derive::Sum("trace.generate")),
    (
        "trace.columnarise_ms",
        "ms",
        Derive::Sum("trace.columnarise"),
    ),
    ("trace.segment_ms", "ms", Derive::Sum("trace.segment")),
    ("trace.sessions", "count", Derive::Extra),
    ("trace.self_ms", "ms", Derive::SelfTime("trace")),
    (
        "engine.push_batch_ms",
        "ms",
        Derive::Sum("engine.push_batch"),
    ),
    (
        "engine.push_batch_count",
        "count",
        Derive::Count("engine.push_batch"),
    ),
    (
        "engine.push_batch_p50_ms",
        "ms",
        Derive::Pooled("engine.push_batch", 50.0),
    ),
    (
        "engine.push_batch_p98_ms",
        "ms",
        Derive::Pooled("engine.push_batch", 98.0),
    ),
    (
        "engine.drain_days_ms",
        "ms",
        Derive::Sum("engine.drain_days"),
    ),
    ("engine.finish_ms", "ms", Derive::Sum("engine.finish")),
    ("engine.self_ms", "ms", Derive::SelfTime("engine")),
    (
        "online.send_blocked_ms",
        "ms",
        Derive::Sum("online.send_sessions"),
    ),
    ("online.watermark_ms", "ms", Derive::Sum("online.watermark")),
    (
        "online.batch_wait_ms",
        "ms",
        Derive::Sum("online.batch_wait"),
    ),
    (
        "loadgen.late_p50_ms",
        "ms",
        Derive::Pooled("loadgen.late", 50.0),
    ),
    (
        "loadgen.late_max_ms",
        "ms",
        Derive::Pooled("loadgen.late", 100.0),
    ),
    ("checkpoint.note_ms", "ms", Derive::Sum("checkpoint.note")),
    ("checkpoint.count", "count", Derive::Extra),
    ("checkpoint.bytes", "bytes", Derive::Extra),
    (
        "checkpoint.serialize_ms",
        "ms",
        Derive::Sum("checkpoint.serialize"),
    ),
    (
        "checkpoint.restore_ms",
        "ms",
        Derive::Sum("checkpoint.restore"),
    ),
    ("sweep.run_ms", "ms", Derive::Sum("sweep.run")),
    ("sweep.scenarios", "count", Derive::Count("sweep.scenario")),
    (
        "sweep.scenario_p50_ms",
        "ms",
        Derive::Pooled("sweep.scenario", 50.0),
    ),
    ("sweep.scenario_max_ms", "ms", Derive::Max("sweep.scenario")),
    ("sweep.self_ms", "ms", Derive::SelfTime("sweep")),
    ("swarm.swarms", "count", Derive::Extra),
    ("swarm.active_windows", "count", Derive::Extra),
    ("swarm.peer_window_ratio", "ratio", Derive::Extra),
    ("swarm.offload_share", "ratio", Derive::Extra),
    ("bench.self_ms", "ms", Derive::SelfTime("bench")),
    ("tracing.overhead_ms", "ms", Derive::Overhead),
];

/// The per-layer metric names and units, in output order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    LAYERS.iter().map(|&(name, unit, _)| (name, unit))
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time per run, after set-up.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// The accepted command line.
pub const USAGE: &str = "usage: perfbench --workload <month_oneshot|online_hourly|\
daily_checkpointed|capacity_sweep> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]";

impl Options {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut scale = Scale::Full;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(if s.is_finite() && s >= 0.0 {
                        s
                    } else {
                        return Err(bad());
                    });
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "smoke" => Scale::Smoke,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
        })
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The metrics, end-to-end or per-layer by the run's mode.
    pub metrics: Vec<Metric>,
    /// The wall-clock figures ([`WALL_CLOCK`]).
    pub wall_clock: Vec<Metric>,
    /// Host and input facts.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The facts and the wall-clock figures as one JSON object.
    pub fn facts_json(&self) -> String {
        let fields: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| {
                format!(
                    r#""{k}": "{}""#,
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!(
            r#"{{"host": {{{}}}, "wall_clock": {}}}"#,
            fields.join(", "),
            metrics_json(&self.wall_clock)
        )
    }
}

/// Metrics as a JSON object of `{"value": .., "unit": ..}` entries.
fn metrics_json(metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted samples;
/// `NaN` without samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A traced iteration: its measurement, its extras and its spans' range in
/// the recording.
struct TracedIteration {
    iteration: Iteration,
    extras: Extras,
    spans: Range<usize>,
}

/// Runs the benchmark.
///
/// # Errors
///
/// Environment failures: the scratch directory or the CPU-time or peak-RSS
/// interface is unavailable. Failed operations are not errors; they are
/// counted in the outcome's tally.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let threads = host::available_parallelism();
    let work_dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("cannot create {work_dir:?}: {e}"))?;
    let result = measure(opts, threads, &work_dir);
    // The run's snapshots are scratch; a leftover directory is only litter.
    let _ = std::fs::remove_dir_all(&work_dir);
    let (tally, metrics, wall_clock, mut facts) = result?;
    let mut all = vec![
        ("available_parallelism", threads.to_string()),
        ("rustc", host::rustc_version()),
        ("commit", host::commit()),
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("scale", format!("{:?}", opts.scale)),
    ];
    all.append(&mut facts);
    Ok(Outcome {
        tally,
        metrics,
        wall_clock,
        facts: all,
    })
}

type Measured = (Tally, Vec<Metric>, Vec<Metric>, Vec<(&'static str, String)>);

/// The seed of the `j`-th trace a run replays: distinct across runs with
/// distinct `--seed`s.
fn trace_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(TRACES_PER_RUN_MAX as u64)
        .wrapping_add(j as u64)
}

/// Upper bound on the traces one run replays (see [`trace_seed`]).
const TRACES_PER_RUN_MAX: usize = 64;

fn measure(opts: &Options, threads: usize, work_dir: &std::path::Path) -> Result<Measured, String> {
    let mut tally = Tally::default();
    // One trace at a time: set it up, run one iteration on it and drop it
    // before the next, so only one trace's set-up state is resident while
    // an iteration runs. A new trace starts only if it is expected to end
    // by the deadline.
    // lint:allow(no-wall-clock) the run measures for --seconds
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(opts.seconds);
    let (mut setup_s, mut setup_wall_s) = (0.0, Vec::new());
    let mut untraced: Vec<Iteration> = Vec::new();
    let (mut rss_mb, mut rss_before_mb) = (Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    let host_ticks = host::host_ticks();
    let mut traced: Vec<TracedIteration> = Vec::new();
    let mut tracer = Tracer::new(origin);
    let mut facts = Vec::new();
    let mut sessions = 0;
    for j in 0..TRACES_PER_RUN_MAX {
        let dir = work_dir.join(j.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let cpu_before = host::cpu_s()?;
        // lint:allow(no-wall-clock) set-up time
        let start = Instant::now();
        let mut bench = workloads::setup(
            opts.workload,
            opts.scale,
            trace_seed(opts.seed, j),
            threads,
            &dir,
            &mut tally,
        );
        setup_wall_s.push(start.elapsed().as_secs_f64());
        setup_s += host::cpu_s()? - cpu_before;
        if j == 0 {
            facts = bench.facts();
        }
        sessions += bench.sessions();
        if opts.trace {
            let plain = bench.iterate(&mut tally, true);
            let from = tracer.spans().len();
            let req = traced.len() as u64;
            let (iteration, extras) = bench.iterate_traced(&mut tracer, req, &mut tally);
            tally.note(
                "traced output",
                if iteration.digest == plain.digest {
                    Ok(())
                } else {
                    Err(format!(
                        "traced output {:x?} differs from untraced {:x?}",
                        iteration.digest, plain.digest
                    ))
                },
            );
            untraced.push(plain);
            traced.push(TracedIteration {
                iteration,
                extras,
                spans: from..tracer.spans().len(),
            });
        } else {
            host::reset_peak_rss()?;
            rss_before_mb.push(host::rss_mb()?);
            let cpu_before = host::cpu_s()?;
            untraced.push(bench.iterate(&mut tally, false));
            cpu_s += host::cpu_s()? - cpu_before;
            rss_mb.push(host::peak_rss_mb()?);
        }
        drop(bench);
        // The trace's snapshots are scratch; a leftover file is only litter.
        let _ = std::fs::remove_dir_all(&dir);
        // lint:allow(no-wall-clock) deadline check
        let now = Instant::now();
        if j + 1 >= opts.scale.min_traces() && now + (now - start) > deadline {
            break;
        }
    }
    facts.push(("traces", untraced.len().to_string()));
    facts.push(("sessions", sessions.to_string()));
    if let Some(digest) = untraced[0].digest {
        facts.push(("output_digest", format!("{digest:016x}")));
    }
    let ticks: Vec<f64> = untraced
        .iter()
        .flat_map(|i| i.ticks_ms.iter().copied())
        .collect();
    facts.push(("ticks", ticks.len().to_string()));
    let run_s: Vec<f64> = untraced.iter().map(|i| i.run_s).collect();
    let wall_clock = WALL_CLOCK
        .iter()
        .zip([
            median(&run_s),
            median(&setup_wall_s),
            percentile(&ticks, 50.0),
            percentile(&ticks, 98.0),
        ])
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    if let (Some(before), Some(after)) = (host_ticks, host::host_ticks()) {
        facts.push((
            "host_steal_share",
            format!("{:.4}", before.steal_share(&after)),
        ));
    }

    let metrics = if opts.trace {
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        spans::write_jsonl(tracer.spans(), &path)
            .map_err(|e| format!("cannot write spans to {path:?}: {e}"))?;
        facts.push(("spans", path.display().to_string()));
        layer_metrics(tracer.spans(), &traced, &untraced)
    } else {
        facts.push((
            "rss_before_iteration_mb",
            format!("{:.3}", median(&rss_before_mb)),
        ));
        let iterations = untraced.len() as f64;
        let values = [
            cpu_s / iterations,
            setup_s / setup_wall_s.len() as f64,
            median(&rss_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    for m in &metrics {
        tally.note(
            m.name,
            if m.value.is_finite() {
                Ok(())
            } else {
                Err("not a finite number")
            },
        );
    }
    Ok((tally, metrics, wall_clock, facts))
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    spans: &[Span],
    traced: &[TracedIteration],
    untraced: &[Iteration],
) -> Vec<Metric> {
    let self_ms = spans::self_time_ms(spans);
    let per_iteration = |value: &dyn Fn(&TracedIteration) -> f64| -> f64 {
        median(&traced.iter().map(value).collect::<Vec<_>>())
    };
    let durations = |t: &TracedIteration, name: &str| -> Vec<f64> {
        spans[t.spans.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let extra = |t: &TracedIteration, name: &str| -> f64 {
        t.extras
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .sum()
    };
    LAYERS
        .iter()
        .map(|&(name, unit, derive)| {
            let value = match derive {
                Derive::Sum(span) => {
                    per_iteration(&|t| durations(t, span).iter().sum::<f64>() + extra(t, name))
                }
                Derive::Count(span) => per_iteration(&|t| durations(t, span).len() as f64),
                Derive::Max(span) => {
                    per_iteration(&|t| durations(t, span).into_iter().fold(0.0, f64::max))
                }
                Derive::Pooled(span, p) => {
                    let all: Vec<f64> = traced.iter().flat_map(|t| durations(t, span)).collect();
                    if all.is_empty() {
                        0.0
                    } else {
                        percentile(&all, p)
                    }
                }
                Derive::SelfTime(layer) => per_iteration(&|t| {
                    t.spans
                        .clone()
                        .filter(|&i| spans[i].layer() == layer)
                        .map(|i| self_ms[i])
                        .sum()
                }),
                Derive::Extra => extra(&traced[0], name),
                Derive::Overhead => {
                    let traced_s: Vec<f64> = traced.iter().map(|t| t.iteration.run_s).collect();
                    let untraced_s: Vec<f64> = untraced.iter().map(|i| i.run_s).collect();
                    (median(&traced_s) - median(&untraced_s)) * 1e3
                }
            };
            Metric { name, unit, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 50.0), 2.5);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn options_need_every_contract_argument() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts = Options::parse(args(
            "--workload online_hourly --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(opts.workload, Workload::OnlineHourly);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 10.0, true));
        assert_eq!(opts.scale, Scale::Full);
        assert!(Options::parse(args("--workload online_hourly --seed 7 --seconds 10")).is_err());
        assert!(Options::parse(args("--workload nope --seed 7 --seconds 1 --trace 0")).is_err());
        assert!(Options::parse(args(
            "--workload month_oneshot --seed 7 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
