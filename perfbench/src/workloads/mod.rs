//! The four workloads. Each one is set up from the seed, then iterated: an
//! untraced iteration times the workload's public entry point, a traced one
//! drives the same layers call by call under [`Tracer`] spans and must
//! produce the same output.

use std::path::Path;

use consume_local::sim::{SessionSource, SimReport};
use consume_local::trace::{ScalePreset, SessionStore, TraceConfig};
// lint:allow(no-wall-clock) the benchmark times the program from outside
use std::time::Instant;

use crate::gate::Tally;
use crate::spans::Tracer;

mod daily;
mod month;
mod online;
mod sweep;

/// A workload name, as `--workload` takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generate a month, columnarise it and simulate it as one batch.
    MonthOneshot,
    /// Stream the month hour by hour through the online channel on an
    /// open-loop tick schedule.
    OnlineHourly,
    /// Generate and simulate day by day with a snapshot at every day close,
    /// then restore the newest snapshot and finish it.
    DailyCheckpointed,
    /// A savings-vs-capacity sweep grid on one shared store.
    CapacitySweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MonthOneshot,
        Workload::OnlineHourly,
        Workload::DailyCheckpointed,
        Workload::CapacitySweep,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MonthOneshot => "month_oneshot",
            Workload::OnlineHourly => "online_hourly",
            Workload::DailyCheckpointed => "daily_checkpointed",
            Workload::CapacitySweep => "capacity_sweep",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Smoke` keeps the
/// benchmark's own self-test fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Medium months (≈18 K users, ≈118 K sessions); small ones (≈4 K
    /// users, ≈23 K sessions) for the sweep and week-long ones at the small
    /// preset's daily load (≈5.5 K sessions) for the online workload.
    Full,
    /// Smoke traces (≈1 K users, ≈7 K sessions).
    Smoke,
}

impl Scale {
    /// The trace preset `workload` replays.
    pub fn preset(self, workload: Workload) -> ScalePreset {
        match (self, workload) {
            (Scale::Smoke, _) => ScalePreset::Smoke,
            (Scale::Full, Workload::OnlineHourly | Workload::CapacitySweep) => ScalePreset::Small,
            (Scale::Full, _) => ScalePreset::Medium,
        }
    }

    /// The fewest traces a run takes, whatever its `--seconds`.
    pub fn min_traces(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Smoke => 2,
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Seconds from the first input to the checked output.
    pub run_s: f64,
    /// Latency of each tick: the unit of output the workload's user waits
    /// for (see [`Bench`]).
    pub ticks_ms: Vec<f64>,
    /// Digest of the output, when asked for.
    pub digest: Option<u64>,
}

/// Per-layer values a traced iteration reports beside its spans (counts
/// and modelled statistics that no span carries).
pub type Extras = Vec<(&'static str, f64)>;

/// A set-up workload.
///
/// A tick is the unit of output the workload's user waits for: the whole
/// checked month (`month_oneshot`), one hourly watermark from the time it
/// was due (`online_hourly`), one durable day close (`daily_checkpointed`)
/// and one scenario (`capacity_sweep`).
pub trait Bench {
    /// Facts about the inputs and threads: batches, engine and producer
    /// threads.
    fn facts(&self) -> Vec<(&'static str, String)>;

    /// Sessions in the trace.
    fn sessions(&self) -> u64;

    /// One untraced iteration through the workload's public entry point.
    fn iterate(&mut self, tally: &mut Tally, want_digest: bool) -> Iteration;

    /// One traced iteration: the same work driven call by call, with spans
    /// under a `bench.iteration` root for request `req`.
    fn iterate_traced(
        &mut self,
        tracer: &mut Tracer,
        req: u64,
        tally: &mut Tally,
    ) -> (Iteration, Extras);
}

/// Builds a workload on the trace of one seed, checking the reference outputs made on
/// the way into `tally`. `work_dir` holds the files a workload writes.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    threads: usize,
    work_dir: &Path,
    tally: &mut Tally,
) -> Box<dyn Bench> {
    let preset = scale.preset(workload);
    match workload {
        Workload::MonthOneshot => {
            Box::new(month::MonthOneshot::setup(preset, seed, threads, tally))
        }
        Workload::OnlineHourly => {
            Box::new(online::OnlineHourly::setup(preset, seed, threads, tally))
        }
        Workload::DailyCheckpointed => Box::new(daily::DailyCheckpointed::setup(
            preset, seed, threads, work_dir, tally,
        )),
        Workload::CapacitySweep => {
            Box::new(sweep::CapacitySweep::setup(preset, seed, threads, tally))
        }
    }
}

/// Wraps a source so each batch's completion (the engine's sink returned)
/// is stamped: the online tick and day-close latencies end there.
struct Stamped<'a, S> {
    inner: S,
    // lint:allow(no-wall-clock) batch completion stamps
    done: &'a mut Vec<Instant>,
}

impl<S: SessionSource> SessionSource for Stamped<'_, S> {
    fn horizon_secs(&self) -> u64 {
        self.inner.horizon_secs()
    }

    fn population_len(&self) -> usize {
        self.inner.population_len()
    }

    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        let done = self.done;
        self.inner.for_each_batch(&mut |batch, watermark| {
            sink(batch, watermark);
            // lint:allow(no-wall-clock) completion stamp of the batch just simulated
            done.push(Instant::now());
        });
    }
}

/// The London trace configuration at `preset` scale.
fn trace_config(preset: ScalePreset) -> TraceConfig {
    preset.apply(TraceConfig::london_sep2013())
}

/// Milliseconds from `from` to `to`.
// lint:allow(no-wall-clock) converts two stamps to a latency
fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The `swarm.*` statistics of a set of reports: what the matcher achieved,
/// which a pure speed change must leave exactly equal.
fn swarm_extras(reports: &[&SimReport]) -> Extras {
    let swarms: usize = reports.iter().map(|r| r.swarms.len()).sum();
    let (mut active, mut peer_windows, mut peer, mut demand) = (0u64, 0u64, 0u64, 0u64);
    for r in reports {
        active += r.total.active_windows;
        peer_windows += r.total.peer_windows;
        peer += r.total.peer_bytes();
        demand += r.total.demand_bytes;
    }
    vec![
        ("swarm.swarms", swarms as f64),
        ("swarm.active_windows", active as f64),
        (
            "swarm.peer_window_ratio",
            peer_windows as f64 / active.max(1) as f64,
        ),
        ("swarm.offload_share", peer as f64 / demand.max(1) as f64),
    ]
}
