//! `capacity_sweep`: the paper's Fig. 2 savings-vs-capacity grid (both
//! matchers × the upload ratios `q/β` of [`Fig2Options`]) run by
//! `SweepRunner` in its shared-store mode with `nproc` workers. Many small concurrent runs over
//! one store: the engine is reached by scenario-level fan-out, so a change
//! that speeds one large run by slowing many small ones shows here.

use consume_local::energy::EnergyParams;
use consume_local::figures::Fig2Options;
use consume_local::sim::checkpoint::fnv1a;
use consume_local::sim::par::parallel_map;
use consume_local::sim::{SimReport, Simulator};
use consume_local::swarm::{MatcherKind, SwarmPolicy};
use consume_local::sweep::{
    Scenario, ScenarioOutcome, SweepConfig, SweepGrid, SweepReport, SweepRunner, TopologyPreset,
};
use consume_local::trace::{ScalePreset, SessionStore, TraceGenerator};
// lint:allow(no-wall-clock) the benchmark times the program from outside
use std::time::Instant;

use super::{ms, swarm_extras, Bench, Extras, Iteration};
use crate::gate::{check_invariants, check_report, Tally};
use crate::spans::Tracer;

pub(super) struct CapacitySweep {
    runner: SweepRunner,
    config: SweepConfig,
    users: u64,
    sessions: u64,
    /// Each scenario simulated on its own over the trace's day segments.
    reference: Vec<SimReport>,
}

/// Checks a sweep outcome against the full report of the same scenario.
fn check_outcome(
    outcome: &ScenarioOutcome,
    reference: &SimReport,
    users: u64,
    sessions: u64,
) -> Result<(), String> {
    let total = &reference.total;
    let expected = ScenarioOutcome {
        scenario: outcome.scenario,
        users,
        sessions,
        swarms: reference.swarms.len() as u64,
        demand_bytes: total.demand_bytes,
        server_bytes: total.server_bytes,
        cache_bytes: total.cache_bytes,
        preload_bytes: total.preload_bytes,
        peer_bytes_by_layer: total.peer_bytes_by_layer,
        offload_share: total.offload_share(),
        savings_valancius: reference.total_savings(&EnergyParams::valancius()),
        savings_baliga: reference.total_savings(&EnergyParams::baliga()),
        wall_ms: outcome.wall_ms,
    };
    if *outcome == expected {
        Ok(())
    } else {
        Err(format!(
            "{outcome:?} differs from its reference {expected:?}"
        ))
    }
}

impl CapacitySweep {
    pub(super) fn setup(preset: ScalePreset, seed: u64, threads: usize, tally: &mut Tally) -> Self {
        let config = SweepConfig {
            grid: SweepGrid {
                presets: vec![preset],
                topologies: vec![TopologyPreset::LondonTop5],
                matchers: vec![MatcherKind::Hierarchical, MatcherKind::Random],
                policies: vec![SwarmPolicy::paper_default()],
                window_secs: vec![10],
                upload_ratios: Fig2Options::default().ratios,
                churn_rates: vec![0.0],
                cooperation: vec![1.0],
            },
            seed,
            workers: threads,
            sim_threads: 1,
            trace_workers: None,
            segmented: false,
            spill: true,
        };
        let runner = SweepRunner::new(config.clone()).expect("the grid is valid");
        let scenarios = runner.scenarios().to_vec();
        let days = TraceGenerator::new(scenarios[0].trace_config(), seed)
            .workers(threads)
            .generate_segmented()
            .expect("preset trace configs are valid");
        let reference = parallel_map(scenarios.len(), threads, |i| {
            Simulator::new(scenarios[i].sim_config(seed, 1)).simulate(&days)
        });
        for report in &reference {
            tally.note(
                "reference report",
                check_invariants(report, days.len() as u64),
            );
        }
        Self {
            runner,
            config,
            users: days.population_len() as u64,
            sessions: days.len() as u64,
            reference,
        }
    }

    fn check(&self, sweep: &SweepReport, tally: &mut Tally) {
        tally.note(
            "scenario count",
            if sweep.outcomes.len() == self.reference.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} outcomes for {} scenarios",
                    sweep.outcomes.len(),
                    self.reference.len()
                ))
            },
        );
        for (outcome, reference) in sweep.outcomes.iter().zip(&self.reference) {
            tally.note(
                "scenario",
                check_outcome(outcome, reference, self.users, self.sessions),
            );
        }
    }

    fn scenarios(&self) -> &[Scenario] {
        self.runner.scenarios()
    }
}

fn digest(sweep: &SweepReport) -> u64 {
    fnv1a(sweep.to_json_deterministic().render().as_bytes())
}

impl Bench for CapacitySweep {
    fn facts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenarios", self.scenarios().len().to_string()),
            ("batches", self.scenarios().len().to_string()),
            ("engine_threads", self.config.workers.to_string()),
            ("producer_threads", "0".into()),
        ]
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn iterate(&mut self, tally: &mut Tally, want_digest: bool) -> Iteration {
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let sweep = self.runner.run();
        self.check(&sweep, tally);
        // lint:allow(no-wall-clock) iteration end
        let end = Instant::now();
        Iteration {
            run_s: ms(start, end) / 1e3,
            ticks_ms: sweep.outcomes.iter().map(|o| o.wall_ms).collect(),
            digest: want_digest.then(|| digest(&sweep)),
        }
    }

    fn iterate_traced(
        &mut self,
        tracer: &mut Tracer,
        req: u64,
        tally: &mut Tally,
    ) -> (Iteration, Extras) {
        let root = tracer.enter("bench.iteration", req);
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let sweep = tracer.time("sweep.run", req, || self.runner.run());
        tracer.time("bench.check", req, || self.check(&sweep, tally));
        // lint:allow(no-wall-clock) iteration end
        let end = Instant::now();

        // Each grid point's simulation on the shared store, one span per
        // scenario: the slowest sets the sweep's time.
        let scenarios = self.scenarios();
        let seed = self.config.seed;
        let trace = tracer.time("trace.generate", req, || {
            TraceGenerator::new(scenarios[0].trace_config(), seed)
                .workers(self.config.workers)
                .generate()
                .expect("preset trace configs are valid")
        });
        let store = tracer.time("trace.columnarise", req, || {
            SessionStore::from_trace(&trace)
        });
        drop(trace);
        let origin = tracer.origin();
        let runs = parallel_map(scenarios.len(), self.config.workers, |i| {
            let mut spans = Tracer::new(origin);
            let scenario = spans.enter("sweep.scenario", i as u64);
            let sim = Simulator::new(scenarios[i].sim_config(seed, 1));
            let mut run = sim.begin(store.horizon_secs(), store.population_len());
            spans.time("engine.push_batch", i as u64, || {
                run.push_batch(&store, u64::MAX)
            });
            let report = spans.time("engine.finish", i as u64, || run.finish_days(|_| {}));
            spans.exit(scenario);
            (spans, report)
        });
        let mut reports = Vec::with_capacity(runs.len());
        for (spans, report) in runs {
            tracer.adopt(spans, Some(root));
            reports.push(report);
        }
        for (report, reference) in reports.iter().zip(&self.reference) {
            tally.note(
                "scenario report",
                check_report(report, reference, self.sessions),
            );
        }
        tracer.exit(root);
        let mut extras = swarm_extras(&reports.iter().collect::<Vec<_>>());
        extras.push(("trace.sessions", self.sessions as f64));
        let iteration = Iteration {
            run_s: ms(start, end) / 1e3,
            ticks_ms: sweep.outcomes.iter().map(|o| o.wall_ms).collect(),
            digest: Some(digest(&sweep)),
        };
        (iteration, extras)
    }
}
