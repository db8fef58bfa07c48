//! `month_oneshot`: generate the month, columnarise it and simulate it as
//! one final batch at `nproc` engine threads, then price it under both
//! energy models. Stresses trace synthesis, the one-shot per-swarm fan-out
//! and the report merge; leaves the incremental path, the channel and
//! checkpointing idle.

use consume_local::energy::EnergyParams;
use consume_local::sim::{SimConfig, SimReport, Simulator};
use consume_local::trace::{ScalePreset, SessionStore, TraceGenerator};
// lint:allow(no-wall-clock) the benchmark times the program from outside
use std::time::Instant;

use super::{ms, swarm_extras, trace_config, Bench, Extras, Iteration};
use crate::gate::{check_invariants, check_report, digest, Tally};
use crate::spans::Tracer;

pub(super) struct MonthOneshot {
    generator: TraceGenerator,
    sim: Simulator,
    sessions: u64,
    /// The same month fed as day segments.
    reference: SimReport,
}

impl MonthOneshot {
    pub(super) fn setup(preset: ScalePreset, seed: u64, threads: usize, tally: &mut Tally) -> Self {
        let generator = TraceGenerator::new(trace_config(preset), seed).workers(threads);
        let sim = Simulator::new(SimConfig {
            seed,
            threads,
            ..SimConfig::default()
        });
        let days = generator
            .generate_segmented()
            .expect("preset trace configs are valid");
        let reference = sim.simulate(&days);
        tally.note(
            "reference report",
            check_invariants(&reference, days.len() as u64),
        );
        Self {
            generator,
            sim,
            sessions: days.len() as u64,
            reference,
        }
    }

    fn check(&self, report: &SimReport, sessions: usize, tally: &mut Tally) {
        tally.note(
            "report",
            check_report(report, &self.reference, sessions as u64),
        );
        for params in [EnergyParams::valancius(), EnergyParams::baliga()] {
            let savings = report.total_savings(&params);
            tally.note(
                "savings",
                match savings {
                    Some(s) if s > 0.0 && s < 1.0 => Ok(()),
                    other => Err(format!("savings {other:?} outside (0, 1)")),
                },
            );
        }
    }

    fn generate(&self) -> SessionStore {
        let trace = self
            .generator
            .generate()
            .expect("preset trace configs are valid");
        SessionStore::from_trace(&trace)
    }
}

impl Bench for MonthOneshot {
    fn facts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("batches", "1".into()),
            ("engine_threads", self.sim.config().threads.to_string()),
            ("producer_threads", "0".into()),
        ]
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn iterate(&mut self, tally: &mut Tally, want_digest: bool) -> Iteration {
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let store = self.generate();
        let report = self.sim.simulate(&store);
        self.check(&report, store.len(), tally);
        // lint:allow(no-wall-clock) iteration end
        let run_ms = ms(start, Instant::now());
        Iteration {
            run_s: run_ms / 1e3,
            ticks_ms: vec![run_ms],
            digest: want_digest.then(|| digest(&report)),
        }
    }

    fn iterate_traced(
        &mut self,
        tracer: &mut Tracer,
        req: u64,
        tally: &mut Tally,
    ) -> (Iteration, Extras) {
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let root = tracer.enter("bench.iteration", req);
        let trace = tracer.time("trace.generate", req, || {
            self.generator
                .generate()
                .expect("preset trace configs are valid")
        });
        let store = tracer.time("trace.columnarise", req, || {
            SessionStore::from_trace(&trace)
        });
        drop(trace);
        // `Simulator::simulate(&store)`, call by call.
        let mut run = self.sim.begin(store.horizon_secs(), store.population_len());
        tracer.time("engine.push_batch", req, || {
            run.push_batch(&store, u64::MAX)
        });
        let report = tracer.time("engine.finish", req, || run.finish_days(|_| {}));
        tracer.time("bench.check", req, || {
            self.check(&report, store.len(), tally)
        });
        tracer.exit(root);
        // lint:allow(no-wall-clock) iteration end
        let run_ms = ms(start, Instant::now());
        let mut extras = swarm_extras(&[&report]);
        extras.push(("trace.sessions", store.len() as f64));
        let iteration = Iteration {
            run_s: run_ms / 1e3,
            ticks_ms: vec![run_ms],
            digest: Some(digest(&report)),
        };
        (iteration, extras)
    }
}
