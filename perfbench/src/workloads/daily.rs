//! `daily_checkpointed`: generate the month one day segment at a time,
//! simulate it with a crash-safe snapshot at every day close, then restore
//! the newest snapshot and finish it. Thirty fsynced snapshot writes and a
//! restore share the run with daily synthesis and the engine's spill. The
//! iteration keeps one day of the trace resident, but its reference report
//! is built from the whole month during set-up, and the heap the allocator
//! keeps from that build bounds the iteration's peak RSS from below.

use std::path::{Path, PathBuf};

use consume_local::sim::checkpoint::{self, CheckpointError, CheckpointPolicy, Checkpointer};
use consume_local::sim::{SessionSource, SimConfig, SimReport, Simulator};
use consume_local::trace::{ScalePreset, SessionStore, TraceGenerator};
// lint:allow(no-wall-clock) the benchmark times the program from outside
use std::time::Instant;

use super::{ms, swarm_extras, trace_config, Bench, Extras, Iteration, Stamped};
use crate::gate::{check_invariants, check_report, digest, Tally};
use crate::spans::Tracer;

/// Day close after which the traced run also serialises a snapshot into
/// memory, to time serialisation apart from the file write.
const SERIALIZE_AFTER_DAY: u64 = 14;

pub(super) struct DailyCheckpointed {
    generator: TraceGenerator,
    sim: Simulator,
    snapshot: PathBuf,
    sessions: u64,
    days: u64,
    /// The same month simulated as one whole-store batch.
    reference: SimReport,
}

impl DailyCheckpointed {
    pub(super) fn setup(
        preset: ScalePreset,
        seed: u64,
        threads: usize,
        dir: &Path,
        tally: &mut Tally,
    ) -> Self {
        let config = trace_config(preset);
        let days = u64::from(config.days);
        let generator = TraceGenerator::new(config, seed).workers(threads);
        let store = SessionStore::from_trace(
            &generator
                .generate()
                .expect("preset trace configs are valid"),
        );
        let sim = Simulator::new(SimConfig {
            seed,
            threads,
            ..SimConfig::default()
        });
        let reference = sim.simulate(&store);
        tally.note(
            "reference report",
            check_invariants(&reference, store.len() as u64),
        );
        Self {
            days,
            generator,
            sim,
            snapshot: dir.join("month.ckpt"),
            sessions: store.len() as u64,
            reference,
        }
    }

    /// Removes the previous iteration's snapshot files.
    fn clear_snapshots(&self) {
        for suffix in ["", ".prev", ".tmp"] {
            let mut name = self.snapshot.clone().into_os_string();
            name.push(suffix);
            // A missing file is the expected case on the first iteration.
            let _ = std::fs::remove_file(name);
        }
    }

    /// Checks the finished report and the one finished from the restored
    /// snapshot.
    fn check(&self, report: &SimReport, restored: Result<SimReport, String>, tally: &mut Tally) {
        tally.note(
            "report",
            check_report(report, &self.reference, self.sessions),
        );
        tally.note(
            "restored report",
            restored.and_then(|r| check_report(&r, &self.reference, self.sessions)),
        );
    }

    /// Day-close latencies: the time between consecutive durable closes,
    /// the first counted from the start of the iteration.
    // lint:allow(no-wall-clock) day-close completion stamps
    fn ticks_ms(&self, start: Instant, done: &[Instant], tally: &mut Tally) -> Vec<f64> {
        tally.note(
            "day count",
            if done.len() as u64 == self.days {
                Ok(())
            } else {
                Err(format!("{} day closes for {} days", done.len(), self.days))
            },
        );
        std::iter::once(start)
            .chain(done.iter().copied())
            .zip(done)
            .map(|(from, &to)| ms(from, to))
            .collect()
    }
}

/// Counts an iteration's snapshot writes, and the failed write that ended
/// it, if any.
fn note_writes(checkpointer: &Checkpointer, failure: Option<CheckpointError>, tally: &mut Tally) {
    for _ in 0..checkpointer.checkpoints_written() {
        tally.note("snapshot write", Ok::<(), String>(()));
    }
    if let Some(e) = failure {
        tally.note("snapshot write", Err(e));
    }
}

impl Bench for DailyCheckpointed {
    fn facts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("batches", self.days.to_string()),
            ("engine_threads", self.sim.config().threads.to_string()),
            ("producer_threads", "0".into()),
        ]
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn iterate(&mut self, tally: &mut Tally, want_digest: bool) -> Iteration {
        self.clear_snapshots();
        let mut done = Vec::with_capacity(self.days as usize);
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let mut stream = self
            .generator
            .segments()
            .expect("preset trace configs are valid");
        let mut checkpointer =
            Checkpointer::new(CheckpointPolicy::every_day_closes(1, &self.snapshot));
        let source = Stamped {
            inner: &mut stream,
            done: &mut done,
        };
        let result = self
            .sim
            .simulate_days_checkpointed(source, &mut checkpointer, |_| {});
        let report = match result {
            Ok(report) => {
                note_writes(&checkpointer, None, tally);
                report
            }
            Err(e) => {
                note_writes(&checkpointer, Some(e), tally);
                return Iteration {
                    // lint:allow(no-wall-clock) iteration end after a failed snapshot write
                    run_s: ms(start, Instant::now()) / 1e3,
                    ticks_ms: Vec::new(),
                    digest: None,
                };
            }
        };
        let restored = checkpoint::resume_latest(&self.snapshot)
            .map(|run| run.finish())
            .map_err(|e| e.to_string());
        self.check(&report, restored, tally);
        // lint:allow(no-wall-clock) iteration end
        let end = Instant::now();
        Iteration {
            run_s: ms(start, end) / 1e3,
            ticks_ms: self.ticks_ms(start, &done, tally),
            digest: want_digest.then(|| digest(&report)),
        }
    }

    fn iterate_traced(
        &mut self,
        tracer: &mut Tracer,
        req: u64,
        tally: &mut Tally,
    ) -> (Iteration, Extras) {
        self.clear_snapshots();
        let mut done = Vec::with_capacity(self.days as usize);
        let root = tracer.enter("bench.iteration", req);
        // lint:allow(no-wall-clock) iteration start
        let start = Instant::now();
        let mut stream = self
            .generator
            .segments()
            .expect("preset trace configs are valid");
        let mut checkpointer =
            Checkpointer::new(CheckpointPolicy::every_day_closes(1, &self.snapshot));
        // `Simulator::simulate_days_checkpointed`, call by call.
        let mut run = self
            .sim
            .begin(stream.config().horizon_seconds(), stream.population().len());
        let (mut sessions, mut snapshot_bytes, mut failure) = (0u64, 0u64, None);
        let mut idle_since = start;
        (&mut stream).for_each_batch(&mut |batch, watermark| {
            let day = done.len() as u64;
            // lint:allow(no-wall-clock) end of the source's work on this segment
            tracer.record("trace.segment", day, idle_since, Instant::now());
            if failure.is_some() {
                return;
            }
            sessions += batch.len() as u64;
            tracer.time("engine.push_batch", day, || {
                run.push_batch(batch, watermark)
            });
            let mut closed = 0;
            tracer.time("engine.drain_days", day, || {
                run.drain_closed_days(|_| closed += 1)
            });
            let noted: Result<bool, CheckpointError> = tracer.time("checkpoint.note", day, || {
                let mut wrote = checkpointer.note_watermark(&run)?;
                for _ in 0..closed {
                    wrote |= checkpointer.note_day_close(&run)?;
                }
                Ok(wrote)
            });
            match noted {
                Ok(true) => {
                    snapshot_bytes += std::fs::metadata(&self.snapshot).map_or(0, |m| m.len())
                }
                Ok(false) => {}
                Err(e) => failure = Some(e),
            }
            if day == SERIALIZE_AFTER_DAY {
                let mut bytes = Vec::new();
                let serialized =
                    tracer.time("checkpoint.serialize", day, || run.checkpoint(&mut bytes));
                tally.note("in-memory snapshot", serialized);
            }
            // lint:allow(no-wall-clock) completion stamp of the day close
            idle_since = Instant::now();
            done.push(idle_since);
        });
        let days = done.len() as u64;
        let report = tracer.time("engine.finish", days, || run.finish_days(|_| {}));
        note_writes(&checkpointer, failure, tally);
        let restored = tracer
            .time("checkpoint.restore", days, || {
                checkpoint::read_snapshot_file(&self.snapshot)
            })
            .map(|run| tracer.time("engine.finish", days, || run.finish()))
            .map_err(|e| e.to_string());
        tracer.time("bench.check", req, || self.check(&report, restored, tally));
        tracer.exit(root);
        // lint:allow(no-wall-clock) iteration end
        let end = Instant::now();
        let mut extras = swarm_extras(&[&report]);
        extras.extend([
            ("trace.sessions", sessions as f64),
            ("trace.columnarise_ms", stream.columnarize_ms()),
            (
                "checkpoint.count",
                checkpointer.checkpoints_written() as f64,
            ),
            ("checkpoint.bytes", snapshot_bytes as f64),
        ]);
        let iteration = Iteration {
            run_s: ms(start, end) / 1e3,
            ticks_ms: self.ticks_ms(start, &done, tally),
            digest: Some(digest(&report)),
        };
        (iteration, extras)
    }
}
