//! `online_hourly`: the benchmark is the producer. On an open-loop schedule
//! of [`TICKS_PER_SEC`] hourly ticks it sends each hour's sessions through
//! `online::channel` and advances the watermark, while the consumer runs
//! `simulate_days` at one engine thread. Stresses `push_batch` at its
//! finest cadence and the channel; leaves synthesis and checkpointing idle.
//!
//! The rate must sit well below saturation, or the latency measures the
//! backlog rather than the engine. On a 2-core host a medium trace needed
//! over 4 ms per evening-peak hour, so at 250 ticks/s the queue grew. Small
//! traces take 0.1–0.2 ms per hour at the median and 2–6 ms at p99.5; at
//! 125 ticks/s (8 ms per tick) only their rarest hours queue.
//!
//! Each trace spans [`DAYS`] days at the small preset's hourly load, so a
//! run replays many traces rather than a few month-long ones: how heavy a
//! trace's hours are depends on its seed, and the median tick latency
//! steadies only over many traces.

use consume_local::sim::online;
use consume_local::sim::par::parallel_join;
use consume_local::sim::{SessionSource, SimConfig, SimReport, Simulator};
use consume_local::trace::{ScalePreset, SessionRecord, SessionStore, TraceConfig, TraceGenerator};
// lint:allow(no-wall-clock) the open-loop schedule and its latencies are wall-clock by nature
use std::time::{Duration, Instant};

use super::{ms, swarm_extras, trace_config, Bench, Extras, Iteration, Stamped};
use crate::gate::{check_invariants, check_report, digest, Tally};
use crate::spans::Tracer;

/// Open-loop tick rate: simulated hours offered per wall second.
pub const TICKS_PER_SEC: f64 = 125.0;

/// Channel capacity in envelopes (the `online::replay` default).
const CAPACITY: usize = 1024;

const HOUR_SECS: u64 = 3_600;

/// Days in each replayed trace.
pub const DAYS: u32 = 7;

/// The preset's trace shortened to [`DAYS`] days at the same sessions per
/// day.
fn week_config(preset: ScalePreset) -> TraceConfig {
    let month = trace_config(preset);
    TraceConfig {
        days: DAYS,
        sessions_target: month.sessions_target * u64::from(DAYS) / u64::from(month.days),
        ..month
    }
}

pub(super) struct OnlineHourly {
    /// The consumer's simulator, at one engine thread: with the producer
    /// thread that makes two.
    sim: Simulator,
    /// Each hour's sessions, in trace order.
    hours: Vec<Vec<SessionRecord>>,
    horizon_secs: u64,
    population_len: usize,
    sessions: u64,
    /// The same month simulated as one whole-store batch.
    reference: SimReport,
}

impl OnlineHourly {
    pub(super) fn setup(preset: ScalePreset, seed: u64, threads: usize, tally: &mut Tally) -> Self {
        let trace = TraceGenerator::new(week_config(preset), seed)
            .workers(threads)
            .generate()
            .expect("preset trace configs are valid");
        let store = SessionStore::from_trace(&trace);
        let config = SimConfig {
            seed,
            threads: 1,
            ..SimConfig::default()
        };
        let reference = Simulator::new(SimConfig {
            threads,
            ..config.clone()
        })
        .simulate(&store);
        tally.note(
            "reference report",
            check_invariants(&reference, store.len() as u64),
        );
        let horizon_secs = store.horizon_secs();
        let mut hours = vec![Vec::new(); horizon_secs.div_ceil(HOUR_SECS) as usize];
        for i in 0..store.len() {
            let session = store.record(i);
            hours[(session.start.as_secs() / HOUR_SECS) as usize].push(session);
        }
        Self {
            sim: Simulator::new(config),
            hours,
            horizon_secs,
            population_len: store.population_len(),
            sessions: store.len() as u64,
            reference,
        }
    }

    /// When tick `hour` is due on the open-loop schedule.
    // lint:allow(no-wall-clock) the open-loop schedule
    fn due(start: Instant, hour: usize) -> Instant {
        start + Duration::from_secs_f64(hour as f64 / TICKS_PER_SEC)
    }

    /// Tick latencies: each watermark's batch completion minus its due time.
    // lint:allow(no-wall-clock) tick completion stamps
    fn ticks_ms(&self, start: Instant, done: &[Instant], tally: &mut Tally) -> Vec<f64> {
        tally.note(
            "tick count",
            if done.len() == self.hours.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} batches for {} ticks",
                    done.len(),
                    self.hours.len()
                ))
            },
        );
        done.iter()
            .enumerate()
            .map(|(hour, &at)| ms(Self::due(start, hour), at))
            .collect()
    }

    /// Sends the month on the open-loop schedule. With a tracer, records how
    /// late each tick started, its sends and its watermark.
    fn produce(
        hours: &[Vec<SessionRecord>],
        mut tx: online::OnlineSender,
        // lint:allow(no-wall-clock) the open-loop schedule
        start: Instant,
        mut tracer: Option<&mut Tracer>,
    ) -> Tally {
        let mut tally = Tally::default();
        for (hour, sessions) in hours.iter().enumerate() {
            let due = Self::due(start, hour);
            // lint:allow(no-wall-clock) open-loop pacing
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = hour as u64;
            // lint:allow(no-wall-clock) tick start, for the generator's lateness
            let begun = Instant::now();
            let mut send = || {
                for &session in sessions {
                    tally.note("send", tx.send_session(session));
                }
            };
            match tracer.as_deref_mut() {
                Some(t) => {
                    t.record("loadgen.late", req, due, begun.max(due));
                    t.time("online.send_sessions", req, send);
                }
                None => send(),
            }
            let watermark = (hour as u64 + 1) * HOUR_SECS;
            let outcome = match tracer.as_deref_mut() {
                Some(t) => t.time("online.watermark", req, || tx.advance_watermark(watermark)),
                None => tx.advance_watermark(watermark),
            };
            tally.note("watermark", outcome);
        }
        tally
    }

    fn check(&self, report: &SimReport, tally: &mut Tally) {
        tally.note(
            "report",
            check_report(report, &self.reference, self.sessions),
        );
    }
}

impl Bench for OnlineHourly {
    fn facts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("batches", self.hours.len().to_string()),
            ("engine_threads", self.sim.config().threads.to_string()),
            ("producer_threads", "1".into()),
            ("tick_rate_per_s", TICKS_PER_SEC.to_string()),
            ("trace_days", DAYS.to_string()),
        ]
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn iterate(&mut self, tally: &mut Tally, want_digest: bool) -> Iteration {
        let (tx, source) = online::channel(self.horizon_secs, self.population_len, CAPACITY);
        let mut done = Vec::with_capacity(self.hours.len());
        let hours = &self.hours;
        // lint:allow(no-wall-clock) schedule origin; the first tick is due now
        let start = Instant::now();
        let (sent, report) = parallel_join(
            move || Self::produce(hours, tx, start, None),
            || {
                let source = Stamped {
                    inner: source,
                    done: &mut done,
                };
                self.sim.simulate_days(source, |_| {})
            },
        );
        tally.merge(sent);
        self.check(&report, tally);
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
        let (tx, source) = online::channel(self.horizon_secs, self.population_len, CAPACITY);
        let mut done = Vec::with_capacity(self.hours.len());
        let hours = &self.hours;
        let root = tracer.enter("bench.iteration", req);
        // lint:allow(no-wall-clock) schedule origin; the first tick is due now
        let start = Instant::now();
        let mut producer = Tracer::new(tracer.origin());
        let sim = &self.sim;
        let (sent, report) = {
            let producer = &mut producer;
            let consumer = &mut *tracer;
            parallel_join(
                move || Self::produce(hours, tx, start, Some(producer)),
                || {
                    // `Simulator::simulate_days(source, ..)`, call by call.
                    let mut run = sim.begin(source.horizon_secs(), source.population_len());
                    let mut idle_since = start;
                    source.for_each_batch(&mut |batch, watermark| {
                        let tick = done.len() as u64;
                        // lint:allow(no-wall-clock) end of the consumer's wait for this batch
                        consumer.record("online.batch_wait", tick, idle_since, Instant::now());
                        consumer.time("engine.push_batch", tick, || {
                            run.push_batch(batch, watermark)
                        });
                        consumer.time("engine.drain_days", tick, || run.drain_closed_days(|_| {}));
                        // lint:allow(no-wall-clock) completion stamp of the tick
                        idle_since = Instant::now();
                        done.push(idle_since);
                    });
                    let tick = done.len() as u64;
                    consumer.time("engine.finish", tick, || run.finish_days(|_| {}))
                },
            )
        };
        tally.merge(sent);
        tracer.time("bench.check", req, || self.check(&report, tally));
        tracer.adopt(producer, Some(root));
        tracer.exit(root);
        // lint:allow(no-wall-clock) iteration end
        let end = Instant::now();
        let mut extras = swarm_extras(&[&report]);
        extras.push(("trace.sessions", self.sessions as f64));
        let iteration = Iteration {
            run_s: ms(start, end) / 1e3,
            ticks_ms: self.ticks_ms(start, &done, tally),
            digest: Some(digest(&report)),
        };
        (iteration, extras)
    }
}
