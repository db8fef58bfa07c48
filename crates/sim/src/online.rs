//! Online serving mode: a live event-stream front-end for the engine.
//!
//! The batch paths hand [`Simulator::simulate`]
//! a source whose sessions already exist. This module covers the other
//! deployment shape — a long-running service where sessions *arrive*: a
//! producer thread pushes events into a bounded [`channel`] as they happen,
//! and the consumer side is an [`OnlineSource`] the engine drains like any
//! other [`SessionSource`]. Three properties make that safe:
//!
//! * **Backpressure, never loss.** The channel is bounded
//!   (`std::sync::mpsc::sync_channel`); a producer that outruns the
//!   simulation blocks in [`OnlineSender::send_session`] until the consumer
//!   catches up. Nothing is dropped or reordered.
//! * **Watermarks cut the batches.** The producer calls
//!   [`OnlineSender::advance_watermark`] to promise "no later event starts
//!   before `w`". Each watermark seals the sessions buffered so far into a
//!   canonical [`SessionStore`] batch, which is what lets the engine retire
//!   finished swarms and close days *while the stream is still open*
//!   ([`Simulator::simulate_days`]).
//!   Late events (start before the current watermark), events starting at
//!   or past the horizon and events from users outside the population are
//!   rejected at the sender with [`OnlineError::LateSession`] /
//!   [`OnlineError::PastHorizon`] / [`OnlineError::UnknownUser`] rather
//!   than silently skewing results.
//! * **Byte-identical results.** Because the online path feeds the same
//!   resumable per-swarm machines through the same [`SessionSource`]
//!   contract, a replayed trace produces a [`SimReport`]
//!   equal to the batch run of the same sessions — at any worker count,
//!   any channel capacity and any replay speed (pinned by
//!   `tests/online.rs`).
//!
//! [`replay`] drives the whole arrangement from an existing trace: a
//! producer thread feeds a [`SessionStore`]'s records at
//! [`ReplaySpeed::Times`] real time (or [`ReplaySpeed::MaxThroughput`] for
//! as-fast-as-possible ingest, the events/sec benchmark mode), watermarking
//! once per simulated tick, while the calling thread simulates.
//! [`replay_with`] is the one driver underneath: it takes the run to feed —
//! fresh from [`Simulator::begin`] or restored from a snapshot — and
//! resumes the stream at that run's watermark.
//!
//! # Example
//!
//! ```
//! use consume_local_sim::{online, SimConfig, Simulator};
//! use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 7)
//!     .generate()?;
//! let store = SessionStore::from_trace(&trace);
//! let sim = Simulator::new(SimConfig::default());
//!
//! // Max-throughput replay: identical report, plus stream statistics.
//! let (report, stats) = online::replay(&sim, &store, &online::ReplayConfig::default());
//! assert_eq!(report, sim.simulate(&store));
//! assert_eq!(stats.events, store.len() as u64);
//! assert_eq!(stats.days_closed, u64::from(trace.config().days));
//! # Ok(())
//! # }
//! ```

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use consume_local_trace::{SessionRecord, SessionStore};

use crate::engine::{DayClose, SegmentedRun, Simulator};
use crate::par::parallel_join;
use crate::report::SimReport;
use crate::source::{RetryPolicy, RetryStats, SessionSource};

pub mod faults;

/// What flows through the bounded channel: events, and the promises that
/// seal them into batches.
#[derive(Debug)]
enum Envelope {
    /// One arriving session.
    Session(SessionRecord),
    /// "No later event starts before this second."
    Watermark(u64),
}

/// Errors the sending side of an online channel can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineError {
    /// The session starts before the current watermark, violating the
    /// promise [`OnlineSender::advance_watermark`] already made. The event
    /// was **not** enqueued; admitting it would silently skew results, so
    /// the producer must decide (drop it, or crash-and-replay from a
    /// watermark-aligned checkpoint).
    LateSession {
        /// The rejected session's start, in seconds.
        start_secs: u64,
        /// The watermark it arrived behind.
        watermark: u64,
    },
    /// The session starts at or past the channel's horizon. The event was
    /// **not** enqueued: no window of the run covers it, so its demand
    /// would be silently lost.
    PastHorizon {
        /// The rejected session's start, in seconds.
        start_secs: u64,
        /// The channel's horizon, in seconds.
        horizon_secs: u64,
    },
    /// The session's user id is outside the channel's population
    /// (`user ≥ population_len`). The event was **not** enqueued: its
    /// bytes would count in the report's total but in no user's traffic.
    UnknownUser {
        /// The rejected session's user id.
        user: u32,
        /// The channel's population size.
        population_len: usize,
    },
    /// The consuming side hung up (the simulation finished or died); no
    /// further events can be delivered.
    Disconnected,
    /// The channel is at capacity ([`OnlineSender::try_send`] only): the
    /// event was **not** enqueued. The producer should back off and retry —
    /// or switch to the blocking [`OnlineSender::send_session`].
    Full,
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LateSession {
                start_secs,
                watermark,
            } => write!(
                f,
                "late session: starts at {start_secs}s, behind watermark {watermark}s"
            ),
            Self::PastHorizon {
                start_secs,
                horizon_secs,
            } => write!(
                f,
                "session past the horizon: starts at {start_secs}s, horizon is {horizon_secs}s"
            ),
            Self::UnknownUser {
                user,
                population_len,
            } => write!(
                f,
                "unknown user {user}: the population has {population_len} users"
            ),
            Self::Disconnected => write!(f, "online channel disconnected"),
            Self::Full => write!(f, "online channel full: event not enqueued"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Creates a bounded online ingest channel: the producer half feeds events
/// and watermarks, the consumer half is a [`SessionSource`] for
/// [`Simulator::simulate`](crate::Simulator::simulate) /
/// [`simulate_days`](crate::Simulator::simulate_days).
///
/// `capacity` bounds the number of in-flight envelopes (events plus
/// watermarks): a producer that outruns the simulation blocks — that is the
/// backpressure. `capacity = 0` is a rendezvous channel (every send waits
/// for the consumer).
///
/// `horizon_secs` and `population_len` describe the stream the way a
/// [`SessionStore`] would: windows stop at the horizon, and user ids index
/// into `population_len` users.
///
/// # Example
///
/// ```
/// use consume_local_sim::{online, par::parallel_join, SimConfig, Simulator};
/// use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 7)
///     .generate()?;
/// let store = SessionStore::from_trace(&trace);
/// let sim = Simulator::new(SimConfig::default());
///
/// let (mut tx, source) = online::channel(store.horizon_secs(), store.population_len(), 64);
/// let (sent, report) = parallel_join(
///     move || {
///         for i in 0..store.len() {
///             tx.send_session(store.record(i)).unwrap();
///         }
///         store.len() // sender drops here: end of stream
///     },
///     || sim.simulate(source),
/// );
/// assert_eq!(report.total_windows() > 0, sent > 0);
/// # Ok(())
/// # }
/// ```
pub fn channel(
    horizon_secs: u64,
    population_len: usize,
    capacity: usize,
) -> (OnlineSender, OnlineSource) {
    let (tx, rx) = sync_channel(capacity);
    (
        OnlineSender {
            tx,
            watermark: 0,
            horizon_secs,
            population_len,
        },
        OnlineSource {
            rx,
            horizon_secs,
            population_len,
        },
    )
}

/// The producer half of an online ingest [`channel`].
///
/// Dropping the sender ends the stream: the consumer flushes any buffered
/// events as a final batch and the simulation completes.
#[derive(Debug)]
pub struct OnlineSender {
    tx: SyncSender<Envelope>,
    watermark: u64,
    horizon_secs: u64,
    population_len: usize,
}

impl OnlineSender {
    /// Rejects a session the engine could not account: one starting behind
    /// the watermark or at or past the horizon, or one whose user is outside
    /// the population.
    fn admissible(&self, session: &SessionRecord) -> Result<(), OnlineError> {
        let start_secs = session.start.as_secs();
        if start_secs < self.watermark {
            return Err(OnlineError::LateSession {
                start_secs,
                watermark: self.watermark,
            });
        }
        if start_secs >= self.horizon_secs {
            return Err(OnlineError::PastHorizon {
                start_secs,
                horizon_secs: self.horizon_secs,
            });
        }
        if session.user.0 as usize >= self.population_len {
            return Err(OnlineError::UnknownUser {
                user: session.user.0,
                population_len: self.population_len,
            });
        }
        Ok(())
    }

    /// Enqueues one arriving session, blocking while the channel is full
    /// (backpressure).
    ///
    /// Events need not be sorted — batches are put into canonical order
    /// when a watermark seals them — but each must start at or after the
    /// current watermark, or it is rejected as
    /// [`OnlineError::LateSession`]; a session starting at or past the
    /// horizon is rejected as [`OnlineError::PastHorizon`], and a user id
    /// outside the channel's population as [`OnlineError::UnknownUser`].
    pub fn send_session(&mut self, session: SessionRecord) -> Result<(), OnlineError> {
        self.admissible(&session)?;
        self.tx
            .send(Envelope::Session(session))
            .map_err(|_| OnlineError::Disconnected)
    }

    /// Enqueues one arriving session without blocking.
    ///
    /// Like [`send_session`](OnlineSender::send_session) but returns
    /// [`OnlineError::Full`] instead of waiting when the channel is at
    /// capacity — the event is **not** enqueued and the caller may retry,
    /// drop, or spill it. Late sessions, sessions past the horizon and
    /// unknown users are still rejected ([`OnlineError::LateSession`],
    /// [`OnlineError::PastHorizon`], [`OnlineError::UnknownUser`]) before
    /// the channel is touched.
    pub fn try_send(&mut self, session: SessionRecord) -> Result<(), OnlineError> {
        self.admissible(&session)?;
        self.tx
            .try_send(Envelope::Session(session))
            .map_err(|e| match e {
                std::sync::mpsc::TrySendError::Full(_) => OnlineError::Full,
                std::sync::mpsc::TrySendError::Disconnected(_) => OnlineError::Disconnected,
            })
    }

    /// Enqueues one arriving session, retrying bounded backpressure per
    /// `retry`: each [`OnlineError::Full`] costs one attempt, yields the
    /// CPU and accounts the policy's exponential backoff in **virtual
    /// ticks** (never wall clock — retry accounting stays deterministic
    /// even though the draining itself is scheduler-paced). Returns what
    /// the send cost; gives up with [`OnlineError::Full`] after
    /// `max_attempts` full channel probes so a stalled consumer surfaces
    /// as a typed error instead of a silent hang.
    ///
    /// Late sessions, sessions past the horizon and unknown users are
    /// rejected immediately — retrying cannot make such an event
    /// admissible.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Full`] after exhausting attempts,
    /// [`OnlineError::LateSession`] / [`OnlineError::PastHorizon`] /
    /// [`OnlineError::UnknownUser`] / [`OnlineError::Disconnected`]
    /// immediately.
    pub fn send_with_retry(
        &mut self,
        session: SessionRecord,
        retry: &RetryPolicy,
    ) -> Result<RetryStats, OnlineError> {
        let mut stats = RetryStats::default();
        let mut failures = 0u32;
        loop {
            match self.try_send(session) {
                Ok(()) => return Ok(stats),
                Err(OnlineError::Full) => {
                    failures += 1;
                    if failures >= retry.max_attempts {
                        return Err(OnlineError::Full);
                    }
                    stats.retries += 1;
                    stats.waited_ticks += retry.backoff_ticks(failures);
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Promises that no later event starts before `watermark` seconds,
    /// sealing everything buffered before it into a batch the engine may
    /// finish (swarm retirement, day closes). Blocks while the channel is
    /// full.
    ///
    /// Watermarks are monotone: a value at or below the current one is a
    /// no-op, not an error, so periodic wall-clock-driven senders need not
    /// special-case idle stretches. A watermark at or past the horizon
    /// seals the whole run.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<(), OnlineError> {
        if watermark <= self.watermark {
            return Ok(());
        }
        self.watermark = watermark;
        self.tx
            .send(Envelope::Watermark(watermark))
            .map_err(|_| OnlineError::Disconnected)
    }

    /// The current watermark (0 until the first
    /// [`advance_watermark`](OnlineSender::advance_watermark)).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

/// The consumer half of an online ingest [`channel`]: a [`SessionSource`]
/// whose batches are cut by the producer's watermarks.
#[derive(Debug)]
pub struct OnlineSource {
    rx: Receiver<Envelope>,
    horizon_secs: u64,
    population_len: usize,
}

impl SessionSource for OnlineSource {
    fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    fn population_len(&self) -> usize {
        self.population_len
    }

    /// Blocks on the channel; every watermark emits one batch (possibly
    /// empty — the day-close cadence must not depend on traffic), and
    /// disconnection flushes any remaining buffered events as a final
    /// batch.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        let mut pending: Vec<SessionRecord> = Vec::new();
        let mut batch: Vec<SessionRecord> = Vec::new();
        while let Ok(envelope) = self.rx.recv() {
            match envelope {
                Envelope::Session(s) => pending.push(s),
                Envelope::Watermark(w) => {
                    // The sender checked events against *its* watermark, so
                    // everything starting before `w` is sealed by it; later
                    // starts stay buffered for a later batch.
                    batch.clear();
                    pending.retain(|s| {
                        let sealed = s.start.as_secs() < w;
                        if sealed {
                            batch.push(*s);
                        }
                        !sealed
                    });
                    let store =
                        SessionStore::from_records(&batch, self.horizon_secs, self.population_len);
                    sink(&store, w);
                }
            }
        }
        if !pending.is_empty() {
            let store =
                SessionStore::from_records(&pending, self.horizon_secs, self.population_len);
            sink(&store, u64::MAX);
        }
    }
}

/// How fast [`replay`] feeds a trace relative to simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplaySpeed {
    /// `Times(n)`: one simulated tick every `tick_secs / n` wall seconds —
    /// `Times(1.0)` is real time. Must be finite and positive.
    Times(f64),
    /// No pacing at all: the producer runs flat out and only backpressure
    /// throttles it. This is the sustained events/sec benchmark mode.
    MaxThroughput,
}

/// Configuration for [`replay`] / [`replay_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Replay speed (default: [`ReplaySpeed::MaxThroughput`]).
    pub speed: ReplaySpeed,
    /// Simulated seconds per watermark tick (default: 3600, one hour).
    /// Smaller ticks mean fresher day-closes and smaller batches.
    pub tick_secs: u64,
    /// Channel capacity in envelopes (default: 1024).
    pub capacity: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            speed: ReplaySpeed::MaxThroughput,
            tick_secs: 3_600,
            capacity: 1_024,
        }
    }
}

/// What [`replay`] observed on the stream (all deterministic — wall time is
/// deliberately absent; benches measure it outside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Sessions fed through the channel.
    pub events: u64,
    /// Watermarks emitted (one per simulated tick through the horizon).
    pub watermarks: u64,
    /// Days the engine closed while the stream was live or finishing.
    pub days_closed: u64,
}

/// Replays a store through an online [`channel`] at `config.speed` into a
/// fresh run, simulating as events arrive. Returns the report —
/// byte-identical to `sim.simulate(&store)` — and the stream statistics.
///
/// The producer runs on a scoped thread; the calling thread simulates.
/// This wrapper sleeps for [`ReplaySpeed::Times`] and ignores day closes;
/// [`replay_with`] injects both, and drives a restored run too.
///
/// # Panics
///
/// Panics if `config.tick_secs` is 0, or if a [`ReplaySpeed::Times`] factor
/// is not finite and positive.
pub fn replay(
    sim: &Simulator,
    store: &SessionStore,
    config: &ReplayConfig,
) -> (SimReport, ReplayStats) {
    replay_with(
        sim.begin(store.horizon_secs(), store.population_len()),
        store,
        config,
        |secs| std::thread::sleep(std::time::Duration::from_secs_f64(secs)),
        |_| {},
    )
}

/// The replay driver: feeds `run` the store's sessions from
/// [`run.watermark()`](SegmentedRun::watermark) on, with an injectable
/// pacer and day-close observer.
///
/// Pass `sim.begin(store.horizon_secs(), store.population_len())` for a
/// fresh run, or a run restored by [`Simulator::resume`] /
/// [`checkpoint::resume_latest`](crate::checkpoint::resume_latest) after a
/// crash: the restored run's watermark is the resume point, so only events
/// starting at or after it are re-fed — exactly what a journalling
/// upstream replays after a consumer crash. Either way the final report is
/// byte-identical to `sim.simulate(&store)` (pinned by `tests/online.rs`
/// and `tests/recovery.rs`), and [`ReplayStats`] counts only what this
/// call fed. A run already sealed at or past the horizon is fed nothing
/// and just finishes.
///
/// `pace(wall_secs)` runs on the producer thread once per simulated tick
/// under [`ReplaySpeed::Times`] (never under
/// [`ReplaySpeed::MaxThroughput`]); tests substitute a recorder for the
/// sleep. `on_day_close` runs on the consumer (calling) thread as each day
/// seals, exactly as [`Simulator::simulate_days`] reports them; days a
/// restored run closed before its snapshot are not re-emitted.
///
/// # Panics
///
/// Panics if `config.tick_secs` is 0, or if a [`ReplaySpeed::Times`] factor
/// is not finite and positive.
pub fn replay_with(
    run: SegmentedRun,
    store: &SessionStore,
    config: &ReplayConfig,
    pace: impl FnMut(f64) + Send,
    mut on_day_close: impl FnMut(DayClose),
) -> (SimReport, ReplayStats) {
    let (sender, source) = channel(
        store.horizon_secs(),
        store.population_len(),
        config.capacity,
    );
    let producer = feed_producer(store, config, run.watermark(), sender, pace);
    let (mut stats, (report, days_closed)) = parallel_join(producer, || {
        let mut days_closed = 0u64;
        let report = run.simulate_remaining_days(source, |close| {
            days_closed += 1;
            on_day_close(close);
        });
        (report, days_closed)
    });
    stats.days_closed = days_closed;
    (report, stats)
}

/// The replay tick schedule, resuming at watermark `from`: batch *i* holds
/// the sessions starting in `[i·tick, (i+1)·tick)` and is sealed by the
/// watermark `(i+1)·tick`, from the first tick past `from` (a watermark the
/// run already holds) to the first tick at or past the horizon, so every
/// day closes through the same cadence. Yields `(index range into the
/// store, watermark)` pairs — nothing when `from` already reaches the
/// horizon.
///
/// # Panics
///
/// Panics if `tick_secs` is 0.
fn tick_schedule(
    store: &SessionStore,
    tick_secs: u64,
    from: u64,
) -> impl Iterator<Item = (Range<usize>, u64)> + Send + '_ {
    assert!(tick_secs > 0, "tick_secs must be positive");
    let starts = store.start_secs();
    let horizon = store.horizon_secs();
    let mut lo = starts.partition_point(|&s| s < from);
    let mut next = (from < horizon).then(|| (from / tick_secs + 1) * tick_secs);
    std::iter::from_fn(move || {
        let watermark = next?;
        let hi = lo + starts[lo..].partition_point(|&s| s < watermark);
        let range = lo..hi;
        lo = hi;
        next = (watermark < horizon).then(|| watermark + tick_secs);
        Some((range, watermark))
    })
}

/// The producer loop of [`replay_with`]: walks the [`tick_schedule`] from
/// `from`, sending each tick's sessions, pacing, then advancing the
/// watermark. If the consumer hangs up early the partial stats are still
/// meaningful.
fn feed_producer<'a>(
    store: &'a SessionStore,
    config: &ReplayConfig,
    from: u64,
    mut sender: OnlineSender,
    mut pace: impl FnMut(f64) + Send + 'a,
) -> impl FnOnce() -> ReplayStats + Send + 'a {
    let wall_secs_per_tick = match config.speed {
        ReplaySpeed::Times(n) => {
            assert!(
                n.is_finite() && n > 0.0,
                "replay speed factor must be finite and positive, got {n}"
            );
            Some(config.tick_secs as f64 / n)
        }
        ReplaySpeed::MaxThroughput => None,
    };
    let schedule = tick_schedule(store, config.tick_secs, from);
    move || {
        let mut stats = ReplayStats::default();
        for (range, watermark) in schedule {
            for i in range {
                if sender.send_session(store.record(i)).is_err() {
                    return stats;
                }
                stats.events += 1;
            }
            if let Some(wall) = wall_secs_per_tick {
                pace(wall);
            }
            if sender.advance_watermark(watermark).is_err() {
                return stats;
            }
            stats.watermarks += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use consume_local_trace::{TraceConfig, TraceGenerator};

    fn store() -> SessionStore {
        let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 7)
            .generate()
            .unwrap();
        SessionStore::from_trace(&trace)
    }

    #[test]
    fn watermarks_cut_batches_and_disconnect_flushes() {
        let store = store();
        let records = store.to_records();
        let day = consume_local_trace::SegmentedStore::SEGMENT_SECS;
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 8);
        let (_, batches) = parallel_join(
            move || {
                for r in &records {
                    tx.send_session(*r).unwrap();
                }
                // Seal the first two days, leave the rest to disconnect.
                tx.advance_watermark(day).unwrap();
                tx.advance_watermark(2 * day).unwrap();
            },
            || {
                let mut out: Vec<(usize, u64)> = Vec::new();
                let mut total: Vec<SessionRecord> = Vec::new();
                source.for_each_batch(&mut |batch, watermark| {
                    out.push((batch.len(), watermark));
                    total.extend(batch.to_records());
                });
                (out, total)
            },
        );
        let (shape, fed) = batches;
        let seg = consume_local_trace::SegmentedStore::from_records(
            &store.to_records(),
            store.horizon_secs(),
            store.population_len(),
        );
        assert_eq!(shape.len(), 3);
        assert_eq!(shape[0], (seg.segment(0).len(), day));
        assert_eq!(shape[1], (seg.segment(1).len(), 2 * day));
        assert_eq!(
            shape[2],
            (
                store.len() - seg.segment(0).len() - seg.segment(1).len(),
                u64::MAX
            )
        );
        // Nothing dropped, nothing reordered across batch seams.
        assert_eq!(fed, store.to_records());
    }

    #[test]
    fn empty_watermark_batches_are_emitted() {
        let (mut tx, source) = channel(86_400, 4, 4);
        let (_, shape) = parallel_join(
            move || {
                tx.advance_watermark(3_600).unwrap();
                tx.advance_watermark(3_600).unwrap(); // no-op: not monotone progress
                tx.advance_watermark(7_200).unwrap();
            },
            || {
                let mut out = Vec::new();
                source.for_each_batch(&mut |batch, watermark| out.push((batch.len(), watermark)));
                out
            },
        );
        assert_eq!(shape, vec![(0, 3_600), (0, 7_200)]);
    }

    #[test]
    fn late_sessions_are_rejected_at_the_sender() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 4);
        tx.advance_watermark(1_000).unwrap();
        let mut late = store.record(0);
        late.start = consume_local_trace::SimTime(999);
        assert_eq!(
            tx.send_session(late),
            Err(OnlineError::LateSession {
                start_secs: 999,
                watermark: 1_000
            })
        );
        assert_eq!(tx.watermark(), 1_000);
        drop(source);
        assert_eq!(tx.advance_watermark(2_000), Err(OnlineError::Disconnected));
        let mut ok = store.record(0);
        ok.start = consume_local_trace::SimTime(5_000);
        assert_eq!(tx.send_session(ok), Err(OnlineError::Disconnected));
        let msg = OnlineError::LateSession {
            start_secs: 999,
            watermark: 1_000,
        }
        .to_string();
        assert!(msg.contains("999") && msg.contains("1000"), "{msg}");
        assert!(OnlineError::Disconnected
            .to_string()
            .contains("disconnected"));
    }

    #[test]
    fn sessions_past_the_horizon_are_rejected_at_the_sender() {
        let store = store();
        let horizon = store.horizon_secs();
        let (mut tx, _source) = channel(horizon, store.population_len(), 4);
        let mut past = store.record(0);
        past.start = consume_local_trace::SimTime(horizon);
        let past_horizon = OnlineError::PastHorizon {
            start_secs: horizon,
            horizon_secs: horizon,
        };
        let rejected = Err(past_horizon);
        assert_eq!(tx.send_session(past), rejected);
        assert_eq!(tx.try_send(past), rejected);
        // Retrying cannot make it admissible: no attempt is spent on it.
        assert_eq!(
            tx.send_with_retry(past, &RetryPolicy::new(5, 1))
                .map(|_| ()),
            rejected
        );
        past.start = consume_local_trace::SimTime(horizon - 1);
        assert_eq!(tx.send_session(past), Ok(()), "the last second is inside");
        let msg = past_horizon.to_string();
        assert!(msg.contains(&horizon.to_string()), "{msg}");
    }

    #[test]
    fn try_send_reports_backpressure_without_blocking() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 1);
        // Capacity 1: the first event fits, the second is backpressure.
        assert_eq!(tx.try_send(store.record(0)), Ok(()));
        assert_eq!(tx.try_send(store.record(1)), Err(OnlineError::Full));
        assert_eq!(tx.try_send(store.record(1)), Err(OnlineError::Full));
        // Once the consumer drains, try_send succeeds again.
        let (sent, fed) = parallel_join(
            move || {
                loop {
                    match tx.try_send(store.record(1)) {
                        Ok(()) => break,
                        Err(OnlineError::Full) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
                2usize
            },
            || {
                let mut n = 0usize;
                source.for_each_batch(&mut |batch, _| n += batch.len());
                n
            },
        );
        assert_eq!((sent, fed), (2, 2));
        assert!(OnlineError::Full.to_string().contains("full"));
    }

    #[test]
    fn try_send_rejects_late_sessions_first() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 1);
        tx.advance_watermark(1_000).unwrap();
        let mut late = store.record(0);
        late.start = consume_local_trace::SimTime(999);
        assert_eq!(
            tx.try_send(late),
            Err(OnlineError::LateSession {
                start_secs: 999,
                watermark: 1_000
            })
        );
        drop(source);
        let mut ok = store.record(0);
        ok.start = consume_local_trace::SimTime(5_000);
        assert_eq!(tx.try_send(ok), Err(OnlineError::Disconnected));
    }

    #[test]
    fn unknown_users_are_rejected_at_the_sender() {
        let store = store();
        let population = store.population_len();
        let sim = Simulator::new(SimConfig::default());
        let (mut tx, source) = channel(store.horizon_secs(), population, 4);
        let mut stranger = store.record(0);
        stranger.user = consume_local_trace::UserId(population as u32);
        let unknown = OnlineError::UnknownUser {
            user: population as u32,
            population_len: population,
        };
        let (sends, report) = parallel_join(
            move || {
                let sends = (tx.send_session(stranger), tx.try_send(stranger));
                tx.send_session(store.record(0)).unwrap();
                sends
            },
            || sim.simulate(source),
        );
        assert_eq!(sends, (Err(unknown), Err(unknown)));
        // Only the admissible session reached the engine, and every byte of
        // its demand is some user's traffic.
        let watched: u64 = report.users.iter().map(|u| u.watched_bytes).sum();
        assert_eq!(watched, report.total.demand_bytes);
        let msg = unknown.to_string();
        assert!(msg.contains(&population.to_string()), "{msg}");
    }

    #[test]
    fn replay_matches_batch_report_and_counts_the_stream() {
        let store = store();
        let sim = Simulator::new(SimConfig::default());
        let expect = sim.simulate(&store);
        let config = ReplayConfig::default();
        let (report, stats) = replay(&sim, &store, &config);
        assert_eq!(report, expect);
        assert_eq!(stats.events, store.len() as u64);
        assert_eq!(
            stats.watermarks,
            store.horizon_secs().div_ceil(config.tick_secs)
        );
        assert_eq!(
            stats.days_closed,
            store
                .horizon_secs()
                .div_ceil(consume_local_trace::SegmentedStore::SEGMENT_SECS)
        );
    }

    #[test]
    fn paced_replay_sleeps_tick_over_factor() {
        let store = store();
        let sim = Simulator::new(SimConfig::default());
        let mut paces: Vec<f64> = Vec::new();
        let config = ReplayConfig {
            speed: ReplaySpeed::Times(1e9), // enormous speed-up: no real waiting
            tick_secs: 21_600,
            capacity: 16,
        };
        let mut closes = Vec::new();
        let (report, stats) = replay_with(
            sim.begin(store.horizon_secs(), store.population_len()),
            &store,
            &config,
            |secs| paces.push(secs),
            |close| closes.push(close.day),
        );
        assert_eq!(report, sim.simulate(&store));
        assert_eq!(paces.len() as u64, stats.watermarks);
        assert!(paces.iter().all(|&s| s == 21_600.0 / 1e9));
        let days: Vec<u32> = (0..closes.len() as u32).collect();
        assert_eq!(closes, days, "days close in order, exactly once each");
    }

    #[test]
    fn send_with_retry_gives_up_on_a_stalled_consumer() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 1);
        // Nothing drains `source`: the first event fills the channel and
        // every later probe sees Full.
        assert_eq!(
            tx.send_with_retry(store.record(0), &RetryPolicy::new(4, 2)),
            Ok(RetryStats::default())
        );
        assert_eq!(
            tx.send_with_retry(store.record(1), &RetryPolicy::new(4, 2)),
            Err(OnlineError::Full)
        );
        drop(source);
        // A hung-up consumer is a hard error, not a retryable one.
        assert_eq!(
            tx.send_with_retry(store.record(1), &RetryPolicy::new(4, 2)),
            Err(OnlineError::Disconnected)
        );
    }

    #[test]
    fn send_with_retry_rejects_late_sessions_immediately() {
        let store = store();
        let (mut tx, _source) = channel(store.horizon_secs(), store.population_len(), 4);
        tx.advance_watermark(1_000).unwrap();
        let mut late = store.record(0);
        late.start = consume_local_trace::SimTime(999);
        assert_eq!(
            tx.send_with_retry(late, &RetryPolicy::new(5, 1)),
            Err(OnlineError::LateSession {
                start_secs: 999,
                watermark: 1_000
            })
        );
    }

    #[test]
    fn send_with_retry_succeeds_once_the_consumer_drains() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 1);
        assert!(tx
            .send_with_retry(store.record(0), &RetryPolicy::default())
            .is_ok());
        // An effectively unbounded policy outlasts any consumer pause; the
        // retry accounting reports how rough the ride was.
        let (sent, fed) = parallel_join(
            move || {
                let stats = tx
                    .send_with_retry(store.record(1), &RetryPolicy::new(u32::MAX, 1))
                    .expect("drains eventually");
                assert!(stats.waited_ticks >= stats.retries);
                2usize
            },
            || {
                let mut n = 0usize;
                source.for_each_batch(&mut |batch, _| n += batch.len());
                n
            },
        );
        assert_eq!((sent, fed), (2, 2));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn replay_rejects_nonpositive_speed() {
        let store = store();
        let sim = Simulator::new(SimConfig::default());
        let config = ReplayConfig {
            speed: ReplaySpeed::Times(0.0),
            ..ReplayConfig::default()
        };
        let _ = replay(&sim, &store, &config);
    }
}
