//! Slot-ordered parallel mapping over an index range — and over disjoint
//! mutable sub-slices of one buffer.
//!
//! The one concurrency idiom the workspace uses: fan `0..n` out across
//! scoped worker threads with an atomic work-stealing cursor, and place each
//! result at its *index-ordered* slot, never at its completion-ordered one —
//! which is what makes the trace generator, the simulation engine and the
//! sweep runner deterministic for any worker count.
//!
//! [`parallel_map`] covers read-only fan-out (each task produces a value);
//! [`parallel_map_slices`] covers in-place fan-out: one shared buffer is
//! split into caller-described non-overlapping chunks, and each worker
//! mutates the chunks it steals through an exclusive `&mut [T]`. Both are
//! `unsafe`-free (the crate forbids `unsafe_code`): the disjointness that
//! slice-parallel libraries prove with raw pointers falls out of iterated
//! `split_at_mut`.
//!
//! [`parallel_join`] rounds out the trio for the two-sided case: run a
//! producer and a consumer concurrently and hand both results back — the
//! online ingest engine pairs a replay producer with the simulating
//! consumer this way.
//!
//! The primitives live here, at the bottom of the crate graph, so every
//! layer above (`trace`, `sim`, `core`) can share them;
//! `consume_local_sim::par` re-exports all three under its historical path.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What a worker hands back through its join handle: either its buffered
/// `(index, result)` pairs, or the first panic it caught together with the
/// slot index of the task that raised it.
type WorkerOutcome<T> = Result<Vec<(usize, T)>, (usize, Box<dyn Any + Send>)>;

/// Renders a caught panic payload for re-raising with slot context.
fn payload_text(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Joins every worker, then re-raises the lowest-slot captured panic (if
/// any) as a single panic naming `primitive` and the originating slot.
/// Picking the lowest slot keeps the surfaced message independent of
/// thread schedule and worker count.
fn collect_outcomes<T>(outcomes: Vec<WorkerOutcome<T>>, primitive: &str) -> Vec<Vec<(usize, T)>> {
    let mut buffers = Vec::with_capacity(outcomes.len());
    let mut first: Option<(usize, Box<dyn Any + Send>)> = None;
    for outcome in outcomes {
        match outcome {
            Ok(buffer) => buffers.push(buffer),
            Err((slot, payload)) => {
                let better = match &first {
                    None => true,
                    Some((s, _)) => slot < *s,
                };
                if better {
                    first = Some((slot, payload));
                }
            }
        }
    }
    if let Some((slot, payload)) = first {
        panic!(
            "{primitive}: task for slot {slot} panicked: {}",
            payload_text(payload.as_ref())
        );
    }
    buffers
}

/// The one worker loop behind both mappers: up to `workers` scoped threads
/// steal task indices `0..n` from an atomic cursor, run `task` under
/// `catch_unwind` and buffer `(index, result)` pairs locally; the buffers
/// are then placed at their index slots. With one worker no thread is
/// spawned and the tasks run inline, in index order, on the caller's
/// thread. A task panic stops its worker and is re-raised after every
/// worker is joined, named after `primitive` (see [`collect_outcomes`]).
fn steal_map<R: Send>(
    n: usize,
    workers: usize,
    primitive: &str,
    task: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || -> WorkerOutcome<R> {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                Ok(value) => local.push((i, value)),
                Err(payload) => return Err((i, payload)),
            }
        }
        Ok(local)
    };
    let workers = workers.max(1).min(n.max(1));
    let outcomes = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };
    let buffers = collect_outcomes(outcomes, primitive);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, value) in buffers.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot mapped"))
        .collect()
}

/// Maps `0..n` through `f` across at most `workers` scoped threads.
///
/// Output order is by index. `workers` is clamped to `n`; with one worker
/// (or at most one task) no thread is spawned and `f` runs inline on the
/// caller's thread.
///
/// Workers buffer `(index, result)` pairs locally and hand the buffers back
/// through their join handles — no shared lock anywhere, so the primitive
/// scales down to fine-grained tasks (the trace generator pushes thousands
/// of small per-item syntheses through it) as well as the engine's coarse
/// per-swarm shards.
///
/// # Panics
///
/// If `f` panics, the panic is caught on the worker, every other worker is
/// still joined, and a single panic is re-raised on the caller naming the
/// lowest slot index whose task panicked plus the original message.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, workers: usize, f: F) -> Vec<T> {
    steal_map(n, workers, "parallel_map", f)
}

/// Maps the disjoint chunks of `data` described by `offsets` through `f`
/// across at most `workers` scoped threads, mutating each chunk in place.
///
/// Chunk `i` is `data[offsets[i]..offsets[i + 1]]`, so `offsets` must be
/// ascending with its last entry at most `data.len()` — exactly the
/// bucket-boundary arrays a counting sort produces. Chunks may be empty, and
/// a non-zero first offset leaves a leading prefix (like a trailing suffix
/// beyond the last offset) untouched.
///
/// Results come back chunk-ordered (slot `i` holds `f`'s value for chunk
/// `i`), and because the chunks never overlap, the final state of `data` is
/// the same for every worker count and schedule: deterministic parallel
/// mutation without a single `unsafe` block. Workers steal chunk indices
/// from an atomic cursor and take the matching `&mut [T]` out of that
/// chunk's own mutex-guarded slot — the lock is held only for the `take`
/// and no two workers ever want the same one, so it costs one uncontended
/// lock per *chunk*, not per element; chunks should be coarse (the trace
/// merge's hour buckets are thousands of records).
///
/// With one worker (or one chunk) no thread is spawned and `f` runs inline,
/// so serial callers pay nothing for routing through the shared primitive.
///
/// # Panics
///
/// Panics if `offsets` is not ascending or overruns `data`. A panic from
/// `f` is caught on the worker and re-raised on the caller naming the
/// lowest chunk slot whose task panicked — `f` never runs under a chunk
/// lock, so no mutex can poison the error path.
pub fn parallel_map_slices<T, R, F>(
    data: &mut [T],
    offsets: &[usize],
    workers: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "chunk offsets must be ascending"
    );
    let n = offsets.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    assert!(
        offsets[n] <= data.len(),
        "chunk offsets overrun the buffer: {} > {}",
        offsets[n],
        data.len()
    );

    // Carve the buffer into exclusive chunks up front; `split_at_mut` is the
    // whole disjointness proof.
    let mut chunks: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(n);
    let mut rest: &mut [T] = data;
    let mut consumed = 0usize;
    for i in 0..n {
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(offsets[i] - consumed);
        let (chunk, tail) = tail.split_at_mut(offsets[i + 1] - offsets[i]);
        rest = tail;
        consumed = offsets[i + 1];
        chunks.push(Mutex::new(Some(chunk)));
    }

    steal_map(n, workers, "parallel_map_slices", |i| {
        let chunk = chunks[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("each chunk is stolen exactly once");
        f(i, chunk)
    })
}

/// Runs `a` on a scoped thread while `b` runs on the caller's thread, and
/// returns both results once both sides finish.
///
/// This is the two-task companion to [`parallel_map`]: where the mappers fan
/// one shape of work across many workers, `parallel_join` pairs two
/// *different* computations — typically a producer feeding a channel and the
/// consumer draining it. Running `b` inline means a caller that joins a
/// producer with a blocking consumer spends no thread beyond the one it
/// already has.
///
/// # Panics
///
/// Propagates a panic from either closure. If `b` panics while `a` is still
/// running, the scope still joins `a` before unwinding — so `a` must not
/// deadlock when its counterpart dies (channel producers see a disconnect
/// error and return).
pub fn parallel_join<A, B, FA, FB>(a: FA, b: FB) -> (A, B)
where
    A: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B,
{
    std::thread::scope(|scope| {
        let handle = scope.spawn(a);
        let out_b = b();
        let out_a = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (out_a, out_b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for workers in [1, 2, 8, 500] {
            assert_eq!(parallel_map(257, workers, |i| i * i), expected);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn one_worker_runs_every_task_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = parallel_map(8, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "parallel_map");
        let mut data = [0u8; 8];
        let ids = parallel_map_slices(&mut data, &[0, 2, 5, 8], 1, |_, _| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller), "parallel_map_slices");
    }

    #[test]
    fn results_land_at_index_slots_not_completion_order() {
        // Make early indices finish last: slot order must still hold.
        let out = parallel_map(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn slices_mutate_in_place_identically_for_any_worker_count() {
        let offsets = [0usize, 3, 3, 10, 64, 100];
        let reference: Vec<u64> = {
            let mut data: Vec<u64> = (0..100).collect();
            for w in offsets.windows(2) {
                for (k, v) in data[w[0]..w[1]].iter_mut().enumerate() {
                    *v = *v * 7 + k as u64;
                }
            }
            data
        };
        for workers in [1, 2, 8, 500] {
            let mut data: Vec<u64> = (0..100).collect();
            let lens = parallel_map_slices(&mut data, &offsets, workers, |i, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = *v * 7 + k as u64;
                }
                (i, chunk.len())
            });
            assert_eq!(data, reference, "{workers} workers");
            assert_eq!(
                lens,
                vec![(0, 3), (1, 0), (2, 7), (3, 54), (4, 36)],
                "{workers} workers"
            );
        }
    }

    #[test]
    fn slices_leave_uncovered_prefix_and_suffix_untouched() {
        let mut data = [1u32; 12];
        // Chunks cover only [2, 9): leading and trailing cells must survive.
        let out = parallel_map_slices(&mut data, &[2, 5, 9], 4, |_, chunk| {
            chunk.iter_mut().for_each(|v| *v = 0);
            chunk.len()
        });
        assert_eq!(out, vec![3, 4]);
        assert_eq!(data, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn slices_empty_and_degenerate_offsets() {
        let mut data = [5u8; 4];
        let none: Vec<()> = parallel_map_slices(&mut data, &[], 4, |_, _| ());
        assert!(none.is_empty());
        let one: Vec<usize> = parallel_map_slices(&mut data, &[4], 4, |_, c| c.len());
        assert!(one.is_empty(), "a single offset describes zero chunks");
        let all_empty = parallel_map_slices(&mut data, &[2, 2, 2], 4, |_, c| c.len());
        assert_eq!(all_empty, vec![0, 0]);
        assert_eq!(data, [5; 4]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn slices_reject_descending_offsets() {
        let mut data = [0u8; 4];
        let _ = parallel_map_slices(&mut data, &[3, 1], 2, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn slices_reject_overrunning_offsets() {
        let mut data = [0u8; 4];
        let _ = parallel_map_slices(&mut data, &[0, 9], 2, |_, _| ());
    }

    /// Runs `body` expecting it to panic, and returns the panic message.
    fn panic_message_of<F: FnOnce() + std::panic::UnwindSafe>(body: F) -> String {
        let payload = catch_unwind(body).expect_err("closure should panic");
        payload_text(payload.as_ref()).to_owned()
    }

    #[test]
    fn map_panic_names_the_originating_slot() {
        for workers in [1, 2, 8] {
            let msg = panic_message_of(|| {
                let _ = parallel_map(16, workers, |i| {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                    i
                });
            });
            assert!(
                msg.contains("parallel_map: task for slot 5 panicked") && msg.contains("boom at 5"),
                "{workers} workers: unexpected message {msg:?}"
            );
        }
    }

    #[test]
    fn map_panic_surfaces_lowest_slot_when_every_task_panics() {
        let msg = panic_message_of(|| {
            let _ = parallel_map(32, 8, |i| -> usize { panic!("all fail ({i})") });
        });
        assert!(
            msg.contains("task for slot 0 panicked"),
            "unexpected message {msg:?}"
        );
    }

    #[test]
    fn slices_panic_names_the_originating_slot_not_a_poisoned_mutex() {
        for workers in [1, 2, 8] {
            let offsets = [0usize, 4, 8, 12, 16];
            let msg = panic_message_of(|| {
                let mut data = [0u8; 16];
                let _ = parallel_map_slices(&mut data, &offsets, workers, |i, chunk| {
                    if i == 2 {
                        panic!("chunk {i} died");
                    }
                    chunk.iter_mut().for_each(|v| *v = 1);
                });
            });
            assert!(
                msg.contains("parallel_map_slices: task for slot 2 panicked")
                    && msg.contains("chunk 2 died"),
                "{workers} workers: unexpected message {msg:?}"
            );
            assert!(
                !msg.contains("poison"),
                "{workers} workers: panic path leaked mutex poisoning: {msg:?}"
            );
        }
    }

    #[test]
    fn surviving_slices_are_still_mutated_after_a_panic() {
        // Workers that stole other chunks finish them before the re-raise;
        // the data visible after catching the panic reflects every task
        // that ran, and only the panicking chunk is left untouched.
        let offsets = [0usize, 4, 8];
        let mut data = [0u8; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = parallel_map_slices(&mut data, &offsets, 1, |i, chunk| {
                if i == 1 {
                    panic!("late chunk dies");
                }
                chunk.iter_mut().for_each(|v| *v = 7);
            });
        }));
        assert!(result.is_err());
        assert_eq!(data[..4], [7; 4], "chunk before the panic was completed");
        assert_eq!(data[4..], [0; 4], "panicking chunk rolled back nothing");
    }

    #[test]
    fn join_returns_both_sides() {
        let (a, b) = parallel_join(|| 6 * 7, || "consumer".len());
        assert_eq!((a, b), (42, 8));
    }

    #[test]
    fn join_runs_producer_and_consumer_concurrently() {
        // A rendezvous over a bounded channel deadlocks unless both closures
        // genuinely run at the same time.
        let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(0);
        let (sent, got) = parallel_join(
            move || (0..64).map(|i| tx.send(i).is_ok() as u32).sum::<u32>(),
            move || rx.iter().sum::<u32>(),
        );
        assert_eq!(sent, 64);
        assert_eq!(got, (0..64).sum::<u32>());
    }
}
