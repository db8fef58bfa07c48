//! Property tests for the streaming per-day store pipeline: a
//! [`SegmentedStore`] must be a lossless day-partition of the monolithic
//! [`SessionStore`], and the segment-sequential engine must replay it to a
//! **byte-identical** report — whatever the records look like, and in
//! particular when sessions straddle segment (day) boundaries.

use proptest::prelude::*;

use consume_local::prelude::*;
use consume_local::topology::{ExchangeId, IspId, PopId, UserLocation};
use consume_local::trace::device::DeviceClass;
use consume_local::trace::{
    ContentId, SegmentedStore, SessionRecord, SessionStore, SimTime, UserId,
};

/// Three days: enough for first/middle/last-segment behaviour.
const HORIZON: u64 = 3 * 86_400;
const USERS: usize = 60;

fn record(
    (start, user, content, duration, device, isp, exchange): (u64, u32, u32, u32, usize, u8, u32),
) -> SessionRecord {
    SessionRecord {
        user: UserId(user),
        content: ContentId(content),
        start: SimTime(start),
        duration_secs: duration,
        device: DeviceClass::MIX[device].0,
        isp: IspId(isp),
        location: UserLocation::from_raw_parts(ExchangeId(exchange), PopId(exchange / 4)),
    }
}

/// Random records over a tiny world. Durations run up to two days, so many
/// sessions cross one or even two segment boundaries; starts cover the
/// whole horizon including the final day (whose sessions may end beyond
/// the horizon).
fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    proptest::collection::vec(
        (
            0..HORIZON,
            0..USERS as u32,
            0u32..6,
            60u32..2 * 86_400,
            0usize..DeviceClass::MIX.len(),
            0u8..3,
            0u32..12,
        )
            .prop_map(record),
        1..80,
    )
}

/// Records clustered tightly around the day-1 boundary: every session
/// starts within ±30 minutes of midnight and lasts up to 2 hours, so
/// almost every window run is interrupted by the segment cut.
fn boundary_straddler_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    proptest::collection::vec(
        (
            86_400u64 - 1_800..86_400 + 1_800,
            0..USERS as u32,
            0u32..3,
            60u32..7_200,
            0usize..DeviceClass::MIX.len(),
            0u8..2,
            0u32..6,
        )
            .prop_map(record),
        1..40,
    )
}

proptest! {
    #[test]
    fn segmented_store_round_trips_like_the_monolithic_store(
        records in records_strategy(),
    ) {
        let mono = SessionStore::from_records(&records, HORIZON, USERS);
        let seg = SegmentedStore::from_records(&records, HORIZON, USERS);
        prop_assert_eq!(seg.len(), mono.len());

        // Concatenated per-segment records equal the monolithic round trip
        // (canonical order included), and each segment holds exactly its
        // day's sessions.
        let mut concatenated = Vec::with_capacity(seg.len());
        for (day, segment) in seg.segments().iter().enumerate() {
            let lo = day as u64 * SegmentedStore::SEGMENT_SECS;
            for r in segment.to_records() {
                prop_assert!(r.start.as_secs() >= lo);
                prop_assert!(r.start.as_secs() < lo + SegmentedStore::SEGMENT_SECS);
                concatenated.push(r);
            }
        }
        prop_assert_eq!(&concatenated, &mono.to_records());
        prop_assert_eq!(&seg.to_records(), &concatenated);

        // Global record lookups agree with the monolithic store.
        for i in 0..seg.len() {
            prop_assert_eq!(seg.record(i), mono.record(i));
        }

        // Rebuilding from the round-tripped records reproduces the store.
        prop_assert_eq!(
            &SegmentedStore::from_records(&concatenated, HORIZON, USERS),
            &seg
        );
    }

    #[test]
    fn segmented_engine_matches_monolithic_on_random_traces(
        records in records_strategy(),
        matcher_pick in 0u8..2,
        window_secs in 5u64..600,
        participation_pct in 30u64..=100,
    ) {
        let mono = SessionStore::from_records(&records, HORIZON, USERS);
        let seg = SegmentedStore::from_records(&records, HORIZON, USERS);
        let cfg = SimConfig {
            matcher: if matcher_pick == 1 {
                MatcherKind::Random
            } else {
                MatcherKind::Hierarchical
            },
            window_secs,
            participation_rate: participation_pct as f64 / 100.0,
            ..Default::default()
        };
        let sim = Simulator::new(cfg);
        prop_assert_eq!(sim.simulate(&seg), sim.simulate(&mono));
    }

    #[test]
    fn segment_boundary_straddlers_replay_identically(
        records in boundary_straddler_strategy(),
        window_secs in 5u64..3_600,
        preload_tenths in 0u64..5,
    ) {
        let mono = SessionStore::from_records(&records, HORIZON, USERS);
        let seg = SegmentedStore::from_records(&records, HORIZON, USERS);
        let cfg = SimConfig {
            window_secs,
            preload_fraction: preload_tenths as f64 / 10.0,
            ..Default::default()
        };
        let sim = Simulator::new(cfg);
        prop_assert_eq!(sim.simulate(&seg), sim.simulate(&mono));
    }
}

#[test]
fn generated_trace_segments_and_stream_replay_identically() {
    // End to end on a real generated trace: the segmented store built from
    // the trace, the segmented store emitted by the generator, and the
    // bounded-memory generate-and-simulate stream all reproduce the
    // monolithic report byte for byte.
    let config = TraceConfig::london_sep2013().scaled(0.0005).unwrap();
    let generator = TraceGenerator::new(config, 41);
    let trace = generator.generate().unwrap();
    let sim = Simulator::new(SimConfig::default());
    let monolithic = sim.simulate(&trace);

    let from_trace = SegmentedStore::from_trace(&trace);
    assert_eq!(sim.simulate(&from_trace), monolithic);

    let emitted = generator.generate_segmented().unwrap();
    assert_eq!(emitted, from_trace);
    assert_eq!(sim.simulate(&emitted), monolithic);

    let mut stream = generator.segments().unwrap();
    assert_eq!(sim.simulate(&mut stream), monolithic);
}
