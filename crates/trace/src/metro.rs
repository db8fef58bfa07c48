//! The **metro** preset: several city-scale workloads composed into one
//! metropolitan trace with disjoint per-city id ranges.
//!
//! The paper's consume-local economics are evaluated on one city (London,
//! Table I), but the ROADMAP north-star — "millions of users, heavy
//! traffic" — asks for metropolitan scale: multiple London-sized cities
//! served by the same five-ISP registry. [`MetroConfig`] describes such a
//! world as `cities × one TraceConfig`; [`MetroTrace`] instantiates one
//! deterministic [`TraceGenerator`] per city (each with its own derived
//! seed) and offsets every city's user and content ids by a fixed stride so
//! the composed id spaces are **disjoint and monotone in the city index**:
//!
//! ```text
//! user    id = city_user    + city × city.users
//! content id = city_content + city × city.catalogue_size
//! ```
//!
//! **Sharding by city is sharding by swarm.** Swarm keys start with the
//! content id, so disjoint content ranges mean disjoint swarm key ranges —
//! each city can be simulated as an independent shard and the per-shard
//! ledgers merged commutatively (`consume-local-sim`'s
//! `merge_shard_reports`), byte-identical to simulating the union stream.
//!
//! Peak memory follows the per-day contract of
//! [`SegmentStream`]: a [`MetroStream`]
//! holds one day of each participating city at a time, never a whole city.
//!
//! # Example
//!
//! ```
//! use consume_local_trace::metro::{MetroConfig, MetroTrace};
//!
//! # fn main() -> Result<(), consume_local_trace::TraceError> {
//! // A tiny three-city metro; cities are full metros scaled way down.
//! let config = MetroConfig::five_city().with_cities(3).city_scaled(0.0005)?;
//! let metro = MetroTrace::new(config, 2018)?;
//! let mut union = metro.stream()?;
//! let day0 = union.next_segment().expect("three cities, one day");
//! assert!(!day0.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::generator::{
    merge_session_batches, SegmentStream, TraceConfig, TraceError, TraceGenerator,
};
use crate::session::SessionRecord;
use crate::store::SessionStore;

/// A metropolitan workload: `cities` statistically identical city traces
/// (each generated from its own derived seed) sharing one ISP registry,
/// with disjoint user and content id ranges per city.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroConfig {
    /// Number of cities composed into the metro (≥ 1).
    pub cities: u32,
    /// The per-city workload. Every city uses this exact configuration —
    /// same registry, same horizon — and differs only in its derived seed
    /// and id offsets.
    pub city: TraceConfig,
}

impl MetroConfig {
    /// The headline metro preset: **five London-scale cities** (5 ×
    /// [`TraceConfig::london_sep2013`] = 18 M users, 117.5 M target
    /// sessions, 120 K items over 30 days).
    pub fn five_city() -> Self {
        Self {
            cities: 5,
            city: TraceConfig::london_sep2013(),
        }
    }

    /// The benchmark preset past the old 4 M-user ceiling: five cities at
    /// 0.6 × London scale — **10.8 M users** (> 2²³), 70.5 M target
    /// sessions, 72 K items. Small enough to simulate within the
    /// full-scale-London RSS envelope when sharded city-by-city.
    pub fn ten_million() -> Self {
        Self {
            cities: 5,
            city: TraceConfig::london_sep2013()
                .scaled(0.6)
                .expect("0.6 is a valid scale"),
        }
    }

    /// Replaces the city count (builder style).
    pub fn with_cities(mut self, cities: u32) -> Self {
        self.cities = cities;
        self
    }

    /// Scales every city by `scale ∈ (0, 1]` (see [`TraceConfig::scaled`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when `scale` is outside `(0, 1]`.
    pub fn city_scaled(mut self, scale: f64) -> Result<Self, TraceError> {
        self.city = self.city.scaled(scale)?;
        Ok(self)
    }

    /// Validates the composition: at least one city, a valid city config,
    /// and composed id spaces that fit `u32`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`TraceError`].
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.cities == 0 {
            return Err(TraceError::BadConfig {
                field: "cities",
                value: 0.0,
            });
        }
        self.city.validate()?;
        let users = u64::from(self.cities) * u64::from(self.city.users);
        if users > u64::from(u32::MAX) + 1 {
            return Err(TraceError::BadConfig {
                field: "metro_users",
                value: users as f64,
            });
        }
        let items = u64::from(self.cities) * u64::from(self.city.catalogue_size);
        if items > u64::from(u32::MAX) + 1 {
            return Err(TraceError::BadConfig {
                field: "metro_catalogue",
                value: items as f64,
            });
        }
        Ok(())
    }

    /// Total metro population across all cities.
    pub fn users(&self) -> u64 {
        u64::from(self.cities) * u64::from(self.city.users)
    }

    /// Total metro catalogue size across all cities.
    pub fn catalogue_size(&self) -> u64 {
        u64::from(self.cities) * u64::from(self.city.catalogue_size)
    }

    /// The traced horizon in seconds (shared by every city).
    pub fn horizon_seconds(&self) -> u64 {
        self.city.horizon_seconds()
    }

    /// First user id of `city` (ids are `offset .. offset + city.users`).
    pub fn user_offset(&self, city: u32) -> u32 {
        city * self.city.users
    }

    /// First content id of `city`.
    pub fn content_offset(&self, city: u32) -> u32 {
        city * self.city.catalogue_size
    }
}

/// Derives city `city`'s generator seed from the metro seed: a
/// splitmix64-style finalizer over the stride-mixed index, so city streams
/// are statistically independent while the whole metro stays a pure
/// function of one seed.
fn city_seed(base: u64, city: u32) -> u64 {
    let mut z = base.wrapping_add(
        u64::from(city)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An instantiated metro: one deterministic [`TraceGenerator`] per city.
/// The generators are owned here so the borrowing day streams
/// ([`MetroStream`]) can be opened any number of times — union or per-city
/// shards — over one world.
#[derive(Debug)]
pub struct MetroTrace {
    config: MetroConfig,
    generators: Vec<TraceGenerator>,
    workers: usize,
}

impl MetroTrace {
    /// Builds the per-city generators from a validated config; city `c`
    /// generates from seed `city_seed(seed, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the configuration fails
    /// [`MetroConfig::validate`].
    pub fn new(config: MetroConfig, seed: u64) -> Result<Self, TraceError> {
        config.validate()?;
        let generators = (0..config.cities)
            .map(|c| TraceGenerator::new(config.city.clone(), city_seed(seed, c)))
            .collect();
        Ok(Self {
            config,
            generators,
            workers: 1,
        })
    }

    /// Fans per-city synthesis and the union merge across up to `workers`
    /// threads (clamped to at least one); emitted segments are
    /// byte-identical for every worker count, exactly as
    /// [`TraceGenerator::workers`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.generators = self
            .generators
            .into_iter()
            .map(|g| g.workers(workers))
            .collect();
        self
    }

    /// The metro configuration.
    pub fn config(&self) -> &MetroConfig {
        &self.config
    }

    /// Total metro population (every stream reports this, union or shard,
    /// so per-shard reports align index-for-index).
    pub fn population_len(&self) -> usize {
        self.config.users() as usize
    }

    /// The replay horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.config.horizon_seconds()
    }

    /// Opens the **union stream**: every city's day segments merged into
    /// one canonical-order segment per day. This is the unsharded reference
    /// the sharded runs are pinned byte-identical against.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the city configuration fails validation.
    pub fn stream(&self) -> Result<MetroStream<'_>, TraceError> {
        self.stream_of(0..self.config.cities)
    }

    /// Opens one **shard stream per city**, in city order. Each shard
    /// reports the *metro* population and horizon, so per-shard
    /// `SimReport`s (in `consume-local-sim`) have aligned user tables and
    /// merge commutatively.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the city configuration fails validation.
    pub fn shard_streams(&self) -> Result<Vec<MetroStream<'_>>, TraceError> {
        (0..self.config.cities)
            .map(|c| self.stream_of(c..c + 1))
            .collect()
    }

    /// Opens a stream over a contiguous city range.
    fn stream_of(&self, cities: std::ops::Range<u32>) -> Result<MetroStream<'_>, TraceError> {
        let lanes = cities
            .map(|c| {
                Ok(CityLane {
                    stream: self.generators[c as usize].segments()?,
                    user_offset: self.config.user_offset(c),
                    content_offset: self.config.content_offset(c),
                })
            })
            .collect::<Result<Vec<_>, TraceError>>()?;
        Ok(MetroStream {
            lanes,
            days: self.config.city.days,
            horizon_secs: self.horizon_secs(),
            population_len: self.population_len(),
            workers: self.workers,
            next_day: 0,
        })
    }
}

/// One city's resumable day stream plus its id offsets.
struct CityLane<'m> {
    stream: SegmentStream<'m>,
    user_offset: u32,
    content_offset: u32,
}

/// A bounded-memory day stream over one or more metro cities: each
/// [`MetroStream::next_segment`] call emits one day of every participating
/// city, id-offset and merged into canonical `(start, user, content)` order.
///
/// Offsetting each city's ids by a constant preserves the city's canonical
/// order, so the per-city day segments are valid pre-sorted batches for
/// [`merge_session_batches`] — the union merge is the one the generator
/// uses, and the emitted segment is byte-identical for any worker count. Only the participating cities' current day is ever
/// resident.
pub struct MetroStream<'m> {
    lanes: Vec<CityLane<'m>>,
    days: u32,
    horizon_secs: u64,
    population_len: usize,
    workers: usize,
    next_day: u32,
}

impl std::fmt::Debug for MetroStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetroStream")
            .field("cities", &self.lanes.len())
            .field("next_day", &self.next_day)
            .field("days", &self.days)
            .finish_non_exhaustive()
    }
}

impl MetroStream<'_> {
    /// Synthesises, offsets and merges the next day across every
    /// participating city; `None` once the horizon is exhausted.
    pub fn next_segment(&mut self) -> Option<SessionStore> {
        if self.next_day >= self.days {
            return None;
        }
        self.next_day += 1;
        let batches: Vec<Vec<SessionRecord>> = self
            .lanes
            .iter_mut()
            .map(|lane| {
                let segment = lane
                    .stream
                    .next_segment()
                    .expect("city streams share the metro day count");
                let mut records = segment.to_records();
                for r in &mut records {
                    r.user.0 += lane.user_offset;
                    r.content.0 += lane.content_offset;
                }
                records
            })
            .collect();
        let merged = merge_session_batches(&batches, self.workers);
        Some(SessionStore::from_sorted(
            &merged,
            self.horizon_secs,
            self.population_len,
        ))
    }

    /// The day index the next [`MetroStream::next_segment`] call emits.
    pub fn next_day(&self) -> u32 {
        self.next_day
    }

    /// Number of cities this stream spans (1 for a shard, `cities` for the
    /// union).
    pub fn cities(&self) -> usize {
        self.lanes.len()
    }

    /// The replay horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    /// The metro population size every emitted segment indexes into.
    pub fn population_len(&self) -> usize {
        self.population_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::sort_sessions;

    fn tiny() -> MetroConfig {
        MetroConfig::five_city()
            .with_cities(3)
            .city_scaled(0.0005)
            .unwrap()
    }

    #[test]
    fn validation_rejects_degenerate_compositions() {
        assert!(MetroConfig::five_city().with_cities(0).validate().is_err());
        // Composed id spaces must fit u32.
        let mut huge = MetroConfig::five_city();
        huge.cities = 4_000;
        assert!(huge.validate().is_err());
        assert!(tiny().validate().is_ok());
        assert!(MetroConfig::five_city().validate().is_ok());
        assert!(MetroConfig::ten_million().validate().is_ok());
    }

    #[test]
    fn id_offsets_are_disjoint_and_monotone() {
        let config = tiny();
        for c in 0..config.cities {
            assert_eq!(config.user_offset(c), c * config.city.users);
            assert_eq!(config.content_offset(c), c * config.city.catalogue_size);
        }
        let metro = MetroTrace::new(config.clone(), 7).unwrap();
        let mut union = metro.stream().unwrap();
        let mut seen_users = vec![false; metro.population_len()];
        while let Some(segment) = union.next_segment() {
            for i in 0..segment.len() {
                let r = segment.record(i);
                let city = r.user.0 / config.city.users;
                assert_eq!(
                    r.content.0 / config.city.catalogue_size,
                    city,
                    "user and content must agree on the city"
                );
                assert!(city < config.cities);
                seen_users[r.user.0 as usize] = true;
            }
        }
        // Every city contributed sessions.
        for c in 0..config.cities {
            let lo = config.user_offset(c) as usize;
            let hi = lo + config.city.users as usize;
            assert!(
                seen_users[lo..hi].iter().any(|&b| b),
                "city {c} contributed no sessions"
            );
        }
    }

    #[test]
    fn union_stream_equals_sorted_concatenation_of_shards() {
        let metro = MetroTrace::new(tiny(), 99).unwrap();
        let mut union = metro.stream().unwrap();
        let mut shards = metro.shard_streams().unwrap();
        assert_eq!(shards.len(), 3);
        loop {
            let day = union.next_segment();
            let shard_days: Vec<Option<SessionStore>> =
                shards.iter_mut().map(|s| s.next_segment()).collect();
            let Some(day) = day else {
                assert!(shard_days.iter().all(Option::is_none));
                break;
            };
            let mut concat: Vec<SessionRecord> = shard_days
                .iter()
                .flat_map(|s| s.as_ref().expect("shards share the day count").to_records())
                .collect();
            sort_sessions(&mut concat);
            assert_eq!(
                day.to_records(),
                concat,
                "union day must be the sorted union"
            );
            assert_eq!(day.population_len(), metro.population_len());
            assert_eq!(day.horizon_secs(), metro.horizon_secs());
        }
    }

    #[test]
    fn metro_is_deterministic_across_worker_counts() {
        let one = MetroTrace::new(tiny(), 41).unwrap();
        let mut a = one.stream().unwrap();
        let four = MetroTrace::new(tiny(), 41).unwrap().workers(4);
        let mut b = four.stream().unwrap();
        while let Some(day) = a.next_segment() {
            assert_eq!(Some(day), b.next_segment());
        }
        assert!(b.next_segment().is_none());
    }

    #[test]
    fn city_seeds_differ_and_are_stable() {
        let seeds: Vec<u64> = (0..5).map(|c| city_seed(2018, c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "derived city seeds collide");
        assert_eq!(
            seeds,
            (0..5).map(|c| city_seed(2018, c)).collect::<Vec<_>>()
        );
    }
}
