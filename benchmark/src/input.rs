//! The benchmark's inputs, all derived from `--seed`.
//!
//! The benchmark generates a day, encodes every event to its Thrift payload
//! and buckets the payloads by hour; the program under test receives only
//! those bytes. While bucketing, the benchmark keeps its own histograms of the
//! input (events per user, per name, per hour), which are the reference the
//! program's answers are checked against.

use std::collections::BTreeMap;

use uli_thrift::ThriftRecord;
use uli_workload::{DayStream, GroundTruth, WorkloadConfig, Zipf};

use crate::trace::Tracer;

/// One event as the daemons will see it.
pub struct Logged {
    pub user: i64,
    /// Index into [`Day::names`].
    pub name: u32,
    pub payload: Vec<u8>,
}

/// A generated, pre-encoded day with the benchmark's own histograms of it.
pub struct Day {
    pub users: u64,
    /// 24 buckets, in generation order within each.
    pub hours: Vec<Vec<Logged>>,
    /// Distinct event names, in first-seen order.
    pub names: Vec<String>,
    pub truth: GroundTruth,
    pub records: u64,
    pub payload_bytes: u64,
    /// Events per user id (0 is the logged-out pseudo-user).
    pub per_user: BTreeMap<i64, u64>,
    /// Events per name index.
    pub per_name: BTreeMap<u32, u64>,
    /// Name indexes, most frequent first (ties by name).
    pub names_by_rank: Vec<u32>,
    /// Logged-in users, most events first (ties by id).
    pub users_by_rank: Vec<i64>,
    /// Hours that carry traffic.
    pub traffic_hours: Vec<u64>,
}

impl Day {
    /// Generates day 0 for `users` users and encodes it. The two steps are
    /// recorded as the spans `workload.generate` and `thrift.encode`.
    pub fn generate(users: u64, seed: u64, tracer: &Tracer) -> Day {
        let config = WorkloadConfig {
            users,
            seed,
            ..Default::default()
        };
        let span = tracer.span("workload", "workload.generate");
        let mut stream = DayStream::new(&config, 0);
        let events: Vec<_> = stream.by_ref().collect();
        let truth = stream.into_truth();
        span.end(events.len() as u64, 0);

        let span = tracer.span("thrift", "thrift.encode");
        let payloads: Vec<Vec<u8>> = events.iter().map(|ev| ev.to_bytes()).collect();
        let payload_bytes = payloads.iter().map(|p| p.len() as u64).sum();
        span.end(events.len() as u64, payload_bytes);

        let mut hours: Vec<Vec<Logged>> = (0..24).map(|_| Vec::new()).collect();
        let mut names = Vec::new();
        let mut name_ids: BTreeMap<String, u32> = BTreeMap::new();
        let mut per_user: BTreeMap<i64, u64> = BTreeMap::new();
        let mut per_name: BTreeMap<u32, u64> = BTreeMap::new();
        for (ev, payload) in events.iter().zip(payloads) {
            let name = *name_ids
                .entry(ev.name.as_str().to_string())
                .or_insert_with(|| {
                    names.push(ev.name.as_str().to_string());
                    names.len() as u32 - 1
                });
            *per_user.entry(ev.user_id).or_default() += 1;
            *per_name.entry(name).or_default() += 1;
            hours[ev.timestamp.hour_index() as usize].push(Logged {
                user: ev.user_id,
                name,
                payload,
            });
        }
        let mut names_by_rank: Vec<u32> = per_name.keys().copied().collect();
        names_by_rank.sort_by(|a, b| {
            per_name[b]
                .cmp(&per_name[a])
                .then_with(|| names[*a as usize].cmp(&names[*b as usize]))
        });
        let mut users_by_rank: Vec<i64> = per_user.keys().copied().filter(|&u| u != 0).collect();
        users_by_rank.sort_by(|a, b| per_user[b].cmp(&per_user[a]).then(a.cmp(b)));
        let traffic_hours = (0..24).filter(|&h| !hours[h as usize].is_empty()).collect();
        Day {
            users,
            hours,
            names,
            truth,
            records: events.len() as u64,
            payload_bytes,
            per_user,
            per_name,
            names_by_rank,
            users_by_rank,
            traffic_hours,
        }
    }

    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The name at frequency rank `rank` (1 = most frequent), if the day has
    /// that many names.
    pub fn name_at_rank(&self, rank: usize) -> Option<&str> {
        self.names_by_rank.get(rank - 1).map(|&id| self.name(id))
    }

    /// Reference count of events called `name`.
    pub fn count_of(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|n| n == name)
            .and_then(|id| self.per_name.get(&(id as u32)).copied())
            .unwrap_or(0)
    }

    /// Reference count of events called `name` in one hour.
    pub fn count_in_hour(&self, name: &str, hour: u64) -> u64 {
        self.hours[hour as usize]
            .iter()
            .filter(|l| self.name(l.name) == name)
            .count() as u64
    }

    /// Reference count of `user`'s events in one hour.
    pub fn user_events_in_hour(&self, user: i64, hour: u64) -> u64 {
        self.hours
            .get(hour as usize)
            .map_or(0, |h| h.iter().filter(|l| l.user == user).count() as u64)
    }
}

/// SplitMix64: the benchmark's own generator for lookup orders.
pub struct Rng(u64);

/// So that `uli_workload::Zipf` — the distribution the day itself is
/// generated with — can draw from this generator.
impl rand::RngCore for Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        rand::Rng::gen(self)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// One interactive read.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    UserEvents {
        user: i64,
        hour: u64,
    },
    Sessions {
        user: i64,
    },
    /// Count of a name over the whole day.
    Count {
        name: String,
    },
    TopNames {
        hour: u64,
    },
}

/// Skew of the user popularity the lookups draw from.
const LOOKUP_ZIPF_ALPHA: f64 = 1.1;
/// Share of user draws that name a user the day never saw.
const ABSENT_USER_SHARE: f64 = 0.10;
/// `count` lookups draw uniformly from this many most frequent names.
const COUNT_NAME_POOL: usize = 30;

/// Draws users the way the serve workload does: Zipf over the day's users
/// ranked by event count, a tenth of the draws an absent user.
pub struct UserDraw<'a> {
    day: &'a Day,
    zipf: Zipf,
    absent_base: i64,
}

impl<'a> UserDraw<'a> {
    pub fn new(day: &'a Day) -> UserDraw<'a> {
        UserDraw {
            day,
            zipf: Zipf::new(day.users_by_rank.len().max(1), LOOKUP_ZIPF_ALPHA),
            absent_base: day.per_user.keys().next_back().copied().unwrap_or(0) + 1_000,
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> i64 {
        if rng.unit() < ABSENT_USER_SHARE || self.day.users_by_rank.is_empty() {
            self.absent_base + rng.below(1_000) as i64
        } else {
            self.day.users_by_rank[self.zipf.sample(rng)]
        }
    }
}

/// Seed of every lookup order. A constant: `--seed` decides the day — who
/// holds each popularity rank and how much they logged — while the sequence
/// of ranks, hours and lookup classes is the same in every run. Drawing the
/// order from `--seed` too made `lookup_rps`, a mean over a heavy-tailed
/// cost, swing by a quarter between seeds on which users the few `sessions`
/// lookups happened to hit.
pub const LOOKUP_ORDER_SEED: u64 = 0x5e27e;

/// `n` lookups in a fixed pseudo-random order: 85 % `user_events`, 5 % each
/// of `sessions`, `count` and `top_names`.
pub fn lookup_plan(day: &Day, n: usize) -> Vec<Lookup> {
    let mut rng = Rng::new(LOOKUP_ORDER_SEED);
    let users = UserDraw::new(day);
    let hour = |rng: &mut Rng| day.traffic_hours[rng.below(day.traffic_hours.len())];
    let pool = day.names_by_rank.len().min(COUNT_NAME_POOL);
    (0..n)
        .map(|_| {
            let class = rng.unit();
            if class < 0.85 {
                Lookup::UserEvents {
                    user: users.draw(&mut rng),
                    hour: hour(&mut rng),
                }
            } else if class < 0.90 {
                Lookup::Sessions {
                    user: users.draw(&mut rng),
                }
            } else if class < 0.95 {
                Lookup::Count {
                    name: day.name(day.names_by_rank[rng.below(pool)]).to_string(),
                }
            } else {
                Lookup::TopNames {
                    hour: hour(&mut rng),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_day_other_seed_other_day() {
        let a = Day::generate(60, 5, &Tracer::off());
        let b = Day::generate(60, 5, &Tracer::off());
        let c = Day::generate(60, 6, &Tracer::off());
        let bytes = |d: &Day| -> Vec<Vec<u8>> {
            d.hours
                .iter()
                .flatten()
                .map(|l| l.payload.clone())
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_eq!(a.truth.events, a.records);
    }

    #[test]
    fn histograms_cover_exactly_the_day() {
        let day = Day::generate(60, 5, &Tracer::off());
        assert_eq!(day.per_user.values().sum::<u64>(), day.records);
        assert_eq!(day.per_name.values().sum::<u64>(), day.records);
        assert_eq!(
            day.records,
            day.hours.iter().map(|h| h.len() as u64).sum::<u64>()
        );
        let top = day.name_at_rank(1).unwrap();
        assert_eq!(day.count_of(top), day.per_name[&day.names_by_rank[0]]);
        assert_eq!(day.count_of("never:logged:by:any:client:ever"), 0);
        let by_hour: u64 = day
            .traffic_hours
            .iter()
            .map(|&h| day.count_in_hour(top, h))
            .sum();
        assert_eq!(by_hour, day.count_of(top));
        assert!(!day.users_by_rank.contains(&0));
    }

    #[test]
    fn lookup_plan_is_fixed_per_day_and_follows_the_mix() {
        let day = Day::generate(60, 5, &Tracer::off());
        let a = lookup_plan(&day, 2_000);
        assert_eq!(a, lookup_plan(&day, 2_000));
        let other_day = Day::generate(60, 6, &Tracer::off());
        assert_ne!(a, lookup_plan(&other_day, 2_000));
        let user_events = a
            .iter()
            .filter(|l| matches!(l, Lookup::UserEvents { .. }))
            .count();
        assert!((1_600..1_800).contains(&user_events), "{user_events}");
        let absent = a
            .iter()
            .filter(
                |l| matches!(l, Lookup::UserEvents { user, .. } if !day.per_user.contains_key(user)),
            )
            .count();
        assert!((100..260).contains(&absent), "{absent}");
    }
}
