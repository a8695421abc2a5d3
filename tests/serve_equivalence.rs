//! Serving layer vs batch engine: property-based equivalence.
//!
//! The serving layer's contract is that every point-lookup answer is
//! byte-identical to the batch dataflow engine's answer over the same
//! delivered hours — the index only changes *what gets decoded*, never
//! the result. These properties throw randomized query mixes at both
//! sides of one landed day: users present and absent, event names that
//! hit and miss the dictionary, hours with traffic, quiet hours, hours
//! past the truncated end of the day, and empty hour ranges — and check
//! the answers at worker counts {1, 4, 8}.

use std::sync::OnceLock;

use proptest::prelude::*;

use unified_logging::core::write_client_events_columnar;
use unified_logging::prelude::*;
use unified_logging::serve::{
    batch_count, batch_sessions, batch_top_names, batch_user_events, IndexMaintainer, LookupStats,
    ServeHandle,
};
use unified_logging::warehouse::HourlyPartition;

/// Worker counts every answer is checked under.
const WORKERS: [usize; 3] = [1, 4, 8];

/// The day is truncated here: hours 22 and 23 never land, so queries
/// over them exercise the missing-hour path on both sides.
const TRUNCATE_AT: u64 = 22;

struct Fixture {
    wh: Warehouse,
    handle: ServeHandle,
    /// Distinct user ids the day actually saw, sorted.
    users: Vec<i64>,
    /// Distinct event names the day actually logged, sorted.
    names: Vec<String>,
}

static FIX: OnceLock<Fixture> = OnceLock::new();

/// The landed day the properties share, built once.
fn fixture() -> &'static Fixture {
    FIX.get_or_init(|| landed_day(&Registry::new()))
}

/// One landed day: generated events bucketed per hour, landed columnar with
/// small row groups, indexed through the delivery-tap path by a maintainer
/// mirroring into `registry`.
fn landed_day(registry: &Registry) -> Fixture {
    let day = generate_day(
        &WorkloadConfig {
            users: 60,
            ..Default::default()
        },
        0,
    );
    let wh = Warehouse::new();
    let mut by_hour: Vec<Vec<ClientEvent>> = vec![Vec::new(); 24];
    let mut users: Vec<i64> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for ev in day.events {
        let hour = ev.timestamp.hour_index();
        if hour >= TRUNCATE_AT {
            continue;
        }
        users.push(ev.user_id);
        names.push(ev.name.as_str().to_string());
        by_hour[hour as usize].push(ev);
    }
    users.sort_unstable();
    users.dedup();
    names.sort_unstable();
    names.dedup();
    let m = IndexMaintainer::with_obs(wh.clone(), "client_events", registry);
    for (hour, events) in by_hour.iter().enumerate() {
        if events.is_empty() {
            continue;
        }
        let partition = HourlyPartition::from_hour_index("client_events", hour as u64);
        write_client_events_columnar(
            &wh,
            &partition.main_dir().child("part-00000").unwrap(),
            events,
            true,
            8,
        )
        .unwrap();
        m.tap().hour_delivered(&partition, &[]);
    }
    Fixture {
        wh,
        handle: m.handle(),
        users,
        names,
    }
}

/// Maps a raw pick onto a user the day saw (even picks) or one it never
/// saw (odd picks), so both paths get coverage.
fn pick_user(f: &Fixture, raw: usize) -> i64 {
    if raw.is_multiple_of(2) {
        f.users[(raw / 2) % f.users.len()]
    } else {
        f.users.last().unwrap() + 1 + (raw as i64 % 7)
    }
}

/// Maps a raw pick onto a name in the dictionary (even) or a name no
/// dictionary holds (odd).
fn pick_name(f: &Fixture, raw: usize) -> String {
    if raw.is_multiple_of(2) {
        f.names[(raw / 2) % f.names.len()].clone()
    } else {
        format!("never:logged:by:any:client:v{raw}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `user-events <user> <hour>` equals the batch engine's filtered
    /// scan at every worker count — including absent users, quiet hours,
    /// and hours past the truncated day.
    #[test]
    fn user_events_match_batch(raw_user in 0usize..128, hour in 0u64..30) {
        let f = fixture();
        let user = pick_user(f, raw_user);
        let serve = f.handle.user_events(user, hour).unwrap();
        for workers in WORKERS {
            let batch = batch_user_events(&f.wh, "client_events", hour, user, workers).unwrap();
            prop_assert_eq!(&serve.rows, &batch, "user {} hour {} workers {}", user, hour, workers);
        }
    }

    /// `count <name>` over a random (possibly empty, possibly past-day)
    /// hour range equals the batch engine's filter + global count.
    #[test]
    fn counts_match_batch(raw_name in 0usize..64, lo in 0u64..30, len in 0u64..30) {
        let f = fixture();
        let name = pick_name(f, raw_name);
        let hours = lo..(lo + len).min(48);
        let serve = f.handle.count(&name, hours.clone());
        for workers in WORKERS {
            let batch = batch_count(&f.wh, "client_events", hours.clone(), &name, workers).unwrap();
            prop_assert_eq!(&serve.rows, &batch, "name {} hours {:?} workers {}", name, hours, workers);
        }
        // Index-only answers decode nothing, whatever the mix.
        prop_assert_eq!(serve.stats.decoded_bytes, 0);
    }

    /// `top-names <hour> <k>` equals the batch engine's group/sort/limit,
    /// tie-breaks included.
    #[test]
    fn top_names_match_batch(hour in 0u64..30, k in 0usize..8) {
        let f = fixture();
        let serve = f.handle.top_names(hour, k);
        for workers in WORKERS {
            let batch = batch_top_names(&f.wh, "client_events", hour, k, workers).unwrap();
            prop_assert_eq!(&serve.rows, &batch, "hour {} k {} workers {}", hour, k, workers);
        }
        prop_assert_eq!(serve.stats.decoded_bytes, 0);
    }

    /// `sessions <user> [day]` equals sessionizing the batch engine's
    /// filtered day scan — day 1 is entirely past the data and must be
    /// empty on both sides.
    #[test]
    fn sessions_match_batch(raw_user in 0usize..128, day in 0u64..2) {
        let f = fixture();
        let user = pick_user(f, raw_user);
        let (serve, _) = f.handle.sessions(user, day).unwrap();
        for workers in WORKERS {
            let batch = batch_sessions(&f.wh, "client_events", day, user, workers).unwrap();
            prop_assert_eq!(&serve, &batch, "user {} day {} workers {}", user, day, workers);
        }
    }
}

/// The serving layer never decodes more than the batch engine for the same
/// lookup — pruning can only shrink the bill — and over the lookup suite E22
/// bills (the sessions of a present and an absent user; user events of
/// present and absent users in traffic hours and past the day; counts of a
/// logged and an unlogged name over the day, one hour and hours past it; top
/// names) it decodes at least 50× fewer bytes, while the `serve/*` registry
/// counts every lookup and every group the index pruned. The test lands a
/// day of its own, so the proptests reading the shared fixture beside it
/// cannot leak into its bills or counters.
#[test]
fn serve_never_decodes_more_than_batch() {
    let registry = Registry::new();
    let f = landed_day(&registry);
    let (h, wh) = (&f.handle, &f.wh);
    let (mut serve, mut batch) = (Vec::new(), 0);
    // Bills one lookup: the serving layer's stats, then the bytes the
    // warehouse decoded for its batch twin.
    let mut bill = |what: String, stats: LookupStats, twin: &mut dyn FnMut()| {
        let before = wh.stats();
        twin();
        let bytes = wh.stats().since(&before).uncompressed_bytes_read;
        assert!(
            stats.decoded_bytes <= bytes,
            "{what}: serve decoded {} B, batch {bytes} B",
            stats.decoded_bytes
        );
        serve.push(stats);
        batch += bytes;
    };
    let (first, median, absent) = (f.users[0], f.users[f.users.len() / 2], -1);
    for u in [median, absent] {
        let stats = h.sessions(u, 0).unwrap().1;
        bill(format!("sessions {u}"), stats, &mut || {
            drop(batch_sessions(wh, "client_events", 0, u, 1).unwrap())
        });
    }
    for u in [first, median, absent] {
        for hour in [0u64, 7, 25] {
            let stats = h.user_events(u, hour).unwrap().stats;
            bill(format!("user {u} hour {hour}"), stats, &mut || {
                drop(batch_user_events(wh, "client_events", hour, u, 1).unwrap())
            });
        }
    }
    let (name, unlogged) = (f.names[0].as_str(), "never:logged:by:any:client:ever");
    for (n, hours) in [
        (name, 0..24),
        (unlogged, 0..24),
        (name, 7..8),
        (name, 24..48),
    ] {
        let stats = h.count(n, hours.clone()).stats;
        bill(format!("count {n} {hours:?}"), stats, &mut || {
            drop(batch_count(wh, "client_events", hours.clone(), n, 1).unwrap())
        });
    }
    for (hour, k) in [(7, 5), (3, 3), (25, 5)] {
        let stats = h.top_names(hour, k).stats;
        bill(format!("top-names {hour} {k}"), stats, &mut || {
            drop(batch_top_names(wh, "client_events", hour, k, 1).unwrap())
        });
    }
    let decoded: u64 = serve.iter().map(|s| s.decoded_bytes).sum();
    assert!(
        batch >= 50 * decoded,
        "the suite decoded {decoded} B off the index and {batch} B off batch: under 50x"
    );
    let snap = registry.snapshot();
    let pruned: u64 = serve.iter().map(|s| s.groups_pruned).sum();
    let lookups = serve.len() as u64;
    assert_eq!(snap.counter_value("serve/lookups_served"), Some(lookups));
    assert_eq!(snap.counter_value("serve/row_groups_pruned"), Some(pruned));
}
