//! Property-based tests for ephemeral-node semantics — the contract the
//! Scribe daemons and aggregators lean on for discovery and failover.
//!
//! For arbitrary interleavings of sessions, ephemeral creations, and
//! expiries, the service must:
//!
//! * delete exactly the expired sessions' ephemerals (live sessions keep
//!   theirs, persistents survive everything);
//! * list exactly the live members under the registry; and
//! * fail every later call of an expired session with `SessionExpired`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uli_coord::{CoordError, CoordService, CreateMode};

const REGISTRY: &str = "/chaos/registry";

fn arb_plan() -> impl Strategy<Value = (Vec<u8>, Vec<bool>)> {
    // Per session: how many ephemerals it creates (0..=3); and whether it
    // expires. Up to 5 sessions.
    prop::collection::vec((0u8..4, any::<bool>()), 1..6).prop_map(|v| v.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expiry_deletes_exactly_the_expired_sessions_ephemerals(
        (nodes_per_session, expire) in arb_plan()
    ) {
        let svc = CoordService::new();
        let reader = svc.connect();
        reader.create("/chaos", Vec::new(), CreateMode::Persistent).unwrap();
        reader.create(REGISTRY, Vec::new(), CreateMode::Persistent).unwrap();

        // Each session registers its ephemerals, like aggregators would.
        let mut owned: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let sessions: Vec<_> = nodes_per_session
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let s = svc.connect();
                let mut paths = Vec::new();
                for _ in 0..n {
                    let path = s
                        .create(
                            &format!("{REGISTRY}/member-"),
                            b"endpoint".to_vec(),
                            CreateMode::EphemeralSequential,
                        )
                        .unwrap();
                    paths.push(path);
                }
                owned.insert(i, paths);
                s
            })
            .collect();

        for (i, s) in sessions.iter().enumerate() {
            if expire[i] {
                svc.expire_session(s.id());
            }
        }

        // Expired sessions' ephemerals are gone; survivors keep theirs; the
        // registry lists exactly them.
        let mut expected_members: Vec<String> = Vec::new();
        for (i, paths) in &owned {
            for p in paths {
                if expire[*i] {
                    prop_assert_eq!(
                        reader.get_data(p).unwrap_err(),
                        CoordError::NoNode(p.clone())
                    );
                } else {
                    prop_assert_eq!(reader.get_data(p).unwrap(), b"endpoint".to_vec());
                    expected_members.push(p.rsplit('/').next().unwrap().to_string());
                }
            }
        }
        let mut members = reader.get_children(REGISTRY).unwrap();
        members.sort();
        expected_members.sort();
        prop_assert_eq!(members, expected_members);

        // Expired sessions fail on every subsequent call.
        for (i, s) in sessions.iter().enumerate() {
            if expire[i] {
                prop_assert_eq!(
                    s.get_children(REGISTRY).unwrap_err(),
                    CoordError::SessionExpired
                );
                prop_assert_eq!(
                    s.create("/x", Vec::new(), CreateMode::Ephemeral).unwrap_err(),
                    CoordError::SessionExpired
                );
            }
        }
    }
}
