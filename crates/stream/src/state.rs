//! The algebraic streaming state: one monoid, merged everywhere.
//!
//! [`StreamState`] is the Summingbird/Algebird idiom reduced to its core:
//! every aggregate the speed layer maintains is an element of a
//! commutative monoid, so shard partials merge in **any** grouping and
//! **any** order to the byte-identical final state a single serial pass
//! would produce. Exact aggregates (record/event counts, per-name and
//! per-client counts) use plain counter addition; approximate aggregates
//! ride the `uli-dataflow` sketches, whose merges carry the same
//! determinism contract as the dataflow engine's algebraic combiner-merge
//! (`AggState::merge`): merge-of-partials ≡ single-pass accumulation.
//!
//! That algebra is what the lambda invariant suite leans on — streaming
//! answers must equal batch answers over the delivered partition exactly
//! (for the exact fields) or within declared error bounds (for the
//! sketches), no matter how many workers, shards, or merge orders the
//! delivery schedule produced.

use std::collections::{BTreeMap, HashMap};

use uli_core::columnar::{event_columns, EventColumns, EventRow, NAME_COLUMN, USER_COLUMN};
use uli_dataflow::sketch::{Hll, PercentileSketch, TopK};
use uli_dataflow::Value;
use uli_thrift::CompactReader;

/// What the fold reads of an event.
pub(crate) const FOLDED_COLUMNS: EventColumns = event_columns([NAME_COLUMN, USER_COLUMN]);

/// The name and user id of `payload`, when it is a client event.
fn event(payload: &[u8]) -> Option<(&str, i64)> {
    let row = EventRow::read(&mut CompactReader::new(payload), &FOLDED_COLUMNS).ok()?;
    Some((row.name().ok()?, row.user_id().ok()?))
}

/// The client of an event name: its first level.
pub(crate) fn client(name: &str) -> &str {
    name.split(':').next().expect("split yields a first part")
}

/// Adds `counts` to `map`. Each key comes at most once, in any order: an
/// empty map — every map of a fresh state — is built from them in one go,
/// where a repeated key would keep only its last count.
fn add_counts<'k>(map: &mut BTreeMap<String, u64>, counts: impl Iterator<Item = (&'k str, u64)>) {
    if map.is_empty() {
        let mut added = 0;
        *map = counts
            .inspect(|_| added += 1)
            .map(|(key, n)| (key.to_string(), n))
            .collect();
        debug_assert_eq!(map.len(), added, "a key came twice");
        return;
    }
    for (key, n) in counts {
        match map.get_mut(key) {
            Some(count) => *count += n,
            None => {
                map.insert(key.to_string(), n);
            }
        }
    }
}

/// How many trending event names the speed layer reports by default.
pub const DEFAULT_TRENDING_K: usize = 5;

/// Per-shard streaming aggregate state; a commutative monoid under
/// [`StreamState::merge`] with [`StreamState::new`] as identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamState {
    /// Every delivered record observed (well-formed or not).
    records: u64,
    /// Records that decoded as Thrift [`ClientEvent`]s.
    events: u64,
    /// Records that did not decode (counted, never dropped silently).
    malformed: u64,
    /// Exact event count per six-level event name.
    by_name: BTreeMap<String, u64>,
    /// Exact event count per client (the name's first component) — the
    /// BirdBrain-style per-client rollup.
    by_client: BTreeMap<String, u64>,
    /// Distinct logged-in users (`user_id != 0`), approximated.
    users: Hll,
    /// Trending event names: Count-Min-backed heavy hitters.
    trending: TopK,
    /// Delivered payload sizes, log-linear bucketed.
    payload_bytes: PercentileSketch,
}

impl StreamState {
    /// The monoid identity: an empty state reporting `trending_k` names.
    pub fn new(trending_k: usize) -> StreamState {
        StreamState {
            records: 0,
            events: 0,
            malformed: 0,
            by_name: BTreeMap::new(),
            by_client: BTreeMap::new(),
            users: Hll::new(),
            trending: TopK::new(trending_k),
            payload_bytes: PercentileSketch::new(),
        }
    }

    /// Folds one delivered record payload into the state: [`fold`](Self::fold)
    /// of a batch of one.
    pub fn observe(&mut self, payload: &[u8]) {
        self.fold(&[payload]);
    }

    /// Folds a batch of delivered record payloads into the state, reaching
    /// exactly the state folding them one at a time, in order, reaches.
    ///
    /// Each payload is walked once, borrowed; what it adds to the counters
    /// and sketches that commute (counter add, register max, bucket add) is
    /// applied per record or, for everything keyed by event name, once per
    /// distinct name of the batch, in name order — into a fresh state, in
    /// one go. Only the trending tracker's bounded
    /// candidate set is order-sensitive, and only once it is full: a batch
    /// that could overflow it is replayed into the tracker record by
    /// record.
    pub fn fold<P: AsRef<[u8]>>(&mut self, payloads: &[P]) {
        let mut batch: HashMap<&str, u64> = HashMap::new();
        for name in payloads.iter().filter_map(|p| self.count(p.as_ref())) {
            *batch.entry(name).or_insert(0) += 1;
        }
        let mut batch: Vec<(&str, u64)> = batch.into_iter().collect();
        batch.sort_unstable();
        add_counts(&mut self.by_name, batch.iter().copied());
        // Names sharing a client share the prefix "client:", so they are
        // adjacent in name order and each client makes one run.
        add_counts(
            &mut self.by_client,
            batch
                .chunk_by(|a, b| client(a.0) == client(b.0))
                .map(|run| (client(run[0].0), run.iter().map(|(_, n)| n).sum())),
        );
        let keys: Vec<(&[u8], u64)> = batch
            .iter()
            .map(|(name, n)| (name.as_bytes(), *n))
            .collect();
        if self.trending.admits(keys.iter().map(|(key, _)| *key)) {
            self.trending.add_admitted(&keys);
        } else {
            for (name, _) in payloads.iter().filter_map(|p| event(p.as_ref())) {
                self.trending.insert(name.as_bytes());
            }
        }
    }

    /// Counts one record in everything not keyed by its event name, and
    /// returns the name when the record is a client event.
    fn count<'a>(&mut self, payload: &'a [u8]) -> Option<&'a str> {
        self.records += 1;
        self.payload_bytes.record(payload.len() as u64);
        let Some((name, user_id)) = event(payload) else {
            self.malformed += 1;
            return None;
        };
        self.events += 1;
        if user_id != 0 {
            self.users.insert(&Value::Int(user_id));
        }
        Some(name)
    }

    /// Merges another shard's partial in. Commutative, associative, and
    /// identical to having observed both input streams serially — the
    /// same contract as the dataflow engine's combiner merge.
    pub fn merge<'o>(&mut self, other: &'o StreamState) {
        self.records += other.records;
        self.events += other.events;
        self.malformed += other.malformed;
        let counts = |(key, n): (&'o String, &u64)| (key.as_str(), *n);
        add_counts(&mut self.by_name, other.by_name.iter().map(counts));
        add_counts(&mut self.by_client, other.by_client.iter().map(counts));
        self.users.merge(&other.users);
        self.trending.merge(&other.trending);
        self.payload_bytes.merge(&other.payload_bytes);
    }

    /// Delivered records observed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Well-formed client events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Records that failed to decode.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Exact per-name event counts.
    pub fn by_name(&self) -> &BTreeMap<String, u64> {
        &self.by_name
    }

    /// Exact per-client event counts.
    pub fn by_client(&self) -> &BTreeMap<String, u64> {
        &self.by_client
    }

    /// Estimated distinct logged-in users.
    pub fn distinct_users_estimate(&self) -> u64 {
        self.users.estimate()
    }

    /// The distinct-users sketch itself.
    pub fn users(&self) -> &Hll {
        &self.users
    }

    /// The trending-names tracker.
    pub fn trending(&self) -> &TopK {
        &self.trending
    }

    /// The payload-size percentile sketch.
    pub fn payload_bytes(&self) -> &PercentileSketch {
        &self.payload_bytes
    }

    /// Fixed memory cost of the sketch portion of this state (the exact
    /// maps are charged separately — they are bounded by the event-name
    /// dictionary, not the stream length).
    pub fn sketch_cost_bytes() -> u64 {
        Hll::cost_bytes() + TopK::cost_bytes() + PercentileSketch::cost_bytes()
    }

    /// Deterministic cost of the exact map portion: key bytes plus one
    /// u64 counter per entry.
    pub fn exact_cost_bytes(&self) -> u64 {
        let map_cost =
            |m: &BTreeMap<String, u64>| -> u64 { m.keys().map(|k| k.len() as u64 + 8).sum() };
        map_cost(&self.by_name) + map_cost(&self.by_client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::{ClientEvent, EventInitiator, EventName, Timestamp};
    use uli_thrift::ThriftRecord;

    fn event(name: &str, user: i64, at: i64) -> Vec<u8> {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(name).unwrap(),
            user,
            format!("s{user}"),
            "10.0.0.1",
            Timestamp(at),
        )
        .to_bytes()
    }

    #[test]
    fn observe_counts_exactly_and_flags_malformed() {
        let mut s = StreamState::new(3);
        s.observe(&event("web:home:timeline:tweet:avatar:click", 7, 1000));
        s.observe(&event("web:home:timeline:tweet:avatar:click", 7, 2000));
        s.observe(&event("iphone:home:timeline:tweet:text:hover", 8, 3000));
        s.observe(b"not a thrift event");
        assert_eq!(s.records(), 4);
        assert_eq!(s.events(), 3);
        assert_eq!(s.malformed(), 1);
        assert_eq!(s.by_name()["web:home:timeline:tweet:avatar:click"], 2);
        assert_eq!(s.by_client()["web"], 2);
        assert_eq!(s.by_client()["iphone"], 1);
        assert_eq!(s.distinct_users_estimate(), 2);
        assert_eq!(
            s.trending().top()[0].0,
            b"web:home:timeline:tweet:avatar:click".to_vec()
        );
    }

    #[test]
    fn a_client_that_sorts_between_another_clients_names_counts_once() {
        // "a0:…" sorts before "a:…" ('0' < ':') though "a0" sorts after "a".
        let payloads = [
            event("a:home:timeline:tweet:avatar:click", 1, 1000),
            event("a0:home:timeline:tweet:avatar:click", 2, 2000),
            event("a:search:results:query:box:submit", 3, 3000),
            event("a0:search:results:query:box:submit", 4, 4000),
            event("a0:search:results:query:box:submit", 5, 5000),
        ];
        let mut s = StreamState::new(3);
        s.fold(&payloads);
        let by_client: Vec<(&str, u64)> = s
            .by_client()
            .iter()
            .map(|(k, n)| (k.as_str(), *n))
            .collect();
        assert_eq!(by_client, [("a", 2), ("a0", 3)]);
    }

    #[test]
    fn merge_equals_single_pass() {
        let payloads: Vec<Vec<u8>> = (0..200)
            .map(|i| {
                event(
                    if i % 3 == 0 {
                        "web:home:timeline:tweet:avatar:click"
                    } else {
                        "android:search:results:query:box:submit"
                    },
                    i % 17,
                    i * 1000,
                )
            })
            .collect();
        let mut whole = StreamState::new(4);
        for p in &payloads {
            whole.observe(p);
        }
        let mut a = StreamState::new(4);
        let mut b = StreamState::new(4);
        for (i, p) in payloads.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(p);
            } else {
                b.observe(p);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge must be commutative");
        // Identity law.
        let mut with_id = whole.clone();
        with_id.merge(&StreamState::new(4));
        assert_eq!(with_id, whole);
    }
}
