//! The batch side of the lambda architecture, and the convergence check.
//!
//! [`BatchSummary`] computes the *exact* answers a batch job reads out of
//! the main warehouse: it scans the landed per-hour partitions — columnar
//! parts and their row-format `-rows` siblings alike — through `uli-core`'s
//! one client-event reader, and folds exact counts — the ground truth the
//! streaming sketches must converge to. [`check_convergence`] then asserts
//! the lambda invariant: exact streaming aggregates equal batch
//! byte-for-byte; sketch aggregates land within their declared error
//! bounds. A columnar file keeps no payload bytes, so the exact side of the
//! payload-size check is the sizes the delivery handed its taps, which a
//! [`PayloadSizes`] tap records beside the stream's.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use uli_core::for_each_event_row;
use uli_obs::lock;
use uli_scribe::DeliveryTap;
use uli_warehouse::{HourlyPartition, ScanFile, Warehouse, WarehouseError};

use crate::state::{client, StreamState, FOLDED_COLUMNS};

/// Exact aggregates over a set of delivered warehouse hours.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Records scanned.
    pub records: u64,
    /// Records that decoded as client events.
    pub events: u64,
    /// Records that did not decode: the rows the reader skips.
    pub malformed: u64,
    /// Exact per-name event counts.
    pub by_name: BTreeMap<String, u64>,
    /// Exact per-client event counts.
    pub by_client: BTreeMap<String, u64>,
    /// Exact distinct logged-in users.
    pub distinct_users: BTreeSet<i64>,
}

impl BatchSummary {
    /// Deterministic cost of the exact state a batch job would hold to
    /// answer the same questions: the name/client maps plus the distinct
    /// user set (8 bytes per id).
    pub fn exact_cost_bytes(&self) -> u64 {
        let map_cost =
            |m: &BTreeMap<String, u64>| -> u64 { m.keys().map(|k| k.len() as u64 + 8).sum() };
        map_cost(&self.by_name) + map_cost(&self.by_client) + 8 * self.distinct_users.len() as u64
    }
}

/// The exact value at quantile `q_bp` (basis points) of `sizes`, or `None`
/// when there are none.
pub fn exact_quantile_bp(sizes: &[u64], q_bp: u32) -> Option<u64> {
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as u128 * q_bp as u128).div_ceil(10_000) as usize).max(1);
    sorted.get(rank - 1).copied()
}

/// A delivery tap that records the size of every payload the delivery hands
/// its taps, by hour: the exact side of the payload-size check. Clones
/// share one record.
#[derive(Debug, Clone, Default)]
pub struct PayloadSizes(Arc<Mutex<BTreeMap<u64, Vec<u64>>>>);

impl PayloadSizes {
    /// The sizes delivered for `hour`, in delivery order.
    pub fn hour(&self, hour: u64) -> Vec<u64> {
        lock(&self.0).get(&hour).cloned().unwrap_or_default()
    }

    /// Every size delivered, hour by hour.
    pub fn all(&self) -> Vec<u64> {
        lock(&self.0).values().flatten().copied().collect()
    }
}

impl DeliveryTap for PayloadSizes {
    fn hour_delivered(&mut self, partition: &HourlyPartition, payloads: &[Vec<u8>]) {
        let mut hours = lock(&self.0);
        let sizes = hours.entry(partition.hour_index()).or_default();
        sizes.extend(payloads.iter().map(|p| p.len() as u64));
    }
}

/// Scans one delivered hour out of the main warehouse, in whichever layout
/// each of its files landed, reading the columns the stream folds. A
/// missing hour contributes nothing.
pub fn scan_hour(
    main: &Warehouse,
    category: &str,
    hour_index: u64,
    into: &mut BatchSummary,
) -> Result<(), WarehouseError> {
    let dir = HourlyPartition::from_hour_index(category, hour_index).main_dir();
    let files = match main.list_files_recursive(&dir) {
        Ok(f) => f,
        Err(WarehouseError::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    for file in files {
        let file = ScanFile::open(main, &file)?;
        let (events, skipped) =
            for_each_event_row(&file, 0..file.units(), FOLDED_COLUMNS, |_, row| {
                let name = row.name()?;
                *into.by_name.entry(name.to_string()).or_insert(0) += 1;
                *into.by_client.entry(client(name).to_string()).or_insert(0) += 1;
                match row.user_id()? {
                    0 => {}
                    user => {
                        into.distinct_users.insert(user);
                    }
                }
                Ok(())
            })?;
        into.records += events + skipped;
        into.events += events;
        into.malformed += skipped;
    }
    Ok(())
}

/// The batch answer over a span of delivered hours.
pub fn batch_reference(
    main: &Warehouse,
    category: &str,
    hours: impl IntoIterator<Item = u64>,
) -> Result<BatchSummary, WarehouseError> {
    let mut summary = BatchSummary::default();
    for hour in hours {
        scan_hour(main, category, hour, &mut summary)?;
    }
    Ok(summary)
}

/// Relative error the HLL estimate is held to. The sketch's standard
/// error at p=12 is ~1.6%; 5% is the ≈3σ bound the dataflow tests use.
pub const HLL_REL_BOUND: f64 = 0.05;

/// Quantiles (basis points) the percentile sketch is checked at.
pub const CHECKED_QUANTILES: [u32; 3] = [5000, 9500, 9900];

/// The verdict of one streaming-vs-batch comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Convergence {
    /// Exact aggregates (records, events, malformed, per-name and
    /// per-client counts) are byte-identical.
    pub exact_match: bool,
    /// `|hll − exact| / max(exact, 1)`.
    pub hll_rel_error: f64,
    /// HLL within [`HLL_REL_BOUND`] (with ±2 absolute slack for tiny sets,
    /// where linear counting rounds).
    pub hll_within_bound: bool,
    /// Largest over-count among the reported trending names.
    pub topk_max_over: u64,
    /// Every trending estimate within `[true, true + ε·total]`.
    pub topk_within_bound: bool,
    /// Every checked quantile within the sketch's upper-bound contract
    /// (never below exact, at most 25% above, +1 for integer rounding).
    pub percentile_within_bound: bool,
    /// The lambda invariant: all of the above hold.
    pub streaming_matches_batch: bool,
}

/// Checks the lambda invariant for one (streaming view, batch answer)
/// pair over the same delivered record set, whose payload sizes — as the
/// delivery handed them to its taps — are `payload_sizes`.
pub fn check_convergence(
    stream: &StreamState,
    batch: &BatchSummary,
    payload_sizes: &[u64],
) -> Convergence {
    let exact_match = stream.records() == batch.records
        && stream.events() == batch.events
        && stream.malformed() == batch.malformed
        && stream.by_name() == &batch.by_name
        && stream.by_client() == &batch.by_client;

    let exact_users = batch.distinct_users.len() as u64;
    let est_users = stream.distinct_users_estimate();
    let hll_rel_error = (est_users as f64 - exact_users as f64).abs() / (exact_users.max(1) as f64);
    let hll_within_bound = hll_rel_error <= HLL_REL_BOUND || est_users.abs_diff(exact_users) <= 2;

    let bound = stream.trending().cms().error_bound();
    let mut topk_max_over = 0u64;
    let mut topk_within_bound = true;
    for (name, est) in stream.trending().top() {
        let truth = std::str::from_utf8(&name)
            .ok()
            .and_then(|n| batch.by_name.get(n).copied())
            .unwrap_or(0);
        if est < truth || est > truth + bound {
            topk_within_bound = false;
        }
        topk_max_over = topk_max_over.max(est.saturating_sub(truth));
    }

    let mut percentile_within_bound = true;
    for q_bp in CHECKED_QUANTILES {
        match (
            stream.payload_bytes().quantile_bp(q_bp),
            exact_quantile_bp(payload_sizes, q_bp),
        ) {
            (Some(est), Some(exact)) => {
                if est < exact || est as f64 > exact as f64 * 1.25 + 1.0 {
                    percentile_within_bound = false;
                }
            }
            (None, None) => {}
            _ => percentile_within_bound = false,
        }
    }

    let streaming_matches_batch =
        exact_match && hll_within_bound && topk_within_bound && percentile_within_bound;
    Convergence {
        exact_match,
        hll_rel_error,
        hll_within_bound,
        topk_max_over,
        topk_within_bound,
        percentile_within_bound,
        streaming_matches_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::{ClientEvent, ClientEventLanding, EventInitiator, EventName, Timestamp};
    use uli_thrift::ThriftRecord;
    use uli_warehouse::ColumnarLanding;

    fn payload(i: i64) -> Vec<u8> {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(if i % 4 == 0 {
                "web:home:timeline:tweet:avatar:click"
            } else {
                "iphone:search:results:query:box:submit"
            })
            .unwrap(),
            i % 23,
            format!("s{i}"),
            "10.0.0.1",
            Timestamp(i * 100),
        )
        .to_bytes()
    }

    /// `payloads` landed as hour 0 the way the mover lands them: a columnar
    /// part, and what it rejects in a row-format `-rows` sibling.
    fn landed(payloads: &[Vec<u8>]) -> BatchSummary {
        let wh = Warehouse::new();
        let dir = HourlyPartition::from_hour_index("client_events", 0).main_dir();
        let part = dir.child("part-00000").unwrap();
        let rejected = ClientEventLanding::default()
            .write_file(&wh, &part, payloads)
            .unwrap();
        let mut w = wh.create(&dir.child("part-00000-rows").unwrap()).unwrap();
        for i in rejected {
            w.append_record(&payloads[i]);
        }
        w.finish().unwrap();
        batch_reference(&wh, "client_events", 0..24).unwrap()
    }

    fn sizes(payloads: &[Vec<u8>]) -> Vec<u64> {
        payloads.iter().map(|p| p.len() as u64).collect()
    }

    #[test]
    fn streaming_and_batch_converge_over_the_same_records() {
        let mut stream = StreamState::new(3);
        let mut payloads: Vec<Vec<u8>> = (0..500).map(payload).collect();
        payloads.insert(250, b"not a client event".to_vec());
        stream.fold(&payloads);
        let batch = landed(&payloads);
        assert_eq!((batch.records, batch.malformed), (501, 1));
        let c = check_convergence(&stream, &batch, &sizes(&payloads));
        assert!(c.exact_match, "exact aggregates must be identical");
        assert!(c.hll_within_bound, "hll error {}", c.hll_rel_error);
        assert!(c.topk_within_bound);
        assert!(c.percentile_within_bound);
        assert!(c.streaming_matches_batch);
    }

    #[test]
    fn divergence_is_detected() {
        let mut stream = StreamState::new(3);
        let mut payloads: Vec<Vec<u8>> = (0..100).map(payload).collect();
        stream.fold(&payloads);
        // One record the stream never saw: exactness must fail.
        payloads.push(payload(1000));
        let c = check_convergence(&stream, &landed(&payloads), &sizes(&payloads));
        assert!(!c.exact_match);
        assert!(!c.streaming_matches_batch);
        // Sizes the stream never saw: the percentile check must fail.
        let doubled: Vec<u64> = sizes(&payloads[..100]).iter().map(|n| 2 * n).collect();
        let c = check_convergence(&stream, &landed(&payloads[..100]), &doubled);
        assert!(c.exact_match);
        assert!(!c.percentile_within_bound);
        assert!(!c.streaming_matches_batch);
    }
}
