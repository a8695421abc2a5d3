//! Spillable operator state: external row sort and external aggregation.
//!
//! Every query runs under a memory budget, and this module is the only
//! implementation of the operators whose state grows with the input —
//! ORDER, GROUP, DISTINCT, and the aggregate table. Buffered rows/states are
//! accounted against a [`MemoryTracker`] in the same deterministic wire-size
//! currency as the engine's shuffle accounting; when the next insert would
//! exceed the budget, the buffer is sorted and written to a temporary run
//! file in warehouse record-file format, and `finish` k-way merges the runs
//! with the in-memory remainder (all there is, under a budget the state
//! never reaches). A sequence number assigned at insert breaks every
//! comparison tie, so the merged order equals what a *stable* in-memory sort
//! would produce — the same rows at any budget and any worker count.
//!
//! Writing, reading and merging runs — and deleting them when the operator
//! drops, on success, error and panic paths alike — is
//! [`uli_warehouse::RunSet`]'s; this module says what a run record of rows
//! ([`RowRuns`]) and of aggregate states ([`AggRuns`]) is, and how each
//! orders.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use uli_warehouse::{
    MemoryTracker, RunFormat, RunSet, Warehouse, WarehouseError, WarehouseResult, ENTRY_OVERHEAD,
};

use crate::error::{DataflowError, DataflowResult};
use crate::plan::{Agg, SortOrder};
use crate::sketch::{Hll, PercentileSketch};
use crate::udf::AggState;
use crate::value::{tuple_wire_size, Tuple, Value};
use crate::wire::{decode_tuple, decode_value_prefix, encode_tuple, encode_value, Cursor};

/// How spilled rows order.
#[derive(Debug, Clone)]
pub(crate) enum RowOrder {
    /// ORDER BY / GROUP BY: compare the listed columns in order.
    Cols(Vec<(usize, SortOrder)>),
    /// DISTINCT: compare whole tuples (`Vec<Value>` lexicographic order).
    WholeTuple,
}

impl RowOrder {
    /// Compares two rows under this order (without the sequence tie-break).
    pub(crate) fn cmp_rows(&self, a: &Tuple, b: &Tuple) -> Ordering {
        match self {
            RowOrder::Cols(keys) => {
                for (k, order) in keys {
                    let cmp = a[*k].cmp(&b[*k]);
                    let cmp = match order {
                        SortOrder::Asc => cmp,
                        SortOrder::Desc => cmp.reverse(),
                    };
                    if cmp != Ordering::Equal {
                        return cmp;
                    }
                }
                Ordering::Equal
            }
            RowOrder::WholeTuple => a.cmp(b),
        }
    }

    fn cmp_entries(&self, a: &(u64, Tuple), b: &(u64, Tuple)) -> Ordering {
        self.cmp_rows(&a.1, &b.1).then(a.0.cmp(&b.0))
    }
}

/// What one buffered row is billed.
pub(crate) fn row_cost(row: &Tuple) -> u64 {
    tuple_wire_size(row) + ENTRY_OVERHEAD
}

/// A run record no writer here produces.
const CORRUPT_RUN: WarehouseError = WarehouseError::Corrupt("spill run record");

/// Rows under a [`RowOrder`], as `(seq, row)` — seq is the arrival index,
/// the stability tie-break. A run record is the sequence number (`u64`,
/// big-endian) and the row's wire encoding.
pub(crate) struct RowRuns(pub(crate) RowOrder);

impl RunFormat for RowRuns {
    type Entry = (u64, Tuple);

    fn encode(&self, (seq, row): &Self::Entry, record: &mut Vec<u8>) {
        record.extend_from_slice(&seq.to_be_bytes());
        record.extend_from_slice(&encode_tuple(row));
    }

    fn decode(&self, record: &[u8]) -> WarehouseResult<Self::Entry> {
        let (seq, row) = record.split_first_chunk::<8>().ok_or(CORRUPT_RUN)?;
        let row = decode_tuple(row).map_err(|_| CORRUPT_RUN)?;
        Ok((u64::from_be_bytes(*seq), row))
    }

    fn cmp(&self, a: &Self::Entry, b: &Self::Entry) -> Ordering {
        self.0.cmp_entries(a, b)
    }
}

/// The best `k` rows offered so far, ties to the earlier offer: the first
/// `k` rows of a stable sort of everything offered.
pub(crate) struct TopK<'a> {
    order: &'a RowOrder,
    k: usize,
    /// Ascending under `(order, seq)`; never longer than `k`.
    best: Vec<(u64, Tuple)>,
    next_seq: u64,
    /// Billed for the rows held when this is the reduce side's running best.
    /// A unit's own best is built on a pool worker and stays off the bill,
    /// which is deterministic only because it is kept from one thread.
    tracker: Option<&'a MemoryTracker>,
}

impl<'a> TopK<'a> {
    pub(crate) fn new(
        order: &'a RowOrder,
        k: usize,
        tracker: Option<&'a MemoryTracker>,
    ) -> TopK<'a> {
        TopK {
            order,
            k,
            best: Vec::new(),
            next_seq: 0,
            tracker,
        }
    }

    /// Offers the next row in arrival order.
    pub(crate) fn offer(&mut self, row: Tuple) {
        let entry = (self.next_seq, row);
        self.next_seq += 1;
        // Sequence numbers are unique, so no kept row compares equal: a later
        // arrival lands behind every row it ties with.
        let at = self
            .best
            .partition_point(|kept| self.order.cmp_entries(kept, &entry) == Ordering::Less);
        if at == self.k {
            return;
        }
        if let Some(tracker) = self.tracker {
            tracker.grow(row_cost(&entry.1));
        }
        self.best.insert(at, entry);
        if self.best.len() > self.k {
            let (_, evicted) = self.best.pop().expect("longer than k");
            if let Some(tracker) = self.tracker {
                tracker.shrink(row_cost(&evicted));
            }
        }
    }

    /// The kept rows in sort order.
    pub(crate) fn into_rows(self) -> Vec<Tuple> {
        if let Some(tracker) = self.tracker {
            tracker.shrink(self.best.iter().map(|(_, row)| row_cost(row)).sum());
        }
        self.best.into_iter().map(|(_, row)| row).collect()
    }
}

// ---------------------------------------------------------------------------
// Aggregate state costs and serialization
// ---------------------------------------------------------------------------

/// Fixed cost charged when a group's state for `agg` is created.
pub(crate) fn state_base_cost(agg: &Agg) -> u64 {
    use crate::udf::AggFunc;
    match agg.func {
        AggFunc::Count => 16,
        AggFunc::Sum | AggFunc::Avg => 24,
        AggFunc::Min | AggFunc::Max => 16,
        AggFunc::CountDistinct => 32,
        AggFunc::ApproxCountDistinct => Hll::cost_bytes() + 16,
        AggFunc::ApproxPercentile(_) => PercentileSketch::cost_bytes() + 16,
    }
}

/// Variable (beyond base) cost of a state right now. O(1) for every
/// algebraic state; O(set) for `CountDistinct`.
fn state_dyn_cost(s: &AggState) -> i64 {
    match s {
        AggState::Min(v) | AggState::Max(v) => v.as_ref().map_or(0, |v| v.wire_size() as i64),
        AggState::CountDistinct(set) => set.iter().map(distinct_value_cost).sum::<i64>(),
        _ => 0,
    }
}

/// What one value of a `CountDistinct` set is billed.
fn distinct_value_cost(v: &Value) -> i64 {
    v.wire_size() as i64 + 16
}

/// Merges `other` into `state` and returns the byte-cost delta.
pub(crate) fn merge_costed(state: &mut AggState, other: AggState) -> DataflowResult<i64> {
    // A set is billed the values it does not hold yet: O(incoming), not
    // O(set), per merge.
    if let (AggState::CountDistinct(set), AggState::CountDistinct(more)) = (&*state, &other) {
        let delta = more
            .iter()
            .filter(|v| !set.contains(*v))
            .map(distinct_value_cost)
            .sum();
        state.merge(other)?;
        return Ok(delta);
    }
    let before = state_dyn_cost(state);
    state.merge(other)?;
    Ok(state_dyn_cost(state) - before)
}

const ST_COUNT: u8 = 0;
const ST_SUM: u8 = 1;
const ST_MIN: u8 = 2;
const ST_MAX: u8 = 3;
const ST_AVG: u8 = 4;
const ST_COUNT_DISTINCT: u8 = 5;
const ST_APPROX_DISTINCT: u8 = 6;
const ST_APPROX_PERCENTILE: u8 = 7;

fn corrupt() -> DataflowError {
    DataflowError::TypeError {
        context: "spill state decode",
    }
}

/// Serializes one aggregate state for a run file.
pub(crate) fn encode_state(state: &AggState, out: &mut Vec<u8>) {
    match state {
        AggState::Count(n) => {
            out.push(ST_COUNT);
            out.extend_from_slice(&n.to_be_bytes());
        }
        AggState::Sum {
            total,
            any,
            all_int,
        } => {
            out.push(ST_SUM);
            out.extend_from_slice(&total.to_bits().to_be_bytes());
            out.push(*any as u8);
            out.push(*all_int as u8);
        }
        AggState::Min(v) | AggState::Max(v) => {
            out.push(if matches!(state, AggState::Min(_)) {
                ST_MIN
            } else {
                ST_MAX
            });
            match v {
                // `accumulate` skips nulls, so Some(Null) never occurs and
                // Null can mark "no value yet".
                Some(v) => encode_value(v, out),
                None => encode_value(&Value::Null, out),
            }
        }
        AggState::Avg { total, n } => {
            out.push(ST_AVG);
            out.extend_from_slice(&total.to_bits().to_be_bytes());
            out.extend_from_slice(&n.to_be_bytes());
        }
        AggState::CountDistinct(set) => {
            out.push(ST_COUNT_DISTINCT);
            out.extend_from_slice(&(set.len() as u32).to_be_bytes());
            for v in set {
                encode_value(v, out);
            }
        }
        AggState::ApproxCountDistinct(hll) => {
            out.push(ST_APPROX_DISTINCT);
            out.extend_from_slice(&hll.to_bytes());
        }
        AggState::ApproxPercentile { q_bp, sketch } => {
            out.push(ST_APPROX_PERCENTILE);
            out.extend_from_slice(&q_bp.to_be_bytes());
            out.extend_from_slice(&sketch.to_bytes());
        }
    }
}

/// Inverse of [`encode_state`].
pub(crate) fn decode_state(bytes: &[u8]) -> DataflowResult<AggState> {
    let (&tag, rest) = bytes.split_first().ok_or_else(corrupt)?;
    Ok(match tag {
        ST_COUNT => AggState::Count(i64::from_be_bytes(rest.try_into().map_err(|_| corrupt())?)),
        ST_SUM => {
            if rest.len() != 10 {
                return Err(corrupt());
            }
            AggState::Sum {
                total: f64::from_bits(u64::from_be_bytes(rest[..8].try_into().unwrap())),
                any: rest[8] != 0,
                all_int: rest[9] != 0,
            }
        }
        ST_MIN | ST_MAX => {
            let (v, used) = decode_value_prefix(rest)?;
            if used != rest.len() {
                return Err(corrupt());
            }
            let v = if v.is_null() { None } else { Some(v) };
            if tag == ST_MIN {
                AggState::Min(v)
            } else {
                AggState::Max(v)
            }
        }
        ST_AVG => {
            if rest.len() != 16 {
                return Err(corrupt());
            }
            AggState::Avg {
                total: f64::from_bits(u64::from_be_bytes(rest[..8].try_into().unwrap())),
                n: i64::from_be_bytes(rest[8..].try_into().unwrap()),
            }
        }
        ST_COUNT_DISTINCT => {
            if rest.len() < 4 {
                return Err(corrupt());
            }
            let n = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
            let mut pos = 4;
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                let (v, used) = decode_value_prefix(&rest[pos..])?;
                pos += used;
                set.insert(v);
            }
            if pos != rest.len() {
                return Err(corrupt());
            }
            AggState::CountDistinct(set)
        }
        ST_APPROX_DISTINCT => {
            AggState::ApproxCountDistinct(Hll::from_bytes(rest).ok_or_else(corrupt)?)
        }
        ST_APPROX_PERCENTILE => {
            if rest.len() < 4 {
                return Err(corrupt());
            }
            AggState::ApproxPercentile {
                q_bp: u32::from_be_bytes(rest[..4].try_into().unwrap()),
                sketch: PercentileSketch::from_bytes(&rest[4..]).ok_or_else(corrupt)?,
            }
        }
        _ => return Err(corrupt()),
    })
}

// ---------------------------------------------------------------------------
// External aggregation
// ---------------------------------------------------------------------------

/// A budgeted group→states map that spills key-sorted runs, fed one scan
/// unit's partial states at a time.
///
/// Spilled partial states merge at `finish` in run order (earliest run
/// first, the in-memory remainder last), which is the chronological order
/// rows arrived in — exact for integer aggregates; floating-point sums can
/// differ in final bits from the single-pass order (the usual FP
/// non-associativity caveat, shared with the per-unit combine).
pub(crate) struct AggSpiller<'a> {
    runs: RunSet<AggRuns>,
    map: BTreeMap<Vec<Value>, Vec<AggState>>,
    map_bytes: u64,
    aggs: &'a [Agg],
}

impl<'a> AggSpiller<'a> {
    pub(crate) fn new(
        warehouse: Warehouse,
        tracker: MemoryTracker,
        aggs: &'a [Agg],
    ) -> AggSpiller<'a> {
        AggSpiller {
            runs: RunSet::new(warehouse, tracker, AggRuns, "aggregate"),
            map: BTreeMap::new(),
            map_bytes: 0,
            aggs,
        }
    }

    fn new_key_cost(&self, key: &[Value]) -> u64 {
        tuple_wire_size(key) + self.aggs.iter().map(state_base_cost).sum::<u64>() + ENTRY_OVERHEAD
    }

    fn charge(&mut self, delta: i64) {
        if delta >= 0 {
            self.runs.tracker().grow(delta as u64);
            self.map_bytes += delta as u64;
        } else {
            self.runs.tracker().shrink((-delta) as u64);
            self.map_bytes = self.map_bytes.saturating_sub((-delta) as u64);
        }
    }

    /// Spills first when buffering `incoming` more bytes would exceed the
    /// budget (an upper-bound estimate keeps the peak under budget).
    fn reserve(&mut self, incoming: u64) -> DataflowResult<()> {
        if self.runs.tracker().would_exceed(incoming) && !self.map.is_empty() {
            // A `BTreeMap` drains in ascending key order: already a run.
            let bytes = std::mem::take(&mut self.map_bytes);
            self.runs.spill(std::mem::take(&mut self.map), bytes)?;
        }
        Ok(())
    }

    /// Merges one unit's partial states into their group, spilling first
    /// when the merge could outgrow the budget: an existing group may grow
    /// by the partial's variable part (a MIN/MAX value, a COUNT DISTINCT
    /// set's values), a new one by its entry and the partial's states.
    pub(crate) fn merge_partial(
        &mut self,
        key: Vec<Value>,
        states: Vec<AggState>,
    ) -> DataflowResult<()> {
        let incoming: u64 = states.iter().map(|s| state_dyn_cost(s) as u64).sum();
        self.reserve(incoming)?;
        if let Some(acc) = self.map.get_mut(&key) {
            let mut delta = 0i64;
            for (a, s) in acc.iter_mut().zip(states) {
                delta += merge_costed(a, s)?;
            }
            self.charge(delta);
            return Ok(());
        }
        let cost = self.new_key_cost(&key) + incoming;
        self.reserve(cost)?;
        self.map.insert(key, states);
        self.charge(cost as i64);
        Ok(())
    }

    /// Merges runs and the in-memory remainder into finished output rows,
    /// in ascending key order: the merged stream folded over adjacent equal
    /// keys, which it yields earliest run first and the remainder last —
    /// chronological arrival order. GROUP ALL over an empty input yields one
    /// row of empty aggregates, matching SQL's `SELECT COUNT(*)` over an
    /// empty table.
    pub(crate) fn finish(self, group_keys_empty: bool) -> DataflowResult<Vec<Tuple>> {
        fn finished((mut key, states): (Vec<Value>, Vec<AggState>)) -> Tuple {
            key.extend(states.into_iter().map(AggState::finish));
            key
        }
        let tail = self.map.into_iter().collect();
        let mut merged = self.runs.merge(tail, self.map_bytes)?;
        let mut out: Vec<Tuple> = Vec::new();
        let mut group: Option<(Vec<Value>, Vec<AggState>)> = None;
        while let Some((key, states)) = merged.next_entry()? {
            match &mut group {
                Some((open, acc)) if *open == key => {
                    for (a, s) in acc.iter_mut().zip(states) {
                        a.merge(s)?;
                    }
                }
                _ => out.extend(group.replace((key, states)).map(finished)),
            }
        }
        out.extend(group.map(finished));
        if out.is_empty() && group_keys_empty {
            out.push(
                self.aggs
                    .iter()
                    .map(|a| AggState::new(a.func).finish())
                    .collect(),
            );
        }
        Ok(out)
    }
}

/// Group keys with their partial states, ordered by key. A run record is
/// the key's wire encoding and each state's ([`encode_state`]), every one
/// behind its length (`u32`, big-endian), the states behind their count.
struct AggRuns;

impl RunFormat for AggRuns {
    type Entry = (Vec<Value>, Vec<AggState>);

    fn encode(&self, (key, states): &Self::Entry, record: &mut Vec<u8>) {
        fn field(record: &mut Vec<u8>, bytes: &[u8]) {
            record.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            record.extend_from_slice(bytes);
        }
        field(record, &encode_tuple(key));
        record.extend_from_slice(&(states.len() as u32).to_be_bytes());
        let mut state_bytes = Vec::new();
        for s in states {
            state_bytes.clear();
            encode_state(s, &mut state_bytes);
            field(record, &state_bytes);
        }
    }

    fn decode(&self, record: &[u8]) -> WarehouseResult<Self::Entry> {
        let mut at = Cursor {
            buf: record,
            pos: 0,
        };
        let mut decode = || {
            let len = at.u32()? as usize;
            let key = decode_tuple(at.take(len)?)?;
            let n = at.u32()? as usize;
            // A state is at least its length prefix: bound `n` before
            // allocating.
            let mut states = Vec::with_capacity(n.min(record.len() / 4));
            for _ in 0..n {
                let len = at.u32()? as usize;
                states.push(decode_state(at.take(len)?)?);
            }
            Ok::<_, DataflowError>((key, states))
        };
        match decode() {
            Ok(entry) if at.pos == record.len() => Ok(entry),
            _ => Err(CORRUPT_RUN),
        }
    }

    fn cmp(&self, a: &Self::Entry, b: &Self::Entry) -> Ordering {
        a.0.cmp(&b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::AggFunc;
    use uli_warehouse::SpillSorter;

    #[test]
    fn row_sorter_spills_and_merges_stably() {
        let wh = Warehouse::new();
        let tracker = MemoryTracker::with_budget(1024);
        let order = RowOrder::Cols(vec![(0, SortOrder::Asc)]);
        let mut s = SpillSorter::new(wh.clone(), tracker.clone(), RowRuns(order.clone()), "t");
        let rows: Vec<Tuple> = (0..300)
            .map(|i| vec![Value::Int((i * 7) % 13), Value::Int(i)])
            .collect();
        for (seq, row) in rows.iter().cloned().enumerate() {
            let cost = row_cost(&row);
            s.push((seq as u64, row), cost).unwrap();
        }
        assert!(tracker.spill_runs() > 1, "budget must force runs");
        assert!(tracker.high_water() <= 1024);
        let mut stream = s.finish().unwrap();
        let mut got = Vec::new();
        while let Some((_, row)) = stream.next_entry().unwrap() {
            got.push(row);
        }
        let mut want = rows;
        want.sort_by(|a, b| order.cmp_rows(a, b)); // stable
        assert_eq!(got, want);
        drop(stream);
        let root = uli_warehouse::spill_root();
        assert!(
            !wh.exists(&root) || wh.list_files_recursive(&root).unwrap().is_empty(),
            "scratch space must be deleted"
        );
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn all_states_roundtrip() {
        let mut states = vec![
            AggState::Count(42),
            AggState::Sum {
                total: 1.5,
                any: true,
                all_int: false,
            },
            AggState::Min(Some(Value::str("abc"))),
            AggState::Min(None),
            AggState::Max(Some(Value::Int(-1))),
            AggState::Avg { total: 9.0, n: 3 },
        ];
        let mut cd = AggState::new(AggFunc::CountDistinct);
        cd.accumulate(&Value::Int(1)).unwrap();
        cd.accumulate(&Value::str("x")).unwrap();
        states.push(cd);
        let mut ad = AggState::new(AggFunc::ApproxCountDistinct);
        for i in 0..100 {
            ad.accumulate(&Value::Int(i)).unwrap();
        }
        states.push(ad);
        let mut ap = AggState::new(AggFunc::ApproxPercentile(9500));
        for i in 0..50 {
            ap.accumulate(&Value::Int(i * 10)).unwrap();
        }
        states.push(ap);
        for state in states {
            let mut bytes = Vec::new();
            encode_state(&state, &mut bytes);
            let back = decode_state(&bytes).unwrap();
            // AggState has no PartialEq; compare by encoding and by finish.
            let mut again = Vec::new();
            encode_state(&back, &mut again);
            assert_eq!(bytes, again);
        }
        assert!(decode_state(&[99]).is_err());
        assert!(decode_state(&[]).is_err());
    }

    #[test]
    fn every_truncation_of_a_run_record_is_corrupt_not_a_panic() {
        let rows = RowRuns(RowOrder::WholeTuple);
        let mut record = Vec::new();
        rows.encode(&(7, vec![Value::Int(1), Value::str("abc")]), &mut record);
        assert!(rows.decode(&record).is_ok());
        for cut in 0..record.len() {
            assert_eq!(
                rows.decode(&record[..cut]).err(),
                Some(CORRUPT_RUN),
                "{cut}"
            );
        }

        let entry = (
            vec![Value::str("key")],
            vec![AggState::Count(3), AggState::Min(Some(Value::Int(9)))],
        );
        record.clear();
        AggRuns.encode(&entry, &mut record);
        assert!(AggRuns.decode(&record).is_ok());
        for cut in 0..record.len() {
            let cut = AggRuns.decode(&record[..cut]).err();
            assert_eq!(cut, Some(CORRUPT_RUN));
        }
        // So is a byte past the last state, and a state count far past the
        // record (which allocates nothing).
        record.push(0);
        assert_eq!(AggRuns.decode(&record).err(), Some(CORRUPT_RUN));
        let states_at = 4 + encode_tuple(&entry.0).len();
        record[states_at..states_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(AggRuns.decode(&record).err(), Some(CORRUPT_RUN));
    }

    #[test]
    fn agg_spiller_spilled_matches_unspilled() {
        let aggs = vec![
            Agg::count(),
            Agg::sum(1),
            Agg::min(1),
            Agg::max(1),
            Agg::count_distinct(1),
        ];
        let rows: Vec<Tuple> = (0..400)
            .map(|i| vec![Value::Int(i % 23), Value::Int((i * 31) % 67)])
            .collect();
        // Reference: the same rows under a budget they never reach. Each
        // row arrives as a partial of its own.
        let run = |budget: u64| -> (Vec<Tuple>, u64) {
            let wh = Warehouse::new();
            let tracker = MemoryTracker::with_budget(budget);
            let mut sp = AggSpiller::new(wh, tracker.clone(), &aggs);
            for row in &rows {
                let states = aggs
                    .iter()
                    .map(|a| {
                        let mut state = AggState::new(a.func);
                        state.accumulate(&row[a.col]).unwrap();
                        state
                    })
                    .collect();
                sp.merge_partial(vec![row[0].clone()], states).unwrap();
            }
            (sp.finish(false).unwrap(), tracker.spill_runs())
        };
        let (unspilled, zero_runs) = run(u64::MAX);
        assert_eq!(zero_runs, 0);
        let (spilled, n_runs) = run(2_000);
        assert!(n_runs > 1, "tiny budget must spill");
        assert_eq!(spilled, unspilled, "spilled reduce must be byte-identical");
    }

    #[test]
    fn agg_spiller_group_all_empty_semantics() {
        let aggs = vec![Agg::count()];
        let wh = Warehouse::new();
        let sp = AggSpiller::new(wh, MemoryTracker::with_budget(1 << 20), &aggs);
        let out = sp.finish(true).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0)]]);
    }
}
