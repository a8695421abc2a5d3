//! Column batches: vectorized scan units over columnar warehouse files.
//!
//! The row path hands the loader one record at a time; the columnar path
//! hands this module one *row group* at a time. A `ColumnBatch` is a
//! fixed-size batch of decoded columns plus a selection mask: pushed
//! predicates evaluate over whole columns (keep-masks become selection
//! masks), and output tuples materialize only for surviving rows. Columns
//! the projection masked out were never even decompressed — the reader
//! charged them to `fields_skipped` without touching their chunks.
//!
//! Equality predicates on the dictionary-encoded column compare integer
//! codes: the literal resolves to a code once per batch, and rows whose
//! cells are dictionary hits never decode their strings at all. Cells that
//! missed the dictionary at write time are stored inline and compared by
//! bytes, so unknown event names still admit correctly.
//!
//! Predicates that are not provably total ([`total_boolean`]) fall back to
//! row-at-a-time [`ScanSpec::admit`] over gathered tuples, in row order, so
//! evaluation errors surface against the same row the eager path would
//! report.

use uli_warehouse::{ColumnCell, ColumnGroup, ColumnarFile};

use crate::error::DataflowResult;
use crate::expr::{BinOp, Expr};
use crate::pushdown::{total_boolean, ScanSpec};
use crate::value::{Tuple, Value};

/// Decodes one column's cell bytes into the [`Value`]s the row-format
/// loader would have produced for the same record.
///
/// A loader that also understands a columnar layout returns a codec from
/// [`Loader::columnar`](crate::loader::Loader::columnar); the executor then
/// scans columnar files through [`ColumnBatch`] instead of feeding raw
/// group records to [`Loader::parse`](crate::loader::Loader::parse).
pub trait ColumnarCodec: Send + Sync {
    /// Number of columns in the layout — must equal the load schema width.
    fn columns(&self) -> usize;

    /// Decodes one cell. `None` marks the cell undecodable, which drops the
    /// whole row exactly as a loader `parse` returning `Ok(None)` drops the
    /// whole record (tolerant-reader semantics).
    fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value>;
}

/// One row group's decoded columns plus a selection mask.
///
/// Decoding is late: a column is decoded when a predicate first reads it,
/// and then only for the rows earlier predicates left selected; every other
/// projected column is decoded in [`ColumnBatch::take_rows`], for surviving
/// rows only, straight into the output tuple.
struct ColumnBatch<'a> {
    file: &'a ColumnarFile,
    group: &'a ColumnGroup,
    codec: &'a dyn ColumnarCodec,
    /// Columns a predicate has read (outer `None`: not decoded yet).
    /// `columns[c][r]` is `None` for a row that was already deselected when
    /// the column was decoded, or whose cell was undecodable (which also
    /// marks the row dead).
    columns: Vec<Option<Vec<Option<Value>>>>,
    /// Selection mask: rows still admitted by the predicates run so far.
    selection: Vec<bool>,
    /// Rows whose decoded cells were valid so far. A dead row is a loader
    /// skip, not a predicate skip.
    alive: Vec<bool>,
}

impl<'a> ColumnBatch<'a> {
    /// Wraps one row group read from `file` with `codec`.
    fn new(
        file: &'a ColumnarFile,
        group: &'a ColumnGroup,
        codec: &'a dyn ColumnarCodec,
    ) -> ColumnBatch<'a> {
        let rows = group.rows();
        ColumnBatch {
            file,
            group,
            codec,
            columns: vec![None; file.columns()],
            selection: vec![true; rows],
            alive: vec![true; rows],
        }
    }

    /// Rows in the batch (before selection).
    fn rows(&self) -> usize {
        self.selection.len()
    }

    /// Decodes one cell; `Ok(None)` marks it undecodable. Errors when the
    /// group was read without `col` — a column missing from the planner's
    /// mask must never read as "every row is undecodable".
    fn decode_cell(&self, col: usize, row: usize) -> DataflowResult<Option<Value>> {
        let bytes = self.file.cell_bytes(self.group, col, row)?;
        Ok(self.codec.decode(col, bytes))
    }

    /// Decodes column `col` for the rows still selected, marking rows with
    /// undecodable cells dead.
    fn ensure_column(&mut self, col: usize) -> DataflowResult<()> {
        if self.columns[col].is_some() {
            return Ok(());
        }
        let rows = self.rows();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            if !self.selection[r] {
                out.push(None);
                continue;
            }
            let v = self.decode_cell(col, r)?;
            if v.is_none() {
                self.alive[r] = false;
                self.selection[r] = false;
            }
            out.push(v);
        }
        self.columns[col] = Some(out);
        Ok(())
    }

    /// Applies the spec's pushed predicates — all provably total — to the
    /// whole batch, in order, narrowing the selection mask. Returns the
    /// number of rows dropped by predicates (not by dead cells).
    fn apply_predicates(&mut self, spec: &ScanSpec) -> DataflowResult<u64> {
        for pred in &spec.predicate {
            self.apply_total(pred)?;
        }
        // Alive-but-deselected rows were dropped by a predicate; rows whose
        // cells failed to decode are loader skips and count nowhere, exactly
        // like a row-format record the loader's `parse` rejected.
        Ok(self
            .alive
            .iter()
            .zip(&self.selection)
            .filter(|(alive, sel)| **alive && !**sel)
            .count() as u64)
    }

    /// Vectorized evaluation of one total-boolean predicate.
    fn apply_total(&mut self, pred: &Expr) -> DataflowResult<()> {
        // Dictionary fast path: `name == "literal"` (either operand order)
        // on the dictionary column compares integer codes; the literal
        // resolves once for the whole batch.
        if let Some((positive, literal)) = dict_equality(pred, self.file.dict_column()) {
            let dict_col = self.file.dict_column().expect("checked by dict_equality");
            let code = self.file.dictionary_code(literal.as_bytes());
            for r in 0..self.rows() {
                if !self.selection[r] {
                    continue;
                }
                let hit = match self.group.read_cell(dict_col, r)? {
                    ColumnCell::Code(c) => Some(c) == code,
                    ColumnCell::Bytes(b) => b == literal.as_bytes(),
                };
                if hit != positive {
                    self.selection[r] = false;
                }
            }
            return Ok(());
        }
        let mask = self.eval_bool(pred)?;
        for (s, keep) in self.selection.iter_mut().zip(&mask) {
            *s = *s && *keep;
        }
        Ok(())
    }

    /// Evaluates a total-boolean expression over every row, returning one
    /// boolean per row. Totality guarantees no evaluation error and a
    /// `Bool` result for every row, so evaluation order across rows cannot
    /// change what a query observes.
    fn eval_bool(&mut self, expr: &Expr) -> DataflowResult<Vec<bool>> {
        let rows = self.rows();
        match expr {
            Expr::Lit(Value::Bool(b)) => Ok(vec![*b; rows]),
            Expr::Not(e) => {
                let mut m = self.eval_bool(e)?;
                for b in &mut m {
                    *b = !*b;
                }
                Ok(m)
            }
            Expr::Bin(BinOp::And, a, b) => {
                let ma = self.eval_bool(a)?;
                let mb = self.eval_bool(b)?;
                Ok(ma.into_iter().zip(mb).map(|(x, y)| x && y).collect())
            }
            Expr::Bin(BinOp::Or, a, b) => {
                let ma = self.eval_bool(a)?;
                let mb = self.eval_bool(b)?;
                Ok(ma.into_iter().zip(mb).map(|(x, y)| x || y).collect())
            }
            Expr::Bin(op, a, b) => {
                // total_boolean admits only Col/Lit operands here.
                for operand in [a, b] {
                    if let Expr::Col(c) = operand.as_ref() {
                        self.ensure_column(*c)?;
                    }
                }
                let mut out = Vec::with_capacity(rows);
                for r in 0..rows {
                    let left = self.operand(a, r);
                    let right = self.operand(b, r);
                    let pass = match (left, right) {
                        (Some(l), Some(r)) => match op {
                            BinOp::Eq => l == r,
                            BinOp::Ne => l != r,
                            BinOp::Lt => l < r,
                            BinOp::Le => l <= r,
                            BinOp::Gt => l > r,
                            BinOp::Ge => l >= r,
                            _ => unreachable!("total_boolean admits comparisons only"),
                        },
                        // A dead or deselected row's result is never observed.
                        _ => false,
                    };
                    out.push(pass);
                }
                Ok(out)
            }
            _ => unreachable!("total_boolean admits Lit(Bool)/Not/And/Or/cmp only"),
        }
    }

    fn operand<'e>(&'e self, e: &'e Expr, row: usize) -> Option<&'e Value> {
        match e {
            Expr::Col(c) => self.columns[*c].as_ref().expect("ensured")[row].as_ref(),
            Expr::Lit(v) => Some(v),
            _ => unreachable!("total_boolean admits Col/Lit operands only"),
        }
    }

    /// Materializes output tuples for the selected rows, and only for them:
    /// a projected column no predicate read is decoded here, per surviving
    /// row; values a predicate already decoded are moved, not cloned. Masked
    /// columns come back as [`Value::Null`], as the row path masks them.
    fn take_rows(mut self, spec: &ScanSpec) -> DataflowResult<Vec<Tuple>> {
        let projected: Vec<usize> = (0..spec.width)
            .filter(|c| spec.projection.as_ref().is_none_or(|m| m[*c]))
            .collect();
        let selected = self.selection.iter().filter(|s| **s).count();
        let mut out = Vec::with_capacity(selected);
        'rows: for r in 0..self.rows() {
            if !self.selection[r] {
                continue;
            }
            let mut tuple = vec![Value::Null; spec.width];
            for &c in &projected {
                let cell = match &mut self.columns[c] {
                    Some(decoded) => decoded[r].take(),
                    None => self.decode_cell(c, r)?,
                };
                match cell {
                    Some(v) => tuple[c] = v,
                    // An undecodable cell drops the row, like a record the
                    // row loader's `parse` rejected.
                    None => continue 'rows,
                }
            }
            out.push(tuple);
        }
        Ok(out)
    }
}

/// Matches `Col(dict) == Lit(Str)` / `Lit(Str) == Col(dict)` and the same
/// shapes under `!=`/`Not`, returning `(polarity, literal)` — `polarity` is
/// `true` when equal rows are kept. Anything else declines the fast path.
fn dict_equality(pred: &Expr, dict_col: Option<usize>) -> Option<(bool, &str)> {
    let dict_col = dict_col?;
    match pred {
        Expr::Not(inner) => dict_equality(inner, Some(dict_col)).map(|(pos, lit)| (!pos, lit)),
        Expr::Bin(op @ (BinOp::Eq | BinOp::Ne), a, b) => {
            let (col, lit) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(Value::Str(s))) => (*c, s.as_str()),
                (Expr::Lit(Value::Str(s)), Expr::Col(c)) => (*c, s.as_str()),
                _ => return None,
            };
            (col == dict_col).then_some((matches!(op, BinOp::Eq), lit))
        }
        _ => None,
    }
}

/// Scans one row group end to end: read under the projection, apply pushed
/// predicates vectorized, and materialize surviving tuples. Returns the
/// tuples plus the predicate-skip count for [`JobStats`] accounting. The
/// reader has already charged `fields_skipped` for unprojected columns, so
/// callers must charge only the returned predicate skips.
///
/// [`JobStats`]: crate::exec::JobStats
pub fn scan_group(
    file: &ColumnarFile,
    group_index: usize,
    codec: &dyn ColumnarCodec,
    spec: &ScanSpec,
) -> DataflowResult<(Vec<Tuple>, u64)> {
    let group = match &spec.projection {
        Some(mask) => file.read_group(group_index, mask)?,
        None => file.read_group(group_index, &vec![true; file.columns()])?,
    };
    let mut batch = ColumnBatch::new(file, &group, codec);
    if spec.predicate.iter().all(|p| total_boolean(p, spec.width)) {
        let skipped = batch.apply_predicates(spec)?;
        return Ok((batch.take_rows(spec)?, skipped));
    }
    // A pushed predicate that may error runs against materialized tuples,
    // row by row in row order, so the failing row is the one the eager path
    // reports.
    let mut rows = Vec::new();
    let mut skipped = 0;
    for tuple in batch.take_rows(spec)? {
        match spec.admit(&tuple)? {
            true => rows.push(tuple),
            false => skipped += 1,
        }
    }
    Ok((rows, skipped))
}

/// A codec usable by tests and the CSV examples: every cell is a UTF-8
/// string parsed with the same `Int` → `Double` → `Str` fallback as
/// [`CsvLoader`](crate::loader::CsvLoader) fields.
#[derive(Debug, Clone, Default)]
pub struct TextCodec {
    columns: usize,
}

impl TextCodec {
    /// A codec for `columns` text columns.
    pub fn new(columns: usize) -> TextCodec {
        assert!(columns > 0);
        TextCodec { columns }
    }
}

impl ColumnarCodec for TextCodec {
    fn columns(&self) -> usize {
        self.columns
    }

    fn decode(&self, _col: usize, bytes: &[u8]) -> Option<Value> {
        let text = std::str::from_utf8(bytes).ok()?;
        Some(if let Ok(i) = text.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(d) = text.parse::<f64>() {
            Value::Double(d)
        } else {
            Value::str(text)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DataflowError;
    use uli_warehouse::{ColumnKind, ColumnarFileWriter, Warehouse, WarehouseError, WhPath};

    fn p(s: &str) -> WhPath {
        WhPath::parse(s).unwrap()
    }

    /// 3 text columns: user (int), action (dictionary), amount (int).
    fn fixture(wh: &Warehouse, rows: i64) -> ColumnarFile {
        let dict: [&[u8]; 2] = [b"click", b"impression"];
        let mut w = ColumnarFileWriter::create(
            wh,
            &p("/col"),
            &[ColumnKind::Bytes; 3],
            64,
            Some((1, &dict)),
        )
        .unwrap();
        for i in 0..rows {
            let user = (i % 10).to_string();
            let action = if i % 3 == 0 {
                "click".to_string()
            } else if i % 17 == 0 {
                format!("rare-{i}") // dictionary miss, stored inline
            } else {
                "impression".to_string()
            };
            let amount = i.to_string();
            let code = dict.iter().position(|entry| *entry == action.as_bytes());
            w.append_row_coded(
                &[user.as_bytes(), action.as_bytes(), amount.as_bytes()],
                code.map(|c| c as u32),
                i,
                uli_warehouse::tag_hash(action.as_bytes()),
            );
        }
        w.finish().unwrap();
        ColumnarFile::open(wh, &p("/col")).unwrap()
    }

    #[test]
    fn scan_group_matches_eager_semantics() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 100);
        let codec = TextCodec::new(3);
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(1).eq(Expr::lit("click"))],
            width: 3,
        };
        let mut rows = Vec::new();
        let mut skipped = 0;
        for g in 0..f.group_count() {
            let (r, s) = scan_group(&f, g, &codec, &spec).unwrap();
            rows.extend(r);
            skipped += s;
        }
        assert_eq!(rows.len(), 34, "i % 3 == 0 for 0..100");
        assert_eq!(skipped, 66);
        assert!(rows.iter().all(|t| t[1] == Value::str("click")));
        // Rows come out in row order with full values.
        assert_eq!(
            rows[0],
            vec![Value::Int(0), Value::str("click"), Value::Int(0)]
        );
    }

    #[test]
    fn dict_fast_path_agrees_with_generic_eval_including_misses() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 200);
        let codec = TextCodec::new(3);
        for literal in ["click", "impression", "rare-17", "absent"] {
            for negate in [false, true] {
                let base = Expr::col(1).eq(Expr::lit(literal));
                let pred = if negate { base.not() } else { base };
                // Fast path (dict shape detected).
                let spec = ScanSpec {
                    projection: None,
                    predicate: vec![pred.clone()],
                    width: 3,
                };
                // Generic path: wrap so the dict shape is not detected but
                // semantics are identical (x AND true == x).
                let generic_spec = ScanSpec {
                    projection: None,
                    predicate: vec![pred.and(Expr::lit(true))],
                    width: 3,
                };
                let mut fast = Vec::new();
                let mut generic = Vec::new();
                for g in 0..f.group_count() {
                    fast.extend(scan_group(&f, g, &codec, &spec).unwrap().0);
                    generic.extend(scan_group(&f, g, &codec, &generic_spec).unwrap().0);
                }
                assert_eq!(fast, generic, "literal={literal} negate={negate}");
            }
        }
    }

    #[test]
    fn projection_nulls_masked_columns() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 50);
        let codec = TextCodec::new(3);
        let spec = ScanSpec {
            projection: Some(vec![false, true, false]),
            predicate: vec![],
            width: 3,
        };
        let (rows, _) = scan_group(&f, 0, &codec, &spec).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0][0], Value::Null);
        assert_eq!(rows[0][1], Value::str("click"));
        assert_eq!(rows[0][2], Value::Null);
    }

    /// A spec whose mask leaves out a column it then reads — the planner
    /// slip that used to mark every row dead and return nothing.
    fn spec_reading_past_its_mask(predicate: Vec<Expr>) -> ScanSpec {
        ScanSpec {
            projection: Some(vec![true, false, true]),
            predicate,
            width: 3,
        }
    }

    fn scan_with_bad_spec(spec: &ScanSpec) {
        let wh = Warehouse::new();
        let f = fixture(&wh, 10);
        let group = f.read_group(0, &[true, false, true]).unwrap();
        let codec = TextCodec::new(3);
        let mut batch = ColumnBatch::new(&f, &group, &codec);
        let unread = DataflowError::Warehouse(WarehouseError::UnreadColumn(1));
        let scanned = batch
            .apply_predicates(spec)
            .and_then(|_| batch.take_rows(&ScanSpec::eager(3)));
        assert_eq!(scanned.err(), Some(unread));
    }

    // Reading a column the projection left out is a panic under
    // `debug_assertions` and a typed error without; never an empty result.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "column 1 was not read"))]
    fn a_predicate_on_an_unread_column_is_an_error_not_an_empty_result() {
        // The generic evaluator, then the dictionary fast path.
        scan_with_bad_spec(&spec_reading_past_its_mask(vec![
            Expr::col(1).ge(Expr::lit("a"))
        ]));
        scan_with_bad_spec(&spec_reading_past_its_mask(vec![
            Expr::col(1).eq(Expr::lit("click"))
        ]));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "column 1 was not read"))]
    fn materializing_an_unread_column_is_an_error_not_an_empty_result() {
        scan_with_bad_spec(&spec_reading_past_its_mask(vec![]));
    }

    #[test]
    fn late_materialization_decodes_only_surviving_rows() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts decodes per column.
        struct Counting(TextCodec, [AtomicUsize; 3]);
        impl ColumnarCodec for Counting {
            fn columns(&self) -> usize {
                3
            }
            fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value> {
                self.1[col].fetch_add(1, Ordering::Relaxed);
                self.0.decode(col, bytes)
            }
        }
        let wh = Warehouse::new();
        let f = fixture(&wh, 64); // one group
        let codec = Counting(TextCodec::new(3), Default::default());
        // user == 3 keeps rows 3, 13, …, 63; of those amount >= 40 keeps 3.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![
                Expr::col(0).eq(Expr::lit(3i64)),
                Expr::col(2).ge(Expr::lit(40i64)),
            ],
            width: 3,
        };
        let (rows, skipped) = scan_group(&f, 0, &codec, &spec).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(skipped, 61);
        let decoded = codec.1.map(|n| n.into_inner());
        assert_eq!(
            decoded,
            [64, 3, 7],
            "the first predicate's column for every row, the second's for \
             the 7 rows still selected, the unfiltered column for the 3 \
             that survived"
        );
    }

    #[test]
    fn a_bad_cell_drops_its_row_only_when_its_column_is_read() {
        let wh = Warehouse::new();
        // Column 1 of the middle row is invalid UTF-8.
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/bad"), &[ColumnKind::Bytes; 3], 8, None).unwrap();
        w.append_row(&[b"1", b"ok", b"10"]);
        w.append_row(&[b"2", &[0xff, 0xfe], b"20"]);
        w.append_row(&[b"3", b"ok", b"30"]);
        w.finish().unwrap();
        let f = ColumnarFile::open(&wh, &p("/bad")).unwrap();
        let scan = |projection: Option<Vec<bool>>| {
            let spec = ScanSpec {
                projection,
                predicate: vec![Expr::col(2).ge(Expr::lit(0i64))],
                width: 3,
            };
            let (rows, skipped) = scan_group(&f, 0, &TextCodec::new(3), &spec).unwrap();
            assert_eq!(skipped, 0, "a loader skip is not a predicate skip");
            rows.iter().map(|t| t[0].clone()).collect::<Vec<_>>()
        };
        let all = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(scan(Some(vec![true, false, true])), all, "unread: kept");
        assert_eq!(
            scan(None),
            [all[0].clone(), all[2].clone()],
            "read: dropped"
        );
    }

    #[test]
    fn non_total_predicates_error_like_the_eager_path() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 10);
        let codec = TextCodec::new(3);
        // `action + 1` type-errors on the first row; not total, so the
        // row-at-a-time fallback must surface the same error admit() would.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(1).add(Expr::lit(1i64)).ge(Expr::lit(0i64))],
            width: 3,
        };
        assert!(matches!(
            scan_group(&f, 0, &codec, &spec),
            Err(DataflowError::TypeError { .. })
        ));
        // A non-total predicate that happens not to error agrees with admit.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(0).add(Expr::lit(0i64)).ge(Expr::lit(5i64))],
            width: 3,
        };
        let (rows, skipped) = scan_group(&f, 0, &codec, &spec).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(skipped, 5);
    }

    #[test]
    fn undecodable_cells_drop_rows_not_batches() {
        let wh = Warehouse::new();
        // No dictionary; column 1 row 1 is invalid UTF-8.
        let mut w =
            ColumnarFileWriter::create(&wh, &p("/bad"), &[ColumnKind::Bytes; 2], 8, None).unwrap();
        w.append_row(&[b"1", b"ok"]);
        w.append_row(&[b"2", &[0xff, 0xfe]]);
        w.append_row(&[b"3", b"ok"]);
        w.finish().unwrap();
        let f = ColumnarFile::open(&wh, &p("/bad")).unwrap();
        let codec = TextCodec::new(2);
        let (rows, skipped) = scan_group(&f, 0, &codec, &ScanSpec::eager(2)).unwrap();
        assert_eq!(rows.len(), 2, "bad row dropped, others kept");
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[1][0], Value::Int(3));
        assert_eq!(skipped, 0, "a loader skip is not a predicate skip");
    }
}
