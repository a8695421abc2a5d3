//! Column batches: the one way a LOAD scans a unit.
//!
//! Every scan unit — a columnar file's row group or a row file's block —
//! becomes one `ColumnBatch`: the unit's columns plus a selection mask. A
//! row group's typed columns become [`Value`]s late and only as far as the
//! scan needs them — integers as `Int`s, bytes through the loader's codec;
//! a row block's records are parsed whole by the loader,
//! as the paper's raw-log jobs parse them, and arrive as the batch's
//! already-decoded columns. From there both layouts take one path: pushed
//! predicates evaluate over whole columns (keep-masks become selection
//! masks, after Boncz et al., *MonetDB/X100*, CIDR 2005), output tuples
//! materialize only for surviving rows with every masked slot Null, and
//! the predicate skips are charged to the file once. Columns the projection
//! masked out of a row group were never even decompressed — the reader
//! charged them to `fields_skipped` without touching their chunks.
//!
//! Equality predicates on the dictionary-encoded column compare integer
//! codes: the literal resolves to a code once per batch, and rows that are
//! dictionary hits never decode their strings at all. Values that missed
//! the dictionary at write time are stored inline and compared by bytes,
//! so unknown event names still admit correctly.
//!
//! Predicates that are not provably total ([`total_boolean`]) run row at a
//! time over the materialized survivors, in order, so evaluation errors
//! surface against the same row the FILTER would report.

use uli_warehouse::{Column, ColumnGroup, ColumnarFile, FileBlocks, ScanFile};

use crate::error::{DataflowError, DataflowResult};
use crate::expr::{BinOp, Expr};
use crate::loader::Loader;
use crate::pushdown::{total_boolean, ScanSpec};
use crate::value::{Tuple, Value};

/// Decodes the bytes a row of a columnar file stores into the [`Value`]
/// the row-format loader would have produced for the same field. An integer
/// column never reaches a codec: its values are `Int`s as read.
///
/// A loader that also understands a columnar layout returns a codec from
/// [`Loader::columnar`]; [`scan_unit`] then decodes a columnar file's bytes
/// with it, and parses a row file's records with [`Loader::parse`].
pub trait ColumnarCodec: Send + Sync {
    /// Decodes one value. `None` marks it undecodable, which drops the
    /// whole row exactly as a loader `parse` returning `Ok(None)` drops the
    /// whole record (tolerant-reader semantics).
    fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value>;

    /// Whether column `col` is written as integers: its rows are read by
    /// [`Column::int`] — an eight-byte cell of a group that fell back to
    /// cells too — and never reach [`decode`](Self::decode).
    fn integer(&self, _col: usize) -> bool {
        false
    }
}

/// One scan unit's columns plus a selection mask.
///
/// A row group's values are made late: a column's when a predicate first
/// reads it, and then only for the rows earlier predicates left selected;
/// every other projected column's in [`ColumnBatch::take_rows`], for
/// surviving rows only, straight into the output tuple. A row block's
/// columns all arrive as values.
struct ColumnBatch<'a> {
    /// A row group as read, the file whose dictionary resolves its codes,
    /// and the codec of its bytes; `None` for a row block.
    group: Option<(&'a ColumnarFile, &'a ColumnGroup, &'a dyn ColumnarCodec)>,
    /// Columns made values so far (outer `None`: not yet). `columns[c][r]`
    /// is `None` for a row that was already deselected then, or whose value
    /// was undecodable (which also marks the row dead).
    columns: Vec<Option<Vec<Option<Value>>>>,
    /// Selection mask: rows still admitted by the predicates run so far.
    selection: Vec<bool>,
    /// Rows whose values decoded so far. A dead row is a loader skip, not a
    /// predicate skip.
    alive: Vec<bool>,
}

impl<'a> ColumnBatch<'a> {
    /// Wraps one row group read from `file` with `codec`.
    fn of_group(
        file: &'a ColumnarFile,
        group: &'a ColumnGroup,
        codec: &'a dyn ColumnarCodec,
    ) -> ColumnBatch<'a> {
        let rows = group.rows();
        ColumnBatch {
            group: Some((file, group, codec)),
            columns: vec![None; file.columns()],
            selection: vec![true; rows],
            alive: vec![true; rows],
        }
    }

    /// Wraps a row block's parsed records, `width` values each, as the
    /// batch's decoded columns.
    fn of_tuples(tuples: Vec<Tuple>, width: usize) -> ColumnBatch<'a> {
        let rows = tuples.len();
        // A column each: a clone of an empty `Vec` would drop its capacity.
        let mut columns: Vec<_> = (0..width).map(|_| Some(Vec::with_capacity(rows))).collect();
        for tuple in tuples {
            for (column, value) in columns.iter_mut().flatten().zip(tuple) {
                column.push(Some(value));
            }
        }
        ColumnBatch {
            group: None,
            columns,
            selection: vec![true; rows],
            alive: vec![true; rows],
        }
    }

    /// Rows in the batch (before selection).
    fn rows(&self) -> usize {
        self.selection.len()
    }

    /// Row `row` of column `col` of the group as a value; `Ok(None)` marks
    /// it undecodable. Errors when the group was read without `col` — a
    /// column missing from the planner's mask must never read as "every row
    /// is undecodable".
    fn value(&self, col: usize, row: usize) -> DataflowResult<Option<Value>> {
        let (file, group, codec) = self.group.expect("a row block's columns arrive decoded");
        let column = group.column(col)?;
        Ok(match column {
            Column::I64(_) => column.int(row).map(Value::Int),
            _ if codec.integer(col) => column.int(row).map(Value::Int),
            _ => file.resolve(column, row).and_then(|b| codec.decode(col, b)),
        })
    }

    /// Makes column `col` values for the rows still selected, marking rows
    /// with undecodable values dead.
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
            let v = self.value(col, r)?;
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
    /// number of rows dropped by predicates (not by undecodable values).
    fn apply_predicates(&mut self, spec: &ScanSpec) -> DataflowResult<u64> {
        for pred in &spec.predicate {
            self.apply_total(pred)?;
        }
        // Alive-but-deselected rows were dropped by a predicate; rows whose
        // values failed to decode are loader skips and count nowhere, exactly
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
        let dict = self.group.and_then(|(file, group, _)| {
            let (positive, literal) = dict_equality(pred, file.dict_column())?;
            Some((file, group, positive, literal))
        });
        if let Some((file, group, positive, literal)) = dict {
            let names = group.column(file.dict_column().expect("checked by dict_equality"))?;
            let code = file.dictionary_code(literal.as_bytes());
            for r in 0..self.rows() {
                if !self.selection[r] {
                    continue;
                }
                let hit = match names.code(r) {
                    Some(c) => Some(c) == code,
                    None => names.bytes(r) == Some(literal.as_bytes()),
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
    /// a projected column no predicate read is made values here, per
    /// surviving row; values already made are moved, not cloned. Masked columns
    /// come back as [`Value::Null`] on either layout.
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
                let value = match &mut self.columns[c] {
                    Some(made) => made[r].take(),
                    None => self.value(c, r)?,
                };
                match value {
                    Some(v) => tuple[c] = v,
                    // An undecodable value drops the row, like a record the
                    // loader's `parse` rejected.
                    None => continue 'rows,
                }
            }
            out.push(tuple);
        }
        Ok(out)
    }

    /// Narrows the selection by the spec's pushed predicates and
    /// materializes the survivors. Returns them with the number of rows the
    /// predicates dropped (rows the loader could not decode count nowhere).
    fn select(mut self, spec: &ScanSpec) -> DataflowResult<(Vec<Tuple>, u64)> {
        if spec.predicate.iter().all(|p| total_boolean(p, spec.width)) {
            let skipped = self.apply_predicates(spec)?;
            return Ok((self.take_rows(spec)?, skipped));
        }
        // A pushed predicate that may error runs row by row, in order, so
        // the failing row is the one the FILTER reports; an earlier
        // predicate that drops a row keeps the later ones off it.
        let mut rows = Vec::new();
        let mut skipped = 0;
        'rows: for tuple in self.take_rows(spec)? {
            for pred in &spec.predicate {
                if !pred.keeps(&tuple)? {
                    skipped += 1;
                    continue 'rows;
                }
            }
            rows.push(tuple);
        }
        Ok((rows, skipped))
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

/// Parses one row block's records whole, in order, each borrowed in place
/// (no per-record copy is charged to `alloc_bytes`). Records the loader
/// skips never enter the batch; a tuple of the wrong width is an error.
fn parse_block(
    blocks: &FileBlocks,
    unit: usize,
    loader: &dyn Loader,
    width: usize,
) -> DataflowResult<Vec<Tuple>> {
    let mut tuples = Vec::with_capacity(blocks.block_records(unit) as usize);
    let mut error = None;
    blocks.for_each_record(unit, |record| {
        if error.is_some() {
            return;
        }
        match loader.parse(record) {
            Ok(Some(tuple)) if tuple.len() == width => tuples.push(tuple),
            Ok(Some(_)) => {
                error = Some(DataflowError::MalformedRecord {
                    loader: loader.name(),
                })
            }
            Ok(None) => {}
            Err(e) => error = Some(e),
        }
    })?;
    error.map_or(Ok(tuples), Err)
}

/// Scans one unit of `file` end to end under `spec`: a row group read
/// under the projection and decoded with the loader's codec, or a row block
/// parsed by the loader; then the pushed predicates and the projection,
/// the same way for both. Returns the surviving tuples in row order and
/// charges the predicate skips to `file`. A columnar reader has already
/// charged `fields_skipped` for unprojected columns; a row record decodes
/// whole and skips no field.
///
/// # Panics
/// If `file` is columnar and `loader` has no columnar codec (the engine
/// opens every file of such a loader as a row file).
pub fn scan_unit(
    file: &ScanFile,
    unit: usize,
    loader: &dyn Loader,
    spec: &ScanSpec,
) -> DataflowResult<Vec<Tuple>> {
    let group;
    let batch = match file {
        ScanFile::Columnar(columnar) => {
            let codec = loader
                .columnar()
                .expect("columnar files are opened only with a codec");
            group = match &spec.projection {
                Some(mask) => columnar.read_group(unit, mask)?,
                None => columnar.read_group(unit, &vec![true; columnar.columns()])?,
            };
            ColumnBatch::of_group(columnar, &group, codec)
        }
        ScanFile::Row(blocks) => {
            ColumnBatch::of_tuples(parse_block(blocks, unit, loader, spec.width)?, spec.width)
        }
    };
    let (rows, skipped) = batch.select(spec)?;
    file.charge_pushdown(skipped, 0);
    Ok(rows)
}

/// A codec usable by tests and the CSV examples: every value is a UTF-8
/// string read as a [`CsvLoader`](crate::loader::CsvLoader) field is —
/// `Int` when it parses as one, else `Double`, else `Str`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl ColumnarCodec for TextCodec {
    fn decode(&self, _col: usize, bytes: &[u8]) -> Option<Value> {
        std::str::from_utf8(bytes).ok().map(text_value)
    }
}

/// A text field's value: `Int` when it parses as one, else `Double`, else
/// `Str`.
pub(crate) fn text_value(text: &str) -> Value {
    if let Ok(i) = text.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(d) = text.parse::<f64>() {
        Value::Double(d)
    } else {
        Value::str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::CsvLoader;
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
        for (i, [user, action, amount]) in fixture_rows(rows).into_iter().enumerate() {
            let code = dict.iter().position(|entry| *entry == action.as_bytes());
            w.append_row_coded(
                &[user.as_bytes(), action.as_bytes(), amount.as_bytes()],
                code.map(|c| c as u32),
                i as i64,
                uli_warehouse::tag_hash(action.as_bytes()),
            );
        }
        w.finish().unwrap();
        ColumnarFile::open(wh, &p("/col")).unwrap()
    }

    /// The fixture's cells, row by row.
    fn fixture_rows(rows: i64) -> Vec<[String; 3]> {
        (0..rows)
            .map(|i| {
                let action = if i % 3 == 0 {
                    "click".to_string()
                } else if i % 17 == 0 {
                    format!("rare-{i}") // dictionary miss, stored inline
                } else {
                    "impression".to_string()
                };
                [(i % 10).to_string(), action, i.to_string()]
            })
            .collect()
    }

    /// A loader that reads only columnar files, through `codec`.
    struct CodecLoader<'c>(&'c dyn ColumnarCodec);

    impl Loader for CodecLoader<'_> {
        fn name(&self) -> &'static str {
            "CodecLoader"
        }
        fn parse(&self, _: &[u8]) -> DataflowResult<Option<Tuple>> {
            unreachable!("a columnar scan never parses a record")
        }
        fn columnar(&self) -> Option<&dyn ColumnarCodec> {
            Some(self.0)
        }
    }

    /// Scans every unit of `file` through `loader`: the surviving rows, and
    /// the predicate skips charged to the file.
    fn scan_with(
        file: ScanFile,
        loader: &dyn Loader,
        spec: &ScanSpec,
    ) -> DataflowResult<(Vec<Tuple>, u64)> {
        let skipped = || file.local_stats().records_skipped_by_predicate;
        let before = skipped();
        let mut rows = Vec::new();
        for unit in 0..file.units() {
            rows.extend(scan_unit(&file, unit, loader, spec)?);
        }
        Ok((rows, skipped() - before))
    }

    /// [`scan_with`] over a columnar file read with `codec`.
    fn scan(
        file: &ColumnarFile,
        codec: &dyn ColumnarCodec,
        spec: &ScanSpec,
    ) -> DataflowResult<(Vec<Tuple>, u64)> {
        scan_with(ScanFile::Columnar(file.clone()), &CodecLoader(codec), spec)
    }

    #[test]
    fn scan_unit_has_filter_semantics() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 100);
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(1).eq(Expr::lit("click"))],
            width: 3,
        };
        let (rows, skipped) = scan(&f, &TextCodec, &spec).unwrap();
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
    fn a_row_block_takes_the_selection_of_a_row_group() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 150);
        let wh = Warehouse::with_block_capacity(256);
        let mut w = wh.create(&p("/row")).unwrap();
        for row in fixture_rows(150) {
            w.append_record(row.join(",").as_bytes());
        }
        w.append_record(b"a,record,of,four"); // the loader skips it
        w.finish().unwrap();
        let blocks = ScanFile::Row(wh.open_blocks(&p("/row")).unwrap());
        assert!(blocks.units() > 1);
        let loader = CsvLoader::new(3);
        let total = Expr::col(1).ne(Expr::lit("impression"));
        let non_total = Expr::col(2).add(Expr::lit(1i64)).gt(Expr::lit(0i64));
        for predicate in [vec![], vec![total.clone()], vec![total, non_total]] {
            let spec = ScanSpec {
                projection: Some(vec![false, true, true]),
                predicate,
                width: 3,
            };
            let row = scan_with(blocks.clone(), &loader, &spec).unwrap();
            let col = scan(&f, &TextCodec, &spec).unwrap();
            assert!(row.0.iter().all(|t| t[0] == Value::Null), "masked");
            assert_eq!(row, col);
        }
        // A record of the wrong width is an error, not a skip.
        let mut w = wh.create(&p("/wide")).unwrap();
        w.append_record(b"1,click,2");
        w.finish().unwrap();
        let wide = ScanFile::Row(wh.open_blocks(&p("/wide")).unwrap());
        assert_eq!(
            scan_with(wide, &CsvLoader::new(3), &ScanSpec::full(2)).err(),
            Some(DataflowError::MalformedRecord {
                loader: "CsvLoader"
            })
        );
    }

    #[test]
    fn dict_fast_path_agrees_with_generic_eval_including_misses() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 200);
        let codec = TextCodec;
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
                let fast = scan(&f, &codec, &spec).unwrap().0;
                let generic = scan(&f, &codec, &generic_spec).unwrap().0;
                assert_eq!(fast, generic, "literal={literal} negate={negate}");
            }
        }
    }

    #[test]
    fn projection_nulls_masked_columns() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 50);
        let spec = ScanSpec {
            projection: Some(vec![false, true, false]),
            predicate: vec![],
            width: 3,
        };
        let (rows, _) = scan(&f, &TextCodec, &spec).unwrap();
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
        let codec = TextCodec;
        let mut batch = ColumnBatch::of_group(&f, &group, &codec);
        let unread = DataflowError::Warehouse(WarehouseError::UnreadColumn(1));
        let scanned = batch
            .apply_predicates(spec)
            .and_then(|_| batch.take_rows(&ScanSpec::full(3)));
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
            fn decode(&self, col: usize, bytes: &[u8]) -> Option<Value> {
                self.1[col].fetch_add(1, Ordering::Relaxed);
                self.0.decode(col, bytes)
            }
        }
        let wh = Warehouse::new();
        let f = fixture(&wh, 64); // one group
        let codec = Counting(TextCodec, Default::default());
        // user == 3 keeps rows 3, 13, …, 63; of those amount >= 40 keeps 3.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![
                Expr::col(0).eq(Expr::lit(3i64)),
                Expr::col(2).ge(Expr::lit(40i64)),
            ],
            width: 3,
        };
        let (rows, skipped) = scan(&f, &codec, &spec).unwrap();
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
            let (rows, skipped) = scan(&f, &TextCodec, &spec).unwrap();
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
    fn non_total_predicates_error_like_the_filter() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 10);
        let codec = TextCodec;
        // `action + 1` type-errors on the first row; not total, so the
        // row-at-a-time fallback must surface the error the FILTER would.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(1).add(Expr::lit(1i64)).ge(Expr::lit(0i64))],
            width: 3,
        };
        assert!(matches!(
            scan(&f, &codec, &spec),
            Err(DataflowError::TypeError { .. })
        ));
        // A non-total predicate that happens not to error keeps its rows.
        let spec = ScanSpec {
            projection: None,
            predicate: vec![Expr::col(0).add(Expr::lit(0i64)).ge(Expr::lit(5i64))],
            width: 3,
        };
        let (rows, skipped) = scan(&f, &codec, &spec).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(skipped, 5);
    }

    #[test]
    fn predicates_that_may_error_run_in_order_and_stop_at_a_drop() {
        let wh = Warehouse::new();
        let f = fixture(&wh, 10);
        // The first drops every row before the second (a type error) runs,
        // exactly like two chained Filter nodes.
        let spec = ScanSpec {
            predicate: vec![Expr::lit(false), Expr::lit(7i64)],
            ..ScanSpec::full(3)
        };
        assert_eq!(scan(&f, &TextCodec, &spec), Ok((vec![], 10)));
        let spec = ScanSpec {
            predicate: vec![Expr::lit(true), Expr::lit(7i64)],
            ..ScanSpec::full(3)
        };
        assert_eq!(
            scan(&f, &TextCodec, &spec),
            Err(DataflowError::TypeError { context: "FILTER" })
        );
    }

    #[test]
    fn a_row_block_gives_every_column_room_for_its_rows() {
        let tuples = (0..10).map(|i| vec![Value::Int(i); 3]).collect();
        let batch = ColumnBatch::of_tuples(tuples, 3);
        for column in batch.columns.iter().flatten() {
            assert_eq!((column.len(), column.capacity()), (10, 10), "never regrown");
        }
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
        let (rows, skipped) = scan(&f, &TextCodec, &ScanSpec::full(2)).unwrap();
        assert_eq!(rows.len(), 2, "bad row dropped, others kept");
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[1][0], Value::Int(3));
        assert_eq!(skipped, 0, "a loader skip is not a predicate skip");
    }
}
