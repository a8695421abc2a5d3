//! Loaders: Pig-style `LoadFunc`s parsing warehouse records into tuples.
//!
//! "Elephant Bird … automatically generates Hadoop record readers and
//! writers for arbitrary Protocol Buffer and Thrift messages" (§3). Here a
//! [`Loader`] fills that role: each domain crate provides one (client event
//! loader, session sequence loader, legacy format loaders).
//!
//! [`BlockPruner`] is the Elephant Twin integration point (§6): indexes
//! "integrate with Hadoop at the level of InputFormats", so a pruner decides
//! per file which scan units a constrained scan may skip *before*
//! decompression. It is evidence kept alongside the data, checked against
//! the same planner-derived constraint as the in-file zone maps.

use crate::batch::{text_value, ColumnarCodec, TextCodec};
use crate::error::DataflowResult;
use crate::pushdown::ZoneColumn;
use crate::value::Tuple;
use uli_warehouse::{ScanFile, WhPath, ZoneMapPruner};

/// Parses raw warehouse records into tuples.
pub trait Loader: Send + Sync {
    /// Name for diagnostics.
    fn name(&self) -> &'static str;

    /// Parses one record. `Ok(None)` skips the record silently (e.g. a
    /// marker or corrupt line the loader chooses to tolerate).
    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>>;

    /// True when the planner may mask this loader's columns
    /// ([`ScanSpec::projection`](crate::ScanSpec::projection)): a columnar
    /// file then decodes only the projected columns, a row record still
    /// parses whole, and either way the masked slots come back Null. False
    /// (the default) leaves every column unmasked.
    fn supports_projection(&self) -> bool {
        false
    }

    /// Maps a load-schema column to the zone-map dimension the writer
    /// annotated it with, if any. Only loaders whose records are written
    /// through the annotated path return `Some`.
    fn zone_column(&self, _col: usize) -> Option<ZoneColumn> {
        None
    }

    /// The codec for this loader's columnar warehouse layout, when one
    /// exists. The executor then sniffs each file in a load directory, and
    /// [`scan_unit`](crate::batch::scan_unit) decodes a columnar file's
    /// cells with this codec; `None` (the default) makes it treat every file
    /// as an opaque row file, whose undecodable records the loader skips.
    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        None
    }
}

/// Decides which scan units of a file a constrained scan must read.
///
/// The executor consults a pruner only when the planner derived a
/// `constraint` from provably total pushed predicates — the gate zone maps
/// pass through — so a pruner never states the query a second time and can
/// never disagree with the FILTER above it.
pub trait BlockPruner: Send + Sync {
    /// Returns a keep-mask over `file`'s units (row blocks or columnar row
    /// groups) for rows that can satisfy `constraint`, or `None` to read
    /// all. A mask of any other length is ignored: the file is scanned.
    fn prune(
        &self,
        path: &WhPath,
        file: &ScanFile,
        constraint: &ZoneMapPruner,
    ) -> Option<Vec<bool>>;
}

/// A simple comma-separated loader used by tests, examples, and docs.
///
/// Fields parse as `Int` when possible, else `Double`, else `Str`. Records
/// with the wrong number of fields are skipped (a real Pig loader would
/// likewise drop malformed rows into a sink).
#[derive(Debug, Clone)]
pub struct CsvLoader {
    fields: usize,
}

impl CsvLoader {
    /// A loader expecting `fields` comma-separated columns.
    pub fn new(fields: usize) -> Self {
        assert!(fields > 0);
        CsvLoader { fields }
    }
}

impl Loader for CsvLoader {
    fn name(&self) -> &'static str {
        "CsvLoader"
    }

    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>> {
        let Ok(text) = std::str::from_utf8(record) else {
            return Ok(None);
        };
        let parts: Vec<&str> = text.split(',').collect();
        if parts.len() != self.fields {
            return Ok(None);
        }
        Ok(Some(parts.into_iter().map(text_value).collect()))
    }

    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        Some(&TextCodec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn csv_parses_types() {
        let l = CsvLoader::new(3);
        let t = l.parse(b"42,3.5,hello").unwrap().unwrap();
        assert_eq!(
            t,
            vec![Value::Int(42), Value::Double(3.5), Value::str("hello")]
        );
    }

    #[test]
    fn csv_skips_malformed() {
        let l = CsvLoader::new(2);
        assert_eq!(l.parse(b"only_one_field").unwrap(), None);
        assert_eq!(l.parse(b"a,b,c").unwrap(), None);
        assert_eq!(l.parse(&[0xff, 0xfe]).unwrap(), None);
    }
}
