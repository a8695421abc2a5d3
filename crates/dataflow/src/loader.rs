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

use crate::batch::{ColumnarCodec, TextCodec};
use crate::error::{DataflowError, DataflowResult};
use crate::pushdown::{ScanOutcome, ScanSpec, ZoneColumn};
use crate::value::{Tuple, Value};
use uli_warehouse::{ScanFile, WhPath, ZoneMapPruner};

/// Parses raw warehouse records into tuples.
pub trait Loader: Send + Sync {
    /// Name for diagnostics.
    fn name(&self) -> &'static str;

    /// Parses one record. `Ok(None)` skips the record silently (e.g. a
    /// marker or corrupt line the loader chooses to tolerate).
    fn parse(&self, record: &[u8]) -> DataflowResult<Option<Tuple>>;

    /// True when this loader honors [`ScanSpec::projection`] by decoding
    /// lazily. The default eager loader ignores projections, so the planner
    /// must not mask columns for it.
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
    /// exists. The executor sniffs each file in a load directory and scans
    /// columnar files through [`scan_group`](crate::batch::scan_group) with
    /// this codec; `None` (the default) makes it treat them as opaque
    /// row files, whose undecodable records the loader then skips.
    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        None
    }

    /// Scans one record under a [`ScanSpec`]: parse (lazily, if supported),
    /// evaluate pushed predicates, and report what was skipped. The default
    /// implementation parses eagerly and applies the predicates afterwards —
    /// byte-identical to the unpushed path for any loader.
    fn scan(&self, record: &[u8], spec: &ScanSpec) -> DataflowResult<ScanOutcome> {
        let Some(tuple) = self.parse(record)? else {
            return Ok(ScanOutcome::skipped());
        };
        if tuple.len() != spec.width {
            return Err(DataflowError::MalformedRecord {
                loader: self.name(),
            });
        }
        if !spec.admit(&tuple)? {
            return Ok(ScanOutcome {
                tuple: None,
                fields_skipped: 0,
                skipped_by_predicate: true,
            });
        }
        Ok(ScanOutcome {
            tuple: Some(tuple),
            fields_skipped: 0,
            skipped_by_predicate: false,
        })
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
    codec: TextCodec,
}

impl CsvLoader {
    /// A loader expecting `fields` comma-separated columns.
    pub fn new(fields: usize) -> Self {
        assert!(fields > 0);
        CsvLoader {
            fields,
            codec: TextCodec::new(fields),
        }
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
        let tuple = parts
            .into_iter()
            .map(|p| {
                if let Ok(i) = p.parse::<i64>() {
                    Value::Int(i)
                } else if let Ok(d) = p.parse::<f64>() {
                    Value::Double(d)
                } else {
                    Value::str(p)
                }
            })
            .collect();
        Ok(Some(tuple))
    }

    fn columnar(&self) -> Option<&dyn ColumnarCodec> {
        Some(&self.codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
