//! Warehouse errors.

use std::fmt;

/// Errors returned by warehouse operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// The target path does not exist.
    NotFound(String),
    /// A file or directory already exists at the target path.
    AlreadyExists(String),
    /// The path failed syntactic validation.
    BadPath(String),
    /// A file operation was attempted on a directory or vice versa.
    NotAFile(String),
    /// Directory operation on a file.
    NotADirectory(String),
    /// A block failed its checksum — simulated disk corruption surfaced.
    ChecksumMismatch {
        /// File containing the corrupt block.
        path: String,
        /// Index of the corrupt block.
        block: usize,
    },
    /// A block or record was structurally malformed.
    Corrupt(&'static str),
    /// The warehouse is unavailable (fault injection: simulated HDFS outage).
    Unavailable,
    /// A reader asked for a cell of a column its projection did not read —
    /// a bug in whoever derived the projection, never a property of the data.
    UnreadColumn(usize),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::NotFound(p) => write!(f, "not found: {p}"),
            WarehouseError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            WarehouseError::BadPath(p) => write!(f, "invalid path: {p:?}"),
            WarehouseError::NotAFile(p) => write!(f, "not a file: {p}"),
            WarehouseError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            WarehouseError::ChecksumMismatch { path, block } => {
                write!(f, "checksum mismatch in {path} block {block}")
            }
            WarehouseError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            WarehouseError::Unavailable => write!(f, "warehouse unavailable"),
            WarehouseError::UnreadColumn(col) => {
                write!(f, "column {col} was not read by the projection")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

/// Convenience alias.
pub type WarehouseResult<T> = Result<T, WarehouseError>;
