//! Coordination-service errors.

use std::fmt;

/// Errors returned by [`crate::CoordService`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// The target znode does not exist.
    NoNode(String),
    /// A znode already exists at the target path.
    NodeExists(String),
    /// The parent of the target path does not exist.
    NoParent(String),
    /// Ephemeral znodes cannot have children (as in ZooKeeper).
    NoChildrenForEphemerals(String),
    /// A path failed syntactic validation.
    BadPath(String),
    /// The session performing the operation has ended.
    SessionExpired,
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NoNode(p) => write!(f, "no node at {p}"),
            CoordError::NodeExists(p) => write!(f, "node already exists at {p}"),
            CoordError::NoParent(p) => write!(f, "parent of {p} does not exist"),
            CoordError::NoChildrenForEphemerals(p) => {
                write!(f, "{p} is ephemeral and cannot have children")
            }
            CoordError::BadPath(p) => write!(f, "invalid znode path {p:?}"),
            CoordError::SessionExpired => write!(f, "session expired"),
        }
    }
}

impl std::error::Error for CoordError {}

/// Convenience alias.
pub type CoordResult<T> = Result<T, CoordError>;
