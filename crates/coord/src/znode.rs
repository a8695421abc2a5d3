//! Znode paths.

use crate::error::{CoordError, CoordResult};

/// A validated znode path: absolute, `/`-separated, no empty or dot segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZnodePath(String);

impl ZnodePath {
    /// Parses and validates a path.
    ///
    /// Rules (a subset of ZooKeeper's): must start with `/`; the root `/` is
    /// valid; segments are non-empty, contain no `/`, and are not `.`/`..`;
    /// no trailing slash.
    pub fn parse(path: &str) -> CoordResult<ZnodePath> {
        if path == "/" {
            return Ok(ZnodePath("/".to_string()));
        }
        if !path.starts_with('/') || path.ends_with('/') {
            return Err(CoordError::BadPath(path.to_string()));
        }
        for seg in path[1..].split('/') {
            if seg.is_empty() || seg == "." || seg == ".." {
                return Err(CoordError::BadPath(path.to_string()));
            }
        }
        Ok(ZnodePath(path.to_string()))
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<ZnodePath> {
        if self.0 == "/" {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(ZnodePath("/".to_string())),
            Some(idx) => Some(ZnodePath(self.0[..idx].to_string())),
            None => None,
        }
    }

    /// The final path segment ("" for the root).
    pub fn name(&self) -> &str {
        if self.0 == "/" {
            return "";
        }
        &self.0[self.0.rfind('/').map_or(0, |i| i + 1)..]
    }

    /// Joins a child segment onto this path.
    pub fn child(&self, name: &str) -> CoordResult<ZnodePath> {
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(CoordError::BadPath(format!("{}/{}", self.0, name)));
        }
        if self.0 == "/" {
            Ok(ZnodePath(format!("/{name}")))
        } else {
            Ok(ZnodePath(format!("{}/{}", self.0, name)))
        }
    }
}

impl std::fmt::Display for ZnodePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_paths() {
        for p in ["/", "/a", "/a/b/c", "/aggregators/dc1/agg-0000000001"] {
            assert_eq!(ZnodePath::parse(p).unwrap().as_str(), p);
        }
    }

    #[test]
    fn parse_rejects_invalid_paths() {
        for p in ["", "a", "a/b", "/a/", "//", "/a//b", "/a/./b", "/a/../b"] {
            assert!(ZnodePath::parse(p).is_err(), "{p:?} should be invalid");
        }
    }

    #[test]
    fn parent_and_name() {
        let p = ZnodePath::parse("/a/b/c").unwrap();
        assert_eq!(p.name(), "c");
        assert_eq!(p.parent().unwrap().as_str(), "/a/b");
        let top = ZnodePath::parse("/a").unwrap();
        assert_eq!(top.parent().unwrap().as_str(), "/");
        assert!(ZnodePath::parse("/").unwrap().parent().is_none());
        assert_eq!(ZnodePath::parse("/").unwrap().name(), "");
    }

    #[test]
    fn child_joins() {
        let root = ZnodePath::parse("/").unwrap();
        assert_eq!(root.child("a").unwrap().as_str(), "/a");
        let a = ZnodePath::parse("/a").unwrap();
        assert_eq!(a.child("b").unwrap().as_str(), "/a/b");
        assert!(a.child("").is_err());
        assert!(a.child("x/y").is_err());
        assert!(a.child("..").is_err());
    }
}
