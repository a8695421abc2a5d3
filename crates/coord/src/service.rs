//! The coordination service proper: sessions, and the ephemeral and
//! sequential znodes they create, list and read.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use uli_obs::lock;

use crate::error::{CoordError, CoordResult};
use crate::znode::ZnodePath;

/// Identifies a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// How a znode is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// Survives the creating session.
    Persistent,
    /// Deleted automatically when the creating session ends — the mechanism
    /// aggregators use to advertise liveness.
    Ephemeral,
    /// Persistent with a monotonically increasing suffix appended.
    PersistentSequential,
    /// Ephemeral with a sequence suffix — unique member names in a group.
    EphemeralSequential,
}

impl CreateMode {
    fn is_ephemeral(self) -> bool {
        matches!(
            self,
            CreateMode::Ephemeral | CreateMode::EphemeralSequential
        )
    }

    fn is_sequential(self) -> bool {
        matches!(
            self,
            CreateMode::PersistentSequential | CreateMode::EphemeralSequential
        )
    }
}

#[derive(Debug, Default)]
struct Node {
    data: Vec<u8>,
    ephemeral_owner: Option<SessionId>,
    children: BTreeSet<String>,
    next_sequence: u64,
}

struct State {
    nodes: BTreeMap<String, Node>,
    next_session: u64,
    live_sessions: BTreeSet<SessionId>,
}

impl Default for State {
    /// A namespace holding just the root znode.
    fn default() -> Self {
        State {
            nodes: BTreeMap::from([("/".to_string(), Node::default())]),
            next_session: 0,
            live_sessions: BTreeSet::new(),
        }
    }
}

impl State {
    fn create_node(
        &mut self,
        sid: SessionId,
        path: &ZnodePath,
        data: Vec<u8>,
        mode: CreateMode,
    ) -> CoordResult<String> {
        let parent = path
            .parent()
            .ok_or_else(|| CoordError::BadPath("/".into()))?;
        let parent_node = self
            .nodes
            .get_mut(parent.as_str())
            .ok_or_else(|| CoordError::NoParent(path.as_str().to_string()))?;
        if parent_node.ephemeral_owner.is_some() {
            return Err(CoordError::NoChildrenForEphemerals(
                parent.as_str().to_string(),
            ));
        }
        let mut name = path.name().to_string();
        if mode.is_sequential() {
            name.push_str(&format!("{:010}", parent_node.next_sequence));
            parent_node.next_sequence += 1;
        }
        let actual = parent
            .child(&name)
            .expect("a valid name plus digits is a valid name")
            .to_string();
        if !parent_node.children.insert(name) {
            return Err(CoordError::NodeExists(actual));
        }
        self.nodes.insert(
            actual.clone(),
            Node {
                data,
                ephemeral_owner: mode.is_ephemeral().then_some(sid),
                ..Node::default()
            },
        );
        Ok(actual)
    }

    fn end_session(&mut self, sid: SessionId) {
        if !self.live_sessions.remove(&sid) {
            return;
        }
        // Delete this session's ephemerals. They cannot have children, so
        // only their parents' child sets need updating.
        let owned: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(sid))
            .map(|(p, _)| p.clone())
            .collect();
        for path in owned {
            self.nodes.remove(&path);
            let path = ZnodePath::parse(&path).expect("stored paths are valid");
            let parent = path.parent().expect("the root is not ephemeral");
            if let Some(parent_node) = self.nodes.get_mut(parent.as_str()) {
                parent_node.children.remove(path.name());
            }
        }
    }
}

/// An in-process coordination service shared by cloning.
#[derive(Clone, Default)]
pub struct CoordService {
    state: Arc<Mutex<State>>,
}

impl CoordService {
    /// Creates a service with just the root znode.
    pub fn new() -> Self {
        CoordService::default()
    }

    /// Opens a new client session.
    pub fn connect(&self) -> Session {
        let mut st = lock(&self.state);
        st.next_session += 1;
        let sid = SessionId(st.next_session);
        st.live_sessions.insert(sid);
        Session {
            state: Arc::clone(&self.state),
            sid,
        }
    }

    /// Forcibly expires a session, as a lost-heartbeat simulation. Its
    /// ephemerals are removed exactly as if the client died.
    pub fn expire_session(&self, sid: SessionId) {
        lock(&self.state).end_session(sid);
    }

    /// Total number of znodes (including the root).
    pub fn node_count(&self) -> usize {
        lock(&self.state).nodes.len()
    }
}

/// A client session. Dropping it ends the session, removing its ephemerals.
pub struct Session {
    state: Arc<Mutex<State>>,
    sid: SessionId,
}

impl Session {
    /// This session's id (usable with [`CoordService::expire_session`]).
    pub fn id(&self) -> SessionId {
        self.sid
    }

    /// True while the session has not expired. Clients use this to decide
    /// whether to reconnect and re-create their ephemerals.
    pub fn is_live(&self) -> bool {
        lock(&self.state).live_sessions.contains(&self.sid)
    }

    fn check_live(&self, st: &State) -> CoordResult<()> {
        if st.live_sessions.contains(&self.sid) {
            Ok(())
        } else {
            Err(CoordError::SessionExpired)
        }
    }

    /// Creates a znode; returns the actual path (differs from the requested
    /// one for sequential modes).
    pub fn create(&self, path: &str, data: Vec<u8>, mode: CreateMode) -> CoordResult<String> {
        let path = ZnodePath::parse(path)?;
        let mut st = lock(&self.state);
        self.check_live(&st)?;
        st.create_node(self.sid, &path, data, mode)
    }

    /// Reads a node's data.
    pub fn get_data(&self, path: &str) -> CoordResult<Vec<u8>> {
        let path = ZnodePath::parse(path)?;
        let st = lock(&self.state);
        self.check_live(&st)?;
        st.nodes
            .get(path.as_str())
            .map(|n| n.data.clone())
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))
    }

    /// Replaces a node's data.
    pub fn set_data(&self, path: &str, data: Vec<u8>) -> CoordResult<()> {
        let path = ZnodePath::parse(path)?;
        let mut st = lock(&self.state);
        self.check_live(&st)?;
        let node = st
            .nodes
            .get_mut(path.as_str())
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))?;
        node.data = data;
        Ok(())
    }

    /// Lists a node's children, sorted.
    pub fn get_children(&self, path: &str) -> CoordResult<Vec<String>> {
        let path = ZnodePath::parse(path)?;
        let st = lock(&self.state);
        self.check_live(&st)?;
        st.nodes
            .get(path.as_str())
            .map(|n| n.children.iter().cloned().collect())
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        lock(&self.state).end_session(self.sid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc_with_root(dir: &str) -> (CoordService, Session) {
        let svc = CoordService::new();
        let s = svc.connect();
        s.create(dir, vec![], CreateMode::Persistent).unwrap();
        (svc, s)
    }

    #[test]
    fn create_get_set() {
        let (_svc, s) = svc_with_root("/a");
        s.create("/a/b", b"v0".to_vec(), CreateMode::Persistent)
            .unwrap();
        assert_eq!(s.get_data("/a/b").unwrap(), b"v0");
        s.set_data("/a/b", b"v1".to_vec()).unwrap();
        assert_eq!(s.get_data("/a/b").unwrap(), b"v1");
        assert_eq!(
            s.set_data("/a/c", vec![]),
            Err(CoordError::NoNode("/a/c".into()))
        );
    }

    #[test]
    fn create_requires_parent() {
        let svc = CoordService::new();
        let s = svc.connect();
        assert_eq!(
            s.create("/x/y", vec![], CreateMode::Persistent),
            Err(CoordError::NoParent("/x/y".into()))
        );
    }

    #[test]
    fn duplicate_create_fails() {
        let (_svc, s) = svc_with_root("/a");
        assert_eq!(
            s.create("/a", vec![], CreateMode::Persistent),
            Err(CoordError::NodeExists("/a".into()))
        );
    }

    #[test]
    fn sequential_names_are_monotonic_and_padded() {
        let (_svc, s) = svc_with_root("/g");
        let p0 = s
            .create("/g/m-", vec![], CreateMode::PersistentSequential)
            .unwrap();
        let p1 = s
            .create("/g/m-", vec![], CreateMode::PersistentSequential)
            .unwrap();
        assert_eq!(p0, "/g/m-0000000000");
        assert_eq!(p1, "/g/m-0000000001");
        assert_eq!(s.get_children("/g").unwrap().len(), 2);
    }

    #[test]
    fn ephemerals_vanish_on_drop() {
        let svc = CoordService::new();
        let admin = svc.connect();
        admin
            .create("/agg", vec![], CreateMode::Persistent)
            .unwrap();
        let member = svc.connect();
        member
            .create("/agg/m-", b"host".to_vec(), CreateMode::EphemeralSequential)
            .unwrap();
        assert_eq!(admin.get_children("/agg").unwrap().len(), 1);
        drop(member);
        assert!(admin.get_children("/agg").unwrap().is_empty());
    }

    #[test]
    fn ephemerals_vanish_on_forced_expiry() {
        let svc = CoordService::new();
        let admin = svc.connect();
        admin
            .create("/agg", vec![], CreateMode::Persistent)
            .unwrap();
        let member = svc.connect();
        member
            .create("/agg/m", vec![], CreateMode::Ephemeral)
            .unwrap();
        svc.expire_session(member.id());
        assert!(admin.get_children("/agg").unwrap().is_empty());
        // The expired session now errors on use.
        assert_eq!(member.get_children("/agg"), Err(CoordError::SessionExpired));
    }

    #[test]
    fn ephemeral_cannot_have_children() {
        let svc = CoordService::new();
        let s = svc.connect();
        s.create("/e", vec![], CreateMode::Ephemeral).unwrap();
        assert_eq!(
            s.create("/e/child", vec![], CreateMode::Persistent),
            Err(CoordError::NoChildrenForEphemerals("/e".into()))
        );
    }

    #[test]
    fn node_count_includes_the_root_and_outlives_sessions() {
        let svc = CoordService::new();
        assert_eq!(svc.node_count(), 1);
        let a = svc.connect();
        a.create("/x", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(svc.node_count(), 2);
        drop(a);
        // Persistent node survives all sessions.
        assert_eq!(svc.node_count(), 2);
    }
}
