//! The coordination service proper: sessions, znode CRUD, watches.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use uli_obs::lock;

use crate::error::{CoordError, CoordResult};
use crate::znode::{NodeStat, ZnodePath};

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

/// The kind of change a watch observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// A node appeared at the watched path.
    NodeCreated,
    /// The watched node was deleted.
    NodeDeleted,
    /// The watched node's data changed.
    NodeDataChanged,
    /// The watched node's child set changed.
    NodeChildrenChanged,
}

/// A fired watch, delivered to the session that registered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Path the watch was registered on.
    pub path: String,
    /// What happened.
    pub kind: WatchEventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WatchKind {
    Data,
    Exists,
    Children,
}

#[derive(Debug)]
struct Node {
    data: Vec<u8>,
    version: i64,
    ephemeral_owner: Option<SessionId>,
    children: BTreeSet<String>,
    next_sequence: u64,
    created_at: u64,
    modified_at: u64,
}

impl Node {
    fn stat(&self) -> NodeStat {
        NodeStat {
            version: self.version,
            num_children: self.children.len(),
            ephemeral: self.ephemeral_owner.is_some(),
            created_at: self.created_at,
            modified_at: self.modified_at,
        }
    }
}

#[derive(Default)]
struct State {
    nodes: BTreeMap<String, Node>,
    next_session: u64,
    live_sessions: BTreeSet<SessionId>,
    event_queues: HashMap<SessionId, VecDeque<WatchEvent>>,
    watches: HashMap<(String, WatchKind), Vec<SessionId>>,
    tick: u64,
}

impl State {
    fn fire(&mut self, path: &str, watch: WatchKind, kind: WatchEventKind) {
        if let Some(sessions) = self.watches.remove(&(path.to_string(), watch)) {
            for sid in sessions {
                if self.live_sessions.contains(&sid) {
                    self.event_queues
                        .entry(sid)
                        .or_default()
                        .push_back(WatchEvent {
                            path: path.to_string(),
                            kind,
                        });
                }
            }
        }
    }

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
        self.tick += 1;
        let tick = self.tick;
        let actual = {
            let parent_node = self
                .nodes
                .get_mut(parent.as_str())
                .ok_or_else(|| CoordError::NoParent(path.as_str().to_string()))?;
            if parent_node.ephemeral_owner.is_some() {
                return Err(CoordError::NoChildrenForEphemerals(
                    parent.as_str().to_string(),
                ));
            }
            if mode.is_sequential() {
                let seq = parent_node.next_sequence;
                parent_node.next_sequence += 1;
                format!("{}{:010}", path.as_str(), seq)
            } else {
                path.as_str().to_string()
            }
        };
        if self.nodes.contains_key(&actual) {
            return Err(CoordError::NodeExists(actual));
        }
        let name = ZnodePath::parse(&actual)
            .expect("constructed path is valid")
            .name()
            .to_string();
        self.nodes
            .get_mut(parent.as_str())
            .expect("parent checked above")
            .children
            .insert(name);
        self.nodes.insert(
            actual.clone(),
            Node {
                data,
                version: 0,
                ephemeral_owner: mode.is_ephemeral().then_some(sid),
                children: BTreeSet::new(),
                next_sequence: 0,
                created_at: tick,
                modified_at: tick,
            },
        );
        self.fire(&actual, WatchKind::Exists, WatchEventKind::NodeCreated);
        self.fire(
            parent.as_str(),
            WatchKind::Children,
            WatchEventKind::NodeChildrenChanged,
        );
        Ok(actual)
    }

    fn delete_node(&mut self, path: &ZnodePath) -> CoordResult<()> {
        let node = self
            .nodes
            .get(path.as_str())
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))?;
        if !node.children.is_empty() {
            return Err(CoordError::NotEmpty(path.as_str().to_string()));
        }
        self.nodes.remove(path.as_str());
        let parent = path.parent().expect("non-root: has a parent");
        if let Some(parent_node) = self.nodes.get_mut(parent.as_str()) {
            parent_node.children.remove(path.name());
        }
        self.fire(path.as_str(), WatchKind::Data, WatchEventKind::NodeDeleted);
        self.fire(
            path.as_str(),
            WatchKind::Exists,
            WatchEventKind::NodeDeleted,
        );
        self.fire(
            parent.as_str(),
            WatchKind::Children,
            WatchEventKind::NodeChildrenChanged,
        );
        Ok(())
    }

    fn end_session(&mut self, sid: SessionId) {
        if !self.live_sessions.remove(&sid) {
            return;
        }
        self.event_queues.remove(&sid);
        // Delete this session's ephemerals (they cannot have children, so
        // ordering does not matter).
        let owned: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(sid))
            .map(|(p, _)| p.clone())
            .collect();
        for path in owned {
            let path = ZnodePath::parse(&path).expect("stored paths are valid");
            // Ignore errors: concurrent structure changes cannot happen under
            // the lock, so this only fails if the node vanished above.
            let _ = self.delete_node(&path);
        }
        // Drop the dead session's watch registrations.
        for sessions in self.watches.values_mut() {
            sessions.retain(|s| *s != sid);
        }
        self.watches.retain(|_, v| !v.is_empty());
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
        let svc = CoordService {
            state: Arc::new(Mutex::new(State::default())),
        };
        lock(&svc.state).nodes.insert(
            "/".to_string(),
            Node {
                data: Vec::new(),
                version: 0,
                ephemeral_owner: None,
                children: BTreeSet::new(),
                next_sequence: 0,
                created_at: 0,
                modified_at: 0,
            },
        );
        svc
    }

    /// Opens a new client session.
    pub fn connect(&self) -> Session {
        let mut st = lock(&self.state);
        st.next_session += 1;
        let sid = SessionId(st.next_session);
        st.live_sessions.insert(sid);
        st.event_queues.insert(sid, VecDeque::new());
        Session {
            state: Arc::clone(&self.state),
            sid,
        }
    }

    /// Forcibly expires a session, as a lost-heartbeat simulation. Its
    /// ephemerals are removed and watches fire exactly as if the client died.
    pub fn expire_session(&self, sid: SessionId) {
        lock(&self.state).end_session(sid);
    }

    /// Number of currently live sessions.
    pub fn session_count(&self) -> usize {
        lock(&self.state).live_sessions.len()
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

    /// Deletes a znode (must have no children).
    pub fn delete(&self, path: &str) -> CoordResult<()> {
        let path = ZnodePath::parse(path)?;
        if path.as_str() == "/" {
            return Err(CoordError::BadPath("/".into()));
        }
        let mut st = lock(&self.state);
        self.check_live(&st)?;
        st.delete_node(&path)
    }

    /// Returns node metadata if the node exists.
    pub fn exists(&self, path: &str) -> CoordResult<Option<NodeStat>> {
        let path = ZnodePath::parse(path)?;
        let st = lock(&self.state);
        self.check_live(&st)?;
        Ok(st.nodes.get(path.as_str()).map(Node::stat))
    }

    /// Reads a node's data and metadata.
    pub fn get_data(&self, path: &str) -> CoordResult<(Vec<u8>, NodeStat)> {
        let path = ZnodePath::parse(path)?;
        let st = lock(&self.state);
        self.check_live(&st)?;
        st.nodes
            .get(path.as_str())
            .map(|n| (n.data.clone(), n.stat()))
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))
    }

    /// Writes a node's data. If `expected_version` is given, the write is
    /// conditional (compare-and-set).
    pub fn set_data(
        &self,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<i64>,
    ) -> CoordResult<NodeStat> {
        let path = ZnodePath::parse(path)?;
        let mut st = lock(&self.state);
        self.check_live(&st)?;
        st.tick += 1;
        let tick = st.tick;
        let node = st
            .nodes
            .get_mut(path.as_str())
            .ok_or_else(|| CoordError::NoNode(path.as_str().to_string()))?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(CoordError::BadVersion {
                    path: path.as_str().to_string(),
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data;
        node.version += 1;
        node.modified_at = tick;
        let stat = node.stat();
        st.fire(
            path.as_str(),
            WatchKind::Data,
            WatchEventKind::NodeDataChanged,
        );
        Ok(stat)
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

    fn watch(&self, path: &str, kind: WatchKind) -> CoordResult<()> {
        let path = ZnodePath::parse(path)?;
        let mut st = lock(&self.state);
        self.check_live(&st)?;
        st.watches
            .entry((path.as_str().to_string(), kind))
            .or_default()
            .push(self.sid);
        Ok(())
    }

    /// Registers a one-shot watch that fires when the node's data changes or
    /// the node is deleted.
    pub fn watch_data(&self, path: &str) -> CoordResult<()> {
        self.watch(path, WatchKind::Data)
    }

    /// Registers a one-shot watch that fires when a node is created or
    /// deleted at `path`.
    pub fn watch_exists(&self, path: &str) -> CoordResult<()> {
        self.watch(path, WatchKind::Exists)
    }

    /// Registers a one-shot watch that fires when the node's child set
    /// changes — this is how Scribe daemons notice aggregator churn.
    pub fn watch_children(&self, path: &str) -> CoordResult<()> {
        self.watch(path, WatchKind::Children)
    }

    /// Takes the next pending watch event, if any.
    pub fn poll_event(&self) -> Option<WatchEvent> {
        let mut st = lock(&self.state);
        st.event_queues.get_mut(&self.sid)?.pop_front()
    }

    /// Ends the session explicitly. Equivalent to dropping.
    pub fn close(self) {}
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
    fn create_get_set_delete() {
        let (_svc, s) = svc_with_root("/a");
        s.create("/a/b", b"v0".to_vec(), CreateMode::Persistent)
            .unwrap();
        let (data, stat) = s.get_data("/a/b").unwrap();
        assert_eq!(data, b"v0");
        assert_eq!(stat.version, 0);
        s.set_data("/a/b", b"v1".to_vec(), None).unwrap();
        let (data, stat) = s.get_data("/a/b").unwrap();
        assert_eq!(data, b"v1");
        assert_eq!(stat.version, 1);
        s.delete("/a/b").unwrap();
        assert!(s.exists("/a/b").unwrap().is_none());
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
    fn delete_nonempty_fails() {
        let (_svc, s) = svc_with_root("/a");
        s.create("/a/b", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(s.delete("/a"), Err(CoordError::NotEmpty("/a".into())));
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
        assert_eq!(member.exists("/agg"), Err(CoordError::SessionExpired));
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
    fn children_watch_fires_once() {
        let svc = CoordService::new();
        let admin = svc.connect();
        admin
            .create("/agg", vec![], CreateMode::Persistent)
            .unwrap();
        let daemon = svc.connect();
        daemon.watch_children("/agg").unwrap();
        assert!(daemon.poll_event().is_none());

        admin
            .create("/agg/a", vec![], CreateMode::Persistent)
            .unwrap();
        assert_eq!(
            daemon.poll_event(),
            Some(WatchEvent {
                path: "/agg".into(),
                kind: WatchEventKind::NodeChildrenChanged
            })
        );
        // One-shot: a second change does not fire.
        admin
            .create("/agg/b", vec![], CreateMode::Persistent)
            .unwrap();
        assert!(daemon.poll_event().is_none());
    }

    #[test]
    fn data_watch_fires_on_set_and_delete() {
        let svc = CoordService::new();
        let s = svc.connect();
        s.create("/n", vec![], CreateMode::Persistent).unwrap();
        s.watch_data("/n").unwrap();
        s.set_data("/n", b"x".to_vec(), None).unwrap();
        assert_eq!(
            s.poll_event().unwrap().kind,
            WatchEventKind::NodeDataChanged
        );

        s.watch_data("/n").unwrap();
        s.delete("/n").unwrap();
        assert_eq!(s.poll_event().unwrap().kind, WatchEventKind::NodeDeleted);
    }

    #[test]
    fn exists_watch_fires_on_create() {
        let svc = CoordService::new();
        let s = svc.connect();
        s.watch_exists("/later").unwrap();
        s.create("/later", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(s.poll_event().unwrap().kind, WatchEventKind::NodeCreated);
    }

    #[test]
    fn watch_fires_on_session_expiry_of_ephemeral_owner() {
        let svc = CoordService::new();
        let admin = svc.connect();
        admin
            .create("/agg", vec![], CreateMode::Persistent)
            .unwrap();
        let member = svc.connect();
        member
            .create("/agg/m", vec![], CreateMode::Ephemeral)
            .unwrap();
        let watcher = svc.connect();
        watcher.watch_children("/agg").unwrap();
        svc.expire_session(member.id());
        assert_eq!(
            watcher.poll_event().unwrap().kind,
            WatchEventKind::NodeChildrenChanged
        );
    }

    #[test]
    fn conditional_set_enforces_version() {
        let svc = CoordService::new();
        let s = svc.connect();
        s.create("/n", vec![], CreateMode::Persistent).unwrap();
        s.set_data("/n", b"a".to_vec(), Some(0)).unwrap();
        let err = s.set_data("/n", b"b".to_vec(), Some(0)).unwrap_err();
        assert!(matches!(err, CoordError::BadVersion { actual: 1, .. }));
    }

    #[test]
    fn session_and_node_counts() {
        let svc = CoordService::new();
        assert_eq!(svc.node_count(), 1);
        let a = svc.connect();
        let b = svc.connect();
        assert_eq!(svc.session_count(), 2);
        a.create("/x", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(svc.node_count(), 2);
        drop(b);
        assert_eq!(svc.session_count(), 1);
        drop(a);
        assert_eq!(svc.session_count(), 0);
        // Persistent node survives all sessions.
        assert_eq!(svc.node_count(), 2);
    }

    #[test]
    fn root_cannot_be_deleted() {
        let svc = CoordService::new();
        let s = svc.connect();
        assert!(s.delete("/").is_err());
    }
}
