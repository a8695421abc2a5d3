//! Session reconstruction.
//!
//! "This is accomplished via a group-by on user id and session id;
//! following standard practices, we use a 30-minute inactivity interval to
//! delimit user sessions." (§4.2)

use std::collections::BTreeMap;

use crate::client_event::ClientEvent;
use crate::event::EventName;
use crate::time::{Timestamp, SESSION_GAP_MS};

/// A reconstructed session, pre-encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The user.
    pub user_id: i64,
    /// The cookie-derived session id.
    pub session_id: String,
    /// IP address of the first event.
    pub ip: String,
    /// Timestamp of the first event.
    pub start: Timestamp,
    /// "Temporal interval between the first and last event in the session",
    /// in seconds.
    pub duration_secs: i64,
    /// Event names in timestamp order. Relative order is all that survives
    /// into the encoded sequence.
    pub events: Vec<EventName>,
}

/// What session reconstruction reads of a client event — five of its seven
/// fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// The event name.
    pub name: EventName,
    /// The user.
    pub user_id: i64,
    /// The cookie-derived session id.
    pub session_id: String,
    /// The user's IP address.
    pub ip: String,
    /// When the event happened.
    pub timestamp: Timestamp,
}

impl From<ClientEvent> for SessionEvent {
    fn from(ev: ClientEvent) -> SessionEvent {
        SessionEvent {
            name: ev.name,
            user_id: ev.user_id,
            session_id: ev.session_id,
            ip: ev.ip,
            timestamp: ev.timestamp,
        }
    }
}

/// Groups client events into sessions.
#[derive(Debug, Clone, Copy)]
pub struct Sessionizer {
    gap_ms: i64,
}

impl Default for Sessionizer {
    fn default() -> Self {
        Sessionizer {
            gap_ms: SESSION_GAP_MS,
        }
    }
}

impl Sessionizer {
    /// A sessionizer with the standard 30-minute inactivity threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sessionizer with a custom inactivity threshold (the ablation knob).
    pub fn with_gap_ms(gap_ms: i64) -> Self {
        assert!(gap_ms > 0, "inactivity gap must be positive");
        Sessionizer { gap_ms }
    }

    /// Reconstructs sessions: group by `(user_id, session_id)`, order by
    /// timestamp, split whenever the gap between successive events exceeds
    /// the inactivity threshold.
    ///
    /// Output order is deterministic: by user id, then session id, then
    /// start time.
    pub fn sessionize<I>(&self, events: I) -> Vec<SessionRecord>
    where
        I: IntoIterator,
        I::Item: Into<SessionEvent>,
    {
        // The group-by.
        let mut groups: BTreeMap<(i64, String), Vec<SessionEvent>> = BTreeMap::new();
        for ev in events {
            let ev: SessionEvent = ev.into();
            groups
                .entry((ev.user_id, ev.session_id.clone()))
                .or_default()
                .push(ev);
        }
        let mut out = Vec::new();
        for ((user_id, session_id), mut evs) in groups {
            // Timestamps order events within a group; sort is stable so
            // arrival order breaks ties (the logs are only *partially*
            // time-ordered, §2, so this sort is mandatory).
            evs.sort_by_key(|e| e.timestamp);
            let mut current: Vec<SessionEvent> = Vec::new();
            for ev in evs {
                let split = current
                    .last()
                    .is_some_and(|prev| ev.timestamp.since(prev.timestamp) > self.gap_ms);
                if split {
                    out.push(Self::seal(
                        user_id,
                        &session_id,
                        std::mem::take(&mut current),
                    ));
                }
                current.push(ev);
            }
            if !current.is_empty() {
                out.push(Self::seal(user_id, &session_id, current));
            }
        }
        out
    }

    pub(crate) fn seal(
        user_id: i64,
        session_id: &str,
        mut events: Vec<SessionEvent>,
    ) -> SessionRecord {
        let start = events
            .first()
            .expect("seal is called with events")
            .timestamp;
        let end = events.last().expect("non-empty").timestamp;
        SessionRecord {
            user_id,
            session_id: session_id.to_string(),
            ip: std::mem::take(&mut events[0].ip),
            start,
            duration_secs: end.since(start) / 1000,
            events: events.into_iter().map(|e| e.name).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventInitiator;

    fn ev(user: i64, sid: &str, t_ms: i64, action: &str) -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse(&format!("web:home:home:stream:tweet:{action}")).unwrap(),
            user,
            sid,
            "10.0.0.1",
            Timestamp(t_ms),
        )
    }

    #[test]
    fn groups_by_user_and_session() {
        let events = vec![
            ev(1, "a", 0, "impression"),
            ev(2, "b", 10, "impression"),
            ev(1, "a", 20, "click"),
        ];
        let sessions = Sessionizer::new().sessionize(events);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].user_id, 1);
        assert_eq!(sessions[0].events.len(), 2);
        assert_eq!(sessions[1].user_id, 2);
    }

    #[test]
    fn orders_events_by_timestamp_within_session() {
        // Arrive out of order, as files from aggregators do.
        let events = vec![ev(1, "a", 5000, "click"), ev(1, "a", 1000, "impression")];
        let sessions = Sessionizer::new().sessionize(events);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].events[0].action(), "impression");
        assert_eq!(sessions[0].events[1].action(), "click");
        assert_eq!(sessions[0].duration_secs, 4);
    }

    #[test]
    fn thirty_minute_gap_splits_sessions() {
        let gap = SESSION_GAP_MS;
        let events = vec![
            ev(1, "a", 0, "impression"),
            ev(1, "a", gap, "click"), // exactly the gap: same session
            ev(1, "a", 2 * gap + 1, "follow"), // gap exceeded: new session
        ];
        let sessions = Sessionizer::new().sessionize(events);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].events.len(), 2);
        assert_eq!(sessions[1].events.len(), 1);
        assert_eq!(sessions[1].start, Timestamp(2 * gap + 1));
    }

    #[test]
    fn custom_gap_changes_split_points() {
        let events = vec![ev(1, "a", 0, "impression"), ev(1, "a", 60_000, "click")];
        assert_eq!(Sessionizer::new().sessionize(events.clone()).len(), 1);
        assert_eq!(Sessionizer::with_gap_ms(30_000).sessionize(events).len(), 2);
    }

    #[test]
    fn same_session_id_different_users_do_not_merge() {
        let events = vec![ev(1, "shared", 0, "x"), ev(2, "shared", 0, "x")];
        assert_eq!(Sessionizer::new().sessionize(events).len(), 2);
    }

    #[test]
    fn duration_and_ip_come_from_first_event() {
        let mut e1 = ev(1, "a", 1000, "impression");
        e1.ip = "1.1.1.1".into();
        let mut e2 = ev(1, "a", 31_000, "click");
        e2.ip = "2.2.2.2".into();
        let sessions = Sessionizer::new().sessionize(vec![e2, e1]);
        assert_eq!(sessions[0].ip, "1.1.1.1");
        assert_eq!(sessions[0].duration_secs, 30);
    }

    #[test]
    fn empty_input() {
        assert!(Sessionizer::new()
            .sessionize(Vec::<ClientEvent>::new())
            .is_empty());
    }

    #[test]
    fn single_event_session_has_zero_duration() {
        let sessions = Sessionizer::new().sessionize(vec![ev(1, "a", 42, "x")]);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].duration_secs, 0);
        assert_eq!(sessions[0].events.len(), 1);
    }
}
