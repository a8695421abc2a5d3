//! Log anonymization policies (§3.2).
//!
//! "By extension, standardizing the location and names of these fields
//! allows us to implement consistent policies for log anonymization." With
//! application-specific logging, scrubbing user ids meant chasing `uid`,
//! `userId`, `userid`, `user_id`, and `user_Id` through every format; with
//! client events, one policy applied to fields 3–5 covers the entire log.

use uli_warehouse::{fnv1a64_fold, FNV1A64_OFFSET};

use crate::client_event::ClientEvent;

/// A deterministic, keyed anonymization policy.
///
/// * user ids are replaced by a keyed 64-bit hash (stable pseudonyms —
///   joins and sessionization still work; the mapping is not reversible
///   without the key);
/// * session ids are rehashed the same way;
/// * IPs are truncated to /16, keeping coarse geo signal and dropping host
///   identity;
/// * `event_details` values under keys in [`SENSITIVE_DETAIL_KEYS`] are
///   dropped.
#[derive(Debug, Clone, Copy)]
pub struct Anonymizer {
    key: u64,
}

/// Detail keys scrubbed by policy.
pub const SENSITIVE_DETAIL_KEYS: [&str; 3] = ["user_agent", "request_id", "target_url"];

fn keyed_hash(key: u64, bytes: &[u8]) -> u64 {
    // FNV-1a seeded with the key; ample for pseudonymization in a
    // simulation (a production system would use a keyed PRF).
    fnv1a64_fold(FNV1A64_OFFSET ^ key, bytes)
}

impl Anonymizer {
    /// A policy under the given secret key.
    pub fn new(key: u64) -> Anonymizer {
        Anonymizer { key }
    }

    /// Pseudonymizes a user id (0 — logged out — stays 0).
    pub fn user_id(&self, user_id: i64) -> i64 {
        if user_id == 0 {
            return 0;
        }
        // Keep it positive so downstream `logged_in` semantics survive.
        (keyed_hash(self.key, &user_id.to_le_bytes()) as i64).unsigned_abs() as i64
    }

    /// Pseudonymizes a session id.
    pub fn session_id(&self, session_id: &str) -> String {
        format!("anon-{:016x}", keyed_hash(self.key, session_id.as_bytes()))
    }

    /// Truncates an IPv4 address to its /16.
    pub fn ip(&self, ip: &str) -> String {
        let mut parts = ip.split('.');
        match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => format!("{a}.{b}.0.0"),
            _ => "0.0.0.0".to_string(),
        }
    }

    /// Applies the whole policy to one event, in place.
    pub fn scrub(&self, event: &mut ClientEvent) {
        event.user_id = self.user_id(event.user_id);
        event.session_id = self.session_id(&event.session_id);
        event.ip = self.ip(&event.ip);
        for key in SENSITIVE_DETAIL_KEYS {
            event.details.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventInitiator, EventName};
    use crate::time::Timestamp;

    fn sample() -> ClientEvent {
        ClientEvent::new(
            EventInitiator::CLIENT_USER,
            EventName::parse("web:home:home:stream:tweet:click").unwrap(),
            12345,
            "s-12345-0-1",
            "203.0.113.77",
            Timestamp(1000),
        )
        .with_detail("user_agent", "Mozilla/5.0 …")
        .with_detail("rank", "3")
        .with_detail("request_id", "deadbeef")
    }

    #[test]
    fn pseudonyms_are_stable_and_keyed() {
        let a = Anonymizer::new(42);
        assert_eq!(a.user_id(7), a.user_id(7), "deterministic");
        assert_ne!(a.user_id(7), 7, "not the identity");
        assert_ne!(a.user_id(7), a.user_id(8), "distinct users stay distinct");
        let b = Anonymizer::new(43);
        assert_ne!(a.user_id(7), b.user_id(7), "key changes the mapping");
    }

    #[test]
    fn logged_out_marker_survives() {
        let a = Anonymizer::new(42);
        assert_eq!(a.user_id(0), 0);
        assert!(a.user_id(5) > 0);
    }

    #[test]
    fn ip_truncates_to_slash16() {
        let a = Anonymizer::new(1);
        assert_eq!(a.ip("203.0.113.77"), "203.0.0.0");
        assert_eq!(a.ip("garbage"), "0.0.0.0");
    }

    #[test]
    fn scrub_applies_the_full_policy() {
        let a = Anonymizer::new(9);
        let mut ev = sample();
        a.scrub(&mut ev);
        assert_ne!(ev.user_id, 12345);
        assert!(ev.session_id.starts_with("anon-"));
        assert_eq!(ev.ip, "203.0.0.0");
        assert!(!ev.details.contains_key("user_agent"));
        assert!(!ev.details.contains_key("request_id"));
        assert_eq!(ev.details.get("rank").map(String::as_str), Some("3"));
        // The event name (the analytics payload) is untouched.
        assert_eq!(ev.name.action(), "click");
    }

    #[test]
    fn sessionization_survives_scrubbing() {
        // Two events of one session stay joinable after anonymization.
        let a = Anonymizer::new(5);
        let mut e1 = sample();
        let mut e2 = sample();
        e2.timestamp = Timestamp(2000);
        a.scrub(&mut e1);
        a.scrub(&mut e2);
        assert_eq!(e1.user_id, e2.user_id);
        assert_eq!(e1.session_id, e2.session_id);
        use crate::session::Sessionizer;
        let sessions = Sessionizer::new().sessionize(vec![e1, e2]);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].events.len(), 2);
    }
}
