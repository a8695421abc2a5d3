//! BirdBrain-style summary statistics (§5.1).
//!
//! "A series of daily jobs generate summary statistics, which feed into our
//! analytical dashboard called BirdBrain. The dashboard displays the number
//! of user sessions daily … We also provide the ability to drill down by
//! client type (i.e., twitter.com site, iPhone, Android, etc.) and by
//! (bucketed) session duration."

use std::collections::BTreeMap;

use uli_core::session::{EventDictionary, SessionRef};

/// Session-duration buckets used by the dashboard drill-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DurationBucket {
    /// A single interaction burst: under a minute.
    UnderOneMinute,
    /// 1–10 minutes.
    OneToTenMinutes,
    /// 10–30 minutes.
    TenToThirtyMinutes,
    /// Over 30 minutes (within one cookie session despite the gap rule:
    /// continuous activity).
    OverThirtyMinutes,
}

impl DurationBucket {
    /// Buckets a duration in seconds.
    pub fn of(duration_secs: i64) -> DurationBucket {
        match duration_secs {
            s if s < 60 => DurationBucket::UnderOneMinute,
            s if s < 600 => DurationBucket::OneToTenMinutes,
            s if s < 1800 => DurationBucket::TenToThirtyMinutes,
            _ => DurationBucket::OverThirtyMinutes,
        }
    }

    /// Dashboard label.
    pub fn label(self) -> &'static str {
        match self {
            DurationBucket::UnderOneMinute => "<1m",
            DurationBucket::OneToTenMinutes => "1-10m",
            DurationBucket::TenToThirtyMinutes => "10-30m",
            DurationBucket::OverThirtyMinutes => ">30m",
        }
    }
}

/// One day's dashboard numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DailySummary {
    /// The day.
    pub day_index: u64,
    /// Total sessions.
    pub sessions: u64,
    /// Total events.
    pub events: u64,
    /// Distinct logged-in users seen.
    pub distinct_users: u64,
    /// Mean events per session.
    pub mean_session_len: f64,
    /// Mean duration in seconds.
    pub mean_duration_secs: f64,
    /// Sessions per client (client derived from the session's first event
    /// via the dictionary — sequences deliberately store nothing else).
    pub by_client: BTreeMap<String, u64>,
    /// Sessions per duration bucket.
    pub by_duration: BTreeMap<DurationBucket, u64>,
}

impl DailySummary {
    /// Computes the summary from a day's sequences. The dictionary is only
    /// needed for the client drill-down.
    pub fn compute<'a>(
        day_index: u64,
        sequences: impl IntoIterator<Item = SessionRef<'a>>,
        dict: &EventDictionary,
    ) -> DailySummary {
        let mut s = DailySummary {
            day_index,
            ..Default::default()
        };
        let mut users = std::collections::BTreeSet::new();
        let mut total_len = 0u64;
        let mut total_duration = 0i64;
        for seq in sequences {
            s.sessions += 1;
            let len = seq.len() as u64;
            s.events += len;
            total_len += len;
            total_duration += seq.duration_secs;
            if seq.user_id != 0 {
                users.insert(seq.user_id);
            }
            let client = seq
                .sequence
                .chars()
                .next()
                .and_then(|c| dict.decode_char(c))
                .map(|n| n.client().to_string())
                .unwrap_or_else(|| "unknown".to_string());
            *s.by_client.entry(client).or_insert(0) += 1;
            *s.by_duration
                .entry(DurationBucket::of(seq.duration_secs))
                .or_insert(0) += 1;
        }
        s.distinct_users = users.len() as u64;
        if s.sessions > 0 {
            s.mean_session_len = total_len as f64 / s.sessions as f64;
            s.mean_duration_secs = total_duration as f64 / s.sessions as f64;
        }
        s
    }

    /// Renders the dashboard block as plain text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "day {}: {} sessions, {} events, {} distinct users\n\
             mean session: {:.1} events, {:.0}s\n",
            self.day_index,
            self.sessions,
            self.events,
            self.distinct_users,
            self.mean_session_len,
            self.mean_duration_secs
        );
        out.push_str("by client:");
        for (client, n) in &self.by_client {
            out.push_str(&format!(" {client}={n}"));
        }
        out.push_str("\nby duration:");
        for (bucket, n) in &self.by_duration {
            out.push_str(&format!(" {}={n}", bucket.label()));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::event::EventName;
    use uli_core::session::SessionSequence;

    fn n(s: &str) -> EventName {
        EventName::parse(s).unwrap()
    }

    fn dict() -> EventDictionary {
        EventDictionary::from_counts(vec![
            (n("web:home:home:stream:tweet:impression"), 100),
            (n("iphone:home:home:stream:tweet:impression"), 50),
        ])
    }

    fn seq(
        user: i64,
        client: &str,
        events: usize,
        duration: i64,
        d: &EventDictionary,
    ) -> SessionSequence {
        let name = n(&format!("{client}:home:home:stream:tweet:impression"));
        let c = d.encode_name(&name).unwrap();
        SessionSequence {
            user_id: user,
            session_id: format!("s-{user}"),
            ip: "10.0.0.1".into(),
            sequence: std::iter::repeat_n(c, events).collect(),
            duration_secs: duration,
        }
    }

    #[test]
    fn buckets() {
        assert_eq!(DurationBucket::of(0), DurationBucket::UnderOneMinute);
        assert_eq!(DurationBucket::of(59), DurationBucket::UnderOneMinute);
        assert_eq!(DurationBucket::of(60), DurationBucket::OneToTenMinutes);
        assert_eq!(DurationBucket::of(599), DurationBucket::OneToTenMinutes);
        assert_eq!(DurationBucket::of(600), DurationBucket::TenToThirtyMinutes);
        assert_eq!(DurationBucket::of(1800), DurationBucket::OverThirtyMinutes);
    }

    #[test]
    fn summary_aggregates_and_drills_down() {
        let d = dict();
        let seqs = [
            seq(1, "web", 10, 30, &d),
            seq(1, "iphone", 4, 700, &d),
            seq(2, "web", 6, 100, &d),
            seq(0, "web", 2, 2000, &d), // logged out
        ];
        let s = DailySummary::compute(3, seqs.iter().map(SessionSequence::view), &d);
        assert_eq!(s.sessions, 4);
        assert_eq!(s.events, 22);
        assert_eq!(s.distinct_users, 2, "logged-out user 0 excluded");
        assert_eq!(s.by_client.get("web"), Some(&3));
        assert_eq!(s.by_client.get("iphone"), Some(&1));
        assert_eq!(s.by_duration.get(&DurationBucket::UnderOneMinute), Some(&1));
        assert_eq!(
            s.by_duration.get(&DurationBucket::OverThirtyMinutes),
            Some(&1)
        );
        assert!((s.mean_session_len - 5.5).abs() < 1e-9);
    }

    #[test]
    fn empty_day() {
        let s = DailySummary::compute(0, [], &dict());
        assert_eq!(s.sessions, 0);
        assert_eq!(s.mean_session_len, 0.0);
        assert!(s.by_client.is_empty());
    }

    #[test]
    fn render_mentions_the_drilldowns() {
        let d = dict();
        let s = DailySummary::compute(1, [seq(1, "web", 3, 10, &d).view()], &d);
        let text = s.render();
        assert!(text.contains("1 sessions"));
        assert!(text.contains("web=1"));
        assert!(text.contains("<1m=1"));
    }
}
