//! `CountClientEvents`: event counting over session sequences (§5.2).
//!
//! "We begin by specifying the `$EVENTS` we wish to count … an arbitrary
//! regular expression can be supplied which is automatically expanded to
//! include all matching events (via the dictionary that provides the event
//! name to unicode code point mapping) … Since a session sequence is simply
//! a unicode string, the UDF translates into string manipulations after
//! consulting the client event dictionary."

use std::sync::Arc;

use uli_core::event::EventPattern;
use uli_core::session::dictionary::{char_for_rank, rank_for_char};
use uli_core::session::EventDictionary;
use uli_dataflow::{DataflowError, DataflowResult, ScalarUdf, Value};

/// A pattern expanded into the set of matching code points.
#[derive(Debug, Clone, Default)]
pub struct EventCharSet {
    /// Whether the event of each dictionary rank matched, index = rank: a
    /// code point is looked up by the rank it stands for, with no hashing.
    ranks: Vec<bool>,
    matched: usize,
}

impl EventCharSet {
    /// Expands `pattern` against the dictionary.
    pub fn expand(pattern: &EventPattern, dict: &EventDictionary) -> EventCharSet {
        // In rank order; a rank past the alphabet stands for no code point.
        let ranks: Vec<bool> = dict
            .iter()
            .map(|(rank, name, _)| char_for_rank(rank).is_some() && pattern.matches(name))
            .collect();
        let matched = ranks.iter().filter(|matched| **matched).count();
        EventCharSet { ranks, matched }
    }

    /// Number of distinct matching events.
    pub fn len(&self) -> usize {
        self.matched
    }

    /// True if the pattern matched nothing.
    pub fn is_empty(&self) -> bool {
        self.matched == 0
    }

    /// Whether a code point is in the set.
    pub fn contains(&self, c: char) -> bool {
        rank_for_char(c).is_some_and(|rank| self.ranks.get(rank as usize) == Some(&true))
    }

    /// Total occurrences in a session sequence — the SUM variant.
    pub fn count_in(&self, sequence: &str) -> u64 {
        sequence.chars().filter(|&c| self.contains(c)).count() as u64
    }

    /// Whether the sequence contains at least one occurrence — the COUNT
    /// (sessions-containing) variant, "useful for understanding what
    /// fraction of users take advantage of a particular feature".
    pub fn occurs_in(&self, sequence: &str) -> bool {
        sequence.chars().any(|c| self.contains(c))
    }
}

/// The paper's `CountClientEvents` UDF for the dataflow engine: takes the
/// sequence column, returns the match count as an `Int`.
#[derive(Debug, Clone)]
pub struct CountClientEvents {
    set: EventCharSet,
}

impl CountClientEvents {
    /// Builds the UDF by expanding `pattern` with the dictionary — the
    /// `define CountClientEvents CountClientEvents('$EVENTS')` step.
    pub fn new(pattern: &EventPattern, dict: &EventDictionary) -> Arc<Self> {
        Arc::new(CountClientEvents {
            set: EventCharSet::expand(pattern, dict),
        })
    }

    /// The expanded character set.
    pub fn charset(&self) -> &EventCharSet {
        &self.set
    }
}

impl ScalarUdf for CountClientEvents {
    fn name(&self) -> &'static str {
        "CountClientEvents"
    }

    fn eval(&self, args: &[Value]) -> DataflowResult<Value> {
        let seq = args
            .first()
            .and_then(Value::as_str)
            .ok_or(DataflowError::TypeError {
                context: "CountClientEvents(sequence)",
            })?;
        Ok(Value::Int(self.set.count_in(seq) as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::event::EventName;

    fn n(s: &str) -> EventName {
        EventName::parse(s).unwrap()
    }

    fn dict() -> EventDictionary {
        EventDictionary::from_counts(vec![
            (n("web:home:home:stream:tweet:impression"), 1000),
            (n("web:home:home:stream:tweet:click"), 100),
            (n("iphone:home:home:stream:tweet:click"), 80),
            (n("web:home:mentions:stream:avatar:profile_click"), 10),
        ])
    }

    #[test]
    fn expansion_matches_pattern_semantics() {
        let d = dict();
        let all_clicks = EventCharSet::expand(&EventPattern::parse("*:click").unwrap(), &d);
        assert_eq!(all_clicks.len(), 2);
        let web_only = EventCharSet::expand(&EventPattern::parse("web:home:home:*").unwrap(), &d);
        assert_eq!(web_only.len(), 2);
        let none = EventCharSet::expand(&EventPattern::parse("*:retweet").unwrap(), &d);
        assert!(none.is_empty());
    }

    #[test]
    fn sum_and_contains_variants() {
        let d = dict();
        let clicks = EventCharSet::expand(&EventPattern::parse("*:click").unwrap(), &d);
        // impression, click, impression, click, profile_click
        let seq = d
            .encode_sequence([
                &n("web:home:home:stream:tweet:impression"),
                &n("web:home:home:stream:tweet:click"),
                &n("web:home:home:stream:tweet:impression"),
                &n("iphone:home:home:stream:tweet:click"),
                &n("web:home:mentions:stream:avatar:profile_click"),
            ])
            .unwrap();
        assert_eq!(clicks.count_in(&seq), 2);
        assert!(clicks.occurs_in(&seq));

        let retweets = EventCharSet::expand(&EventPattern::parse("*:retweet").unwrap(), &d);
        assert_eq!(retweets.count_in(&seq), 0);
        assert!(!retweets.occurs_in(&seq));
    }

    #[test]
    fn udf_counts_via_strings() {
        let d = dict();
        let udf = CountClientEvents::new(&EventPattern::parse("*:impression").unwrap(), &d);
        let seq = d
            .encode_sequence([
                &n("web:home:home:stream:tweet:impression"),
                &n("web:home:home:stream:tweet:impression"),
                &n("web:home:home:stream:tweet:click"),
            ])
            .unwrap();
        assert_eq!(udf.eval(&[Value::Str(seq)]).unwrap(), Value::Int(2));
        assert!(udf.eval(&[Value::Int(3)]).is_err());
        assert!(udf.eval(&[]).is_err());
    }

    #[test]
    fn membership_is_by_rank_and_nothing_outside_the_dictionary_is_a_member() {
        let d = dict();
        let clicks = EventCharSet::expand(&EventPattern::parse("*:click").unwrap(), &d);
        let members: Vec<bool> = (0..4)
            .map(|rank| clicks.contains(char_for_rank(rank).unwrap()))
            .collect();
        assert_eq!(members, [false, true, true, false]);
        for outside in [
            '\0',
            char_for_rank(4).unwrap(),
            '\u{d7ff}',
            '\u{e000}',
            char::MAX,
        ] {
            assert!(!clicks.contains(outside), "{outside:?}");
        }
        let all = EventCharSet::expand(&EventPattern::parse("*").unwrap(), &d);
        assert_eq!(all.len(), 4);
        assert!(!all.contains(char_for_rank(4).unwrap()));
        assert!(!EventCharSet::default().contains('a'));
    }

    #[test]
    fn empty_sequence_counts_zero() {
        let d = dict();
        let s = EventCharSet::expand(&EventPattern::parse("*:click").unwrap(), &d);
        assert_eq!(s.count_in(""), 0);
        assert!(!s.occurs_in(""));
    }
}
