//! A/B experiment analysis (§5.3).
//!
//! "Companies typically run A/B tests to optimize the flow, for example,
//! varying the page layout of a particular step or number of overall steps
//! to assess the impact on end-to-end metrics." This module provides the
//! backend half: deterministic bucket assignment by user id and a
//! two-proportion z-test over per-bucket funnel conversion (or any other
//! binary per-session metric).

use uli_core::session::SessionSequence;
use uli_warehouse::{fnv1a64, fnv1a64_fold};

/// Deterministic experiment assignment: hashes `(experiment, user)` into
/// one of `buckets` arms, so every log record of a user lands in the same
/// arm without any assignment table.
pub fn bucket_of(experiment: &str, user_id: i64, buckets: u32) -> u32 {
    assert!(buckets > 0);
    let h = fnv1a64_fold(fnv1a64(experiment.as_bytes()), &user_id.to_le_bytes());
    (h >> 33) as u32 % buckets
}

/// One arm's aggregated outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArmOutcome {
    /// Sessions in the arm.
    pub sessions: u64,
    /// Sessions for which the metric was true (e.g. completed the funnel).
    pub successes: u64,
}

impl ArmOutcome {
    /// Success rate; 0 for an empty arm.
    pub fn rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.successes as f64 / self.sessions as f64
        }
    }
}

/// Result of comparing two arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbResult {
    /// Control.
    pub a: ArmOutcome,
    /// Treatment.
    pub b: ArmOutcome,
    /// Absolute lift of B over A.
    pub lift: f64,
    /// Two-proportion z statistic (B minus A).
    pub z: f64,
}

impl AbResult {
    /// True when |z| exceeds the 95% two-sided threshold.
    pub fn significant_95(&self) -> bool {
        self.z.abs() > 1.96
    }
}

/// Runs the analysis: splits sessions into two arms by
/// [`bucket_of`]`(experiment, user, 2)` and compares `metric` rates.
pub fn analyze<'a, I, F>(experiment: &str, sessions: I, metric: F) -> AbResult
where
    I: IntoIterator<Item = &'a SessionSequence>,
    F: Fn(&SessionSequence) -> bool,
{
    let mut arms = [ArmOutcome::default(), ArmOutcome::default()];
    for s in sessions {
        let arm = bucket_of(experiment, s.user_id, 2) as usize;
        arms[arm].sessions += 1;
        if metric(s) {
            arms[arm].successes += 1;
        }
    }
    compare(arms[0], arms[1])
}

/// Two-proportion z-test between two arms.
pub fn compare(a: ArmOutcome, b: ArmOutcome) -> AbResult {
    let lift = b.rate() - a.rate();
    let n1 = a.sessions as f64;
    let n2 = b.sessions as f64;
    let z = if n1 > 0.0 && n2 > 0.0 {
        let pooled = (a.successes + b.successes) as f64 / (n1 + n2);
        let se = (pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)).sqrt();
        if se > 0.0 {
            lift / se
        } else {
            0.0
        }
    } else {
        0.0
    };
    AbResult { a, b, lift, z }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_balanced() {
        let mut counts = [0u32; 2];
        for user in 1..=10_000i64 {
            let arm = bucket_of("signup_v2", user, 2);
            assert_eq!(arm, bucket_of("signup_v2", user, 2));
            counts[arm as usize] += 1;
        }
        let ratio = counts[0] as f64 / 10_000.0;
        assert!((0.45..0.55).contains(&ratio), "balance: {ratio}");
    }

    #[test]
    fn different_experiments_assign_independently() {
        let same = (1..=2_000i64)
            .filter(|u| bucket_of("exp_a", *u, 2) == bucket_of("exp_b", *u, 2))
            .count();
        let frac = same as f64 / 2_000.0;
        assert!((0.4..0.6).contains(&frac), "independence: {frac}");
    }

    #[test]
    fn strong_effects_are_significant() {
        let a = ArmOutcome {
            sessions: 2_000,
            successes: 400, // 20%
        };
        let b = ArmOutcome {
            sessions: 2_000,
            successes: 560, // 28%
        };
        let r = compare(a, b);
        assert!((r.lift - 0.08).abs() < 1e-9);
        assert!(r.z > 1.96);
        assert!(r.significant_95());
    }

    #[test]
    fn null_effects_are_not_significant() {
        let a = ArmOutcome {
            sessions: 1_000,
            successes: 200,
        };
        let b = ArmOutcome {
            sessions: 1_000,
            successes: 205,
        };
        assert!(!compare(a, b).significant_95());
    }

    #[test]
    fn degenerate_arms_do_not_divide_by_zero() {
        let empty = ArmOutcome::default();
        let some = ArmOutcome {
            sessions: 10,
            successes: 5,
        };
        assert_eq!(compare(empty, some).z, 0.0);
        let all = ArmOutcome {
            sessions: 10,
            successes: 10,
        };
        // Pooled p = 1 → se = 0 → z defined as 0.
        assert_eq!(compare(all, all).z, 0.0);
        assert_eq!(empty.rate(), 0.0);
    }

    #[test]
    fn analyze_splits_by_user() {
        let mk = |user: i64| SessionSequence {
            user_id: user,
            session_id: format!("s-{user}"),
            ip: "1.1.1.1".into(),
            sequence: "\u{1}".into(),
            duration_secs: 1,
        };
        let sessions: Vec<SessionSequence> = (1..=500).map(mk).collect();
        let r = analyze("exp", sessions.iter(), |s| s.user_id % 2 == 0);
        assert_eq!(r.a.sessions + r.b.sessions, 500);
        assert!(r.a.sessions > 150 && r.b.sessions > 150);
        // The metric is independent of assignment: no significant lift.
        assert!(!r.significant_95(), "z = {}", r.z);
    }
}
