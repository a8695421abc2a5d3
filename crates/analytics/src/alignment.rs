//! Session-sequence alignment (§6, ongoing work).
//!
//! "Bridging these two worlds, we can take inspiration from biological
//! sequence alignment \[BLAST\] to answer questions like: 'What users exhibit
//! similar behavioral patterns?' This type of 'query-by-example' mechanism
//! would help in understanding what makes Twitter users engaged."
//!
//! Sessions are strings over the event alphabet, so classic global
//! alignment (Needleman–Wunsch) applies directly: match = same event,
//! mismatch/gap = penalties. [`query_by_example`] ranks a corpus of
//! sessions by alignment similarity to a probe session.

use uli_core::session::dictionary::rank_for_char;
use uli_core::session::SessionRef;

/// Scoring parameters for global alignment.
#[derive(Debug, Clone, Copy)]
pub struct AlignScoring {
    /// Score for aligning two identical events.
    pub match_score: i32,
    /// Score for aligning two different events.
    pub mismatch: i32,
    /// Score per gap position (insertion/deletion).
    pub gap: i32,
}

impl Default for AlignScoring {
    fn default() -> Self {
        AlignScoring {
            match_score: 2,
            mismatch: -1,
            gap: -1,
        }
    }
}

/// One aligned position: events from either side, or a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignedPair {
    /// Both sessions performed this event (ranks are equal).
    Match(u32),
    /// Different events at this position.
    Substitution(u32, u32),
    /// Event only in the first session.
    GapInSecond(u32),
    /// Event only in the second session.
    GapInFirst(u32),
}

/// Result of aligning two symbol sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Optimal global score.
    pub score: i32,
    /// The traceback.
    pub pairs: Vec<AlignedPair>,
}

impl Alignment {
    /// Fraction of aligned positions that are exact matches.
    pub fn identity(&self) -> f64 {
        if self.pairs.is_empty() {
            return 1.0;
        }
        let matches = self
            .pairs
            .iter()
            .filter(|p| matches!(p, AlignedPair::Match(_)))
            .count();
        matches as f64 / self.pairs.len() as f64
    }
}

/// Needleman–Wunsch global alignment over symbol sequences.
pub fn align(a: &[u32], b: &[u32], scoring: AlignScoring) -> Alignment {
    let (n, m) = (a.len(), b.len());
    // DP matrix in row-major (n+1) x (m+1).
    let width = m + 1;
    let mut dp = vec![0i32; (n + 1) * width];
    for (j, cell) in dp.iter_mut().enumerate().take(m + 1).skip(1) {
        *cell = j as i32 * scoring.gap;
    }
    for i in 1..=n {
        dp[i * width] = i as i32 * scoring.gap;
        for j in 1..=m {
            let diag = dp[(i - 1) * width + (j - 1)]
                + if a[i - 1] == b[j - 1] {
                    scoring.match_score
                } else {
                    scoring.mismatch
                };
            let up = dp[(i - 1) * width + j] + scoring.gap;
            let left = dp[i * width + (j - 1)] + scoring.gap;
            dp[i * width + j] = diag.max(up).max(left);
        }
    }
    // Traceback.
    let mut pairs = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let here = dp[i * width + j];
        if i > 0 && j > 0 {
            let step = if a[i - 1] == b[j - 1] {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            if here == dp[(i - 1) * width + (j - 1)] + step {
                pairs.push(if a[i - 1] == b[j - 1] {
                    AlignedPair::Match(a[i - 1])
                } else {
                    AlignedPair::Substitution(a[i - 1], b[j - 1])
                });
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && here == dp[(i - 1) * width + j] + scoring.gap {
            pairs.push(AlignedPair::GapInSecond(a[i - 1]));
            i -= 1;
        } else {
            pairs.push(AlignedPair::GapInFirst(b[j - 1]));
            j -= 1;
        }
    }
    pairs.reverse();
    Alignment {
        score: dp[n * width + m],
        pairs,
    }
}

/// Normalized similarity in [0, 1]: alignment score over the best possible
/// score of the longer sequence. Empty-vs-empty counts as identical.
pub fn similarity(a: &[u32], b: &[u32], scoring: AlignScoring) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 1.0;
    }
    let best = longest as i32 * scoring.match_score;
    let aligned = align(a, b, scoring);
    (aligned.score.max(0)) as f64 / best as f64
}

fn symbols(seq: &str) -> Vec<u32> {
    seq.chars().filter_map(rank_for_char).collect()
}

/// Query-by-example: ranks `corpus` sessions by similarity to `probe`,
/// returning the top `k` as `(index into corpus, similarity)`.
pub fn query_by_example<'a>(
    probe: SessionRef<'_>,
    corpus: impl IntoIterator<Item = SessionRef<'a>>,
    k: usize,
    scoring: AlignScoring,
) -> Vec<(usize, f64)> {
    let probe_syms = symbols(&probe.sequence);
    let mut scored: Vec<(usize, f64)> = corpus
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !(s.user_id == probe.user_id && s.session_id == probe.session_id))
        .map(|(i, s)| (i, similarity(&probe_syms, &symbols(&s.sequence), scoring)))
        .collect();
    scored.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> AlignScoring {
        AlignScoring::default()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let a = vec![1u32, 2, 3, 4];
        let al = align(&a, &a, sc());
        assert_eq!(al.score, 8);
        assert_eq!(al.identity(), 1.0);
        assert_eq!(similarity(&a, &a, sc()), 1.0);
    }

    #[test]
    fn single_substitution() {
        let a = vec![1u32, 2, 3];
        let b = vec![1u32, 9, 3];
        let al = align(&a, &b, sc());
        assert_eq!(al.score, 2 + (-1) + 2);
        assert_eq!(
            al.pairs,
            vec![
                AlignedPair::Match(1),
                AlignedPair::Substitution(2, 9),
                AlignedPair::Match(3)
            ]
        );
    }

    #[test]
    fn insertion_produces_gap() {
        let a = vec![1u32, 2, 3];
        let b = vec![1u32, 2, 9, 3];
        let al = align(&a, &b, sc());
        assert!(al.pairs.contains(&AlignedPair::GapInFirst(9)));
        assert_eq!(al.score, 6 - 1);
    }

    #[test]
    fn empty_sequences() {
        let al = align(&[], &[], sc());
        assert_eq!(al.score, 0);
        assert!(al.pairs.is_empty());
        assert_eq!(similarity(&[], &[], sc()), 1.0);
        let al = align(&[1, 2], &[], sc());
        assert_eq!(al.score, -2);
        assert_eq!(al.pairs.len(), 2);
    }

    #[test]
    fn disjoint_sequences_score_low() {
        let a = vec![1u32; 6];
        let b = vec![2u32; 6];
        assert!(similarity(&a, &b, sc()) < 0.2);
    }

    #[test]
    fn alignment_is_symmetric_in_score() {
        let a = vec![1u32, 2, 3, 4, 5];
        let b = vec![1u32, 3, 5];
        assert_eq!(align(&a, &b, sc()).score, align(&b, &a, sc()).score);
    }

    #[test]
    fn query_by_example_ranks_similar_sessions_first() {
        use uli_core::session::dictionary::char_for_rank;
        use uli_core::session::SessionSequence;
        let seq_of = |ranks: &[u32]| -> String {
            ranks.iter().map(|r| char_for_rank(*r).unwrap()).collect()
        };
        let mk = |user: i64, ranks: &[u32]| SessionSequence {
            user_id: user,
            session_id: format!("s-{user}"),
            ip: "1.1.1.1".into(),
            sequence: seq_of(ranks),
            duration_secs: 10,
        };
        let probe = mk(1, &[1, 2, 3, 4, 5]);
        let corpus = [
            probe.clone(),           // self: excluded
            mk(2, &[1, 2, 3, 4, 5]), // identical
            mk(3, &[1, 2, 9, 4, 5]), // one substitution
            mk(4, &[7, 7, 7, 7, 7]), // unrelated
        ];
        let corpus = corpus.iter().map(SessionSequence::view);
        let top = query_by_example(probe.view(), corpus, 2, sc());
        assert_eq!(top[0].0, 1);
        assert!((top[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(top[1].0, 2);
        assert!(top[1].1 < 1.0 && top[1].1 > 0.5);
    }
}
