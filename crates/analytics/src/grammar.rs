//! Grammar induction over session sequences (§6, ongoing work).
//!
//! "More advanced (but speculative) techniques include applying automatic
//! grammar induction techniques to learn hierarchical decompositions of
//! user activity. For example, we might learn that many sessions break down
//! into smaller units that exhibit a great deal of cohesion (each with rich
//! internal structure), in the same way that a simple English sentence
//! decomposes into a noun phrase and a verb phrase."
//!
//! This module implements **Re-Pair** (Larsson & Moffat), a classic
//! grammar-based compression algorithm: repeatedly replace the most
//! frequent adjacent symbol pair with a fresh nonterminal until no pair
//! repeats. The result is a straight-line grammar whose rules are exactly
//! the cohesive sub-units the paper hopes to find — an
//! impression→click→expand motif becomes one rule, sessions become short
//! sequences of motifs.

use std::collections::HashMap;

use uli_core::session::dictionary::rank_for_char;
use uli_core::session::EventDictionary;

/// Terminals are dictionary ranks; nonterminals start here.
pub const NONTERMINAL_BASE: u32 = 1 << 24;

/// A symbol in the grammar: terminal (dictionary rank) or nonterminal.
pub type Symbol = u32;

/// True if `s` names a rule rather than an event.
pub fn is_nonterminal(s: Symbol) -> bool {
    s >= NONTERMINAL_BASE
}

/// A learned straight-line grammar.
#[derive(Debug, Clone, Default)]
pub struct Grammar {
    /// Rule bodies; rule `i` is the nonterminal `NONTERMINAL_BASE + i`,
    /// and every body is exactly one pair.
    rules: Vec<(Symbol, Symbol)>,
    /// Each input sequence, rewritten in terms of the grammar.
    compressed: Vec<Vec<Symbol>>,
    /// Original symbol count, for the compression ratio.
    input_symbols: u64,
    /// How often each rule fires across the corpus (expansion counts).
    rule_uses: Vec<u64>,
}

impl Grammar {
    /// Induces a grammar with Re-Pair: while some adjacent pair occurs at
    /// least `min_support` times across the corpus, replace the most
    /// frequent pair with a new rule. `min_support` ≥ 2.
    pub fn induce(sequences: &[Vec<Symbol>], min_support: u64) -> Grammar {
        assert!(min_support >= 2, "a pair must repeat to be a rule");
        let mut seqs: Vec<Vec<Symbol>> = sequences.to_vec();
        let input_symbols: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        let mut rules: Vec<(Symbol, Symbol)> = Vec::new();
        let mut rule_uses: Vec<u64> = Vec::new();

        loop {
            // Count all adjacent pairs.
            let mut counts: HashMap<(Symbol, Symbol), u64> = HashMap::new();
            for seq in &seqs {
                for w in seq.windows(2) {
                    *counts.entry((w[0], w[1])).or_insert(0) += 1;
                }
            }
            // Deterministic winner: highest count, then smallest pair.
            let Some((&pair, &count)) = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if count < min_support {
                break;
            }
            let nt = NONTERMINAL_BASE + rules.len() as Symbol;
            rules.push(pair);
            let mut uses = 0u64;
            for seq in &mut seqs {
                let mut out = Vec::with_capacity(seq.len());
                let mut i = 0;
                while i < seq.len() {
                    if i + 1 < seq.len() && (seq[i], seq[i + 1]) == pair {
                        out.push(nt);
                        uses += 1;
                        i += 2;
                    } else {
                        out.push(seq[i]);
                        i += 1;
                    }
                }
                *seq = out;
            }
            rule_uses.push(uses);
        }
        Grammar {
            rules,
            compressed: seqs,
            input_symbols,
            rule_uses,
        }
    }

    /// Number of induced rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The body of rule `i`.
    pub fn rule(&self, i: usize) -> (Symbol, Symbol) {
        self.rules[i]
    }

    /// The rewritten corpus.
    pub fn compressed(&self) -> &[Vec<Symbol>] {
        &self.compressed
    }

    /// Grammar size: compressed symbols + 2 per rule.
    pub fn grammar_symbols(&self) -> u64 {
        let seq: u64 = self.compressed.iter().map(|s| s.len() as u64).sum();
        seq + 2 * self.rules.len() as u64
    }

    /// Input symbols per grammar symbol (> 1 when structure was found).
    pub fn compression_ratio(&self) -> f64 {
        if self.grammar_symbols() == 0 {
            return 1.0;
        }
        self.input_symbols as f64 / self.grammar_symbols() as f64
    }

    /// Expands a symbol to its terminal yield.
    pub fn expand(&self, symbol: Symbol) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.expand_into(symbol, &mut out);
        out
    }

    fn expand_into(&self, symbol: Symbol, out: &mut Vec<Symbol>) {
        if is_nonterminal(symbol) {
            let (a, b) = self.rules[(symbol - NONTERMINAL_BASE) as usize];
            self.expand_into(a, out);
            self.expand_into(b, out);
        } else {
            out.push(symbol);
        }
    }

    /// Expands a whole compressed sequence back to terminals.
    pub fn expand_sequence(&self, seq: &[Symbol]) -> Vec<Symbol> {
        let mut out = Vec::new();
        for &s in seq {
            self.expand_into(s, &mut out);
        }
        out
    }

    /// Renders a symbol's hierarchical decomposition — the paper's "noun
    /// phrase / verb phrase" tree — with event names from the dictionary.
    pub fn render_tree(&self, symbol: Symbol, dict: &EventDictionary) -> String {
        let mut out = String::new();
        self.render_into(symbol, dict, 0, &mut out);
        out
    }

    fn render_into(&self, symbol: Symbol, dict: &EventDictionary, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        if is_nonterminal(symbol) {
            let idx = (symbol - NONTERMINAL_BASE) as usize;
            out.push_str(&format!(
                "{indent}R{idx} (x{} in corpus)\n",
                self.rule_uses[idx]
            ));
            let (a, b) = self.rules[idx];
            self.render_into(a, dict, depth + 1, out);
            self.render_into(b, dict, depth + 1, out);
        } else {
            let name = dict
                .name_of(symbol)
                .map(|n| n.as_str().to_string())
                .unwrap_or_else(|| format!("rank{symbol}"));
            out.push_str(&format!("{indent}{name}\n"));
        }
    }

    /// The most-used rules, as `(rule index, support, terminal yield)`.
    pub fn top_motifs(&self, k: usize) -> Vec<(usize, u64, Vec<Symbol>)> {
        let mut order: Vec<usize> = (0..self.rules.len()).collect();
        order.sort_by(|a, b| {
            self.rule_uses[*b]
                .cmp(&self.rule_uses[*a])
                .then_with(|| a.cmp(b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| {
                (
                    i,
                    self.rule_uses[i],
                    self.expand(NONTERMINAL_BASE + i as u32),
                )
            })
            .collect()
    }
}

/// Convenience: induces a grammar straight from encoded sequence strings.
pub fn induce_from_strings<'a, I>(sequences: I, min_support: u64) -> Grammar
where
    I: IntoIterator<Item = &'a str>,
{
    let seqs: Vec<Vec<Symbol>> = sequences
        .into_iter()
        .map(|s| s.chars().filter_map(rank_for_char).collect())
        .collect();
    Grammar::induce(&seqs, min_support)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_motif_becomes_a_rule() {
        // The motif 1 2 3 appears in most sequences, embedded in noise.
        let mut corpus = Vec::new();
        for i in 0..20u32 {
            corpus.push(vec![10 + i % 3, 1, 2, 3, 20 + i % 5]);
        }
        let g = Grammar::induce(&corpus, 2);
        assert!(g.rule_count() >= 2, "1·2 then (1·2)·3 should both rule");
        // Both the sub-rule (1·2) and the full motif ((1·2)·3) fire once per
        // sequence, so the full motif must be among the top two yields.
        let top = g.top_motifs(2);
        assert!(
            top.iter().any(|(_, _, y)| y == &vec![1, 2, 3]),
            "the motif is a top rule's yield: {top:?}"
        );
        assert!(
            g.compression_ratio() > 1.3,
            "ratio {:.2}",
            g.compression_ratio()
        );
    }

    #[test]
    fn expansion_round_trips_every_sequence() {
        let corpus: Vec<Vec<u32>> = (0..10)
            .map(|i| (0..30).map(|j| ((i * j) % 7) as u32).collect())
            .collect();
        let g = Grammar::induce(&corpus, 2);
        for (orig, comp) in corpus.iter().zip(g.compressed()) {
            assert_eq!(&g.expand_sequence(comp), orig);
        }
    }

    #[test]
    fn structureless_input_induces_nothing() {
        // All distinct pairs: nothing repeats.
        let corpus = vec![vec![1u32, 2], vec![3u32, 4], vec![5u32, 6]];
        let g = Grammar::induce(&corpus, 2);
        assert_eq!(g.rule_count(), 0);
        assert!((g.compression_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(g.compressed(), &corpus[..]);
    }

    #[test]
    fn nested_rules_form_hierarchy() {
        // Long runs of one symbol produce rules-of-rules (R1 = R0 R0 …).
        let corpus = vec![vec![7u32; 64]];
        let g = Grammar::induce(&corpus, 2);
        assert!(g.rule_count() >= 3);
        let has_nested = (0..g.rule_count()).any(|i| {
            let (a, b) = g.rule(i);
            is_nonterminal(a) || is_nonterminal(b)
        });
        assert!(has_nested, "hierarchical decomposition expected");
        assert_eq!(g.expand_sequence(&g.compressed()[0]), vec![7u32; 64]);
        assert!(g.compression_ratio() > 4.0);
    }

    #[test]
    fn render_tree_names_terminals() {
        use uli_core::event::EventName;
        let dict = EventDictionary::from_counts(vec![
            (EventName::parse("web:a:a:a:a:impression").unwrap(), 100),
            (EventName::parse("web:a:a:a:a:click").unwrap(), 50),
        ]);
        let corpus = vec![vec![0u32, 1], vec![0u32, 1], vec![0u32, 1]];
        let g = Grammar::induce(&corpus, 2);
        assert_eq!(g.rule_count(), 1);
        let tree = g.render_tree(NONTERMINAL_BASE, &dict);
        assert!(tree.contains("R0 (x3 in corpus)"));
        assert!(tree.contains("web:a:a:a:a:impression"));
        assert!(tree.contains("web:a:a:a:a:click"));
    }

    #[test]
    fn empty_corpus_and_empty_sequences() {
        let g = Grammar::induce(&[], 2);
        assert_eq!(g.rule_count(), 0);
        let g = Grammar::induce(&[vec![], vec![1u32]], 2);
        assert_eq!(g.rule_count(), 0);
        assert_eq!(g.expand_sequence(&[1]), vec![1]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Induction never loses information: expansion inverts it.
            #[test]
            fn expansion_inverts_induction(
                corpus in proptest::collection::vec(
                    proptest::collection::vec(0u32..12, 0..40),
                    0..20,
                ),
                min_support in 2u64..5,
            ) {
                let g = Grammar::induce(&corpus, min_support);
                for (orig, comp) in corpus.iter().zip(g.compressed()) {
                    prop_assert_eq!(&g.expand_sequence(comp), orig);
                }
                // Grammar never grows the representation.
                let input: u64 = corpus.iter().map(|s| s.len() as u64).sum();
                prop_assert!(g.grammar_symbols() <= input.max(1) + 2);
            }
        }
    }

    #[test]
    fn string_interface() {
        use uli_core::session::dictionary::char_for_rank;
        let s: String = [0u32, 1, 0, 1, 0, 1]
            .iter()
            .map(|r| char_for_rank(*r).unwrap())
            .collect();
        let g = induce_from_strings([s.as_str(), s.as_str()], 2);
        assert!(g.rule_count() >= 1);
        assert_eq!(g.expand(NONTERMINAL_BASE), vec![0, 1]);
    }
}
