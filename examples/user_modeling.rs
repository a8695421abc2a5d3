//! Exploratory user modeling (§5.4) and the event catalog (§4.3).
//!
//! Trains n-gram language models of increasing order on one day's session
//! sequences and evaluates them on the next day, showing how much
//! "temporal signal" short context captures; mines activity collocates
//! with PMI and log-likelihood ratio; and browses the automatically
//! generated client event catalog.
//!
//! Run with: `cargo run --example user_modeling`

use unified_logging::prelude::*;

fn main() {
    let config = WorkloadConfig {
        users: 500,
        ..Default::default()
    };
    let wh = Warehouse::new();
    for day in 0..2 {
        let day_events = generate_day(&config, day);
        write_client_events(&wh, &day_events.events, 4).expect("fresh warehouse");
        Materializer::new(wh.clone())
            .run_day(day)
            .expect("day present");
    }
    let materializer = Materializer::new(wh.clone());
    let dict = materializer
        .load_dictionary(0)
        .expect("dictionary for day 0");
    let train = load_sequences(&wh, 0).expect("day 0 sequences");
    let test = load_sequences(&wh, 1).expect("day 1 sequences");
    println!(
        "train: {} sessions (day 0), test: {} sessions (day 1), alphabet {}",
        train.len(),
        test.len(),
        dict.len()
    );

    // --- Language models: cross entropy / perplexity vs n. ---
    println!("\n n   cross-entropy (bits)   perplexity");
    for n in 1..=4 {
        let model =
            NgramModel::train_on_strings(n, 0.05, train.iter().map(|s| s.sequence.as_str()));
        let h = model.cross_entropy_strings(test.iter().map(|s| s.sequence.as_str()));
        println!("{n:>2}   {h:>20.3}   {:>10.1}", 2f64.powf(h));
    }
    println!("(bigram context captures most of the temporal signal — §5.4)");

    // --- Activity collocates. ---
    let mut miner = CollocationMiner::new();
    for s in &train {
        miner.add_string(&s.sequence);
    }
    println!("\ntop activity collocates by log-likelihood ratio:");
    for score in miner.top_by_llr(5, 20) {
        let a = dict
            .name_of(score.a)
            .map(|n| n.to_string())
            .unwrap_or_default();
        let b = dict
            .name_of(score.b)
            .map(|n| n.to_string())
            .unwrap_or_default();
        println!(
            "  G2={:>9.1} pmi={:>5.2} n={:>5}  {a} -> {b}",
            score.llr, score.pmi, score.count
        );
    }

    // --- §6 ongoing work: LifeFlow overview of where sessions diverge. ---
    use unified_logging::analytics::LifeFlow;
    let mut flow = LifeFlow::new(3);
    for s in &train {
        flow.add_string(&s.sequence);
    }
    println!("\nLifeFlow overview (first 3 events, branches ≥ 4% of sessions):");
    print!("{}", flow.render(&dict, 0.04));

    // --- §6 ongoing work: query-by-example via sequence alignment. ---
    use unified_logging::analytics::{query_by_example, AlignScoring};
    let probe = train
        .iter()
        .find(|s| s.len() >= 6)
        .expect("some session has six events");
    let similar = query_by_example(probe, &train, 3, AlignScoring::default());
    println!(
        "\nusers behaving like user {} (session of {} events):",
        probe.user_id,
        probe.len()
    );
    for (idx, score) in similar {
        let s = train.get(idx).expect("an index into the corpus");
        println!(
            "  user {:>6} session {:<14} similarity {:.2}",
            s.user_id, s.session_id, score
        );
    }

    // --- §6 ongoing work: grammar induction over session sequences. ---
    use unified_logging::analytics::Grammar;
    use unified_logging::core::session::dictionary::rank_for_char;
    let corpus: Vec<Vec<u32>> = train
        .iter()
        .map(|s| s.sequence.chars().filter_map(rank_for_char).collect())
        .collect();
    let grammar = Grammar::induce(&corpus, 8);
    println!(
        "\ngrammar induction (Re-Pair): {} rules, corpus compresses {:.2}x",
        grammar.rule_count(),
        grammar.compression_ratio()
    );
    println!("top behavioural motifs (hierarchical decompositions):");
    for (idx, support, yield_syms) in grammar.top_motifs(3) {
        let names: Vec<String> = yield_syms
            .iter()
            .map(|r| {
                dict.name_of(*r)
                    .map(|n| n.action().to_string())
                    .unwrap_or_else(|| format!("rank{r}"))
            })
            .collect();
        println!("  R{idx} (x{support}): {}", names.join(" -> "));
    }

    // --- The client event catalog. ---
    let samples = materializer.load_samples(0).expect("samples written");
    let mut catalog = ClientEventCatalog::build(0, &dict, &samples);
    println!(
        "\ncatalog: {} event types. Browsing clients:",
        catalog.len()
    );
    for (client, count) in catalog.browse(&[]) {
        println!("  {client}: {count} events");
    }
    let top = catalog.by_frequency()[0].name.clone();
    catalog.describe(&top, "The most frequent event of the day.");
    println!("\n{}", catalog.render_entry(&top).expect("entry exists"));
}
