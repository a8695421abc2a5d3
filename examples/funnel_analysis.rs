//! Funnel analytics on the signup flow (§5.3).
//!
//! Generates a funnel-heavy day, materializes session sequences, evaluates
//! the `ClientEventsFunnel` UDF over them, and prints the paper's output
//! shape — `(0, 490123) (1, 297071) …` — next to the generator's ground
//! truth and the per-stage abandonment rates.
//!
//! Run with: `cargo run --example funnel_analysis`

use unified_logging::prelude::*;

fn main() {
    let funnel_spec = signup_funnel();
    let config = WorkloadConfig {
        users: 600,
        funnel_fraction: 0.35,
        ..Default::default()
    };
    let day = generate_day(&config, 0);
    println!(
        "day 0: {} sessions, {} entered the signup funnel",
        day.truth.sessions, day.truth.funnel_sessions
    );

    let wh = Warehouse::new();
    write_client_events(&wh, &day.events, 4).expect("fresh warehouse");
    let materializer = Materializer::new(wh.clone());
    materializer.run_day(0).expect("day 0 present");
    let dict = materializer.load_dictionary(0).expect("dictionary written");
    let sequences = load_sequences(&wh, 0).expect("sequences materialized");

    // define Funnel ClientEventsFunnel('$EVENT1', '$EVENT2', ...);
    let funnel = ClientEventsFunnel::new(funnel_spec.stages.clone(), &dict);
    let report = funnel.evaluate(sequences.iter().map(|s| s.sequence.as_str()));

    println!("\nfunnel output (paper's shape: stage, sessions):");
    for (stage, count) in report.rows() {
        println!("({stage}, {count})");
    }

    println!("\nstage                                    measured   truth");
    for (i, stage) in funnel_spec.stages.iter().enumerate() {
        println!(
            "{:<42} {:>7} {:>7}",
            stage.to_string(),
            report.reached[i],
            day.truth.funnel_stage_counts[i]
        );
        assert_eq!(
            report.reached[i], day.truth.funnel_stage_counts[i],
            "sequences must recover the exact funnel counts"
        );
    }

    println!("\nabandonment per stage:");
    for (i, rate) in report.abandonment().iter().enumerate() {
        println!(
            "  after {:<40} {:>5.1}%  (planted: {:.1}%)",
            funnel_spec.stages[i].to_string(),
            rate * 100.0,
            (1.0 - funnel_spec.continue_probability[i]) * 100.0
        );
    }
    println!(
        "\nend-to-end conversion: {:.1}%",
        report.conversion() * 100.0
    );

    // --- §5.3: "Companies typically run A/B tests to optimize the flow."
    // An A/A test first: split users into two arms that saw the SAME flow;
    // a sound harness must find no significant difference.
    use unified_logging::analytics::ab_analyze;
    let completed = |s: unified_logging::core::session::SessionRef<'_>| {
        funnel.depth(&s.sequence) == funnel.stages().len()
    };
    let aa = ab_analyze("signup_flow_v2", sequences.iter(), completed);
    println!(
        "\nA/A sanity check: arm A {:.2}% vs arm B {:.2}% conversion, z = {:.2} → {}",
        aa.a.rate() * 100.0,
        aa.b.rate() * 100.0,
        aa.z,
        if aa.significant_95() {
            "SIGNIFICANT (bad!)"
        } else {
            "no significant difference (as expected)"
        }
    );
    assert!(!aa.significant_95(), "an A/A test must not fire");
}
