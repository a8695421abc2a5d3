//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span opens before the
//! benchmark calls a public function of a crate and closes when the call
//! returns. Spans nest by call order on the driving thread (the delivery
//! taps fire inside `move_hour`, so their spans are its children). A span's
//! self time is its duration minus the durations of its direct children.
//! Spans stay in memory and are written as JSON when the run ends.
//!
//! An untraced run uses [`Tracer::off`]: the same code path, no recording.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `<layer>.<call>`, e.g. `scribe.move`.
    pub name: &'static str,
    /// The crate the call enters; `bench` for the benchmark's own rounds.
    pub layer: &'static str,
    pub workload: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub records: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    epoch: Instant,
    workload: &'static str,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Cloneable handle; clones share one span list, so a delivery tap wrapper
/// and the driving loop record into the same trace.
#[derive(Clone)]
pub struct Tracer {
    state: Option<Arc<Mutex<State>>>,
}

impl Tracer {
    /// Records nothing.
    pub fn off() -> Tracer {
        Tracer { state: None }
    }

    pub fn on(workload: &'static str) -> Tracer {
        Tracer {
            state: Some(Arc::new(Mutex::new(State {
                epoch: Instant::now(),
                workload,
                round: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }))),
        }
    }

    pub fn is_on(&self) -> bool {
        self.state.is_some()
    }

    fn with<T>(&self, f: impl FnOnce(&mut State) -> T) -> Option<T> {
        self.state
            .as_ref()
            .map(|s| f(&mut s.lock().expect("no span is recorded while panicking")))
    }

    /// Spans opened from now on carry this round number.
    pub fn set_round(&self, round: u32) {
        self.with(|s| s.round = round);
    }

    /// Opens a span; it closes when the guard is dropped or [`SpanGuard::end`]
    /// is called with the work it covered.
    pub fn span(&self, layer: &'static str, name: &'static str) -> SpanGuard<'_> {
        let id = self.with(|s| {
            let id = s.spans.len() as u32;
            let parent = s.open.last().copied();
            s.open.push(id);
            let start_ns = s.epoch.elapsed().as_nanos() as u64;
            s.spans.push(Span {
                id,
                parent,
                name,
                layer,
                workload: s.workload,
                round: s.round,
                start_ns,
                end_ns: start_ns,
                records: 0,
                bytes: 0,
            });
            id
        });
        SpanGuard { tracer: self, id }
    }

    fn close(&self, id: u32, records: u64, bytes: u64) {
        self.with(|s| {
            let end_ns = s.epoch.elapsed().as_nanos() as u64;
            let popped = s.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close in call order");
            let span = &mut s.spans[id as usize];
            span.end_ns = end_ns;
            span.records = records;
            span.bytes = bytes;
        });
    }

    /// Number of spans recorded so far; pass it to [`Tracer::since`] later to
    /// get the spans of one round.
    pub fn mark(&self) -> usize {
        self.with(|s| s.spans.len()).unwrap_or(0)
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> SpanSet {
        SpanSet {
            spans: self.with(|s| s.spans[mark..].to_vec()).unwrap_or_default(),
        }
    }

    pub fn all(&self) -> SpanSet {
        self.since(0)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<u32>,
}

impl SpanGuard<'_> {
    /// Closes the span and records how much work it covered.
    pub fn end(mut self, records: u64, bytes: u64) {
        if let Some(id) = self.id.take() {
            self.tracer.close(id, records, bytes);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.tracer.close(id, 0, 0);
        }
    }
}

/// A slice of the trace with the arithmetic the report needs.
#[derive(Debug, Default, Clone)]
pub struct SpanSet {
    pub spans: Vec<Span>,
}

/// One ledger row: a layer's self time inside a set of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerShare {
    pub layer: &'static str,
    pub self_ns: u64,
    pub share_pct: f64,
}

impl SpanSet {
    /// The measured rounds (warm-ups are round 0) whose root span is called
    /// `root`, with everything under them.
    pub fn measured_rounds_of(mut self, root: &str) -> SpanSet {
        let mut kept = std::collections::BTreeSet::new();
        self.spans.retain(|s| {
            let keep = match s.parent {
                None => s.round != 0 && s.name == root,
                Some(parent) => kept.contains(&parent),
            };
            if keep {
                kept.insert(s.id);
            }
            keep
        });
        self
    }

    /// Duration minus the time covered by direct children.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(Span::duration_ns)
            .sum();
        span.duration_ns().saturating_sub(children)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum of self times of the spans called `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        self.named(name).map(|s| self.self_ns(s)).sum()
    }

    /// Sum of durations of the spans called `name`.
    pub fn total_ns_of(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Per layer: summed self time and its share of the rounds' wall time,
    /// largest first; and the residual — the part of the wall time (the
    /// `bench` root spans) that no layer span covers, as a share of it.
    pub fn ledger(&self) -> (Vec<LayerShare>, f64) {
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *by_layer.entry(s.layer).or_default() += self.self_ns(s);
        }
        let pct = |ns: u64| 100.0 * ns as f64 / wall.max(1) as f64;
        let residual = pct(by_layer.remove("bench").unwrap_or(0));
        let mut rows: Vec<LayerShare> = by_layer
            .into_iter()
            .map(|(layer, self_ns)| LayerShare {
                layer,
                self_ns,
                share_pct: pct(self_ns),
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(b.layer)));
        (rows, residual)
    }

    /// The trace file: one JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"workload\": \"{}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"records\": {}, \"bytes\": {}}}{}\n",
                s.id,
                s.name,
                s.layer,
                s.workload,
                s.round,
                s.start_ns,
                s.end_ns,
                s.records,
                s.bytes,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: if layer == "bench" {
                "bench.round"
            } else {
                "x.call"
            },
            layer,
            workload: "w",
            round: 0,
            start_ns: start,
            end_ns: end,
            records: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30; root ⊃ c 70..90
        let set = SpanSet {
            spans: vec![
                span(0, None, "bench", 0, 100),
                span(1, Some(0), "scribe", 10, 60),
                span(2, Some(1), "serve", 20, 30),
                span(3, Some(0), "scribe", 70, 90),
            ],
        };
        assert_eq!(set.self_ns(&set.spans[0]), 100 - 50 - 20);
        assert_eq!(set.self_ns(&set.spans[1]), 40);
        assert_eq!(set.self_ns(&set.spans[2]), 10);
        assert_eq!(set.self_ns_of("x.call"), 40 + 10 + 20);
        assert_eq!(set.total_ns_of("x.call"), 50 + 10 + 20);
    }

    #[test]
    fn ledger_shares_and_residual_sum_to_the_wall() {
        let set = SpanSet {
            spans: vec![
                span(0, None, "bench", 0, 100),
                span(1, Some(0), "scribe", 10, 60),
                span(2, Some(1), "serve", 20, 30),
                span(3, None, "bench", 100, 200),
                span(4, Some(3), "scribe", 100, 180),
            ],
        };
        let (rows, residual) = set.ledger();
        assert_eq!(rows[0].layer, "scribe");
        assert_eq!(rows[0].self_ns, 40 + 80);
        assert_eq!(rows[1].layer, "serve");
        assert_eq!(rows[1].self_ns, 10);
        let covered: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((covered + residual - 100.0).abs() < 1e-9);
        assert!((residual - 35.0).abs() < 1e-9);
    }

    #[test]
    fn measured_rounds_keep_whole_trees_of_one_root_name() {
        let mut spans = vec![
            span(0, None, "bench", 0, 10),
            span(1, Some(0), "scribe", 1, 9),
            span(2, None, "bench", 10, 20),
            span(3, Some(2), "scribe", 11, 19),
            span(4, Some(3), "serve", 12, 13),
            span(5, None, "scribe", 20, 30),
        ];
        spans[0].round = 0; // a warm-up
        spans[1].round = 0;
        for s in &mut spans[2..] {
            s.round = 1;
        }
        let kept = SpanSet { spans }.measured_rounds_of("bench.round");
        let ids: Vec<u32> = kept.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, [2, 3, 4]);
    }

    #[test]
    fn tracer_nests_by_call_order_and_off_records_nothing() {
        let t = Tracer::on("w");
        t.set_round(3);
        let outer = t.span("bench", "bench.round");
        let inner = t.span("scribe", "scribe.move");
        inner.end(7, 70);
        drop(outer);
        let set = t.all();
        assert_eq!(set.spans.len(), 2);
        assert_eq!(set.spans[1].parent, Some(0));
        assert_eq!(set.spans[1].records, 7);
        assert_eq!(set.spans[1].round, 3);
        assert!(set.spans[0].end_ns >= set.spans[1].end_ns);
        assert!(set.to_json().contains("\"name\": \"scribe.move\""));

        let off = Tracer::off();
        off.span("bench", "bench.round").end(1, 1);
        assert!(off.all().spans.is_empty());
    }
}
