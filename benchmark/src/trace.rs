//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A request is one tree: a root span (`core.classify` or
//! `client.request`) with child spans for the stages inside it. Spans stay
//! in memory and are written to `trace.json` when the run ends. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! children cover; the root's self time is therefore the time no measured
//! stage accounts for, and is reported under the name of the layer that
//! owns the remainder (`core.engine.vote`, `server.wire_queue`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span was recorded at.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same trace, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

/// A stage inside a request: a name and its interval.
pub type Stage = (&'static str, u64, u64);

/// Most stages one request may carry (keeps recording allocation-free).
pub const MAX_STAGES: usize = 8;

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to the parent interval first (in place: the slice is left
/// clipped and sorted).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    for c in children.iter_mut() {
        *c = (c.0.clamp(start, end), c.1.clamp(start, end));
    }
    children.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

/// Self time of a span given its children's intervals.
#[must_use]
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut scratch = [(0, 0); MAX_STAGES];
    let scratch = &mut scratch[..children.len()];
    scratch.copy_from_slice(children);
    end.saturating_sub(start) - covered_ns(start, end, scratch)
}

/// Running totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// Collects the spans of one workload's traced windows. Every request
/// updates the per-layer totals; only the first `keep` requests keep their
/// spans for `trace.json`, which bounds memory on the 100 k requests/s
/// workloads without biasing the totals.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    /// Name the root's self time is reported under.
    remainder: &'static str,
    keep: usize,
    requests: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, LayerTotals>,
    root_ns: u64,
    /// Time in reference spans, which sit outside every request.
    reference_ns: u64,
}

impl Tracer {
    /// A tracer for `workload` whose root self time belongs to the layer
    /// `remainder`, keeping the spans of the first `keep` requests.
    #[must_use]
    pub fn new(workload: &'static str, remainder: &'static str, keep: usize) -> Self {
        Self {
            workload,
            remainder,
            keep,
            requests: 0,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            root_ns: 0,
            reference_ns: 0,
        }
    }

    /// Records one request: the root span and the (at most [`MAX_STAGES`])
    /// stages inside it. Stages
    /// reaching outside the root are clipped to it (a stage timed on a
    /// separate call can run a few ns longer than the whole did).
    pub fn request(&mut self, root: Stage, stages: &[Stage]) {
        let (root_name, start, end) = root;
        let end = end.max(start);
        let mut clipped = [("", 0, 0); MAX_STAGES];
        let clipped = &mut clipped[..stages.len()];
        let mut intervals = [(0, 0); MAX_STAGES];
        let intervals = &mut intervals[..stages.len()];
        for (i, &(name, s, e)) in stages.iter().enumerate() {
            clipped[i] = (name, s.clamp(start, end), e.clamp(start, end));
            intervals[i] = (clipped[i].1, clipped[i].2);
        }
        let root_self = self_ns(start, end, intervals);
        let mut add = |name, busy, own| {
            let t = self.totals.entry(name).or_default();
            t.count += 1;
            t.busy_ns += busy;
            t.self_ns += own;
        };
        add(root_name, end - start, 0);
        add(self.remainder, root_self, root_self);
        for &(name, s, e) in clipped.iter() {
            add(name, e - s, e - s); // stages are leaves
        }
        self.root_ns += end - start;
        if (self.requests as usize) < self.keep {
            let parent = self.spans.len();
            let request = self.requests;
            self.spans.push(Span {
                name: root_name,
                start_ns: start,
                end_ns: end,
                parent: None,
                request,
            });
            self.spans.extend(clipped.iter().map(|&(name, s, e)| Span {
                name,
                start_ns: s,
                end_ns: e,
                parent: Some(parent),
                request,
            }));
        }
        self.requests += 1;
    }

    /// Records a span that belongs to no request: a reference measurement
    /// taken beside the traffic (the in-process `artifact.open` on
    /// `cold_churn`). It gets a row of its own and stays out of the
    /// blocking chain.
    pub fn reference(&mut self, name: &'static str, start: u64, end: u64) {
        let busy = end.saturating_sub(start);
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.busy_ns += busy;
        t.self_ns += busy;
        self.reference_ns += busy;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + busy,
            parent: None,
            request: u64::MAX,
        });
    }

    /// Folds in the spans another connection of the same workload recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let (span_base, request_base) = (self.spans.len(), self.requests);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + span_base),
            request: s.request.saturating_add(request_base),
            ..s
        }));
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.busy_ns += t.busy_ns;
            mine.self_ns += t.self_ns;
        }
        self.requests += other.requests;
        self.root_ns += other.root_ns;
        self.reference_ns += other.reference_ns;
    }

    /// Requests recorded.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Per-layer totals, by span name (the root appears with self time 0;
    /// its remainder appears under the remainder layer's name).
    #[must_use]
    pub fn totals(&self) -> &BTreeMap<&'static str, LayerTotals> {
        &self.totals
    }

    /// Sum of root span durations: the blocking chain every share is of.
    #[must_use]
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Mean self time of `layer`'s spans, in µs (0 if never seen). Every
    /// request carries each stage once, so for a stage this is also its
    /// self time per request.
    #[must_use]
    pub fn mean_self_us(&self, layer: &str) -> f64 {
        match self.totals.get(layer) {
            Some(t) if t.count > 0 => t.self_ns as f64 / t.count as f64 / 1000.0,
            _ => 0.0,
        }
    }

    /// Sum of all self times as a percentage of the blocking chain; 100
    /// when every nanosecond of every root is attributed exactly once.
    #[must_use]
    pub fn self_sum_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 100.0;
        }
        let own: u64 = self.totals.values().map(|t| t.self_ns).sum();
        100.0 * (own - self.reference_ns) as f64 / self.root_ns as f64
    }

    /// The per-layer table: count, busy time, self time, share of the
    /// blocking chain.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "trace {}: {} requests, blocking chain {:.3} ms, self times sum to {:.2} % of it\n",
            self.workload,
            self.requests,
            self.root_ns as f64 / 1e6,
            self.self_sum_pct()
        );
        let _ = writeln!(
            out,
            "  {:<26} {:>10} {:>12} {:>12} {:>8}",
            "layer", "count", "busy_ms", "self_ms", "share_%"
        );
        for (name, t) in &self.totals {
            let _ = writeln!(
                out,
                "  {:<26} {:>10} {:>12.3} {:>12.3} {:>8.2}",
                name,
                t.count,
                t.busy_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / self.root_ns.max(1) as f64
            );
        }
        out
    }

    /// This workload's kept spans as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"requests\":{},\"remainder_layer\":\"{}\",\"spans\":[",
            self.workload, self.requests, self.remainder
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_ns(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_ns(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_ns(100, 200, &[(50, 120), (190, 400)]), 70);
        // Children entirely outside cover nothing; full cover leaves none.
        assert_eq!(self_ns(100, 200, &[(0, 50), (300, 400)]), 100);
        assert_eq!(self_ns(0, 10, &[(0, 10)]), 0);
        assert_eq!(self_ns(5, 5, &[(0, 10)]), 0);
    }

    #[test]
    fn totals_attribute_every_nanosecond_once() {
        let mut t = Tracer::new("w", "layer.rest", 1);
        t.request(
            ("root", 1000, 2000),
            &[("a", 1000, 1300), ("b", 1300, 1500), ("c", 1900, 2100)],
        );
        t.request(("root", 3000, 3100), &[("a", 3000, 3050)]);
        assert_eq!(t.requests(), 2);
        assert_eq!(t.root_ns(), 1100);
        let totals = t.totals();
        assert_eq!(totals["root"].busy_ns, 1100);
        assert_eq!(totals["a"].self_ns, 350);
        assert_eq!(totals["c"].busy_ns, 100, "clipped to the root's end");
        assert_eq!(totals["layer.rest"].self_ns, 400 + 50);
        assert!((t.self_sum_pct() - 100.0).abs() < 1e-9);
        assert!((t.mean_self_us("a") - 0.175).abs() < 1e-12);
        assert_eq!(t.mean_self_us("never.seen"), 0.0);
        // Only the first request kept its spans; ids and parents line up.
        assert_eq!(t.spans.len(), 4);
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(0)));
        let json = t.to_json();
        assert!(json.contains("\"name\":\"c\",\"start_ns\":1900,\"end_ns\":2000,\"parent\":0"));
        assert!(t.table().contains("layer.rest"));
    }

    #[test]
    fn connections_merge_and_references_stay_outside_the_chain() {
        let mut a = Tracer::new("w", "rest", 8);
        a.request(("root", 0, 100), &[("s", 0, 40)]);
        let mut b = Tracer::new("w", "rest", 8);
        b.request(("root", 0, 200), &[("s", 50, 150)]);
        b.reference("ref.open", 1000, 1500);
        a.absorb(b);
        assert_eq!((a.requests(), a.root_ns()), (2, 300));
        assert_eq!(a.totals()["s"].self_ns, 140);
        assert_eq!(a.totals()["rest"].self_ns, 160);
        assert_eq!(a.mean_self_us("ref.open"), 0.5);
        assert!((a.self_sum_pct() - 100.0).abs() < 1e-9);
        // b's spans were re-based behind a's two.
        assert_eq!(a.spans[2].request, 1);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[4].parent, None);
    }
}
