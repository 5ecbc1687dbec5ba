//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions from the benchmark's own code; they carry a name, start, end
//! and parent id, stay in memory, and are written out when the run ends.
//! With tracing off every call is a branch on a `bool` and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open, `end = NaN`) span. Times are seconds since
/// the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name such as `train.forward`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records a span tree for one thread of control.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle for an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start: self.now(),
            end: f64::NAN,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`]; spans close in LIFO order.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now();
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the tracer started (the run's wall clock).
    pub fn elapsed(&self) -> f64 {
        self.now()
    }

    /// The span list as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                sp.id, parent, sp.name, sp.start, sp.end
            );
        }
        s.push_str("\n]");
        s
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|&(a, b)| b > a);
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent's interval, and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push(sp.id);
        }
    }
    spans
        .iter()
        .map(|sp| {
            let covered = union_len(
                children[sp.id]
                    .iter()
                    .map(|&c| (spans[c].start.max(sp.start), spans[c].end.min(sp.end)))
                    .collect(),
            );
            sp.dur() - covered
        })
        .collect()
}

/// Share of `[0, wall)` covered by top-level spans.
pub fn coverage(spans: &[Span], wall: f64) -> f64 {
    let top = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start.max(0.0), s.end.min(wall)))
        .collect();
    union_len(top) / wall
}

/// Per-name totals: `(calls, total seconds, self seconds)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (sp, st) in spans.iter().zip(selfs) {
        let e = out.entry(sp.name).or_default();
        e.0 += 1;
        e.1 += sp.dur();
        e.2 += st;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // epoch [0,10) with forward [1,4), backward [4,8); self = 3.
        let spans = vec![
            span(0, None, "train.epoch", 0.0, 10.0),
            span(1, Some(0), "train.forward", 1.0, 4.0),
            span(2, Some(0), "train.backward", 4.0, 8.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![3.0, 3.0, 4.0]);
        let names = by_name(&spans);
        assert_eq!(names["train.epoch"], (1, 10.0, 3.0));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children on other threads may overlap each other and stick out of
        // the parent; only the covered part of the parent is subtracted.
        let spans = vec![
            span(0, None, "p", 0.0, 10.0),
            span(1, Some(0), "a", 2.0, 6.0),
            span(2, Some(0), "b", 4.0, 8.0),
            span(3, Some(0), "c", 9.0, 12.0),
        ];
        let st = self_times(&spans);
        // Covered: [2,8) ∪ [9,10) = 7.
        assert!((st[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = vec![
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "child", 0.0, 6.0),
            span(2, Some(1), "grandchild", 1.0, 5.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![4.0, 2.0, 4.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn coverage_is_the_union_of_top_level_spans() {
        let spans = vec![
            span(0, None, "setup", 0.0, 2.0),
            span(1, None, "train", 3.0, 9.0),
            span(2, Some(1), "train.epoch", 3.0, 9.0),
        ];
        assert!((coverage(&spans, 10.0) - 0.8).abs() < 1e-12);
        assert_eq!(union_len(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 3.0)]), 2.0);
    }

    #[test]
    fn tracer_records_a_tree_only_when_on() {
        let mut t = Tracer::new(true);
        let a = t.enter("outer");
        let b = t.enter("inner");
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        assert!(t.to_json().contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let a = off.enter("outer");
        off.exit(a);
        assert!(off.spans().is_empty());
    }
}
