//! In-memory span recording for the traced run.
//!
//! The harness wraps its calls into each layer's public functions in
//! [`Tracer::span`]. With tracing off a span is one branch around the
//! call; with tracing on it records name, start, end, and the enclosing
//! span on the same thread. Spans stay in memory until the run ends, then
//! go to `rfhbench/out/trace.<workload>.json` and a per-name summary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rfh::rfhd::Json;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `alloc.allocate`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("no span holder panics")[id].end = end;
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order per thread.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Aggregates of all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times (duration minus the part covered by children), ns.
    pub self_time: u64,
    /// Shortest duration, ns.
    pub min: u64,
    /// Longest duration, ns.
    pub max: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it, so overlapping children (spans of
/// other threads never count as children) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregates, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let d = s.end - s.start;
        let e = out.entry(s.name).or_insert(SpanStats {
            min: u64::MAX,
            ..SpanStats::default()
        });
        e.count += 1;
        e.total += d;
        e.self_time += own;
        e.min = e.min.min(d);
        e.max = e.max.max(d);
    }
    out
}

/// The summary as a human-readable table (milliseconds).
pub fn summary_table(spans: &[Span]) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10}\n",
        "span", "count", "total_ms", "self_ms", "min_ms", "max_ms"
    );
    for (name, s) in summarize(spans) {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>10.4} {:>10.4}\n",
            name,
            s.count,
            ms(s.total),
            ms(s.self_time),
            ms(s.min),
            ms(s.max)
        ));
    }
    out
}

/// The spans as a JSON array of `{name, workload, start_ns, end_ns, parent}`.
pub fn spans_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("workload".into(), Json::str(workload)),
                    ("start_ns".into(), Json::u64(s.start)),
                    ("end_ns".into(), Json::u64(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 55, 70, Some(0)),  // overlaps b by 5
            span("d", 90, 130, Some(0)), // runs past the parent's end
            span("x", 20, 25, Some(1)),
        ];
        // Children cover [10, 70) and [90, 100): 70 of 100 ns.
        assert_eq!(self_times(&spans), vec![30, 25, 30, 15, 40, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", || 7), 7);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", || on.span("inner", || ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let sum = summarize(&spans);
        assert_eq!(sum["outer"].count, 1);
        assert!(sum["outer"].self_time <= sum["outer"].total);
    }
}
