//! Spans recorded at the benchmark's own call sites, and the self-time
//! arithmetic the per-layer metrics are built from.
//!
//! A span is a named interval with an optional parent; all spans of one
//! worker process share the run id. The log stays in memory and is
//! reduced to metrics when the run ends. With tracing off no recorder
//! exists and [`traced`] is a plain call.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder's log.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Run id shared by every span of one worker process.
    pub run: u64,
    /// Span name, e.g. `exp.fig25` or `ooo.parsec_like`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log of one run; shareable across executor threads.
#[derive(Debug)]
pub struct Recorder {
    run: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty log for run `run`.
    pub fn new(run: u64) -> Self {
        Recorder {
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// A copy of the spans recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock is never poisoned")
            .clone()
    }
}

/// Runs `f` inside a span named `name` under `parent` when `rec` is
/// set; `f` receives the new span's id so nested calls can name it as
/// their parent. Without a recorder this is `f(None)`.
pub fn traced<T>(
    rec: Option<&Recorder>,
    name: impl Into<String>,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    let Some(rec) = rec else { return f(None) };
    let id = {
        let mut spans = rec.spans.lock().expect("span log lock is never poisoned");
        let start_ns = rec.now_ns();
        spans.push(Span {
            run: rec.run,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    };
    let out = f(Some(id));
    let end_ns = rec.now_ns();
    rec.spans.lock().expect("span log lock is never poisoned")[id].end_ns = end_ns;
    out
}

/// Self time of span `id` in seconds: its duration minus the part of
/// its interval covered by its direct children. Overlapping children
/// (parallel executor tasks) cover their union once.
pub fn self_secs(spans: &[Span], id: SpanId) -> f64 {
    let span = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in kids {
        open = match open {
            Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
            Some((oa, ob)) => {
                covered += ob - oa;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((oa, ob)) = open {
        covered += ob - oa;
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

/// Summed duration, in seconds, of the spans `keep` selects.
pub fn total_secs(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    spans.iter().filter(|s| keep(s)).map(Span::secs).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            run: 7,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", 0, 1_000, None),
            span("a", 100, 300, Some(0)),
            // Overlaps `a`: the union [100, 500) is covered once.
            span("b", 200, 500, Some(0)),
            span("c", 600, 700, Some(0)),
            // A grandchild never counts against the root.
            span("c.inner", 620, 650, Some(3)),
            // Clipped to the parent's interval.
            span("late", 950, 1_200, Some(0)),
        ];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(
            self_secs(&spans, 0),
            (1_000 - 400 - 100 - 50) as f64 * 1e-9
        ));
        assert!(close(self_secs(&spans, 3), 70e-9));
        assert!(close(self_secs(&spans, 1), 200e-9));
        assert!(close(total_secs(&spans, |s| s.parent == Some(0)), 850e-9));
    }

    #[test]
    fn recorder_nests_spans_and_stamps_the_run() {
        let rec = Recorder::new(42);
        let got = traced(Some(&rec), "outer", None, |outer| {
            traced(Some(&rec), "inner", outer, |inner| inner)
        });
        assert_eq!(got, Some(1));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 42 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(traced(None, "off", None, |id| id), None);
    }
}
