//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is `{request, id, parent, name, start_ns, end_ns, input}`: spans
//! of one request share `request`, `parent` names the span that caused it,
//! and `input` is the index of the trace file the span worked on (so its
//! references, bytes and conflict elements can be looked up). Spans stay in
//! memory and are written out once, at exit. A disabled recorder only runs
//! the closures, so the untraced run pays no clock reads.

use std::io::Write;
use std::time::Instant;

use cachedse_json::Value;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// This span's identifier, unique within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `trace.read_din`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the trace file the span worked on, if one.
    pub input: Option<usize>,
}

impl Span {
    /// Wall-clock duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("request", Value::from(self.request)),
            ("id", Value::from(self.id)),
            ("parent", self.parent.map_or(Value::Null, Value::from)),
            ("name", Value::from(self.name)),
            ("start_ns", Value::from(self.start_ns)),
            ("end_ns", Value::from(self.end_ns)),
            ("input", self.input.map_or(Value::Null, Value::from)),
        ])
    }
}

/// Where a new span sits: its request, its parent, and its input file.
#[derive(Clone, Copy, Debug)]
pub struct At {
    /// The request the span belongs to.
    pub request: u64,
    /// The span that caused it.
    pub parent: Option<u64>,
    /// The trace file it works on.
    pub input: Option<usize>,
}

/// Collects spans when enabled; runs closures untimed when not.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    next_request: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only runs closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: 0,
            next_request: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request identifier.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Runs `f` inside a span named `name` placed at `at`; `f` receives the
    /// recorder and the new span's id, to nest child spans under it.
    pub fn span<T>(
        &mut self,
        at: At,
        name: &'static str,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, 0);
        }
        self.next_id += 1;
        let id = self.next_id;
        let start_ns = self.now_ns();
        let out = f(self, id);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request: at.request,
            id,
            parent: at.parent,
            name,
            start_ns,
            end_ns,
            input: at.input,
        });
        out
    }

    /// Records a span timed by the caller, for an interval that no single
    /// closure covers (a serve job runs from its submission to its reply).
    pub fn push(&mut self, at: At, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.next_id += 1;
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            request: at.request,
            id: self.next_id,
            parent: at.parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            input: at.input,
        });
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            writeln!(out, "{}", span.to_json().render())?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
/// Returned in the order of `spans`.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = end;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            input: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let request = rec.request();
        let at = At {
            request,
            parent: None,
            input: Some(3),
        };
        let v = rec.span(at, "outer", |rec, id| {
            rec.span(
                At {
                    parent: Some(id),
                    ..at
                },
                "inner",
                |_, _| 7,
            )
        });
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let line = spans[0].to_json().render();
        assert!(line.contains("\"input\":3"), "{line}");

        let mut off = Recorder::new(false);
        assert_eq!(off.span(at, "outer", |_, _| 1), 1);
        assert!(off.spans().is_empty());
    }
}
