//! Harness-side spans around calls into each layer's public
//! functions.
//!
//! Spans are recorded from the harness's own files only (the program
//! under test carries no tracing yet), kept in memory, and written as
//! Chrome trace-event JSON when the run ends. A disabled tracer still
//! times the wrapped call but records nothing, so end-to-end runs and
//! traced runs share one code path.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the tracer's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder for one workload's traced run. Layer
/// calls are made from the harness's main thread, so the open-span
/// stack is a plain `RefCell`.
pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// wall time.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_us: 0.0,
                end_us: 0.0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.open.borrow_mut().pop();
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.borrow_mut();
        spans[id].start_us = start_us;
        spans[id].end_us = start_us + elapsed.as_secs_f64() * 1e6;
        (out, elapsed)
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as Chrome trace-event JSON (complete `X`
    /// events; open in `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self_times_us(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{},\"workload\":{},\"self_us\":{:.3}}}}}",
                json_string(&s.name),
                json_string(s.name.split('.').next().unwrap_or("")),
                s.start_us,
                s.duration_us(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&self.workload),
                selfs[i],
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_us);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            // Overlaps `a` by 10: the union 10..60 is covered once.
            span("b", 30.0, 60.0, Some(0)),
            span("a.inner", 15.0, 20.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 50.0);
        assert_eq!(selfs[1], 25.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[3], 5.0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new("w", true);
        t.span("outer", || {
            t.span("inner", || ());
        });
        t.span("sibling", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new("w", false);
        let (v, d) = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() > 0 || d.is_zero());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
