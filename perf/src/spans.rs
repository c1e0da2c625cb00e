//! Host-time spans recorded around calls into each layer's public
//! functions, from this package's own files only.
//!
//! `begin`/`end` always feed the per-pass phase totals (the end-to-end
//! rates need "time inside capture" even when tracing is off). Only a
//! traced run keeps the span records themselves; they stay in memory
//! until the run is over and are then folded and written out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. `parent` is an index into the same vector.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// Handle of an open span; give it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    name: &'static str,
    started: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    record: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Inclusive seconds and call count per span name, current pass.
    totals: Vec<(&'static str, f64, u64)>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer {
            record,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.record
    }

    /// Switch span recording; phase totals are kept either way.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside an open span");
        self.record = on;
    }

    /// Start the next pass: clears the phase totals.
    pub fn start_pass(&mut self) {
        self.pass += 1;
        self.totals.clear();
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let slot = self.record.then(|| {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.stack.last().copied(),
                pass: self.pass,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        Open { name, started: Instant::now(), slot }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.started.elapsed().as_secs_f64();
        if let Some(id) = open.slot {
            assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
        match self.totals.iter_mut().find(|t| t.0 == open.name) {
            Some(t) => {
                t.1 += secs;
                t.2 += 1;
            }
            None => self.totals.push((open.name, secs, 1)),
        }
        secs
    }

    /// Time one call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Inclusive seconds spent under `name` in the current pass.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0.0, |t| t.1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One row of the folded per-layer table.
#[derive(Debug, Clone)]
pub struct FoldRow {
    pub name: &'static str,
    /// Self seconds (span minus child spans), mean per traced pass.
    pub self_s: f64,
    /// Calls, mean per traced pass.
    pub count: f64,
    /// Share of the mean `pass` span.
    pub share: f64,
}

/// Spans of the timed passes folded by name.
#[derive(Debug, Clone)]
pub struct Fold {
    pub rows: Vec<FoldRow>,
    /// Mean duration of the root `pass` spans.
    pub pass_s: f64,
    /// Self time of the root span: inside a pass, under no child span.
    pub unattributed_s: f64,
    pub passes: usize,
}

/// Name of the root span every timed pass opens.
pub const ROOT: &str = "pass";

pub fn fold(spans: &[Span]) -> Fold {
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += dur(s);
        }
    }
    // Only spans under a root `pass` count; set-up and layer replays
    // are reported through their own metrics.
    let under_root = |mut i: usize| loop {
        if spans[i].name == ROOT {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let passes = spans.iter().filter(|s| s.name == ROOT).count();
    let mut by_name: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let mut pass_total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if !under_root(i) {
            continue;
        }
        if s.name == ROOT {
            pass_total += dur(s);
        }
        let e = by_name.entry(s.name).or_insert((0.0, 0.0));
        e.0 += (dur(s) - child_time[i]).max(0.0);
        e.1 += 1.0;
    }
    let n = passes.max(1) as f64;
    let pass_s = pass_total / n;
    let unattributed_s = by_name.remove(ROOT).map_or(0.0, |e| e.0 / n);
    let mut rows: Vec<FoldRow> = by_name
        .into_iter()
        .map(|(name, (self_s, count))| FoldRow {
            name,
            self_s: self_s / n,
            count: count / n,
            share: if pass_s > 0.0 { self_s / n / pass_s } else { 0.0 },
        })
        .collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.name.cmp(b.name)));
    Fold { rows, pass_s, unattributed_s, passes }
}

impl Fold {
    /// Share of the pass that lies under some named child span.
    pub fn attributed_share(&self) -> f64 {
        if self.pass_s > 0.0 {
            1.0 - self.unattributed_s / self.pass_s
        } else {
            0.0
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<34} {:>11} {:>8} {:>9}   (mean of {} traced passes, pass {:.4} s)",
            "layer span", "self s", "% pass", "calls", self.passes, self.pass_s
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<34} {:>11.5} {:>7.1}% {:>9.1}",
                r.name,
                r.self_s,
                r.share * 100.0,
                r.count
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>11.5} {:>7.1}%",
            "(unattributed)",
            self.unattributed_s,
            (1.0 - self.attributed_share()) * 100.0
        );
        out
    }
}

/// The span file: every span with name, start, end, parent id, pass id.
pub fn spans_json(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(out, "{{\"header\":{header},\"spans\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
            s.name, s.start_ns, s.end_ns, s.pass
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        pass: u32,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, pass }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("setup", 0, 50, None, 0),
            span(ROOT, 100, 1100, None, 1),
            span("a", 100, 500, Some(1), 1),
            span("b", 200, 300, Some(2), 1),
            span("a", 600, 1000, Some(1), 1),
        ];
        let f = fold(&spans);
        assert_eq!(f.passes, 1);
        assert!((f.pass_s - 1000e-9).abs() < 1e-15);
        // root self = 1000 - (400 + 400); a self = 800 - 100; b = 100.
        assert!((f.unattributed_s - 200e-9).abs() < 1e-15);
        let a = f.rows.iter().find(|r| r.name == "a").unwrap();
        assert!((a.self_s - 700e-9).abs() < 1e-15 && a.count == 2.0);
        assert!((f.attributed_share() - 0.8).abs() < 1e-9);
        assert!(f.rows.iter().all(|r| r.name != "setup"), "spans outside a pass are not folded");
    }

    #[test]
    fn tracer_totals_without_recording() {
        let mut tr = Tracer::new(false);
        tr.start_pass();
        let o = tr.begin("x");
        assert!(tr.end(o) >= 0.0);
        tr.time("x", || ());
        assert!(tr.spans().is_empty());
        assert!(tr.total("x") >= 0.0 && tr.total("y") == 0.0);
        tr.set_recording(true);
        let outer = tr.begin(ROOT);
        tr.time("x", || ());
        tr.end(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }
}
