//! In-memory span recorder for the traced pass.
//!
//! One span per call into a layer of the system under test: name, start,
//! end, parent, run id, thread. Spans are kept in memory and written as
//! Chrome-trace JSON when the pass ends. A disabled recorder (the untraced
//! pass, which yields every end-to-end number) reads no clock and stores
//! nothing.

use std::time::Instant;

/// Handle returned by [`Spans::enter`]; `NONE` when recording is off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the operation inside its round (a run, a leg-window, a job).
    pub run: u32,
    /// 0 = the client thread; pool threads count from 1.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "toggling the recorder inside an open span"
        );
        self.enabled = on;
    }

    /// Nanoseconds since the recorder's epoch; job closures on pool
    /// threads stamp their own start and end with this clock.
    pub fn clock(&self) -> impl Fn() -> u64 + Sync + Copy {
        let epoch = self.epoch;
        move || epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with operation index `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            tid: 0,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Record `f` as one leaf span under the innermost open span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Add a finished span measured elsewhere (a job on a pool thread)
    /// under the innermost open span.
    pub fn add_finished(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        run: u32,
        tid: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run,
            tid,
        });
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, microsecond timestamps.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"run\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                workload,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.run,
                i,
                s.parent.map_or(-1, |p| p as i64),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (children on parallel threads overlap, so durations cannot be summed).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => by_name.push((s.name, own, 1)),
        }
    }
    by_name.sort_by_key(|row| std::cmp::Reverse(row.1));
    by_name
}

/// Share of the top-level spans' time that no leaf span accounts for, in
/// percent: 100 × Σ self time of spans with children / Σ top-level time.
/// A leaf is one call into a layer, so this is the time the trace cannot
/// attribute to any layer.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_children[p] = true;
        }
    }
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let own: u64 = selfs
        .iter()
        .zip(&has_children)
        .filter(|(_, &inner)| inner)
        .map(|(o, _)| o)
        .sum();
    if total == 0 {
        0.0
    } else {
        100.0 * own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        tid: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) → build [10,30), sim [30,90) → inner [40,50)
        let spans = vec![
            span("run", 0, 100, None, 0),
            span("build", 10, 30, Some(0), 0),
            span("sim", 30, 90, Some(0), 0),
            span("inner", 40, 50, Some(2), 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        // run keeps 20 of its own and sim 50, of 100 at the top level.
        assert!((unattributed_pct(&spans) - 70.0).abs() < 1e-9);
        assert_eq!(
            unattributed_pct(&spans[..1]),
            0.0,
            "a lone leaf is fully attributed"
        );
    }

    #[test]
    fn parallel_children_count_their_union_once() {
        // Two pool threads overlap on [20,60); union of children = [10,80).
        let spans = vec![
            span("fan_out", 0, 100, None, 0),
            span("job", 10, 60, Some(0), 1),
            span("job", 20, 80, Some(0), 2),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("job", 110, 2));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.enter("run");
        assert_eq!(id, SpanId::NONE);
        sp.scope("x", || ());
        sp.add_finished("job", 1, 2, 0, 1);
        sp.exit(id);
        assert!(sp.all().is_empty());
    }

    #[test]
    fn recorder_nests_and_tags_runs() {
        let mut sp = Spans::new(true);
        sp.set_run(7);
        let run = sp.enter("run");
        sp.scope("child", || ());
        sp.exit(run);
        let all = sp.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].run, 7);
        assert!(all[0].end_ns >= all[1].end_ns);
        assert!(sp.chrome_trace("w").contains("\"name\":\"child\""));
    }
}
