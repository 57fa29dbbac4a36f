//! In-memory span recording for the traced run.
//!
//! The harness wraps every call it makes into a layer in a span (`name`,
//! `start_ns`, `end_ns`, `parent`, and the `op` — workload pass, cell or job
//! — it belongs to). Spans live in a `Vec` until the run ends and are then
//! written out as JSON plus a per-layer table. Everything here runs on the
//! harness thread: the layers are timed *from outside*; spans inside the
//! program are a later change.
//!
//! With the tracer disabled every call is a branch on one `bool` and the
//! closure call, which is what the end-to-end runs pay.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// What a span's interval means for its layer's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Kind {
    /// The layer was doing work for the harness.
    Busy,
    /// Work sat waiting for the layer (scheduler wake-up, completion
    /// signal): counted as wait time, not busy time.
    Wait,
}

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer = crate name (`bgp`, `serve`, …); `bench` for the harness's
    /// own grouping spans.
    pub layer: &'static str,
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into [`Tracer::ops`]: spans of one operation share it.
    pub op: usize,
    pub failed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Operation labels (`paper-eval/pass3/cell17`, `job 12`, …).
    pub ops: Vec<String>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            ops: vec![String::new()],
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Registers an operation label; the returned id goes into its spans.
    /// The label is only built when tracing is on.
    pub fn op(&mut self, label: impl FnOnce() -> String) -> usize {
        if !self.enabled {
            return 0;
        }
        self.ops.push(label());
        self.ops.len() - 1
    }

    /// Opens a span; pair with [`Tracer::end`]. For calls whose result the
    /// caller needs to inspect before closing (to mark a failure) or that
    /// hand the tracer to a callback.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: usize) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            kind: Kind::Busy,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
            failed: false,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>, failed: bool) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.failed = failed;
        // Spans close in LIFO order on the one harness thread.
        debug_assert_eq!(self.stack.last(), Some(&id));
        self.stack.pop();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, name, op);
        let r = f();
        self.end(id, false);
        r
    }

    /// Records an interval measured elsewhere (a wait the harness observed
    /// between two of its own timestamps), as a child of the open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        kind: Kind,
        op: usize,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            kind,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            op,
            failed: false,
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are merged, so a span's self time is never
/// negative and never counts an instant twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LayerRow {
    /// Calls into the layer (busy spans).
    pub work: u64,
    pub busy_ms: f64,
    /// Time work waited for the layer (wait spans).
    pub wait_ms: f64,
    pub failures: u64,
    /// Busy time not covered by child spans.
    pub self_ms: f64,
}

pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.layer).or_default();
        match s.kind {
            Kind::Busy => {
                row.work += 1;
                row.busy_ms += s.duration_ns() as f64 / 1e6;
                row.self_ms += self_ns as f64 / 1e6;
            }
            Kind::Wait => row.wait_ms += s.duration_ns() as f64 / 1e6,
        }
        row.failures += u64::from(s.failed);
    }
    rows
}

pub fn render_layer_table(rows: &BTreeMap<&'static str, LayerRow>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>12} {:>9} {:>12}",
        "layer", "work", "busy_ms", "wait_ms", "failures", "self_ms"
    );
    for (layer, r) in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12.3} {:>12.3} {:>9} {:>12.3}",
            layer, r.work, r.busy_ms, r.wait_ms, r.failures, r.self_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "x",
            name: "s",
            kind: Kind::Busy,
            start_ns,
            end_ns,
            parent,
            op: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 -> union 10..50
            span(60, 70, Some(0)),  // 3
            span(12, 18, Some(1)),  // 4: grandchild, only touches 1
            span(90, 140, Some(0)), // 5: clipped to 90..100
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn child_outside_parent_covers_nothing() {
        let spans = vec![span(100, 200, None), span(0, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn table_splits_busy_wait_and_failures() {
        let mut t = Tracer::new(true);
        let outer = t.begin("serve", "job", 0);
        let inner = t.begin("dist", "decode", 0);
        t.end(inner, true);
        let a = Instant::now();
        t.record("serve", "wait_first_cell", Kind::Wait, 0, a, a);
        t.end(outer, false);
        let rows = layer_table(&t.spans);
        assert_eq!(rows["serve"].work, 1);
        assert_eq!(rows["dist"].work, 1);
        assert_eq!(rows["dist"].failures, 1);
        assert_eq!(rows["serve"].failures, 0);
        assert!(rows["serve"].self_ms <= rows["serve"].busy_ms);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.op(|| unreachable!("label must not be built when tracing is off"));
        assert_eq!(t.span("bgp", "converge", op, || 7), 7);
        let id = t.begin("bgp", "x", op);
        t.end(id, false);
        assert!(t.spans.is_empty());
    }
}
