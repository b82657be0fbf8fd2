//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span has a name, a start, an end and a parent. Names are
//! `<layer>.<operation>` (`core.join`, `live.append`, `service.submit`),
//! and a layer's self time is the time its spans cover minus the part
//! their child spans cover. Spans are kept in memory and folded into
//! per-layer totals when a traced round ends. With tracing off, [`Tracer::span`]
//! only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use usj_obs::{QueryTrace, TraceSpan};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Open time, microseconds since the tracer was created.
    pub start_us: f64,
    /// Close time, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_us: self.now_us(),
                end_us: 0.0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_us = self.now_us();
        out
    }

    /// Removes every recorded span and returns each layer's self time over
    /// them, in milliseconds. The layer is the span name up to its first
    /// dot. Call it with no span open.
    pub fn take_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = std::mem::take(&mut *self.spans.borrow_mut());
        self_ms_by_layer(&spans)
    }
}

/// Self time per layer: each span's duration minus its children's.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_us[p] += span.end_us - span.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_us) {
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let own = (span.end_us - span.start_us - children).max(0.0);
        *out.entry(layer).or_insert(0.0) += own / 1000.0;
    }
    out
}

/// The self time of every layer but the benchmark's own: the time the
/// traced work spent in the program.
pub fn program_ms(self_ms: &BTreeMap<&'static str, f64>) -> f64 {
    self_ms
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, ms)| ms)
        .sum()
}

/// The workspace layer a program span belongs to, by its name's prefix.
pub fn program_layer(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "query" | "execute" | "admission" | "scheduler" | "service" | "maintenance" => "service",
        "sssj" | "pbsm" | "pq" | "st" | "join" | "parallel" | "multiway" => "core",
        "live" | "stream" | "memtable" | "flush" | "compaction" => "live",
        "extsort" | "io" | "buffer" | "device" => "io",
        "sweep" => "sweep",
        "rtree" => "rtree",
        _ => "other",
    }
}

/// Adds the self time of every span of a program trace (the per-query
/// traces the service records) to `out`, by [`program_layer`]. Only the
/// `execute` subtrees count: the rest of a query's span is time it spent
/// queued, which overlaps other queries' work.
pub fn fold_program_trace(trace: &QueryTrace, out: &mut BTreeMap<&'static str, f64>) {
    fn walk(span: &TraceSpan, out: &mut BTreeMap<&'static str, f64>) {
        let children: u64 = span.children.iter().map(TraceSpan::dur_us).sum();
        let own = span.dur_us().saturating_sub(children) as f64 / 1000.0;
        *out.entry(program_layer(&span.name)).or_insert(0.0) += own;
        for child in &span.children {
            walk(child, out);
        }
    }
    fn executes(span: &TraceSpan, out: &mut BTreeMap<&'static str, f64>) {
        if span.name == "execute" {
            walk(span, out);
        } else {
            span.children.iter().for_each(|c| executes(c, out));
        }
    }
    trace.roots.iter().for_each(|root| executes(root, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "bench.round",
                start_us: 0.0,
                end_us: 10_000.0,
                parent: None,
            },
            Span {
                name: "core.join",
                start_us: 1_000.0,
                end_us: 7_000.0,
                parent: Some(0),
            },
            Span {
                name: "sweep.kernel",
                start_us: 2_000.0,
                end_us: 3_000.0,
                parent: Some(1),
            },
            Span {
                name: "core.join",
                start_us: 8_000.0,
                end_us: 9_000.0,
                parent: Some(0),
            },
        ];
        let self_ms = self_ms_by_layer(&spans);
        assert_eq!(self_ms["bench"], 3.0);
        assert_eq!(self_ms["core"], 6.0);
        assert_eq!(self_ms["sweep"], 1.0);
        assert_eq!(program_ms(&self_ms), 7.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.join", || 7), 7);
        assert!(t.take_self_ms().is_empty());
        let t = Tracer::new(true);
        t.span("bench.round", || t.span("core.join", || ()));
        let self_ms = t.take_self_ms();
        assert!(self_ms.contains_key("bench") && self_ms.contains_key("core"));
        assert!(t.take_self_ms().is_empty(), "taking clears the spans");
    }
}
