//! Observability core: tracing spans, clocks, and a metric registry.
//!
//! The paper's central claim is a *cost argument* — sweeping-based spatial
//! joins win because their I/O and working-set behaviour is predictable.
//! Every other crate in the workspace proves that claim through end-of-run
//! aggregates; this crate adds the operational layer that turns per-phase
//! behaviour into *observable facts*:
//!
//! * [`Clock`] — a pluggable monotonic microsecond clock: [`HostClock`]
//!   (anchored `Instant`) in production, [`VirtualClock`] (manually
//!   advanced atomic) in tests, so trace tests are deterministic.
//! * [`Recorder`] / [`RingCollector`] — the event sink. Spans are buffered
//!   in a thread-local vector and drained in batches into a bounded ring
//!   (oldest events dropped first, drop count reported), so a recording
//!   run can never hoard unbounded memory.
//! * [`span`] / [`install`] — the thread-local span context. With no
//!   recorder installed (the default), [`span`] is a single thread-local
//!   probe and the returned guard is inert — tracing off stays
//!   byte-identical and near-zero-cost. Layers annotate spans with charged
//!   I/O deltas ([`SpanIo`]) so every phase carries both wall time and the
//!   simulated cost model's verdict.
//! * [`LogHistogram`] — a log-bucketed histogram with a proven quantile
//!   error bound (≤ 1/16 relative + 1), replacing the bench crates'
//!   private nearest-rank percentile code.
//! * [`MetricsRegistry`] — named counters / gauges / histograms with a
//!   cheap always-on update path and a [`MetricsSnapshot`] JSON export.
//! * [`QueryTrace`] — the span tree reconstructed from drained events,
//!   exportable as JSON or as a Chrome trace-event file
//!   ([`ChromeTrace`]) viewable in `chrome://tracing` / Perfetto.
//!
//! The crate is dependency-free (its tests use the in-tree `usj_proptest`
//! harness) so every layer — including `usj_io` at the bottom of the stack
//! — can depend on it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod context;
pub mod histogram;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use clock::{Clock, HostClock, VirtualClock};
pub use context::{enabled, install, instant, span, span_detail, ObsGuard, SpanGuard};
pub use histogram::LogHistogram;
pub use metrics::{Counter, Gauge, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use recorder::{Event, NoopRecorder, Recorder, RingCollector, SpanIo};
pub use trace::{ChromeTrace, QueryTrace, TraceMark, TraceSpan};

#[cfg(test)]
mod proptests;
