//! Shared pieces of the two open-loop service workloads.
//!
//! Requests are sent at their scheduled instants whatever the service's
//! state. A request's latency is timed from the instant it was due, so a
//! late generator or a stalled service shows in every later request; how
//! late the generator itself sent is reported separately as its lag.

use std::time::{Duration, Instant};

use usj_core::JoinResult;
use usj_io::MachineConfig;
use usj_service::{QueryOutcome, QueryStatus, ServiceError};

use crate::report::Samples;

/// Sleeps until `due`; returns at once when it has passed.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Microseconds from `from` to `to` (0 when `to` is earlier).
pub fn us_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// How an attempted request ended, from the client's side.
pub enum Resolution {
    /// Completed with this many pairs.
    Completed(u64),
    /// Refused by the service (admission timeout or deadline).
    Refused,
    /// Failed, or cancelled although the client never cancelled it.
    Failed(String),
}

/// Classifies an outcome of a request the client did not cancel.
pub fn resolve(outcome: &QueryOutcome) -> Resolution {
    match &outcome.status {
        QueryStatus::Completed(result) => Resolution::Completed(result.pairs),
        QueryStatus::Failed(
            ServiceError::AdmissionTimeout { .. } | ServiceError::DeadlineExceeded { .. },
        ) => Resolution::Refused,
        QueryStatus::Failed(e) => Resolution::Failed(e.to_string()),
        QueryStatus::Cancelled(_) => Resolution::Failed("cancelled by the service".to_string()),
    }
}

/// Time the service spent executing a request: its latency minus its
/// admission queue wait, microseconds.
pub fn exec_us(outcome: &QueryOutcome) -> f64 {
    outcome
        .stats
        .latency
        .saturating_sub(outcome.stats.queue_wait)
        .as_secs_f64()
        * 1e6
}

/// Client-side latency accounting of one open-loop session.
#[derive(Default)]
pub struct Latencies {
    /// Latency from the due instant of every attempted request, µs; a
    /// failed or refused request counts as over the limit.
    pub from_due_us: Samples,
    /// How late the generator sent each request, µs.
    pub lag_us: Samples,
    /// Attempted requests.
    pub attempted: u64,
    /// Attempted requests that failed.
    pub failed: u64,
    /// Attempted requests the service refused.
    pub refused: u64,
}

impl Latencies {
    /// Counts one attempted request by its outcome; returns whether it
    /// failed or was refused.
    pub fn count(&mut self, outcome: &QueryOutcome) -> bool {
        self.attempted += 1;
        match resolve(outcome) {
            Resolution::Completed(_) => false,
            Resolution::Refused => {
                self.refused += 1;
                true
            }
            Resolution::Failed(_) => {
                self.failed += 1;
                true
            }
        }
    }

    /// Counts one attempted request and records its lag and latency: due
    /// and sent instants, its outcome and the latency limit a failure
    /// counts as exceeding.
    pub fn record(&mut self, due: Instant, sent: Instant, outcome: &QueryOutcome, limit_us: f64) {
        let lag = us_between(due, sent);
        let latency = lag + outcome.stats.latency.as_secs_f64() * 1e6;
        self.lag_us.push(lag);
        let over_limit = self.count(outcome);
        self.from_due_us.push(if over_limit {
            latency.max(limit_us + 1.0)
        } else {
            latency
        });
    }
}

/// The instant `offset_us` after `start`.
pub fn at(start: Instant, offset_us: u64) -> Instant {
    start + Duration::from_micros(offset_us)
}

/// The program's own accounting, summed over a session's completed
/// requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// The paper's observed `machine3` cost, seconds.
    pub charged_s: f64,
    /// The largest measured memory peak of one request, bytes.
    pub peak_bytes: usize,
    /// Pages read.
    pub pages_read: u64,
    /// CPU operations counted by the cost model.
    pub cpu_ops: u64,
}

impl Work {
    /// Adds one completed request's accounting.
    pub fn add(&mut self, result: &JoinResult) {
        self.charged_s += result
            .observed_cost(&MachineConfig::machine3())
            .total_secs();
        self.peak_bytes = self.peak_bytes.max(result.memory.peak_bytes);
        self.pages_read += result.io.pages_read;
        self.cpu_ops += result.cpu.total();
    }
}
