//! The repository's benchmark.
//!
//! ```text
//! usjbench --workload <join-batch|service-mixed|live-ingest> --seed <n>
//!          --seconds <n> --trace <0|1> [--scale <n>]
//! ```
//!
//! Each workload generates its inputs from the seed, sets up, measures for
//! the given number of seconds, checks every answer against an oracle and
//! prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! run also makes traced rounds and reports the per-layer ones
//! ([`PER_LAYER`]) instead. Every workload reports every metric of the
//! section; metrics that only one workload has are printed as detail
//! lines above the result. `--scale` is the data-set divisor (default
//! 200); the smoke test uses tiny inputs. See README.md in this directory.

mod join_batch;
mod layers;
mod live_ingest;
mod openloop;
mod oracle;
mod report;
mod service_mixed;
mod tracer;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether this run reports the per-layer metrics.
    pub trace: bool,
    /// Data-set scale divisor.
    pub scale: u64,
}

impl RunConfig {
    /// The instant measurement must end, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// The data seed of a run's `variant`-th data set. Workloads that make
/// several sessions per run spread them over a few data sets generated
/// from the run's seed, so that one data set's peculiarities weigh less in
/// the run's medians.
pub fn variant_seed(seed: u64, variant: usize) -> u64 {
    seed.wrapping_add(variant as u64 * 1_000_003)
}

/// `(name, unit)` of the end-to-end metrics, as `BENCHMARK.json` declares
/// them. Every workload reports each one, with the meaning README.md gives
/// it for that workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("join_ms", "ms"),
    ("charged_s", "s"),
    ("peak_bytes", "B"),
];

/// `(name, unit)` of the per-layer metrics, as `BENCHMARK.json` declares
/// them. Every workload's traced run reports each one.
pub const PER_LAYER: [(&str, &str); 15] = [
    ("datagen.generate_ms", "ms"),
    ("rtree.bulk_load_ms", "ms"),
    ("rtree.window_us", "us"),
    ("rtree.nodes_per_window", "pages"),
    ("sweep.striped_ms", "ms"),
    ("sweep.forward_ms", "ms"),
    ("sweep.pairs_per_test.striped", "ratio"),
    ("sweep.pairs_per_test.forward", "ratio"),
    ("io.extsort_ms", "ms"),
    ("io.pages_read", "pages"),
    ("core.cpu_ops", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.program_spans", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.program", "ms"),
];

/// Worker threads a service workload may use: the machine's hardware
/// threads minus the generating thread, at least one.
pub fn service_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

const USAGE: &str = "usage: usjbench --workload <join-batch|service-mixed|live-ingest> \
                     --seed <n> --seconds <n> --trace <0|1> [--scale <n>]";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: 200,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1) as f64,
            "--trace" => cfg.trace = number()? != 0,
            "--scale" => cfg.scale = number()?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match workload.as_str() {
        "join-batch" => join_batch::run(&cfg),
        "service-mixed" => service_mixed::run(&cfg),
        "live-ingest" => live_ingest::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = report::run_meta(
        &workload,
        cfg.seed,
        cfg.seconds as u64,
        cfg.trace,
        cfg.scale,
    );
    report.print(&meta, if cfg.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}
