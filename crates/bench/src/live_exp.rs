//! The `live` experiment: streaming joins over LSM datasets under ingestion.
//!
//! Two questions, both wall-clock:
//!
//! * **Early results** — the streaming join emits pairs as items
//!   arrive, so its *time-to-first-K-pairs* should sit far below the
//!   offline SSSJ's *total* wall-clock on the same snapshot (which must
//!   first materialise the snapshot into one sorted run, then sweep it to
//!   completion). That gap is the entire point of the operator.
//! * **Compaction interference** — a query that lands while the dataset
//!   carries unmerged delta runs reads more, smaller runs than one landing
//!   right after a compaction folded everything into a fresh base. The
//!   ingest-while-querying loop drives [`Service::append_live`] and
//!   [`QueryRequest::streaming_join`] in alternation and buckets the
//!   per-query latencies by how fragmented the snapshot was.
//!
//! `repro live` writes the rows as `BENCH_service.json` (the scratch
//! latest-run document, like `repro load`) and appends one point to the
//! tracked `BENCH_trajectory.json`.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use usj_core::{JoinInput, JoinOperator, PairSink, SssjJoin};
use usj_datagen::WorkloadSpec;
use usj_geom::Item;
use usj_io::{MachineConfig, SimEnv};
use usj_live::{LiveConfig, LiveDataset, LiveSnapshot, StreamingJoin};
use usj_service::{Catalog, QueryRequest, Service, ServiceConfig};

use crate::setup::ExperimentConfig;

/// The early-result target: wall-clock until this many pairs have been
/// delivered (clamped to the result size on small workloads).
pub const FIRST_K: u64 = 1000;

/// Ingest batches driven through the service in the interference loop.
const INGEST_BATCHES: usize = 8;

/// A sink that timestamps the K-th delivered pair and keeps streaming.
struct FirstKSink {
    k: u64,
    count: u64,
    started: Instant,
    first_k: Option<Duration>,
}

impl FirstKSink {
    fn new(k: u64) -> Self {
        FirstKSink {
            k,
            count: 0,
            started: Instant::now(),
            first_k: None,
        }
    }
}

impl PairSink for FirstKSink {
    fn emit(&mut self, _left: u32, _right: u32) -> ControlFlow<()> {
        self.count += 1;
        if self.first_k.is_none() && self.count >= self.k {
            self.first_k = Some(self.started.elapsed());
        }
        ControlFlow::Continue(())
    }
}

/// One preset's early-result measurement.
#[derive(Debug, Clone)]
pub struct LiveBenchRow {
    /// Workload preset name.
    pub preset: String,
    /// Items in the left (road) snapshot.
    pub left_items: u64,
    /// Items in the right (hydrography) snapshot.
    pub right_items: u64,
    /// Total intersecting pairs (streaming == offline, asserted).
    pub pairs: u64,
    /// The K the stopwatch waited for: `min(FIRST_K, pairs)`.
    pub first_k: u64,
    /// Wall-clock until the K-th streamed pair, milliseconds.
    pub streaming_first_k_ms: f64,
    /// Wall-clock of the full streaming join, milliseconds.
    pub streaming_total_ms: f64,
    /// Wall-clock of the offline path — materialise the snapshots into
    /// sorted runs, then SSSJ to completion — milliseconds.
    pub offline_sssj_ms: f64,
    /// Sorted runs in the left snapshot (base + deltas + memtable).
    pub left_runs: usize,
    /// Sorted runs in the right snapshot.
    pub right_runs: usize,
}

impl LiveBenchRow {
    /// How much sooner the K-th pair arrives than the offline answer.
    pub fn early_speedup(&self) -> f64 {
        self.offline_sssj_ms / self.streaming_first_k_ms.max(f64::EPSILON)
    }
}

/// One preset × maintenance-mode ingest-while-querying measurement.
#[derive(Debug, Clone)]
pub struct LiveInterferenceRow {
    /// Workload preset name.
    pub preset: String,
    /// Maintenance mode: `"inline"` (flush/compaction run inside
    /// `append_live`) or `"background"` (handed to the worker thread).
    pub mode: &'static str,
    /// Append calls driven through the service.
    pub appends: u64,
    /// Memtable flushes maintenance performed (both datasets, post-quiesce).
    pub flushes: u64,
    /// Compactions maintenance performed (both datasets, post-quiesce).
    pub compactions: u64,
    /// Largest *observed* maintenance backlog (delta runs + pending flush
    /// batches, both datasets) at any query submit.
    pub max_backlog: usize,
    /// Mean streaming-query latency when the observed backlog at submit
    /// time was non-zero, ms.
    pub query_ms_fragmented: f64,
    /// Mean streaming-query latency when the observed backlog was zero, ms.
    pub query_ms_compacted: f64,
    /// Median `append_live` wall-clock, microseconds.
    pub append_p50_us: f64,
    /// 99th-percentile `append_live` wall-clock, microseconds — the
    /// append-stall number the background worker exists to shrink.
    pub append_p99_us: f64,
    /// Worst `append_live` wall-clock, microseconds.
    pub append_max_us: f64,
    /// Pairs of the final post-quiesce streaming join (asserted equal
    /// across modes — same data, same answer).
    pub pairs: u64,
}

impl LiveInterferenceRow {
    /// Fragmented / compacted latency ratio (1.0 when a bucket is empty).
    pub fn interference(&self) -> f64 {
        if self.query_ms_compacted <= 0.0 || self.query_ms_fragmented <= 0.0 {
            1.0
        } else {
            self.query_ms_fragmented / self.query_ms_compacted
        }
    }
}

/// Builds a live dataset whose history left it genuinely fragmented: part
/// of the items as the base run, the rest appended in chunks small enough
/// to flush several delta runs but not enough to trigger compaction.
fn fragmented_dataset(env: &mut SimEnv, name: &str, items: &[Item]) -> LiveDataset {
    let split = items.len() / 2;
    let config = LiveConfig {
        flush_threshold_bytes: (items.len() / 8).max(64) * usj_geom::ITEM_BYTES,
        compact_after_deltas: 0, // manual only: keep the runs for the bench
    };
    let ds = env.unaccounted(|env| {
        let mut ds = LiveDataset::create(env, name, &items[..split], config)
            .expect("create live dataset");
        for chunk in items[split..].chunks((items.len() / 6).max(32)) {
            ds.append(env, chunk).expect("append");
        }
        ds
    });
    env.device.reset_stats();
    ds
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    samples[samples.len() / 2]
}

/// Times the offline path once: snapshot → one sorted run → full SSSJ.
fn offline_once(env: &mut SimEnv, left: &LiveSnapshot, right: &LiveSnapshot) -> (u64, f64) {
    let start = Instant::now();
    let sl = left.to_stream(env).expect("materialise left");
    let sr = right.to_stream(env).expect("materialise right");
    let result = SssjJoin::default()
        .run(env, JoinInput::Stream(&sl), JoinInput::Stream(&sr))
        .expect("offline SSSJ");
    (result.pairs, start.elapsed().as_secs_f64() * 1000.0)
}

/// Times the streaming join once, returning (pairs, first-K ms, total ms).
fn streaming_once(
    env: &mut SimEnv,
    left: &LiveSnapshot,
    right: &LiveSnapshot,
    k: u64,
) -> (u64, f64, f64) {
    let mut sink = FirstKSink::new(k);
    let start = Instant::now();
    StreamingJoin::default()
        .run(env, left, right, &mut sink)
        .expect("streaming join");
    let total_ms = start.elapsed().as_secs_f64() * 1000.0;
    let first_k_ms = sink
        .first_k
        .map_or(total_ms, |d| d.as_secs_f64() * 1000.0);
    (sink.count, first_k_ms, total_ms)
}

/// Wall-clock samples per timed case (median reported).
const SAMPLES: usize = 3;

/// Runs the live experiment: the early-result race on every preset, then
/// the service-driven ingest-while-querying interference loop.
///
/// Panics if the streaming pair count ever diverges from the offline
/// SSSJ's — the timings are only meaningful while the answers agree.
pub fn live_bench(cfg: &ExperimentConfig) -> (Vec<LiveBenchRow>, Vec<LiveInterferenceRow>) {
    println!(
        "\n== Live: time-to-first-{FIRST_K}-pairs (streaming) vs full offline SSSJ (scale divisor {}) ==",
        cfg.scale
    );
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>8} {:>11} {:>11} {:>11} {:>9}",
        "Data set", "left", "right", "pairs", "K", "first-K ms", "stream ms", "offline ms", "early x"
    );
    let mut rows = Vec::new();
    for &preset in &cfg.presets {
        let workload = WorkloadSpec::preset(preset)
            .with_scale(cfg.scale)
            .generate(cfg.seed);
        let mut env = SimEnv::new(MachineConfig::machine3());
        let roads = fragmented_dataset(&mut env, "roads", &workload.roads);
        let hydro = fragmented_dataset(&mut env, "hydro", &workload.hydro);
        let (snap_l, snap_r) = (roads.snapshot(), hydro.snapshot());

        // One untimed differential run pins the pair counts before any
        // timing is believed.
        let (offline_pairs, _) = offline_once(&mut env, &snap_l, &snap_r);
        let k = FIRST_K.min(offline_pairs.max(1));
        let (streamed, _, _) = streaming_once(&mut env, &snap_l, &snap_r, k);
        assert_eq!(
            streamed, offline_pairs,
            "{preset}: streaming join diverged from offline SSSJ"
        );

        let mut first_k_samples = Vec::with_capacity(SAMPLES);
        let mut total_samples = Vec::with_capacity(SAMPLES);
        let mut offline_samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let (_, first_k_ms, total_ms) = streaming_once(&mut env, &snap_l, &snap_r, k);
            first_k_samples.push(first_k_ms);
            total_samples.push(total_ms);
            let (_, offline_ms) = offline_once(&mut env, &snap_l, &snap_r);
            offline_samples.push(offline_ms);
        }
        let row = LiveBenchRow {
            preset: preset.name().to_string(),
            left_items: snap_l.len(),
            right_items: snap_r.len(),
            pairs: offline_pairs,
            first_k: k,
            streaming_first_k_ms: median_ms(&mut first_k_samples),
            streaming_total_ms: median_ms(&mut total_samples),
            offline_sssj_ms: median_ms(&mut offline_samples),
            left_runs: snap_l.run_count(),
            right_runs: snap_r.run_count(),
        };
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>8} {:>11.3} {:>11.3} {:>11.3} {:>8.1}x",
            row.preset,
            row.left_items,
            row.right_items,
            row.pairs,
            row.first_k,
            row.streaming_first_k_ms,
            row.streaming_total_ms,
            row.offline_sssj_ms,
            row.early_speedup(),
        );
        rows.push(row);
    }

    println!(
        "\n== Live: ingest-while-querying through the service (inline vs background maintenance) =="
    );
    println!(
        "{:<10} {:<10} {:>7} {:>7} {:>8} {:>8} {:>11} {:>11} {:>7} {:>10} {:>10} {:>10}",
        "Data set", "mode", "appends", "flushes", "compacts", "backlog", "frag q ms", "quiet q ms",
        "interf", "ap p50 µs", "ap p99 µs", "ap max µs"
    );
    let mut interference = Vec::new();
    for &preset in &cfg.presets {
        let inline = interference_loop(cfg, preset, false);
        let background = interference_loop(cfg, preset, true);
        // The two modes ran identical histories; after quiescing, the final
        // streaming join must produce identical answers or the stall
        // comparison below compares different work.
        assert_eq!(
            inline.pairs, background.pairs,
            "{preset:?}: inline and background maintenance diverged"
        );
        for row in [inline, background] {
            println!(
                "{:<10} {:<10} {:>7} {:>7} {:>8} {:>8} {:>11.3} {:>11.3} {:>6.2}x {:>10.1} {:>10.1} {:>10.1}",
                row.preset,
                row.mode,
                row.appends,
                row.flushes,
                row.compactions,
                row.max_backlog,
                row.query_ms_fragmented,
                row.query_ms_compacted,
                row.interference(),
                row.append_p50_us,
                row.append_p99_us,
                row.append_max_us,
            );
            interference.push(row);
        }
    }
    println!(
        "(first-K clock starts when the join starts; the offline column includes materialising \
         the snapshot into one sorted run, which is exactly the work streaming avoids. The \
         interference buckets key on the backlog *observed at submit time*, and append-stall \
         percentiles time each append_live call — inline mode pays flush+compaction inside the \
         call, background mode hands them to the maintenance worker)"
    );
    (rows, interference)
}

/// Alternates `append_live` batches with streaming queries on one service,
/// timing every append call and bucketing query latency by the maintenance
/// backlog *observed at submit time* ([`Service::live_backlog`]) — the load
/// the query actually raced, not a post-hoc stats delta.
fn interference_loop(
    cfg: &ExperimentConfig,
    preset: usj_datagen::Preset,
    background: bool,
) -> LiveInterferenceRow {
    let workload = WorkloadSpec::preset(preset)
        .with_scale(cfg.scale)
        .generate(cfg.seed);
    let service = Service::new(
        SimEnv::new(MachineConfig::machine3()),
        Catalog::new(),
        ServiceConfig::default()
            .with_workers(2)
            .with_background_maintenance(background),
    );
    let half_r = workload.roads.len() / 2;
    let half_h = workload.hydro.len() / 2;
    // Flush every ~quarter batch; compact after two pending deltas, so the
    // loop naturally alternates fragmented and freshly-compacted states.
    let config = |items: usize| LiveConfig {
        flush_threshold_bytes: (items / (INGEST_BATCHES * 4)).max(64) * usj_geom::ITEM_BYTES,
        compact_after_deltas: 2,
    };
    let la = service
        .register_live("roads", &workload.roads[..half_r], config(workload.roads.len()))
        .expect("register roads");
    let lb = service
        .register_live("hydro", &workload.hydro[..half_h], config(workload.hydro.len()))
        .expect("register hydro");

    let road_chunks: Vec<&[Item]> = workload.roads[half_r..]
        .chunks(workload.roads[half_r..].len().div_ceil(INGEST_BATCHES))
        .collect();
    let hydro_chunks: Vec<&[Item]> = workload.hydro[half_h..]
        .chunks(workload.hydro[half_h..].len().div_ceil(INGEST_BATCHES))
        .collect();

    // Append stalls feed the shared `usj_obs` log-bucketed histogram
    // (monotone quantiles, ≤ 1/16 + 1 µs above exact nearest-rank) —
    // the same summary the service's own metrics use.
    let append_us = usj_obs::LogHistogram::new();
    // Each ingest batch is driven as small sub-appends so the stall
    // distribution has enough samples to make a p99 meaningful.
    let timed_append = |name: &str, chunk: &[Item]| {
        for sub in chunk.chunks(64) {
            let start = Instant::now();
            service.append_live(name, sub).expect("append");
            append_us.record(start.elapsed().as_micros() as u64);
        }
    };
    let (mut fragmented, mut compacted): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut max_backlog = 0usize;
    for i in 0..road_chunks.len().max(hydro_chunks.len()) {
        if let Some(chunk) = road_chunks.get(i) {
            timed_append("roads", chunk);
        }
        if let Some(chunk) = hydro_chunks.get(i) {
            timed_append("hydro", chunk);
        }

        // Bucket by the backlog observed *now*, at submit — under
        // background maintenance this is what the query races.
        let backlog = service.live_backlog("roads").unwrap_or(0)
            + service.live_backlog("hydro").unwrap_or(0);
        max_backlog = max_backlog.max(backlog);
        let report = service.run(vec![QueryRequest::streaming_join(la, lb)]);
        let outcome = &report.outcomes[0];
        assert!(outcome.is_completed(), "{:?}", outcome.status);
        let latency_ms = outcome.stats.latency.as_secs_f64() * 1000.0;
        if backlog > 0 {
            fragmented.push(latency_ms);
        } else {
            compacted.push(latency_ms);
        }
    }

    // Drain all maintenance, then take the final differential answer the
    // caller compares across modes.
    service.quiesce_live("roads").expect("quiesce roads");
    service.quiesce_live("hydro").expect("quiesce hydro");
    let report = service.run(vec![QueryRequest::streaming_join(la, lb)]);
    let outcome = &report.outcomes[0];
    assert!(outcome.is_completed(), "{:?}", outcome.status);
    let pairs = outcome.result().expect("completed").pairs;

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let stats_of = |name: &str| service.live_stats(name).expect("dataset registered");
    let (roads_stats, hydro_stats) = (stats_of("roads"), stats_of("hydro"));
    LiveInterferenceRow {
        preset: preset.name().to_string(),
        mode: if background { "background" } else { "inline" },
        appends: append_us.count(),
        flushes: roads_stats.flushes + hydro_stats.flushes,
        compactions: roads_stats.compactions + hydro_stats.compactions,
        max_backlog,
        query_ms_fragmented: mean(&fragmented),
        query_ms_compacted: mean(&compacted),
        append_p50_us: append_us.quantile(0.50) as f64,
        append_p99_us: append_us.quantile(0.99) as f64,
        append_max_us: append_us.max().unwrap_or(0) as f64,
        pairs,
    }
}

/// Renders the outcome as the `BENCH_service.json` document `repro live`
/// writes (hand-rolled JSON — the workspace is dependency-free).
pub fn live_bench_json(
    cfg: &ExperimentConfig,
    rows: &[LiveBenchRow],
    interference: &[LiveInterferenceRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"live\",\n");
    out.push_str(&format!("  \"scale\": {},\n", cfg.scale));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"first_k_target\": {FIRST_K},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"preset\": \"{}\", \"left_items\": {}, \"right_items\": {}, \"pairs\": {}, \
             \"first_k\": {}, \"streaming_first_k_ms\": {:.4}, \"streaming_total_ms\": {:.4}, \
             \"offline_sssj_ms\": {:.4}, \"early_speedup\": {:.3}, \
             \"left_runs\": {}, \"right_runs\": {}}}{}\n",
            r.preset,
            r.left_items,
            r.right_items,
            r.pairs,
            r.first_k,
            r.streaming_first_k_ms,
            r.streaming_total_ms,
            r.offline_sssj_ms,
            r.early_speedup(),
            r.left_runs,
            r.right_runs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"interference\": [\n");
    for (i, r) in interference.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"preset\": \"{}\", \"mode\": \"{}\", \"appends\": {}, \"flushes\": {}, \
             \"compactions\": {}, \"max_backlog\": {}, \"query_ms_fragmented\": {:.4}, \
             \"query_ms_compacted\": {:.4}, \"interference\": {:.3}, \"append_p50_us\": {:.2}, \
             \"append_p99_us\": {:.2}, \"append_max_us\": {:.2}, \"pairs\": {}}}{}\n",
            r.preset,
            r.mode,
            r.appends,
            r.flushes,
            r.compactions,
            r.max_backlog,
            r.query_ms_fragmented,
            r.query_ms_compacted,
            r.interference(),
            r.append_p50_us,
            r.append_p99_us,
            r.append_max_us,
            r.pairs,
            if i + 1 == interference.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders one `BENCH_trajectory.json` point for this run. `unix_time` is
/// the caller-provided wall-clock stamp (seconds since the epoch).
pub fn live_trajectory_point(
    cfg: &ExperimentConfig,
    rows: &[LiveBenchRow],
    interference: &[LiveInterferenceRow],
    unix_time: u64,
) -> String {
    let per_preset: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"preset\": \"{}\", \"first_k\": {}, \"streaming_first_k_ms\": {:.4}, \
                 \"offline_sssj_ms\": {:.4}, \"early_speedup\": {:.3}}}",
                r.preset,
                r.first_k,
                r.streaming_first_k_ms,
                r.offline_sssj_ms,
                r.early_speedup()
            )
        })
        .collect();
    let worst_interference = interference
        .iter()
        .map(|r| r.interference())
        .fold(1.0f64, f64::max);
    // The trajectory tracks both modes' worst append-stall p99 so the
    // background-vs-inline gap is visible run over run.
    let worst_p99 = |mode: &str| {
        interference
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.append_p99_us)
            .fold(0.0f64, f64::max)
    };
    format!(
        "    {{\"experiment\": \"live\", \"unix_time\": {}, \"scale\": {}, \"seed\": {}, \
         \"first_k_target\": {}, \"worst_interference\": {:.3}, \
         \"append_p99_us_inline\": {:.2}, \"append_p99_us_background\": {:.2}, \
         \"rows\": [{}]}}\n",
        unix_time,
        cfg.scale,
        cfg.seed,
        FIRST_K,
        worst_interference,
        worst_p99("inline"),
        worst_p99("background"),
        per_preset.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_datagen::Preset;

    #[test]
    fn live_bench_runs_and_serializes_on_a_tiny_configuration() {
        let cfg = ExperimentConfig {
            scale: 2_000,
            seed: 7,
            presets: vec![Preset::NJ, Preset::NY],
        };
        let (rows, interference) = live_bench(&cfg);
        assert_eq!(rows.len(), 2, "one early-result row per preset");
        assert_eq!(
            interference.len(),
            4,
            "one interference row per preset per maintenance mode"
        );
        for r in &rows {
            // The stopwatch is monotone by construction, and the snapshot
            // history really was fragmented.
            assert!(r.streaming_first_k_ms <= r.streaming_total_ms);
            assert!(r.left_runs > 1, "{}: base-only snapshot", r.preset);
            assert!(r.first_k <= FIRST_K && r.first_k >= 1);
        }
        for r in &interference {
            assert!(r.appends > 0, "{}: no appends timed", r.preset);
            assert!(r.flushes > 0, "{}: no flush ever triggered", r.preset);
            assert!(r.compactions > 0, "{}: no compaction triggered", r.preset);
            assert!(r.pairs > 0, "{}: empty final join", r.preset);
            assert!(r.append_p50_us <= r.append_p99_us);
            assert!(r.append_p99_us <= r.append_max_us);
        }
        for pair in interference.chunks(2) {
            assert_eq!(pair[0].mode, "inline");
            assert_eq!(pair[1].mode, "background");
            assert_eq!(
                pair[0].pairs, pair[1].pairs,
                "{}: maintenance modes diverged",
                pair[0].preset
            );
        }

        let json = live_bench_json(&cfg, &rows, &interference);
        assert!(json.contains("\"experiment\": \"live\""));
        assert!(json.contains("\"mode\": \"background\""));
        assert_eq!(json.matches("\"preset\":").count(), 6);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let point = live_trajectory_point(&cfg, &rows, &interference, 1_700_000_000);
        assert!(point.contains("\"experiment\": \"live\""));
        assert_eq!(point.matches('{').count(), point.matches('}').count());
        let doc = crate::loadgen::append_trajectory(None, &point).unwrap();
        let doc = crate::loadgen::append_trajectory(Some(&doc), &point).unwrap();
        assert_eq!(doc.matches("\"experiment\": \"live\"").count(), 2);
    }
}
