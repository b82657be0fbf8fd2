//! `join-batch`: the paper's four joins on `DISK1-6`, larger than memory.
//!
//! Set-up generates `DISK1-6` at the run's scale on `machine3`, bulk-loads
//! an R-tree over each relation and writes each as a flat stream. Each
//! round then runs SJ and PB on the streams and PQ and ST on the trees,
//! serially, through `SpatialQuery`, each on a fresh fork of the set-up
//! device under a 4 MB memory limit. Every join's pair count and pair
//! digest must equal the oracle's, its measured peak must stay within the
//! limit, and its accounting must repeat exactly from round to round.
//!
//! `latency_ms` is a round of the four joins, `join_ms` the mean of the
//! four joins' times, and `charged_s` and `peak_bytes` sum one round.
//!
//! A traced run alternates untraced and traced rounds. Traced rounds
//! record the benchmark's spans around every join and install a recorder
//! for the spans the program already emits. After the rounds it times the
//! single layers directly on the same relations (see `layers`).

use std::sync::Arc;
use std::time::Instant;

use usj_core::{JoinAlgorithm, JoinInput, JoinOperator, JoinResult, SpatialQuery, StJoin};
use usj_datagen::{Preset, Workload, WorkloadSpec};
use usj_io::{ItemStream, MachineConfig, Page, SimEnv, PAGE_SIZE};
use usj_obs::{HostClock, QueryTrace, RingCollector};
use usj_rtree::RTree;

use crate::layers;
use crate::oracle::{join_digest, PairDigest};
use crate::report::{Report, Samples};
use crate::tracer::{self, Tracer};
use crate::RunConfig;

/// Memory limit of every join and of the external sort.
pub const MEMORY_LIMIT: usize = 4 * 1024 * 1024;

/// Set-ups before the first round. `setup_s` is the median of these and of
/// one more set-up after every [`SETUP_EVERY`] rounds, which spreads the
/// set-ups over the run so that a slow spell of the host weighs in no
/// more than it does on the rounds.
const SETUPS: usize = 7;

/// Rounds between two of the set-ups timed during the measurement.
const SETUP_EVERY: usize = 4;

/// The quantile of a run's round times that timings report. The reference
/// host switches every few seconds between a fast state and one about 1.4
/// times slower, so a run's median lands in either state by chance; its
/// 10th percentile measures the fast state, which every run reaches.
const FAST: f64 = 0.10;

/// Windows of the direct R-tree window queries.
const WINDOWS: usize = 200;

/// Rounds made even when the measurement time is already used up.
const MIN_ROUNDS: usize = 3;

/// The four joins, in the paper's order (SJ, PB, PQ, ST).
const ALGORITHMS: [JoinAlgorithm; 4] = [
    JoinAlgorithm::Sssj,
    JoinAlgorithm::Pbsm,
    JoinAlgorithm::Pq,
    JoinAlgorithm::St,
];

/// One set-up: the generated relations on a device, indexed and flat.
struct Prepared {
    workload: Workload,
    base: SimEnv,
    pages: Arc<Vec<Page>>,
    roads_tree: RTree,
    hydro_tree: RTree,
    roads_stream: ItemStream,
    hydro_stream: ItemStream,
}

impl Prepared {
    /// A fresh environment over the set-up device, under the memory limit.
    fn fork(&self) -> SimEnv {
        let mut env = self.base.fork_with_base(Arc::clone(&self.pages));
        env.set_memory_limit(MEMORY_LIMIT);
        env
    }

    /// Each algorithm's natural input: streams for SJ/PB, trees for PQ/ST.
    fn inputs(&self, alg: JoinAlgorithm) -> (JoinInput<'_>, JoinInput<'_>) {
        match alg {
            JoinAlgorithm::Sssj | JoinAlgorithm::Pbsm => (
                JoinInput::Stream(&self.roads_stream),
                JoinInput::Stream(&self.hydro_stream),
            ),
            JoinAlgorithm::Pq | JoinAlgorithm::St => (
                JoinInput::Indexed(&self.roads_tree),
                JoinInput::Indexed(&self.hydro_tree),
            ),
        }
    }
}

/// Times of one set-up, milliseconds.
struct SetupTimes {
    total_ms: f64,
    generate_ms: f64,
    bulk_load_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

fn setup(cfg: &RunConfig) -> (Prepared, SetupTimes) {
    let start = Instant::now();
    let workload = WorkloadSpec::preset(Preset::Disk1_6)
        .with_scale(cfg.scale)
        .generate(cfg.seed);
    let generate_ms = ms_since(start);
    let mut base = SimEnv::new(MachineConfig::machine3());
    let (roads_tree, hydro_tree, bulk_load_ms, roads_stream, hydro_stream) =
        base.unaccounted(|env| {
            let t = Instant::now();
            let roads_tree = RTree::bulk_load(env, &workload.roads).expect("bulk-load roads");
            let hydro_tree = RTree::bulk_load(env, &workload.hydro).expect("bulk-load hydro");
            let bulk_load_ms = ms_since(t);
            let roads_stream = ItemStream::from_items(env, &workload.roads).expect("write roads");
            let hydro_stream = ItemStream::from_items(env, &workload.hydro).expect("write hydro");
            (
                roads_tree,
                hydro_tree,
                bulk_load_ms,
                roads_stream,
                hydro_stream,
            )
        });
    let pages = base.device.snapshot();
    let times = SetupTimes {
        total_ms: ms_since(start),
        generate_ms,
        bulk_load_ms,
    };
    let prepared = Prepared {
        workload,
        base,
        pages,
        roads_tree,
        hydro_tree,
        roads_stream,
        hydro_stream,
    };
    (prepared, times)
}

/// Lower-case algorithm tag used in metric names.
fn tag(alg: JoinAlgorithm) -> &'static str {
    match alg {
        JoinAlgorithm::Sssj => "sj",
        JoinAlgorithm::Pbsm => "pb",
        JoinAlgorithm::Pq => "pq",
        JoinAlgorithm::St => "st",
    }
}

/// Per-round samples and the first round's accounting.
#[derive(Default)]
struct Measured {
    join_ms: [Samples; 4],
    results: [Option<JoinResult>; 4],
    round_ms_untraced: Samples,
    round_ms_traced: Samples,
    program_spans: Samples,
    self_ms: std::collections::BTreeMap<&'static str, Samples>,
}

/// One round. Returns its wall time in milliseconds.
fn round(
    p: &Prepared,
    oracle: &PairDigest,
    tracer: &Tracer,
    m: &mut Measured,
    report: &mut Report,
) -> f64 {
    let start = Instant::now();
    tracer.span("bench.round", || {
        for (k, alg) in ALGORITHMS.into_iter().enumerate() {
            let mut env = p.fork();
            let (left, right) = p.inputs(alg);
            let mut digest = PairDigest::default();
            let t = Instant::now();
            let result = tracer.span("core.join", || {
                SpatialQuery::new(left, right)
                    .algorithm(alg.into())
                    .execute(&mut env, &mut digest)
            });
            let ms = ms_since(t);
            report.attempted += 1;
            let name = alg.short_name();
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    report.failed += 1;
                    report.check(false, || format!("{name}: join failed: {e}"));
                    continue;
                }
            };
            m.join_ms[k].push(ms);
            report.check(digest == *oracle && result.pairs == oracle.count, || {
                format!(
                    "{name}: {} pairs / digest {digest:?}, oracle {oracle:?}",
                    result.pairs
                )
            });
            report.check(result.memory.peak_bytes <= MEMORY_LIMIT, || {
                format!(
                    "{name}: peak {} B over the {MEMORY_LIMIT} B limit",
                    result.memory.peak_bytes
                )
            });
            match &m.results[k] {
                None => m.results[k] = Some(result),
                Some(first) => report.check(*first == result, || {
                    format!("{name}: accounting differs between rounds")
                }),
            }
        }
    });
    ms_since(start)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let mut setup_ms = Samples::new();
    let mut generate_ms = Samples::new();
    let mut bulk_load_ms = Samples::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so set-ups do not overlap in memory.
        drop(prepared.take());
        let (p, times) = setup(cfg);
        setup_ms.push(times.total_ms / 1000.0);
        generate_ms.push(times.generate_ms);
        bulk_load_ms.push(times.bulk_load_ms);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let oracle = join_digest(&p.workload.roads, &p.workload.hydro);
    report.note(format!(
        "DISK1-6 scale {}: {} roads, {} hydro, {} pairs; machine3, {} B memory limit",
        cfg.scale,
        p.workload.roads.len(),
        p.workload.hydro.len(),
        oracle.count,
        MEMORY_LIMIT
    ));

    let mut m = Measured::default();
    let untraced = Tracer::new(false);
    let traced = Tracer::new(true);
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS * if cfg.trace { 2 } else { 1 } || Instant::now() < deadline {
        // A traced run alternates: even rounds untraced, odd rounds traced.
        let is_traced = cfg.trace && rounds % 2 == 1;
        if is_traced {
            let ring = Arc::new(RingCollector::new(1 << 16));
            let guard = usj_obs::install(ring.clone(), Arc::new(HostClock::new()));
            let ms = round(&p, &oracle, &traced, &mut m, &mut report);
            drop(guard);
            m.round_ms_traced.push(ms);
            let (events, dropped) = ring.drain();
            m.program_spans
                .push(QueryTrace::from_events(&events, dropped).span_count() as f64);
            let self_ms = traced.take_self_ms();
            m.self_ms
                .entry("program")
                .or_default()
                .push(tracer::program_ms(&self_ms));
            for (layer, ms) in self_ms {
                m.self_ms.entry(layer).or_default().push(ms);
            }
        } else {
            let ms = round(&p, &oracle, &untraced, &mut m, &mut report);
            m.round_ms_untraced.push(ms);
        }
        rounds += 1;
        if rounds % SETUP_EVERY == 0 {
            let (extra, times) = setup(cfg);
            drop(extra);
            setup_ms.push(times.total_ms / 1000.0);
            generate_ms.push(times.generate_ms);
            bulk_load_ms.push(times.bulk_load_ms);
        }
    }

    let results: Vec<&JoinResult> = m.results.iter().flatten().collect();
    report.check(results.len() == 4, || "a join never completed".to_string());
    let machine = MachineConfig::machine3();
    if !cfg.trace {
        report.median("setup_s", &setup_ms, "s");
        report.quantile("latency_ms", &m.round_ms_untraced, FAST, "ms");
        let mut join_ms = 0.0;
        for (k, alg) in ALGORITHMS.into_iter().enumerate() {
            report.quantile(&format!("join_ms.{}", tag(alg)), &m.join_ms[k], FAST, "ms");
            join_ms += m.join_ms[k].quantile(FAST) / ALGORITHMS.len() as f64;
        }
        report.value("join_ms", join_ms, "ms");
        let charged: f64 = results
            .iter()
            .map(|r| r.observed_cost(&machine).total_secs())
            .sum();
        let peak: usize = results.iter().map(|r| r.memory.peak_bytes).sum();
        report.value("charged_s", charged, "s");
        report.value("peak_bytes", peak as f64, "B");
        return report;
    }

    report.median("datagen.generate_ms", &generate_ms, "ms");
    report.median("rtree.bulk_load_ms", &bulk_load_ms, "ms");
    layers::kernels(
        &p.workload.roads,
        &p.workload.hydro,
        oracle.count,
        &mut report,
    );
    layers::extsort(&p.workload.roads, &mut report);
    let windows = layers::random_windows(cfg.seed, p.workload.region, WINDOWS);
    layers::windows(
        &p.roads_tree,
        &p.pages,
        &p.workload.roads,
        &windows,
        &mut report,
    );
    let (mut rand_reads, mut reads, mut pages_read, mut cpu_ops) = (0u64, 0u64, 0u64, 0u64);
    for (alg, r) in ALGORITHMS.into_iter().zip(m.results.iter()) {
        let Some(r) = r else { continue };
        let t = tag(alg);
        report.value(
            &format!("io.pages_read.{t}"),
            r.io.pages_read as f64,
            "pages",
        );
        report.value(
            &format!("io.pages_written.{t}"),
            r.io.pages_written as f64,
            "pages",
        );
        report.value(
            &format!("core.charged_s.{t}"),
            r.observed_cost(&machine).total_secs(),
            "s",
        );
        report.value(
            &format!("core.peak_bytes.{t}"),
            r.memory.peak_bytes as f64,
            "B",
        );
        report.value(&format!("core.cpu_ops.{t}"), r.cpu.total() as f64, "count");
        rand_reads += r.io.rand_read_ops;
        reads += r.io.read_ops();
        pages_read += r.io.pages_read;
        cpu_ops += r.cpu.total();
    }
    report.value("io.pages_read", pages_read as f64, "pages");
    report.value("core.cpu_ops", cpu_ops as f64, "count");
    report.value(
        "io.rand_read_share",
        rand_reads as f64 / reads.max(1) as f64,
        "ratio",
    );
    if let (Some(pq), Some(st)) = (&m.results[2], &m.results[3]) {
        report.value(
            "rtree.node_requests.pq",
            pq.index_page_requests as f64,
            "pages",
        );
        report.value(
            "rtree.node_requests.st",
            st.index_page_requests as f64,
            "pages",
        );
        // With a one-page pool every node read of ST misses, so its miss
        // count is the number of node requests the traversal makes.
        let mut env = p.fork();
        let (left, right) = p.inputs(JoinAlgorithm::St);
        let mut digest = PairDigest::default();
        let requests = StJoin::default()
            .with_buffer_pool_bytes(PAGE_SIZE)
            .run_with(&mut env, left, right, &mut digest)
            .map(|r| r.index_page_requests);
        report.check(digest == oracle, || {
            "ST with a one-page pool: wrong pairs".to_string()
        });
        let requests = requests.unwrap_or(0).max(1);
        let hit_ratio = 1.0 - st.index_page_requests as f64 / requests as f64;
        report.value("io.buffer_hit_ratio.st", hit_ratio, "ratio");
    }
    report.value(
        "obs.trace_overhead",
        m.round_ms_traced.median() / m.round_ms_untraced.median(),
        "ratio",
    );
    report.median("obs.program_spans", &m.program_spans, "count");
    for (layer, samples) in &m.self_ms {
        report.median(&format!("self_ms.{layer}"), samples, "ms");
    }
    report
}
