//! `live-ingest`: writes beside reads on two live datasets.
//!
//! Set-up generates `DISK1` at the run's scale and registers its roads and
//! hydrography as two live datasets (`Service::register_live`), half of
//! each relation as the base, on a service with background maintenance on
//! and one query worker per spare hardware thread. The session is an open
//! loop on one schedule: `append_live` batches of the remaining items at
//! an even pace over the session, alternating the two datasets, and, also
//! evenly paced at [`QUERY_RATE_HZ`], live window queries on the roads and
//! streaming joins of the two datasets, most of them with `LIMIT`
//! [`FIRST_PAIRS`] (time to the first pairs), some unlimited. Even pacing
//! keeps the queueing behind the unlimited joins the same from run to run.
//!
//! Appends run on the generating thread and are timed call by call;
//! queries go through a service session and are timed from their due
//! instant. After the loop both datasets are quiesced; the streaming join
//! must then equal an offline SSSJ over all items, and each dataset's
//! `LiveStats::appended` must equal the items sent to it. Answers read
//! while items are still arriving must lie between the base-only and the
//! all-items answer.

use std::collections::BTreeMap;
use std::time::Instant;

use usj_core::{Algo, JoinInput, SpatialQuery};
use usj_datagen::rng::SmallRng;
use usj_datagen::{Preset, Workload, WorkloadSpec};
use usj_geom::{Item, Rect};
use usj_io::{ItemStream, MachineConfig, SimEnv};
use usj_service::{Catalog, LiveConfig, LiveId, QueryRequest, Service, ServiceConfig};

use crate::layers;
use crate::openloop::{at, exec_us, resolve, wait_until, Latencies, Resolution, Work};
use crate::oracle::{join_digest, window_count, PairDigest};
use crate::report::{Report, Samples};
use crate::tracer::{fold_program_trace, program_ms, Tracer};
use crate::RunConfig;

/// Items per `append_live` call.
pub const APPEND_BATCH: usize = 16;

/// Rate of the evenly paced query stream, requests per second.
pub const QUERY_RATE_HZ: f64 = 250.0;

/// The `LIMIT` of a time-to-first-pairs streaming join.
pub const FIRST_PAIRS: u64 = 1000;

/// The p99 latency limit of the queries: above the 10 ms of
/// `service-mixed`, because an unlimited streaming join of the whole data
/// set alone takes about 15 ms on the reference host.
pub const LATENCY_LIMIT_US: f64 = 50_000.0;

/// Memtable size that triggers a flush, and delta runs that trigger a
/// compaction.
const LIVE_CONFIG: LiveConfig = LiveConfig {
    flush_threshold_bytes: 32 * 1024,
    compact_after_deltas: 4,
};

/// Sessions of an untraced run; a traced run makes one untraced and one
/// traced session.
const SESSIONS: usize = 10;

/// Set-ups timed before each session, in addition to the session's own;
/// `setup_s` is the median of all of them, spread over the run.
const EXTRA_SETUPS: usize = 1;

/// Length of the unmeasured warm-up session, seconds.
const WARMUP_S: f64 = 0.5;

/// Salt that separates the query schedule's stream from the data's.
const SCHEDULE_SALT: u64 = 0x6c69_7665_2167;

/// One query of the schedule.
#[derive(Debug, Clone, Copy)]
enum Query {
    Window(Rect),
    FirstPairs,
    FullJoin,
}

impl Query {
    fn name(self) -> &'static str {
        match self {
            Query::Window(_) => "window",
            Query::FirstPairs => "first_pairs",
            Query::FullJoin => "full_join",
        }
    }
}

/// One scheduled operation: due offset (µs) and what to do.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append the `n`-th batch (even batches go to the roads).
    Append(usize),
    Query(Query),
}

/// The whole session's schedule, in due order.
fn schedule(seed: u64, region: Rect, batches: usize, session_s: f64) -> Vec<(u64, Op)> {
    let session_us = session_s * 1e6;
    let mut ops: Vec<(u64, Op)> = (0..batches)
        .map(|b| {
            (
                ((b as f64 + 0.5) * session_us / batches as f64) as u64,
                Op::Append(b),
            )
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ SCHEDULE_SALT);
    let queries = (session_s * QUERY_RATE_HZ) as usize;
    for i in 0..queries {
        let t = (i as f64 + 0.25) * 1e6 / QUERY_RATE_HZ;
        // The kinds rotate in exact shares: of every 20 queries, one
        // unlimited streaming join, three with `LIMIT`, sixteen windows.
        let query = match i % 20 {
            0 => Query::FullJoin,
            1..=3 => Query::FirstPairs,
            _ => {
                let w = region.width() * rng.gen_range_f32(0.02, 0.10);
                let h = region.height() * rng.gen_range_f32(0.02, 0.10);
                let x = region.lo.x + rng.gen_f32() * (region.width() - w);
                let y = region.lo.y + rng.gen_f32() * (region.height() - h);
                Query::Window(Rect::from_coords(x, y, x + w, y + h))
            }
        };
        ops.push((t as u64, Op::Query(query)));
    }
    ops.sort_by_key(|&(due, _)| due);
    ops
}

/// Reference answers: base-only and all-items.
struct Expected {
    join_base: u64,
    join_all: PairDigest,
}

struct Setup {
    service: Service,
    roads: LiveId,
    hydro: LiveId,
}

fn split(items: &[Item]) -> (&[Item], &[Item]) {
    items.split_at(items.len() / 2)
}

fn setup(w: &Workload) -> Setup {
    let service = Service::new(
        SimEnv::new(MachineConfig::machine3()),
        Catalog::new(),
        ServiceConfig::default()
            .with_workers(crate::service_workers())
            .with_background_maintenance(true),
    );
    let roads = service
        .register_live("roads", split(&w.roads).0, LIVE_CONFIG)
        .expect("register roads");
    let hydro = service
        .register_live("hydro", split(&w.hydro).0, LIVE_CONFIG)
        .expect("register hydro");
    Setup {
        service,
        roads,
        hydro,
    }
}

/// The appended batches: the second half of each relation, roads and
/// hydrography alternating.
fn batches(w: &Workload) -> Vec<(&'static str, &[Item])> {
    let roads = split(&w.roads).1.chunks(APPEND_BATCH).map(|c| ("roads", c));
    let hydro = split(&w.hydro).1.chunks(APPEND_BATCH).map(|c| ("hydro", c));
    let (mut roads, mut hydro) = (roads.peekable(), hydro.peekable());
    let mut out = Vec::new();
    while roads.peek().is_some() || hydro.peek().is_some() {
        out.extend(roads.next());
        out.extend(hydro.next());
    }
    out
}

/// What one session measured.
#[derive(Default)]
struct Session {
    latencies: Latencies,
    append_us: Samples,
    first_pairs_ms: Samples,
    stream_total_ms: Samples,
    exec_total_us: f64,
    /// The program's accounting over the completed queries.
    work: Work,
    /// The windows of the session's window queries.
    windows: Vec<Rect>,
    backlog_max: usize,
    flushes: u64,
    compactions: u64,
    write_amp: f64,
    program_spans: Samples,
    self_ms: BTreeMap<&'static str, f64>,
}

fn session(
    w: &Workload,
    s: &Setup,
    ops: &[(u64, Op)],
    expected: &Expected,
    traced: bool,
    report: &mut Report,
) -> Session {
    let tracer = Tracer::new(traced);
    s.service.set_tracing(traced);
    let batches = batches(w);
    let mut out = Session::default();
    let backlog = || {
        s.service.live_backlog("roads").unwrap_or(0) + s.service.live_backlog("hydro").unwrap_or(0)
    };
    let start = Instant::now();
    let (submitted, service_report) = tracer.span("bench.session", || {
        s.service.with_session(|session| {
            let mut submitted = Vec::new();
            for &(due_us, op) in ops {
                let due = at(start, due_us);
                wait_until(due);
                match op {
                    Op::Append(b) => {
                        let (name, items) = batches[b];
                        let t = Instant::now();
                        let result =
                            tracer.span("live.append", || s.service.append_live(name, items));
                        out.append_us.push(t.elapsed().as_secs_f64() * 1e6);
                        report.attempted += 1;
                        if let Err(e) = result {
                            report.failed += 1;
                            report.check(false, || format!("append to {name} failed: {e}"));
                        }
                    }
                    Op::Query(q) => {
                        let request = match q {
                            Query::Window(window) => QueryRequest::live_window(s.roads, window),
                            Query::FirstPairs => QueryRequest::streaming_join(s.roads, s.hydro)
                                .with_limit(FIRST_PAIRS),
                            Query::FullJoin => QueryRequest::streaming_join(s.roads, s.hydro),
                        };
                        let sent = Instant::now();
                        tracer.span("service.submit", || session.submit(request));
                        submitted.push((due, sent, q));
                    }
                }
                out.backlog_max = out.backlog_max.max(backlog());
            }
            submitted
        })
    });

    let (roads_base, roads_all) = (split(&w.roads).0, &w.roads[..]);
    for ((due, sent, q), outcome) in submitted.iter().zip(&service_report.outcomes) {
        out.latencies.record(*due, *sent, outcome, LATENCY_LIMIT_US);
        let Resolution::Completed(pairs) = resolve(outcome) else {
            report.note(format!(
                "{} query did not complete: {:?}",
                q.name(),
                outcome.status
            ));
            continue;
        };
        let exec = exec_us(outcome);
        out.exec_total_us += exec;
        if let Some(result) = outcome.result() {
            out.work.add(result);
        }
        let (lo, hi) = match q {
            Query::Window(window) => {
                out.windows.push(*window);
                (
                    window_count(roads_base, window),
                    window_count(roads_all, window),
                )
            }
            Query::FirstPairs => {
                out.first_pairs_ms.push(exec / 1000.0);
                let k = FIRST_PAIRS.min(expected.join_all.count);
                (k.min(expected.join_base), k)
            }
            Query::FullJoin => {
                out.stream_total_ms.push(exec / 1000.0);
                (expected.join_base, expected.join_all.count)
            }
        };
        report.check((lo..=hi).contains(&pairs), || {
            format!("{} query: {pairs} pairs, outside [{lo}, {hi}]", q.name())
        });
        if let Some(trace) = &outcome.stats.trace {
            out.program_spans.push(trace.span_count() as f64);
            fold_program_trace(trace, &mut out.self_ms);
        }
    }
    report.attempted += out.latencies.attempted;
    report.failed += out.latencies.failed + out.latencies.refused;
    for (layer, ms) in tracer.take_self_ms() {
        *out.self_ms.entry(layer).or_insert(0.0) += ms;
    }
    s.service.set_tracing(false);

    // Drained of maintenance, the datasets must hold exactly everything.
    for name in ["roads", "hydro"] {
        let result = s.service.quiesce_live(name);
        report.check(result.is_ok(), || format!("quiesce {name}: {result:?}"));
    }
    let final_join = s.service.run(vec![
        QueryRequest::streaming_join(s.roads, s.hydro).collecting()
    ]);
    let got = final_join.outcomes[0].pairs.as_deref().map(PairDigest::of);
    report.check(got == Some(expected.join_all), || {
        format!(
            "quiesced streaming join {got:?}, offline SSSJ {:?}",
            expected.join_all
        )
    });
    let (mut appended_items, mut written_items) = (0u64, 0u64);
    for (name, items) in [("roads", &w.roads), ("hydro", &w.hydro)] {
        let stats = s.service.live_stats(name).unwrap_or_default();
        let sent = split(items).1.len() as u64;
        report.check(stats.appended == sent, || {
            format!(
                "{name}: LiveStats.appended {} for {sent} items sent",
                stats.appended
            )
        });
        out.flushes += stats.flushes;
        out.compactions += stats.compactions;
        appended_items += stats.appended;
        written_items += stats.flushed_items + stats.compacted_items;
    }
    out.write_amp = written_items as f64 / appended_items.max(1) as f64;
    out
}

/// The offline SSSJ answer over `roads` ⋈ `hydro`.
fn offline_sssj(roads: &[Item], hydro: &[Item]) -> PairDigest {
    let mut env = SimEnv::new(MachineConfig::machine3());
    let (l, r) = env.unaccounted(|env| {
        (
            ItemStream::from_items(env, roads).expect("write roads"),
            ItemStream::from_items(env, hydro).expect("write hydro"),
        )
    });
    let mut digest = PairDigest::default();
    SpatialQuery::new(JoinInput::Stream(&l), JoinInput::Stream(&r))
        .algorithm(Algo::Sssj)
        .execute(&mut env, &mut digest)
        .expect("offline SSSJ");
    digest
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let sessions = if cfg.trace { 2 } else { SESSIONS };
    let session_s = cfg.seconds / sessions as f64;
    let (mut setup_s, mut generate_ms) = (Samples::new(), Samples::new());
    let mut results = Vec::new();
    let generate = |seed: u64, generate_ms: &mut Samples| {
        let t = Instant::now();
        let w = WorkloadSpec::preset(Preset::Disk1)
            .with_scale(cfg.scale)
            .generate(seed);
        generate_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        w
    };
    {
        // An unmeasured warm-up session, so that the first measured one
        // does not pay for cold caches and lazy allocation.
        let w = generate(cfg.seed, &mut Samples::new());
        let expected = Expected {
            join_base: join_digest(split(&w.roads).0, split(&w.hydro).0).count,
            join_all: offline_sssj(&w.roads, &w.hydro),
        };
        let ops = schedule(cfg.seed, w.region, batches(&w).len(), WARMUP_S);
        session(&w, &setup(&w), &ops, &expected, false, &mut report);
    }
    let mut last = None;
    for k in 0..sessions {
        // Untraced sessions each get their own data set; the traced run's
        // two sessions share one, so that they do the same work.
        let data_seed = crate::variant_seed(cfg.seed, if cfg.trace { 0 } else { k });
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let w = generate(data_seed, &mut generate_ms);
            drop(setup(&w));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let w = generate(data_seed, &mut generate_ms);
        let s = setup(&w);
        setup_s.push(t.elapsed().as_secs_f64());
        let ops = schedule(data_seed, w.region, batches(&w).len(), session_s);
        let (rb, hb) = (split(&w.roads).0, split(&w.hydro).0);
        let expected = Expected {
            join_base: join_digest(rb, hb).count,
            join_all: offline_sssj(&w.roads, &w.hydro),
        };
        report.check(expected.join_all == join_digest(&w.roads, &w.hydro), || {
            "offline SSSJ differs from the oracle sweep".to_string()
        });
        let traced = cfg.trace && k == 1;
        results.push(session(&w, &s, &ops, &expected, traced, &mut report));
        last = Some((w, ops));
    }
    let (w, ops) = last.expect("at least one session");
    let queries = ops
        .iter()
        .filter(|(_, op)| matches!(op, Op::Query(_)))
        .count();
    report.note(format!(
        "DISK1 scale {}: {} roads, {} hydro, half as base; {} appends of {APPEND_BATCH} items \
         evenly paced and {queries} queries at {QUERY_RATE_HZ} req/s in {session_s:.1} s (open \
         loop); {} workers + background maintenance; p99 limit {LATENCY_LIMIT_US} us",
        cfg.scale,
        w.roads.len(),
        w.hydro.len(),
        ops.len() - queries,
        crate::service_workers(),
    ));
    for (k, r) in results.iter().enumerate() {
        let l = &r.latencies;
        report.note(format!(
            "session {k}: p50 {:.0} us, p99 {:.0} us, append p99 {:.0} us, {} flushes, {} \
             compactions; queries attempted {}, completed {}, failed {}, refused {}; appends {}",
            l.from_due_us.quantile(0.50),
            l.from_due_us.quantile(0.99),
            r.append_us.quantile(0.99),
            r.flushes,
            r.compactions,
            l.attempted,
            l.attempted - l.failed - l.refused,
            l.failed,
            l.refused,
            r.append_us.len(),
        ));
    }
    if !cfg.trace {
        // Each session ran on its own data set; the latencies pool them
        // all, so that every data set weighs in.
        let latencies = Samples::pooled(results.iter().map(|r| &r.latencies.from_due_us));
        let session_median = |f: &dyn Fn(&Session) -> f64| results.iter().map(f).collect();
        report.median("setup_s", &setup_s, "s");
        report.value("latency_ms", latencies.quantile(0.50) / 1000.0, "ms");
        report.median(
            "join_ms",
            &Samples::pooled(results.iter().map(|r| &r.stream_total_ms)),
            "ms",
        );
        report.median("charged_s", &session_median(&|r| r.work.charged_s), "s");
        report.median(
            "peak_bytes",
            &session_median(&|r| r.work.peak_bytes as f64),
            "B",
        );
        report.quantile("req_p50_us", &latencies, 0.50, "us");
        report.quantile("req_p99_us", &latencies, 0.99, "us");
        report.quantile(
            "append_p99_us",
            &Samples::pooled(results.iter().map(|r| &r.append_us)),
            0.99,
            "us",
        );
        // Time to the first pairs falls in clusters by how many runs the
        // snapshot holds; the interquartile mean blends them smoothly.
        let first_pairs = Samples::pooled(results.iter().map(|r| &r.first_pairs_ms));
        report.interquartile_mean("first_pairs_ms", &first_pairs, "ms");
        return report;
    }

    let (untraced, traced) = (&results[0], &results[1]);
    report.median("datagen.generate_ms", &generate_ms, "ms");
    // The live datasets build their trees inside the service; the layers
    // are timed here on the same items.
    let (roads, hydro) = (&w.roads[..], &w.hydro[..]);
    let (tree, pages) = layers::bulk_load(split(roads).0, &mut report);
    layers::windows(
        &tree,
        &pages,
        split(roads).0,
        &untraced.windows,
        &mut report,
    );
    layers::kernels(roads, hydro, join_digest(roads, hydro).count, &mut report);
    layers::extsort(roads, &mut report);
    report.value("io.pages_read", untraced.work.pages_read as f64, "pages");
    report.value("core.cpu_ops", untraced.work.cpu_ops as f64, "count");
    report.value(
        "live.append_p50_us",
        untraced.append_us.quantile(0.50),
        "us",
    );
    report.value("live.flushes", untraced.flushes as f64, "count");
    report.value("live.compactions", untraced.compactions as f64, "count");
    report.value("live.write_amp", untraced.write_amp, "ratio");
    report.value("live.backlog_max", untraced.backlog_max as f64, "count");
    report.median("live.stream_total_ms", &untraced.stream_total_ms, "ms");
    report.value(
        "loadgen.lag_p99_us",
        untraced.latencies.lag_us.quantile(0.99),
        "us",
    );
    report.value(
        "obs.trace_overhead",
        traced.exec_total_us / untraced.exec_total_us.max(1e-9),
        "ratio",
    );
    report.median("obs.program_spans", &traced.program_spans, "count");
    for (layer, ms) in &traced.self_ms {
        report.value(&format!("self_ms.{layer}"), *ms, "ms");
    }
    report.value("self_ms.program", program_ms(&traced.self_ms), "ms");
    report
}
