//! `service-mixed`: an open loop of mixed queries against the service.
//!
//! Set-up generates `NJ` at a quarter of the run's scale divisor (50 by
//! default; see [`nj_scale`]), registers both relations in a
//! frozen `Catalog` (sorted run, packed R-tree, histogram) and starts a
//! `Service` with one worker per spare hardware thread under the 16 MB
//! shared budget `repro load` uses. The schedule is `repro load`'s mix from
//! `usj_bench::loadgen::generate_schedule` with Poisson arrivals at the
//! fixed [`OFFERED_RATE_HZ`]: 15 % joins rotating SJ/PQ/ST, window and
//! point selections over the roads, some with `LIMIT`, 3 % pre-cancelled.
//! The session ends with [`BURST_REQUESTS`] more requests of the same mix,
//! all due at once; the rate at which they complete is the capacity.
//!
//! A run makes several sessions, each on a fresh set-up with its own data
//! set and schedule, and reports the median of their figures. Every
//! completed request's pair count must equal the brute-force answer capped
//! by its `LIMIT`, pre-cancelled requests must end cancelled, and the last
//! session, which replays the first, must have the same `replay_digest`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use usj_bench::loadgen::{
    generate_schedule, ArrivalCurve, LoadSpec, RequestTemplate, TemplateKind,
};
use usj_datagen::{Preset, Workload, WorkloadSpec};
use usj_geom::Rect;
use usj_io::{MachineConfig, Page, SimEnv};
use usj_service::{
    CancelToken, Catalog, DatasetId, QueryRequest, QueryStatus, Service, ServiceConfig,
    ServiceReport,
};

use crate::layers;
use crate::openloop::{at, exec_us, resolve, us_between, wait_until, Latencies, Resolution, Work};
use crate::oracle::{join_digest, window_count};
use crate::report::{Report, Samples};
use crate::tracer::{fold_program_trace, program_ms, Tracer};
use crate::RunConfig;

/// Offered arrival rate of the Poisson phase, requests per second: a
/// quarter of the rate at which one worker drains the burst on the
/// reference host (see README.md).
pub const OFFERED_RATE_HZ: f64 = 500.0;

/// Requests of the closing burst.
pub const BURST_REQUESTS: usize = 1000;

/// The p99 latency limit; a failed or refused request counts as over it.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;

/// Shared admission budget (the `repro load` figure).
const MEMORY_LIMIT: usize = usj_bench::loadgen::LOAD_MEMORY_LIMIT;

/// Share of joins in the mix (the `repro load` figure).
const JOIN_FRACTION: f64 = 0.15;

/// Sessions of an untraced run. Each has its own data set and schedule,
/// generated from [`crate::variant_seed`], except the last, which replays
/// the first and must agree with it on `replay_digest`. A traced run makes
/// one untraced session and its traced replay.
const SESSIONS: usize = 12;

/// Set-ups timed before each session, in addition to the session's own;
/// `setup_s` is the median of all of them, spread over the run.
const EXTRA_SETUPS: usize = 2;

/// Length of the unmeasured warm-up session's Poisson phase, seconds.
const WARMUP_S: f64 = 0.5;

/// Salt that separates the burst's schedule stream from the Poisson one.
const BURST_SALT: u64 = 0x6275_7273_7421;

struct Setup {
    workload: Workload,
    service: Service,
    roads: DatasetId,
    hydro: DatasetId,
    /// The catalog's device pages, for direct R-tree calls.
    pages: Arc<Vec<Page>>,
}

/// Set-up times, milliseconds.
struct SetupTimes {
    total_ms: f64,
    generate_ms: f64,
}

/// The `NJ` scale divisor: a quarter of the run's. At the paper's 1/200
/// scale a join on `NJ` takes about 1 ms, and the p99 was set by the host's
/// scheduling stalls rather than by the service's queueing; at 1/50 joins
/// take about 4 ms and the p99 repeats from run to run.
fn nj_scale(cfg: &RunConfig) -> u64 {
    (cfg.scale / 4).max(1)
}

fn setup(scale: u64, seed: u64) -> (Setup, SetupTimes) {
    let start = Instant::now();
    let workload = WorkloadSpec::preset(Preset::NJ)
        .with_scale(scale)
        .generate(seed);
    let generate_ms = start.elapsed().as_secs_f64() * 1000.0;
    let mut env = SimEnv::new(MachineConfig::machine3());
    let mut catalog = Catalog::new();
    let (roads, hydro) = env.unaccounted(|env| {
        let roads = catalog
            .register(env, "roads", &workload.roads)
            .expect("register roads");
        let hydro = catalog
            .register(env, "hydro", &workload.hydro)
            .expect("register hydro");
        (roads, hydro)
    });
    let pages = env.device.snapshot();
    let service = Service::new(
        env,
        catalog,
        ServiceConfig::default()
            .with_workers(crate::service_workers())
            .with_memory_limit(MEMORY_LIMIT),
    );
    let times = SetupTimes {
        total_ms: start.elapsed().as_secs_f64() * 1000.0,
        generate_ms,
    };
    (
        Setup {
            workload,
            service,
            roads,
            hydro,
            pages,
        },
        times,
    )
}

/// The Poisson phase of `phase_s` seconds followed by the burst, all due
/// at the end of the phase.
fn schedule(scale: u64, seed: u64, region: Rect, phase_s: f64) -> (Vec<RequestTemplate>, usize) {
    let spec = LoadSpec {
        preset: Preset::NJ,
        scale,
        seed,
        requests: (OFFERED_RATE_HZ * phase_s) as usize,
        arrival_rate_hz: OFFERED_RATE_HZ,
        curve: ArrivalCurve::Uniform,
        worker_counts: vec![crate::service_workers()],
        join_fraction: JOIN_FRACTION,
    };
    let mut all = generate_schedule(&spec, region);
    let poisson = all.len();
    let phase_end_us = (phase_s * 1e6) as u64;
    let burst_spec = LoadSpec {
        seed: seed ^ BURST_SALT,
        requests: BURST_REQUESTS,
        ..spec
    };
    all.extend(
        generate_schedule(&burst_spec, region)
            .into_iter()
            .map(|mut t| {
                t.arrival_us = phase_end_us;
                t
            }),
    );
    (all, poisson)
}

fn instantiate(t: &RequestTemplate, roads: DatasetId, hydro: DatasetId) -> QueryRequest {
    let mut request = match &t.kind {
        TemplateKind::Join(algo) => QueryRequest::join(roads, hydro).with_algorithm(*algo),
        TemplateKind::Window(window) => QueryRequest::window(roads, *window),
        TemplateKind::Point(point) => QueryRequest::point(roads, *point),
    };
    request = request.with_priority(t.priority);
    if let Some(limit) = t.limit {
        request = request.with_limit(limit);
    }
    if t.cancelled {
        let token = CancelToken::new();
        token.cancel();
        request = request.with_cancel(token);
    }
    request
}

/// The brute-force answer of every scheduled request, capped by its limit.
fn expected_pairs(w: &Workload, schedule: &[RequestTemplate]) -> Vec<u64> {
    let join = join_digest(&w.roads, &w.hydro).count;
    schedule
        .iter()
        .map(|t| {
            let full = match &t.kind {
                TemplateKind::Join(_) => join,
                TemplateKind::Window(window) => window_count(&w.roads, window),
                TemplateKind::Point(p) => window_count(&w.roads, &Rect::point(*p)),
            };
            t.limit.map_or(full, |limit| full.min(limit))
        })
        .collect()
}

/// What one session measured.
#[derive(Default)]
struct Session {
    latencies: Latencies,
    capacity_rps: f64,
    /// Execution time of every completed request, µs.
    exec_total_us: f64,
    /// The program's accounting over the completed requests.
    work: Work,
    queue_wait_us: Samples,
    exec_us: BTreeMap<&'static str, Samples>,
    max_queue_depth: usize,
    deferrals_per_req: f64,
    plan_cache_hit_ratio: f64,
    replay_digest: u64,
    program_spans: Samples,
    self_ms: BTreeMap<&'static str, f64>,
}

fn kind_name(kind: &TemplateKind) -> &'static str {
    match kind {
        TemplateKind::Join(_) => "join",
        TemplateKind::Window(_) => "window",
        TemplateKind::Point(_) => "point",
    }
}

/// Drives one session of `schedule` on `s` and checks every answer.
fn session(
    s: &Setup,
    schedule: &[RequestTemplate],
    poisson: usize,
    expected: &[u64],
    traced: bool,
    report: &mut Report,
) -> Session {
    let tracer = Tracer::new(traced);
    s.service.set_tracing(traced);
    let mut out = Session::default();
    let start = Instant::now();
    let (sent, service_report): (Vec<Instant>, ServiceReport) =
        tracer.span("bench.session", || {
            s.service.with_session(|session| {
                let mut sent = Vec::with_capacity(schedule.len());
                for (i, t) in schedule.iter().enumerate() {
                    wait_until(at(start, t.arrival_us));
                    sent.push(Instant::now());
                    tracer.span("service.submit", || {
                        session.submit(instantiate(t, s.roads, s.hydro))
                    });
                    if i < poisson {
                        out.max_queue_depth = out.max_queue_depth.max(session.queue_depth());
                    }
                }
                sent
            })
        });
    let stats = &service_report.stats;
    out.replay_digest = stats.replay_digest();
    out.deferrals_per_req = stats.deferrals as f64 / stats.submitted.max(1) as f64;
    out.plan_cache_hit_ratio = stats.plan_cache_hits as f64
        / (stats.plan_cache_hits + stats.plan_cache_misses).max(1) as f64;

    let burst_due = at(start, schedule.get(poisson).map_or(0, |t| t.arrival_us));
    let mut burst_done = Samples::new();
    report.check(service_report.outcomes.len() == schedule.len(), || {
        format!(
            "{} outcomes for {} requests",
            service_report.outcomes.len(),
            schedule.len()
        )
    });
    for (i, outcome) in service_report.outcomes.iter().enumerate() {
        let t = &schedule[i];
        if t.cancelled {
            report.check(
                matches!(outcome.status, QueryStatus::Cancelled(None)),
                || format!("request {i}: pre-cancelled but ended {:?}", outcome.status),
            );
            continue;
        }
        let due = at(start, t.arrival_us);
        let done = sent[i] + outcome.stats.latency;
        match resolve(outcome) {
            Resolution::Completed(pairs) => {
                report.check(pairs == expected[i], || {
                    format!(
                        "request {i} ({:?}): {pairs} pairs, expected {}",
                        t.kind, expected[i]
                    )
                });
                out.exec_total_us += exec_us(outcome);
                if let Some(result) = outcome.result() {
                    out.work.add(result);
                }
                if i >= poisson {
                    burst_done.push(us_between(burst_due, done));
                }
            }
            Resolution::Failed(e) => report.note(format!("request {i} failed: {e}")),
            Resolution::Refused => {}
        }
        if i < poisson {
            out.latencies
                .record(due, sent[i], outcome, LATENCY_LIMIT_US);
            out.queue_wait_us
                .push(outcome.stats.queue_wait.as_secs_f64() * 1e6);
            out.exec_us
                .entry(kind_name(&t.kind))
                .or_default()
                .push(exec_us(outcome));
        } else {
            // A burst request's latency is the drain, not a response time.
            out.latencies.count(outcome);
        }
        if let Some(trace) = &outcome.stats.trace {
            out.program_spans.push(trace.span_count() as f64);
            fold_program_trace(trace, &mut out.self_ms);
        }
    }
    // The drain rate between the 10th and the 90th percentile completion,
    // which leaves out the ramp while the burst is still being submitted
    // and the last stragglers.
    let (first, last) = (burst_done.quantile(0.1), burst_done.quantile(0.9));
    out.capacity_rps = 0.8 * burst_done.len() as f64 / ((last - first) / 1e6).max(1e-9);
    for (layer, ms) in tracer.take_self_ms() {
        *out.self_ms.entry(layer).or_insert(0.0) += ms;
    }
    s.service.set_tracing(false);
    out
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let sessions = if cfg.trace { 2 } else { SESSIONS };
    let phase_s = cfg.seconds / sessions as f64;
    let (mut setup_s, mut generate_ms) = (Samples::new(), Samples::new());
    let mut results = Vec::new();
    {
        // An unmeasured warm-up session, so that the first measured one
        // does not pay for cold caches and lazy allocation.
        let (s, _) = setup(nj_scale(cfg), cfg.seed);
        let (schedule, poisson) = schedule(nj_scale(cfg), cfg.seed, s.workload.region, WARMUP_S);
        let expected = expected_pairs(&s.workload, &schedule);
        session(&s, &schedule, poisson, &expected, false, &mut report);
    }
    let mut last = None;
    for k in 0..sessions {
        // The last session replays the first one's data set and schedule;
        // the others each get their own.
        let variant = if k + 1 == sessions { 0 } else { k };
        let data_seed = crate::variant_seed(cfg.seed, variant);
        drop(last.take());
        for _ in 0..EXTRA_SETUPS {
            setup_s.push(setup(nj_scale(cfg), data_seed).1.total_ms / 1000.0);
        }
        let (s, times) = setup(nj_scale(cfg), data_seed);
        setup_s.push(times.total_ms / 1000.0);
        generate_ms.push(times.generate_ms);
        let (schedule, poisson) = schedule(nj_scale(cfg), data_seed, s.workload.region, phase_s);
        let expected = expected_pairs(&s.workload, &schedule);
        let traced = cfg.trace && k == 1;
        results.push(session(
            &s,
            &schedule,
            poisson,
            &expected,
            traced,
            &mut report,
        ));
        last = Some((s, schedule, poisson));
    }
    let (first, replay) = (
        results[0].replay_digest,
        results[sessions - 1].replay_digest,
    );
    report.check(first == replay, || {
        format!("replayed session: replay digest {replay}, first {first}")
    });
    let (s, schedule, poisson) = last.expect("at least one session");
    report.note(format!(
        "NJ scale {}: {} roads, {} hydro; {} workers; {} Poisson requests at {OFFERED_RATE_HZ} req/s \
         then a burst of {BURST_REQUESTS}; p99 limit {LATENCY_LIMIT_US} us",
        nj_scale(cfg),
        s.workload.roads.len(),
        s.workload.hydro.len(),
        crate::service_workers(),
        poisson,
    ));
    for (k, r) in results.iter().enumerate() {
        report.attempted += r.latencies.attempted;
        report.failed += r.latencies.failed + r.latencies.refused;
        report.note(format!(
            "session {k}: p50 {:.0} us, p99 {:.0} us, capacity {:.0}/s, exec {:.0} ms; \
             attempted {}, completed {}, failed {}, refused {}, pre-cancelled {}",
            r.latencies.from_due_us.quantile(0.50),
            r.latencies.from_due_us.quantile(0.99),
            r.capacity_rps,
            r.exec_total_us / 1000.0,
            r.latencies.attempted,
            r.latencies.attempted - r.latencies.failed - r.latencies.refused,
            r.latencies.failed,
            r.latencies.refused,
            schedule.iter().filter(|t| t.cancelled).count(),
        ));
    }
    if !cfg.trace {
        report.median("setup_s", &setup_s, "s");
        // Each session ran on its own data set; the median over sessions
        // lets every data set weigh in while a stall of the host spoils
        // one session, not the figure. The p99 is a detail line only: on
        // the reference host it moved with the host's speed by more than
        // any bound (see README.md).
        let session_median = |f: &dyn Fn(&Session) -> f64| results.iter().map(f).collect();
        report.median(
            "latency_ms",
            &session_median(&|r| r.latencies.from_due_us.quantile(0.50) / 1000.0),
            "ms",
        );
        let joins = Samples::pooled(results.iter().filter_map(|r| r.exec_us.get("join")));
        report.median(
            "join_ms",
            &joins.iter().map(|us| us / 1000.0).collect(),
            "ms",
        );
        report.median("charged_s", &session_median(&|r| r.work.charged_s), "s");
        report.median(
            "peak_bytes",
            &session_median(&|r| r.work.peak_bytes as f64),
            "B",
        );
        report.median(
            "req_p50_us",
            &session_median(&|r| r.latencies.from_due_us.quantile(0.50)),
            "us",
        );
        report.median(
            "req_p99_us",
            &session_median(&|r| r.latencies.from_due_us.quantile(0.99)),
            "us",
        );
        report.median("capacity_rps", &session_median(&|r| r.capacity_rps), "1/s");
        return report;
    }

    let (untraced, traced) = (&results[0], &results[1]);
    report.median("datagen.generate_ms", &generate_ms, "ms");
    // The catalog builds its trees inside `register`; the layers are timed
    // here on the same items.
    let (roads, hydro) = (&s.workload.roads, &s.workload.hydro);
    layers::bulk_load(roads, &mut report);
    layers::kernels(roads, hydro, join_digest(roads, hydro).count, &mut report);
    layers::extsort(roads, &mut report);

    // Window queries straight on the catalog's roads R-tree, on the
    // schedule's windows.
    let (_, dataset) = s
        .service
        .catalog()
        .lookup("roads")
        .expect("roads registered");
    let windows: Vec<Rect> = schedule
        .iter()
        .filter_map(|t| match &t.kind {
            TemplateKind::Window(window) => Some(*window),
            _ => None,
        })
        .collect();
    layers::windows(dataset.tree(), &s.pages, roads, &windows, &mut report);
    report.value("io.pages_read", untraced.work.pages_read as f64, "pages");
    report.value("core.cpu_ops", untraced.work.cpu_ops as f64, "count");

    report.value(
        "service.req_p99_us",
        untraced.latencies.from_due_us.quantile(0.99),
        "us",
    );
    report.value(
        "service.queue_wait_p50_us",
        untraced.queue_wait_us.quantile(0.50),
        "us",
    );
    report.value(
        "service.queue_wait_p99_us",
        untraced.queue_wait_us.quantile(0.99),
        "us",
    );
    for kind in ["join", "window", "point"] {
        let samples = untraced.exec_us.get(kind).cloned().unwrap_or_default();
        report.median(&format!("service.exec_us.{kind}"), &samples, "us");
    }
    report.value(
        "service.deferrals_per_req",
        untraced.deferrals_per_req,
        "ratio",
    );
    report.value(
        "service.plan_cache_hit_ratio",
        untraced.plan_cache_hit_ratio,
        "ratio",
    );
    report.value(
        "service.max_queue_depth",
        untraced.max_queue_depth as f64,
        "count",
    );
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
