//! Direct calls into single layers, on a workload's own data.
//!
//! Every workload's traced run reports the same per-layer metrics, so each
//! one times the sweep kernels, the external sort, the R-tree bulk load
//! and R-tree window queries straight on the relations it generated. The
//! calls are the layers' public functions; the answers are checked against
//! the benchmark's oracles.

use std::sync::Arc;
use std::time::Instant;

use usj_datagen::rng::SmallRng;
use usj_geom::{Item, Rect};
use usj_io::extsort::external_sort_by_lower_y;
use usj_io::{ItemStream, MachineConfig, Page, SimEnv};
use usj_rtree::RTree;
use usj_sweep::{sweep_join, ForwardSweep, StripedSweep, SweepJoinStats};

use crate::oracle::window_count;
use crate::report::{Report, Samples};

/// Memory limit of the external sort (the `join-batch` join limit).
const EXTSORT_LIMIT: usize = 4 * 1024 * 1024;

/// Repetitions of each timed call; metrics are their median.
const REPS: usize = 5;

/// The kernels repeat for at least this long, so that the millisecond
/// kernels of small data sets still give a steady median.
const KERNEL_MIN_S: f64 = 0.2;

/// At most this many kernel repetitions.
const KERNEL_MAX_REPS: usize = 100;

/// Salt that separates the probe windows' stream from the data's.
const WINDOW_SALT: u64 = 0x7769_6e64_6f77;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// The pairs-per-rectangle-test ratio of a kernel run.
fn pairs_per_test(stats: SweepJoinStats) -> f64 {
    stats.pairs as f64 / stats.rect_tests.max(1) as f64
}

/// Times both sweep kernels alone on presorted copies of `left` and
/// `right`, at least [`REPS`] times and for at least [`KERNEL_MIN_S`], and
/// records `sweep.striped_ms`, `sweep.forward_ms` and their
/// pairs per rectangle test. Both must find `expected` pairs.
pub fn kernels(left: &[Item], right: &[Item], expected: u64, report: &mut Report) {
    let (mut left, mut right) = (left.to_vec(), right.to_vec());
    usj_geom::sort_by_lower_y(&mut left);
    usj_geom::sort_by_lower_y(&mut right);
    let (mut striped_ms, mut forward_ms) = (Samples::new(), Samples::new());
    let mut stats = None;
    let start = Instant::now();
    while striped_ms.len() < REPS
        || (striped_ms.len() < KERNEL_MAX_REPS && start.elapsed().as_secs_f64() < KERNEL_MIN_S)
    {
        let t = Instant::now();
        let striped = sweep_join::<StripedSweep, _>(&left, &right, |_, _| {});
        striped_ms.push(ms_since(t));
        let t = Instant::now();
        let forward = sweep_join::<ForwardSweep, _>(&left, &right, |_, _| {});
        forward_ms.push(ms_since(t));
        report.check(
            striped.pairs == expected && forward.pairs == expected,
            || {
                format!(
                    "kernels: striped {} / forward {} pairs, oracle {expected}",
                    striped.pairs, forward.pairs
                )
            },
        );
        stats = Some((striped, forward));
    }
    report.median("sweep.striped_ms", &striped_ms, "ms");
    report.median("sweep.forward_ms", &forward_ms, "ms");
    if let Some((striped, forward)) = stats {
        report.value(
            "sweep.pairs_per_test.striped",
            pairs_per_test(striped),
            "ratio",
        );
        report.value(
            "sweep.pairs_per_test.forward",
            pairs_per_test(forward),
            "ratio",
        );
    }
}

/// Times `external_sort_by_lower_y` of `items`, written as a flat stream,
/// under the 4 MB limit, and records `io.extsort_ms`.
pub fn extsort(items: &[Item], report: &mut Report) {
    let mut base = SimEnv::new(MachineConfig::machine3());
    let stream = base.unaccounted(|env| ItemStream::from_items(env, items).expect("write items"));
    let pages = base.device.snapshot();
    let mut sort_ms = Samples::new();
    for _ in 0..REPS {
        let mut env = base.fork_with_base(Arc::clone(&pages));
        env.set_memory_limit(EXTSORT_LIMIT);
        let t = Instant::now();
        let sorted = external_sort_by_lower_y(&mut env, &stream);
        sort_ms.push(ms_since(t));
        report.check(matches!(&sorted, Ok(s) if s.len() == stream.len()), || {
            "external sort lost or failed on items".to_string()
        });
    }
    report.median("io.extsort_ms", &sort_ms, "ms");
}

/// Times `RTree::bulk_load` of `items` and records `rtree.bulk_load_ms`;
/// returns the last tree with its device pages.
pub fn bulk_load(items: &[Item], report: &mut Report) -> (RTree, Arc<Vec<Page>>) {
    let mut bulk_ms = Samples::new();
    let mut last = None;
    for _ in 0..REPS {
        let mut env = SimEnv::new(MachineConfig::machine3());
        let t = Instant::now();
        let tree = RTree::bulk_load(&mut env, items).expect("bulk-load");
        bulk_ms.push(ms_since(t));
        report.check(tree.num_items() as usize == items.len(), || {
            "bulk load lost items".into()
        });
        last = Some((tree, env));
    }
    report.median("rtree.bulk_load_ms", &bulk_ms, "ms");
    let (tree, env) = last.expect("at least one bulk load");
    (tree, env.device.snapshot())
}

/// `n` windows over `region`, each 2 to 10 % of its width and height, the
/// sizes of the service workloads' window selections.
pub fn random_windows(seed: u64, region: Rect, n: usize) -> Vec<Rect> {
    let mut rng = SmallRng::seed_from_u64(seed ^ WINDOW_SALT);
    (0..n)
        .map(|_| {
            let w = region.width() * rng.gen_range_f32(0.02, 0.10);
            let h = region.height() * rng.gen_range_f32(0.02, 0.10);
            let x = region.lo.x + rng.gen_f32() * (region.width() - w);
            let y = region.lo.y + rng.gen_f32() * (region.height() - h);
            Rect::from_coords(x, y, x + w, y + h)
        })
        .collect()
}

/// Calls `RTree::window_query` on `tree`, which holds `items` on a device
/// whose pages are `pages`, for every window, and records
/// `rtree.window_us` (median) and `rtree.nodes_per_window` (pages read
/// per query). Every answer must equal the brute-force count.
pub fn windows(
    tree: &RTree,
    pages: &Arc<Vec<Page>>,
    items: &[Item],
    windows: &[Rect],
    report: &mut Report,
) {
    let mut env = SimEnv::new(MachineConfig::machine3()).fork_with_base(Arc::clone(pages));
    let (mut window_us, mut read) = (Samples::new(), 0u64);
    for window in windows {
        let before = env.device.stats().pages_read;
        let start = Instant::now();
        let hits = tree.window_query(&mut env, window).expect("window query");
        window_us.push(start.elapsed().as_secs_f64() * 1e6);
        read += env.device.stats().pages_read - before;
        report.check(hits.len() as u64 == window_count(items, window), || {
            "direct window query: wrong items".into()
        });
    }
    report.median("rtree.window_us", &window_us, "us");
    report.value(
        "rtree.nodes_per_window",
        read as f64 / window_us.len().max(1) as f64,
        "pages",
    );
}
