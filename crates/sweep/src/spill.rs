//! The memory-governed plane sweep over two y-sorted inputs.
//!
//! [`merge_sweep`] is the one two-input sweep that SSSJ, PQ and the
//! streaming join run. It merges two pull-based inputs by lower y-coordinate
//! and feeds each item to a driver that, unlike the in-memory
//! [`SweepDriver`](crate::SweepDriver), enforces the memory-governor budget.
//! `SweepDriver` is fine for the paper's real-life workloads, where Table 3
//! shows the sweep state staying far below 1 % of the data, but it silently
//! overruns the budget on adversarial inputs (many long-lived rectangles
//! alive at the same sweep position). Here:
//!
//! 1. The in-memory structures register their bytes with the environment's
//!    [`MemoryGauge`](usj_io::MemoryGauge).
//! 2. When they outgrow the budget, the driver *evicts* the resident items
//!    the sweep line will expire soonest (their fix-up window is the
//!    shortest) and writes them to a **spill batch** on the simulated
//!    device — sequential writes, charged like any other I/O.
//! 3. While any batch is live, every arriving item is also appended to a
//!    shared **shadow log**. Once the sweep line has passed every spilled
//!    item (the *epoch* ends), each batch is read back and joined against
//!    the portion of the log that arrived after its eviction — exactly the
//!    intersections the in-memory sweep could no longer see.
//!
//! Each missed pair is recovered exactly once: a pair `(s, z)` with `s`
//! spilled and `z` arriving later is reported by the unique batch holding
//! `s`, against the log suffix starting at `s`'s eviction; partners that
//! arrived *before* the eviction were already reported by the in-memory
//! probe and fall outside that suffix. The reported pair *set* is therefore
//! identical to the all-in-memory driver's; only the order of the fix-up
//! pairs differs (they surface when their epoch closes). Spill volume and
//! episode counts are reported through
//! [`SweepJoinStats::spilled_items`]/[`spill_runs`](SweepJoinStats::spill_runs).
//!
//! Once one input is exhausted, the other side's residents can never be
//! probed again: they are dropped, and that side's later arrivals probe
//! without being inserted. A streaming join whose inputs end at different
//! heights keeps its residency down this way.

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::ControlFlow;

use usj_geom::Item;
use usj_io::{
    CpuOp, IoSimError, ItemStream, ItemStreamWriter, MemoryReservation, Result, SimEnv,
};

use crate::driver::{Side, SweepJoinStats};
use crate::structure::SweepStructure;
use crate::StripedSweep;

/// Smallest in-memory budget the driver will operate with, even when the
/// gauge headroom is lower (a handful of pages; below this the simulation
/// degenerates into one spill per item).
const MIN_SWEEP_BUDGET: usize = 4096;

/// Logical block size (in pages) of the spill batches and the shadow log.
/// Small on purpose: the writers' block buffers are themselves charged to
/// the gauge.
const SPILL_PAGES_PER_BLOCK: u64 = 1;

/// Joins two inputs sorted by ascending lower y-coordinate in one
/// memory-governed plane sweep over the x-extent `[x_lo, x_hi]`, reporting
/// every intersecting pair as `(left_item, right_item)`.
///
/// `left` and `right` pull the next item of their input, `None` once it is
/// exhausted; neither is called again after returning `None`. The sweep
/// advances whichever head has the smaller lower y (left on ties, one
/// [`CpuOp::Compare`] charged per choice between two heads). The in-memory
/// budget is half the gauge's headroom when the sweep starts, before the
/// first pull; the rest of the headroom is left for the fix-up working
/// sets, the shadow-log buffers and the inputs' own buffers.
///
/// A [`ControlFlow::Break`] from `report` stops the join after the current
/// push and its input's next pull: no further pair is reported, and any
/// pending spill batches are discarded without being read back. Otherwise
/// the final fix-up reports the pairs of the last spill epoch before the
/// function returns. Both happen inside a `sweep.fixup` span.
///
/// The returned statistics leave [`SweepJoinStats::pairs`] at zero: the
/// caller counts the pairs it keeps.
pub fn merge_sweep<E, L, R, F>(
    env: &mut SimEnv,
    x_lo: f32,
    x_hi: f32,
    mut left: L,
    mut right: R,
    mut report: F,
) -> std::result::Result<SweepJoinStats, E>
where
    E: From<IoSimError>,
    L: FnMut(&mut SimEnv) -> std::result::Result<Option<Item>, E>,
    R: FnMut(&mut SimEnv) -> std::result::Result<Option<Item>, E>,
    F: FnMut(&Item, &Item) -> ControlFlow<()>,
{
    let mut driver = SpillingSweepDriver::new(env, x_lo, x_hi);
    let stopped = Cell::new(false);
    let mut emit = |a: &Item, b: &Item| {
        if !stopped.get() && report(a, b).is_break() {
            stopped.set(true);
        }
    };
    let mut lnext = left(env)?;
    if lnext.is_none() {
        driver.close(Side::Left);
    }
    let mut rnext = right(env)?;
    if rnext.is_none() {
        driver.close(Side::Right);
    }
    while !stopped.get() {
        let side = match (&lnext, &rnext) {
            (Some(a), Some(b)) => {
                env.charge(CpuOp::Compare, 1);
                if a.cmp_by_lower_y(b) != Ordering::Greater {
                    Side::Left
                } else {
                    Side::Right
                }
            }
            (Some(_), None) => Side::Left,
            (None, Some(_)) => Side::Right,
            (None, None) => break,
        };
        let item = match side {
            Side::Left => lnext.take(),
            Side::Right => rnext.take(),
        };
        driver.push(env, side, item.expect("the chosen side has a head"), &mut emit)?;
        let head = match side {
            Side::Left => {
                lnext = left(env)?;
                &lnext
            }
            Side::Right => {
                rnext = right(env)?;
                &rnext
            }
        };
        if head.is_none() {
            driver.close(side);
        }
    }
    let fixup = env.obs_phase("sweep.fixup");
    let stats = if stopped.get() {
        driver.discard()
    } else {
        driver.finish(env, &mut emit)?
    };
    env.obs_close(fixup);
    Ok(stats)
}

/// One eviction: the spilled items of both sides, plus where in the shared
/// shadow log the post-eviction arrivals begin.
#[derive(Debug)]
struct SpillBatch {
    left: ItemStream,
    right: ItemStream,
    log_left_start: u64,
    log_right_start: u64,
}

/// The live spill state: open batches and the shared shadow log of every
/// arrival since the first of them. Ends (and is fixed up) once the sweep
/// line passes `max_y`.
#[derive(Debug)]
struct SpillEpoch {
    batches: Vec<SpillBatch>,
    log_left: ItemStreamWriter,
    log_right: ItemStreamWriter,
    log_left_n: u64,
    log_right_n: u64,
    /// Largest upper y-coordinate among all spilled items of the epoch.
    max_y: f32,
}

impl SpillEpoch {
    /// An empty epoch with fresh shadow logs.
    fn new(env: &mut SimEnv) -> Self {
        SpillEpoch {
            batches: Vec::new(),
            log_left: ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK),
            log_right: ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK),
            log_left_n: 0,
            log_right_n: 0,
            max_y: f32::NEG_INFINITY,
        }
    }

    /// Shadow-logs one arrival on `side`.
    fn log(&mut self, env: &mut SimEnv, side: Side, item: Item) -> Result<()> {
        match side {
            Side::Left => {
                self.log_left.push(env, item)?;
                self.log_left_n += 1;
            }
            Side::Right => {
                self.log_right.push(env, item)?;
                self.log_right_n += 1;
            }
        }
        Ok(())
    }
}

/// Joins one spilled batch side against the shadow-log entries that arrived
/// after its eviction, returning the number of rectangle tests performed.
///
/// The batch is read back in memory-governed chunks and the log suffix is
/// streamed past each chunk. Chunking matters: an "evict everything" batch
/// can approach the whole budget, and at epoch-close time the live
/// structures may hold the budget again — reserving the full batch could
/// spuriously exceed the limit, while a chunk of the *current* headroom
/// always fits. The log reader starts directly at the batch's suffix, so
/// pre-eviction blocks are never re-read (they were probed in memory;
/// re-reporting them would duplicate pairs).
fn join_batch_against_log<F: FnMut(&Item, &Item)>(
    env: &mut SimEnv,
    spilled: &ItemStream,
    log: &ItemStream,
    log_start: u64,
    spilled_side: Side,
    report: &mut F,
) -> Result<u64> {
    if spilled.is_empty() || log.len() <= log_start {
        return Ok(0);
    }
    let mut rect_tests = 0u64;
    let chunk_bytes = (env.memory.headroom() / 2)
        .max(MIN_SWEEP_BUDGET)
        .min(spilled.data_bytes() as usize);
    let chunk_items = (chunk_bytes / usj_geom::ITEM_BYTES).max(1);
    let mut claim = env.memory.try_reserve(chunk_items * usj_geom::ITEM_BYTES)?;
    let mut spilled_reader = spilled.reader();
    loop {
        let mut chunk = Vec::with_capacity(chunk_items);
        while chunk.len() < chunk_items {
            match spilled_reader.next(env)? {
                Some(s) => chunk.push(s),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        let mut reader = log.reader_from(log_start);
        while let Some(z) = reader.next(env)? {
            for s in &chunk {
                rect_tests += 1;
                if s.rect.intersects(&z.rect) {
                    match spilled_side {
                        Side::Left => report(s, &z),
                        Side::Right => report(&z, s),
                    }
                }
            }
        }
    }
    claim.release();
    Ok(rect_tests)
}

/// The push side of [`merge_sweep`]: both resident sets, the budget and
/// the spill state.
#[derive(Debug)]
struct SpillingSweepDriver {
    left: StripedSweep,
    right: StripedSweep,
    stats: SweepJoinStats,
    last_y: f32,
    budget: usize,
    reservation: MemoryReservation,
    epoch: Option<SpillEpoch>,
    fixup_rect_tests: u64,
    /// One input is exhausted: every later arrival comes from the other
    /// input, and nothing can probe it once it is resident.
    probe_only: bool,
    /// Reusable eviction buffers: [`StripedSweep::evict_until`] appends into
    /// them, so repeated spill episodes stop allocating fresh vectors.
    evict_left: Vec<Item>,
    evict_right: Vec<Item>,
    /// Reusable scratch for [`StripedSweep::resident_expiries`].
    expiry_scratch: Vec<f32>,
}

impl SpillingSweepDriver {
    /// Creates a driver whose structures cover the x-extent `[x_lo, x_hi]`,
    /// with half the gauge's current headroom (floored at
    /// [`MIN_SWEEP_BUDGET`]) as its in-memory budget.
    fn new(env: &SimEnv, x_lo: f32, x_hi: f32) -> Self {
        let budget = (env.memory.headroom() / 2).max(MIN_SWEEP_BUDGET);
        SpillingSweepDriver {
            left: StripedSweep::with_extent(x_lo, x_hi),
            right: StripedSweep::with_extent(x_lo, x_hi),
            stats: SweepJoinStats::default(),
            last_y: f32::NEG_INFINITY,
            budget,
            reservation: env.memory.reserve_empty(),
            epoch: None,
            fixup_rect_tests: 0,
            probe_only: false,
            evict_left: Vec::new(),
            evict_right: Vec::new(),
            expiry_scratch: Vec::new(),
        }
    }

    /// Declares input `side` exhausted: the other side's residents are
    /// dropped, and its later arrivals are probed but not inserted.
    fn close(&mut self, side: Side) {
        self.probe_only = true;
        let dropped = match side {
            Side::Left => self.right.expire_before(f32::INFINITY),
            Side::Right => self.left.expire_before(f32::INFINITY),
        };
        mark_expired(dropped);
    }

    /// Advances the sweep line to `item.rect.lo.y` and processes `item` from
    /// input `side`, reporting every join partner as `(left_item,
    /// right_item)`. Items must be pushed in ascending lower-y order across
    /// both sides (asserted in debug builds).
    ///
    /// Fix-up pairs of a spill epoch the sweep line has passed are reported
    /// through the same callback before the new item is processed.
    fn push<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        side: Side,
        item: Item,
        mut report: F,
    ) -> Result<()> {
        let y = item.rect.lo.y;
        debug_assert!(
            y >= self.last_y,
            "sweep inputs must be pushed in ascending lower-y order"
        );
        self.last_y = y;

        // Close the epoch once every spilled item has expired.
        if self.epoch.as_ref().is_some_and(|e| e.max_y < y) {
            let epoch = self.epoch.take().expect("checked above");
            self.fixup_epoch(env, epoch, &mut report)?;
        }

        mark_expired(self.left.expire_before(y) + self.right.expire_before(y));

        // Shadow-log the arrival: its pairs with already-spilled items can
        // only be discovered at fix-up time.
        if let Some(epoch) = &mut self.epoch {
            epoch.log(env, side, item)?;
        }

        match side {
            Side::Left => {
                self.right.query(&item, |other| report(&item, other));
                if !self.probe_only {
                    self.left.insert(item);
                }
                self.stats.left_items += 1;
            }
            Side::Right => {
                self.left.query(&item, |other| report(other, &item));
                if !self.probe_only {
                    self.right.insert(item);
                }
                self.stats.right_items += 1;
            }
        }
        self.note_sizes();

        if self.left.bytes() + self.right.bytes() > self.budget {
            self.spill(env)?;
        }
        self.reservation
            .try_set(self.left.bytes() + self.right.bytes())?;
        Ok(())
    }

    fn note_sizes(&mut self) {
        let bytes = self.left.bytes() + self.right.bytes();
        let resident = self.left.len() + self.right.len();
        self.stats.max_structure_bytes = self.stats.max_structure_bytes.max(bytes);
        self.stats.max_resident = self.stats.max_resident.max(resident);
    }

    /// Evicts the soonest-to-expire resident items until the in-memory state
    /// is at most half the budget, writing them to a new spill batch.
    fn spill(&mut self, env: &mut SimEnv) -> Result<()> {
        self.expiry_scratch.clear();
        self.left.resident_expiries(&mut self.expiry_scratch);
        self.right.resident_expiries(&mut self.expiry_scratch);
        if self.expiry_scratch.is_empty() {
            return Ok(());
        }
        let mid = self.expiry_scratch.len() / 2;
        self.expiry_scratch.select_nth_unstable_by(mid, f32::total_cmp);
        let cut = self.expiry_scratch[mid];

        self.evict_left.clear();
        self.evict_right.clear();
        self.left.evict_until(cut, &mut self.evict_left);
        self.right.evict_until(cut, &mut self.evict_right);
        if self.left.bytes() + self.right.bytes() > self.budget / 2 {
            // Median eviction was not enough (heavily duplicated expiries or
            // strip-spanning copies): evict everything. `evict_until` appends
            // to the reusable buffers, so no extra vector changes hands.
            self.left.evict_until(f32::INFINITY, &mut self.evict_left);
            self.right.evict_until(f32::INFINITY, &mut self.evict_right);
        }
        if self.evict_left.is_empty() && self.evict_right.is_empty() {
            return Ok(());
        }

        let mut batch_max_y = f32::NEG_INFINITY;
        for it in self.evict_left.iter().chain(self.evict_right.iter()) {
            batch_max_y = batch_max_y.max(it.rect.hi.y);
        }
        let mut wl = ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK);
        for it in &self.evict_left {
            wl.push(env, *it)?;
        }
        let left = wl.finish(env)?;
        let mut wr = ItemStreamWriter::new(env, SPILL_PAGES_PER_BLOCK);
        for it in &self.evict_right {
            wr.push(env, *it)?;
        }
        let right = wr.finish(env)?;

        self.stats.spilled_items += (self.evict_left.len() + self.evict_right.len()) as u64;
        self.stats.spill_runs += 1;
        usj_obs::instant(
            "sweep.spill",
            (self.evict_left.len() + self.evict_right.len()) as u64,
        );

        let epoch = match &mut self.epoch {
            Some(e) => e,
            None => self.epoch.insert(SpillEpoch::new(env)),
        };
        epoch.max_y = epoch.max_y.max(batch_max_y);
        epoch.batches.push(SpillBatch {
            left,
            right,
            log_left_start: epoch.log_left_n,
            log_right_start: epoch.log_right_n,
        });
        Ok(())
    }

    /// Joins every batch of a closed epoch against its shadow-log suffix.
    fn fixup_epoch<F: FnMut(&Item, &Item)>(
        &mut self,
        env: &mut SimEnv,
        epoch: SpillEpoch,
        report: &mut F,
    ) -> Result<()> {
        usj_obs::instant("sweep.fixup_epoch", epoch.batches.len() as u64);
        let log_left = epoch.log_left.finish(env)?;
        let log_right = epoch.log_right.finish(env)?;
        for batch in epoch.batches {
            self.fixup_rect_tests += join_batch_against_log(
                env,
                &batch.left,
                &log_right,
                batch.log_right_start,
                Side::Left,
                report,
            )?;
            self.fixup_rect_tests += join_batch_against_log(
                env,
                &batch.right,
                &log_left,
                batch.log_left_start,
                Side::Right,
                report,
            )?;
        }
        Ok(())
    }

    /// Fixes up any remaining spill epoch (reporting its pairs) and returns
    /// the final statistics.
    fn finish<F: FnMut(&Item, &Item)>(
        mut self,
        env: &mut SimEnv,
        mut report: F,
    ) -> Result<SweepJoinStats> {
        if let Some(epoch) = self.epoch.take() {
            self.fixup_epoch(env, epoch, &mut report)?;
        }
        Ok(self.stats_snapshot())
    }

    /// Abandons any pending spill state *without* reading it back — the
    /// early-termination path (a stopped sink does not want more pairs, so
    /// the fix-up I/O is saved).
    fn discard(self) -> SweepJoinStats {
        self.stats_snapshot()
    }

    fn stats_snapshot(&self) -> SweepJoinStats {
        let mut stats = self.stats;
        stats.rect_tests =
            self.left.stats().rect_tests + self.right.stats().rect_tests + self.fixup_rect_tests;
        stats
    }
}

/// Marks `n` expired residents in the trace.
fn mark_expired(n: usize) {
    if n > 0 {
        usj_obs::instant("sweep.expire", n as u64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use usj_geom::Rect;
    use usj_io::MachineConfig;

    pub(crate) fn item(x0: f32, y0: f32, x1: f32, y1: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x0, y0, x1, y1), id)
    }

    pub(crate) fn env_with_memory(bytes: usize) -> SimEnv {
        SimEnv::new(MachineConfig::machine3()).with_memory_limit(bytes)
    }

    /// Dense long-lived rectangles: many are alive at once, so a small
    /// budget must spill. `dy` lifts the whole input.
    pub(crate) fn long_lived(n: u32, id_base: u32, dy: f32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f32;
                let y = dy + i as f32 * 0.01;
                item(x, y, x + 3.0, y + 50.0, id_base + i)
            })
            .collect()
    }

    /// Short-lived rectangles whose y-ranges barely overlap their
    /// neighbours': two such inputs advance in lockstep.
    fn short_lived(n: u32, id_base: u32) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 29) as f32, i as f32 * 0.1);
                item(x, y, x + 1.5, y + 0.3, id_base + i)
            })
            .collect()
    }

    pub(crate) fn brute(left: &[Item], right: &[Item]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for a in left {
            for b in right {
                if a.rect.intersects(&b.rect) {
                    out.push((a.id, b.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// A pull closure over a sorted copy of `items`.
    pub(crate) fn puller(items: &[Item]) -> impl FnMut(&mut SimEnv) -> Result<Option<Item>> {
        let mut sorted = items.to_vec();
        sorted.sort_unstable_by(Item::cmp_by_lower_y);
        let mut it = sorted.into_iter();
        move |_| Ok(it.next())
    }

    /// Sweeps `left` against `right` until `stop` accepts a reported pair,
    /// and returns the reported pairs sorted, asserting that none was
    /// reported twice.
    pub(crate) fn run_until(
        env: &mut SimEnv,
        left: &[Item],
        right: &[Item],
        stop: impl Fn(&Item, &Item) -> bool,
    ) -> (Vec<(u32, u32)>, SweepJoinStats) {
        let mut out = Vec::new();
        let stats = merge_sweep(env, 0.0, 64.0, puller(left), puller(right), |a, b| {
            out.push((a.id, b.id));
            if stop(a, b) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        let n = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), n, "a pair was reported twice");
        (out, stats)
    }

    pub(crate) fn run_spilling(
        env: &mut SimEnv,
        left: &[Item],
        right: &[Item],
    ) -> (Vec<(u32, u32)>, SweepJoinStats) {
        run_until(env, left, right, |_, _| false)
    }

    #[test]
    fn no_spill_when_the_budget_is_ample() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = long_lived(200, 0, 0.0);
        let right = long_lived(200, 10_000, 0.0);
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert_eq!(stats.spill_runs, 0);
        assert_eq!(stats.spilled_items, 0);
    }

    #[test]
    fn spilling_reports_the_exact_pair_set_and_charges_io() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(700, 0, 0.0);
        let right = long_lived(700, 10_000, 0.0);
        let m = env.begin();
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        let (io, _) = env.since(&m);
        assert_eq!(pairs, brute(&left, &right));
        assert!(stats.spill_runs > 0, "a 32 KB budget must spill: {stats:?}");
        assert!(stats.spilled_items > 0);
        assert!(io.pages_written > 0, "spill batches are written to the device");
        assert!(io.pages_read > 0, "fix-ups read the spilled items back");
        // The in-memory state stayed near the budget. A single push may
        // overshoot before the spill reacts, and that push may additionally
        // trigger a strip-layout retune (more strips -> more copies of wide
        // items plus per-strip overhead), so allow one block of slack.
        assert!(stats.max_structure_bytes <= 32 * 1024 + 8192, "{stats:?}");
    }

    #[test]
    fn spill_pairs_are_reported_exactly_once() {
        // `run_spilling` asserts that the raw report sequence is already
        // duplicate-free across the in-memory and fix-up paths, for inputs
        // that interleave, run one after the other, or advance in lockstep.
        let inputs = [
            (long_lived(500, 0, 0.0), long_lived(500, 10_000, 0.0), true),
            (long_lived(900, 0, 0.0), long_lived(900, 10_000, 20.0), true),
            (short_lived(2_000, 0), short_lived(2_000, 100_000), false),
        ];
        for (left, right, spills) in &inputs {
            let mut env = env_with_memory(64 * 1024);
            let (pairs, stats) = run_spilling(&mut env, left, right);
            assert_eq!(pairs, brute(left, right));
            assert_eq!(stats.spill_runs > 0, *spills, "{stats:?}");
        }
    }

    #[test]
    fn lockstep_short_lived_inputs_keep_the_resident_set_small() {
        let mut env = env_with_memory(16 * 1024 * 1024);
        let left = short_lived(2_000, 0);
        let right = short_lived(2_000, 100_000);
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs, brute(&left, &right));
        assert!(
            stats.max_resident < 200,
            "lockstep inputs must expire promptly: {stats:?}"
        );
    }

    #[test]
    fn memory_gauge_never_exceeds_the_limit_while_spilling() {
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(800, 0, 0.0);
        let right = long_lived(800, 10_000, 0.0);
        env.memory.begin_phase();
        let (pairs, stats) = run_spilling(&mut env, &left, &right);
        assert_eq!(pairs.len(), brute(&left, &right).len());
        assert!(stats.spill_runs > 0);
        assert!(
            env.memory.peak() <= env.memory_limit,
            "peak {} exceeds limit {}",
            env.memory.peak(),
            env.memory_limit
        );
    }

    #[test]
    fn discard_skips_the_fixup_io() {
        // The items live until long after the last arrival, so the spill
        // epoch stays open to the end and every fix-up read would come from
        // the final fix-up. The sink stops at the first pair of one of the
        // last ten left items, which the in-memory probe reports.
        let mut env = env_with_memory(64 * 1024);
        let left = long_lived(500, 0, 0.0);
        let right = long_lived(500, 10_000, 0.0);
        let m = env.begin();
        let (pairs, stats) = run_until(&mut env, &left, &right, |a, _| a.id >= 490);
        let (io, _) = env.since(&m);
        assert!(pairs.len() < brute(&left, &right).len());
        assert!(stats.spill_runs > 0);
        assert!(io.pages_written > 0, "the spill batches were written");
        assert_eq!(io.pages_read, 0, "a stopped sweep must not read the batches back");
    }
}
