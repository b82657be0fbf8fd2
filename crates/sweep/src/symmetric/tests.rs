use std::cell::Cell;
use std::ops::ControlFlow;

use usj_geom::{Item, ITEM_BYTES};
use usj_io::{Result, SimEnv};

use crate::merge_sweep;
use crate::spill::tests::{
    brute, env_with_memory, item, long_lived, puller, run_spilling, run_until,
};

#[test]
fn one_side_running_far_ahead_still_joins_completely() {
    // Every left item arrives before any right item, so every pair is
    // found by a right arrival probing the left residents. Nothing can
    // probe a right resident, so none is ever held.
    let mut env = env_with_memory(16 * 1024 * 1024);
    let left = long_lived(250, 0, 0.0);
    let right = long_lived(250, 10_000, 20.0);
    let (pairs, stats) = run_spilling(&mut env, &left, &right);
    assert!(!pairs.is_empty());
    assert_eq!(pairs, brute(&left, &right));
    assert_eq!(stats.right_items, 250);
    assert_eq!(stats.max_resident, 250, "right arrivals must not be inserted");
}

/// Wraps a pull closure so that `at_end` records the gauge when it ends.
fn noting_the_gauge_at_end<'a>(
    items: &[Item],
    at_end: &'a Cell<Option<usize>>,
) -> impl FnMut(&mut SimEnv) -> Result<Option<Item>> + 'a {
    let mut next_item = puller(items);
    move |env| {
        let next = next_item(env)?;
        if next.is_none() {
            at_end.set(Some(env.memory.current()));
        }
        Ok(next)
    }
}

#[test]
fn close_side_drains_the_opposite_residents() {
    // One short right item arrives after 51 long-lived left items. Once the
    // right input ends, no arrival can probe the left residents, so they are
    // dropped and their memory is given back before the left input ends.
    let mut env = env_with_memory(16 * 1024 * 1024);
    let left = long_lived(100, 0, 0.0);
    let right = vec![item(0.0, 0.505, 64.0, 0.506, 10_000)];
    let (left_end, right_end) = (Cell::new(None), Cell::new(None));
    let mut pairs = Vec::new();
    let stats = merge_sweep(
        &mut env,
        0.0,
        64.0,
        noting_the_gauge_at_end(&left, &left_end),
        noting_the_gauge_at_end(&right, &right_end),
        |a, b| {
            pairs.push((a.id, b.id));
            ControlFlow::Continue(())
        },
    )
    .unwrap();
    pairs.sort_unstable();
    assert_eq!(pairs, brute(&left, &right));
    assert_eq!(stats.max_resident, 52, "51 left residents and the right item");
    let (left_end, right_end) = (left_end.get().unwrap(), right_end.get().unwrap());
    assert!(
        left_end + 51 * ITEM_BYTES <= right_end,
        "no future right arrivals can probe the left residents: \
         {right_end} B when the right input ended, {left_end} B at the end"
    );
}

#[test]
fn spilling_under_a_small_budget_recovers_every_pair_once() {
    let mut env = env_with_memory(64 * 1024);
    let left = long_lived(600, 0, 0.0);
    let right = long_lived(600, 10_000, 0.0);
    let m = env.begin();
    let (pairs, stats) = run_spilling(&mut env, &left, &right);
    let (io, _) = env.since(&m);
    assert_eq!(pairs, brute(&left, &right));
    assert!(stats.spill_runs > 0, "a 64 KB budget must spill: {stats:?}");
    assert!(io.pages_written > 0, "spill batches are written to the device");
    assert!(io.pages_read > 0, "fix-ups read the spilled items back");
}

#[test]
fn discard_skips_the_fixup_io() {
    // As the spill test of the same name, but the pair that stops the sweep
    // is found by a right arrival: either side's probe can end the sweep,
    // and neither leaves the batches to be read back.
    let mut env = env_with_memory(64 * 1024);
    let left = long_lived(500, 0, 0.0);
    let right = long_lived(500, 10_000, 0.0);
    let m = env.begin();
    let (pairs, stats) = run_until(&mut env, &left, &right, |_, b| b.id >= 10_490);
    let (io, _) = env.since(&m);
    assert!(pairs.len() < brute(&left, &right).len());
    assert!(stats.spill_runs > 0);
    assert!(io.pages_written > 0, "the spill batches were written");
    assert_eq!(io.pages_read, 0, "a stopped sweep must not read the batches back");
}
