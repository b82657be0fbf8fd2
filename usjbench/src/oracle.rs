//! Reference answers the workloads check the program against.
//!
//! The join oracle is the benchmark's own in-memory plane sweep with plain
//! active lists (the same method as the sweep crate's `ListSweep`), written
//! here so that the check does not run code the benchmark measures. Pair
//! sets are compared by count plus an order-independent digest.

use std::ops::ControlFlow;

use usj_core::PairSink;
use usj_geom::{Item, Rect};

/// Count plus an order-independent fingerprint of a set of `(left, right)`
/// id pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDigest {
    /// Pairs seen.
    pub count: u64,
    sum: u64,
    xor: u64,
}

impl PairDigest {
    /// Folds one pair in.
    pub fn add(&mut self, left: u32, right: u32) {
        let h = mix(u64::from(left) << 32 | u64::from(right));
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(17);
    }

    /// The digest of a pair list.
    pub fn of(pairs: &[(u32, u32)]) -> Self {
        let mut d = PairDigest::default();
        for &(l, r) in pairs {
            d.add(l, r);
        }
        d
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PairSink for PairDigest {
    fn emit(&mut self, left: u32, right: u32) -> ControlFlow<()> {
        self.add(left, right);
        ControlFlow::Continue(())
    }
}

/// Every intersecting `(left, right)` pair, by a plane sweep over lower y.
pub fn join_digest(left: &[Item], right: &[Item]) -> PairDigest {
    let by_lower_y = |items: &[Item]| {
        let mut v = items.to_vec();
        v.sort_by(|a, b| a.rect.lo.y.total_cmp(&b.rect.lo.y));
        v
    };
    let (left, right) = (by_lower_y(left), by_lower_y(right));
    let mut digest = PairDigest::default();
    let (mut active_l, mut active_r): (Vec<Item>, Vec<Item>) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let take_left =
            j == right.len() || (i < left.len() && left[i].rect.lo.y <= right[j].rect.lo.y);
        let (item, own, other) = if take_left {
            i += 1;
            (left[i - 1], &mut active_l, &mut active_r)
        } else {
            j += 1;
            (right[j - 1], &mut active_r, &mut active_l)
        };
        other.retain(|o| o.rect.hi.y >= item.rect.lo.y);
        for o in other.iter() {
            if o.rect.intersects(&item.rect) {
                if take_left {
                    digest.add(item.id, o.id);
                } else {
                    digest.add(o.id, item.id);
                }
            }
        }
        own.push(item);
    }
    digest
}

/// Items of `items` whose rectangle intersects `window`, by brute force.
pub fn window_count(items: &[Item], window: &Rect) -> u64 {
    items.iter().filter(|i| i.rect.intersects(window)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(x: f32, y: f32, w: f32, id: u32) -> Item {
        Item::new(Rect::from_coords(x, y, x + w, y + w), id)
    }

    #[test]
    fn sweep_matches_brute_force() {
        let left: Vec<Item> = (0..60)
            .map(|i| item((i % 7) as f32, (i / 7) as f32 * 0.7, 1.0, i))
            .collect();
        let right: Vec<Item> = (0..40)
            .map(|i| item((i % 5) as f32 * 1.3, (i / 5) as f32, 0.8, i))
            .collect();
        let mut brute = PairDigest::default();
        for l in &left {
            for r in &right {
                if l.rect.intersects(&r.rect) {
                    brute.add(l.id, r.id);
                }
            }
        }
        assert!(brute.count > 0);
        assert_eq!(join_digest(&left, &right), brute);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = PairDigest::of(&[(1, 2), (3, 4), (5, 6)]);
        assert_eq!(a, PairDigest::of(&[(5, 6), (1, 2), (3, 4)]));
        assert_ne!(a, PairDigest::of(&[(1, 2), (3, 4), (6, 5)]));
    }
}
