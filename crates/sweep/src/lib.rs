//! Plane-sweep interval structures and the sweep-join driver.
//!
//! All four join algorithms in the paper ultimately reduce rectangle
//! intersection to a *dynamic 1-D interval intersection* problem: a
//! horizontal sweep line moves upward through the data, and only rectangles
//! currently cut by the line — represented by their x-projections — need to
//! be tested against each other. Two internal-memory structures for the
//! active intervals are compared in the SSSJ paper and reused here:
//!
//! * [`ForwardSweep`] — the classic structure used by earlier spatial-join
//!   implementations: one unordered active list per input, scanned linearly
//!   for every query.
//! * [`StripedSweep`] — the x-extent is divided into vertical strips and each
//!   active interval is registered in every strip it overlaps, so queries
//!   only inspect the strips they intersect. The SSSJ paper measured it to be
//!   2–5× faster than the alternatives on real data.
//!
//! Both structures keep their resident sets in **struct-of-arrays layout**
//! with **lazy batched expiration** (see the `soa` module): the
//! overlap scan streams packed coordinate arrays and the per-push `O(n)`
//! expiration `retain` of the naive kernel is replaced by an exact expiry
//! heap plus threshold-triggered tombstone compaction. The pre-optimization
//! list kernel survives as [`ListSweep`] — the differential-testing oracle
//! and the wall-clock baseline of the `hotpath` benchmark.
//!
//! The in-memory [`SweepDriver`] consumes two y-sorted item sequences (PBSM's
//! partitions, ST's node pairs) and produces the intersecting pairs plus
//! detailed operation counts, which the simulation environment later
//! converts into CPU time.
//!
//! SSSJ, PQ and the streaming join instead run [`merge_sweep`], which pulls
//! both inputs itself and enforces the memory governor's limit: when the
//! active intervals outgrow the budget, it evicts the soonest-to-expire
//! items to the simulated device and recovers their missed intersections
//! with a log-based fix-up join, at the price of extra (charged) I/O.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod driver;
pub mod forward;
pub mod reference;
mod soa;
pub mod spill;
pub mod striped;
pub mod structure;

pub use driver::{
    sweep_join, sweep_join_count, sweep_join_eps, sweep_join_eps_with, Side, SweepDriver,
    SweepJoinStats, SweepScratch,
};
pub use forward::ForwardSweep;
pub use reference::{EagerStripedSweep, ListSweep};
pub use spill::merge_sweep;
pub use striped::{StripedSweep, INITIAL_STRIPS, MAX_STRIPS, TARGET_PER_STRIP};
pub use structure::{SweepStats, SweepStructure};

#[cfg(test)]
mod proptests;

/// [`merge_sweep`] as a symmetric two-input join: either input may run
/// ahead, end first, spill or stop the sweep.
#[cfg(test)]
mod symmetric {
    mod tests;
}
