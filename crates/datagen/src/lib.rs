//! TIGER-like synthetic spatial workloads.
//!
//! The paper evaluates on the TIGER/Line 97 data set: minimal bounding
//! rectangles of the *road* and *hydrography* features of the United States,
//! cut into six nested subsets (Table 2) ranging from the state of New Jersey
//! (about 465 000 objects) to all six CD-ROMs (about 36 million objects).
//! That data cannot be redistributed with this reproduction, so this crate
//! generates the closest synthetic equivalent:
//!
//! * **Roads** are many short, thin, axis-leaning segments clustered into
//!   "counties" — mirroring the street grids that dominate the TIGER road
//!   layer.
//! * **Hydrography** is a much smaller relation of elongated river polylines
//!   (chains of longer, thin MBRs meandering across counties) plus compact
//!   lakes.
//!
//! What matters for the paper's experiments is preserved: the relative sizes
//! of the two relations and of the six presets, the strong spatial
//! clustering, the fact that only a bounded number of rectangles intersect
//! any horizontal line (the "square-root rule" that keeps the sweep
//! structures small), and a join selectivity of a few tenths of an output
//! pair per road object. The generator is deterministic given a seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod generator;
pub mod preset;
pub mod rng;
pub mod workload;

pub use generator::{GeneratorConfig, HydroConfig, RoadConfig};
pub use preset::Preset;
pub use workload::{DatasetStats, Workload, WorkloadSpec};

#[cfg(test)]
mod proptests;
