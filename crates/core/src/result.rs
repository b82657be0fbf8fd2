//! The accounting summary returned by every join.

use usj_io::sim::Measurement;
use usj_io::{CostBreakdown, CostModel, CpuCounter, CpuOp, IoStats, MachineConfig, SimEnv};
use usj_sweep::SweepJoinStats;

/// Internal-memory usage of a join, the quantity Table 3 reports for PQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Maximum size of the priority queues (including the staged leaf
    /// buffers) in bytes. Zero for algorithms without a priority queue.
    pub priority_queue_bytes: usize,
    /// Maximum size of the sweep-line interval structures in bytes.
    pub sweep_structure_bytes: usize,
    /// Maximum size of any other in-memory working set (PBSM partition
    /// buffers, ST node pairs, …) in bytes.
    pub other_bytes: usize,
    /// *Measured* high-water mark of every gauge-registered working set
    /// during the join, as recorded by the environment's
    /// [`MemoryGauge`](usj_io::MemoryGauge).
    ///
    /// Unlike the three per-structure maxima above (which peak at different
    /// moments and therefore may sum to more than was ever held at once),
    /// this is the actual simultaneous footprint — the quantity the memory
    /// governor guarantees never exceeds `SimEnv::memory_limit`.
    pub peak_bytes: usize,
}

impl MemoryStats {
    /// Total of all tracked working sets.
    ///
    /// This sums the per-structure maxima (not
    /// [`peak_bytes`](MemoryStats::peak_bytes), which is a concurrent
    /// measurement of its own).
    pub fn total_bytes(&self) -> usize {
        self.priority_queue_bytes + self.sweep_structure_bytes + self.other_bytes
    }

    /// Accumulates `other` by taking the component-wise maximum.
    ///
    /// Peaks do not add up across sequential phases, and for concurrent
    /// workers the per-worker peak is the quantity of interest (each worker
    /// has its own memory budget); an aggregate upper bound for a parallel
    /// run is the merged peak times the number of simultaneously active
    /// workers.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.priority_queue_bytes = self.priority_queue_bytes.max(other.priority_queue_bytes);
        self.sweep_structure_bytes = self.sweep_structure_bytes.max(other.sweep_structure_bytes);
        self.other_bytes = self.other_bytes.max(other.other_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }
}

/// Summary of one join execution.
///
/// `PartialEq` compares every counter, so equality means two executions were
/// byte-identical in accounting — the property the query-builder equivalence
/// suite asserts against the legacy entry points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinResult {
    /// Intersecting pairs reported (after duplicate elimination).
    pub pairs: u64,
    /// I/O performed by the join (delta over the simulated device).
    pub io: IoStats,
    /// Deterministic CPU work performed by the join.
    pub cpu: CpuCounter,
    /// Pages of the spatial indexes requested from disk during the join
    /// (Table 4). Zero for the non-indexed algorithms.
    pub index_page_requests: u64,
    /// Plane-sweep statistics (pairs, rectangle tests, structure sizes).
    pub sweep: SweepJoinStats,
    /// Maximum internal-memory usage (Table 3).
    pub memory: MemoryStats,
}

impl JoinResult {
    /// The result of a join whose pairs all come from one plane sweep
    /// (SSSJ, PQ, the streaming join).
    ///
    /// Records the `pairs` the sink accepted in `sweep`, charges the sweep's
    /// rectangle tests and the output pairs to `env`, and reads the I/O and
    /// CPU since `start` and the gauge's peak. Only PQ reads an index and
    /// keeps priority queues; the other joins pass zero for both.
    pub fn from_sweep(
        env: &mut SimEnv,
        start: &Measurement,
        pairs: u64,
        mut sweep: SweepJoinStats,
        index_page_requests: u64,
        priority_queue_bytes: usize,
    ) -> JoinResult {
        sweep.pairs = pairs;
        env.charge(CpuOp::RectTest, sweep.rect_tests);
        env.charge(CpuOp::OutputPair, pairs);
        let (io, cpu) = env.since(start);
        JoinResult {
            pairs,
            io,
            cpu,
            index_page_requests,
            sweep,
            memory: MemoryStats {
                priority_queue_bytes,
                sweep_structure_bytes: sweep.max_structure_bytes,
                other_bytes: 0,
                peak_bytes: env.memory.peak(),
            },
        }
    }

    /// Rolls the summary of another (sub-)execution into this one.
    ///
    /// Pair and operation counters are summed — merging every worker's
    /// result of a parallel partitioned run into the coordinator's yields
    /// the accounting an equivalent serial execution of all shards would
    /// have produced. Peak-memory statistics take the maximum instead (see
    /// [`MemoryStats::merge`]).
    pub fn merge(&mut self, other: &JoinResult) {
        self.pairs += other.pairs;
        self.io.merge(&other.io);
        self.cpu.merge(&other.cpu);
        self.index_page_requests += other.index_page_requests;
        self.sweep.merge(&other.sweep);
        self.memory.merge(&other.memory);
    }

    /// Observed (sequential/random aware) simulated running time on `machine`.
    pub fn observed_cost(&self, machine: &MachineConfig) -> CostBreakdown {
        CostModel::new(machine.clone()).observed(&self.io, &self.cpu)
    }

    /// Estimated running time using the "all page requests are random" model
    /// of earlier work (Figure 2(a)–(c)).
    pub fn estimated_cost(&self, machine: &MachineConfig) -> CostBreakdown {
        CostModel::new(machine.clone()).estimated(&self.io, &self.cpu)
    }

    /// Output pairs per left-input item, a rough selectivity measure.
    pub fn selectivity(&self, left_items: u64) -> f64 {
        if left_items == 0 {
            0.0
        } else {
            self.pairs as f64 / left_items as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_total_sums_components() {
        let m = MemoryStats {
            priority_queue_bytes: 100,
            sweep_structure_bytes: 50,
            other_bytes: 25,
            peak_bytes: 130,
        };
        assert_eq!(m.total_bytes(), 175, "peak_bytes is not part of the sum");
    }

    #[test]
    fn cost_helpers_use_the_given_machine() {
        let mut r = JoinResult::default();
        r.io.rand_read_ops = 100;
        r.io.pages_read = 100;
        let m1 = r.observed_cost(&MachineConfig::machine1());
        let m2 = r.observed_cost(&MachineConfig::machine2());
        // Machine 2 has a slower average access time, so the same random
        // traffic costs more there.
        assert!(m2.io_secs > m1.io_secs);
        let est = r.estimated_cost(&MachineConfig::machine1());
        assert!(est.io_secs >= m1.io_secs * 0.9);
    }

    #[test]
    fn selectivity_handles_empty_input() {
        let r = JoinResult { pairs: 10, ..JoinResult::default() };
        assert_eq!(r.selectivity(0), 0.0);
        assert_eq!(r.selectivity(20), 0.5);
    }
}
