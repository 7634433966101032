//! Simulation reports: per-Einsum statistics, per-block bottleneck
//! analysis, and cascade-level summary metrics.

use std::collections::BTreeMap;
use std::fmt;

use teaal_fibertree::TensorData;

use crate::energy::ActionCounts;
use teaal_fibertree::MergeRecord;

/// DRAM/buffer traffic attributed to one tensor within one Einsum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TensorTraffic {
    /// Tensor name.
    pub tensor: String,
    /// Bytes filled from DRAM.
    pub fill_bytes: u64,
    /// Bytes read on-chip.
    pub buffer_read_bytes: u64,
    /// Element touches.
    pub reads: u64,
}

/// Statistics for one executed Einsum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EinsumStats {
    /// The Einsum's name (output tensor).
    pub einsum: String,
    /// Input tensor traffic.
    pub traffic: Vec<TensorTraffic>,
    /// Bytes of the final output written to DRAM.
    pub output_write_bytes: u64,
    /// Bytes of partial-output drains + refills.
    pub output_partial_bytes: u64,
    /// Distinct output points written.
    pub output_writes: u64,
    /// Reduction updates to existing points.
    pub output_updates: u64,
    /// Multiplies performed.
    pub muls: u64,
    /// Adds performed.
    pub adds: u64,
    /// Operations on the busiest PE (load imbalance).
    pub max_pe_ops: u64,
    /// Distinct spatial positions used.
    pub spaces: usize,
    /// Intersection comparisons.
    pub intersections: u64,
    /// Online merge jobs (rank swizzles of intermediates/outputs).
    pub merges: Vec<MergeRecord>,
    /// Coordinate visits per loop rank.
    pub loop_visits: BTreeMap<String, u64>,
}

impl EinsumStats {
    /// Total DRAM bytes attributed to this Einsum (input fills + output
    /// writes + partial drains/refills).
    pub fn dram_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.fill_bytes).sum::<u64>()
            + self.output_write_bytes
            + self.output_partial_bytes
    }

    /// DRAM bytes for one tensor (an input or this Einsum's output).
    pub fn dram_bytes_of(&self, tensor: &str) -> u64 {
        if tensor == self.einsum {
            return self.output_write_bytes + self.output_partial_bytes;
        }
        self.traffic
            .iter()
            .filter(|t| t.tensor == tensor)
            .map(|t| t.fill_bytes)
            .sum()
    }

    /// Total merge element-passes under the given comparator radix.
    pub fn merge_elem_passes(&self, radix: u64) -> u64 {
        self.merges
            .iter()
            .map(|g| g.elems * passes_for(g.ways, radix))
            .sum()
    }
}

/// Merge passes needed to combine `ways` sorted runs with a comparator of
/// the given radix: `ceil(log_radix(ways))`.
pub fn passes_for(ways: u64, radix: u64) -> u64 {
    if ways <= 1 {
        return 0;
    }
    let r = radix.max(2) as f64;
    (ways as f64).log(r).ceil() as u64
}

/// Per-component execution time within one fused block.
#[derive(Clone, Debug, Default)]
pub struct BlockStats {
    /// Einsums fused in this block.
    pub members: Vec<String>,
    /// Seconds of busy time per component.
    pub component_seconds: BTreeMap<String, f64>,
    /// The block's execution time (the bottleneck component).
    pub seconds: f64,
    /// Which component was the bottleneck.
    pub bottleneck: String,
}

/// The full simulation report for one cascade execution.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-Einsum statistics, in cascade order.
    pub einsums: Vec<EinsumStats>,
    /// Fused blocks with bottleneck analysis.
    pub blocks: Vec<BlockStats>,
    /// Total execution time in seconds (sum over blocks).
    pub seconds: f64,
    /// Total execution cycles at the specification's clock.
    pub cycles: f64,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Aggregated action counts.
    pub actions: ActionCounts,
    /// Output tensors by name (every Einsum's output), always in
    /// compressed (CSF) storage.
    pub outputs: BTreeMap<String, TensorData>,
}

impl SimReport {
    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.einsums.iter().map(EinsumStats::dram_bytes).sum()
    }

    /// DRAM traffic of one tensor summed across Einsums (reads as an
    /// input plus writes as an output).
    pub fn dram_bytes_of(&self, tensor: &str) -> u64 {
        self.einsums.iter().map(|e| e.dram_bytes_of(tensor)).sum()
    }

    /// The final Einsum's output tensor, in whichever representation the
    /// run produced.
    pub fn final_output(&self) -> Option<&TensorData> {
        let last = self.einsums.last()?;
        self.outputs.get(&last.einsum)
    }

    /// Total compute operations.
    pub fn total_ops(&self) -> u64 {
        self.einsums.iter().map(|e| e.muls + e.adds).sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation report")?;
        writeln!(
            f,
            "  time: {:.6e} s ({:.3e} cycles)   energy: {:.6e} J   DRAM: {} bytes",
            self.seconds,
            self.cycles,
            self.energy_joules,
            self.dram_bytes()
        )?;
        for e in &self.einsums {
            writeln!(
                f,
                "  einsum {}: muls={} adds={} isect={} out_writes={} out_updates={}",
                e.einsum, e.muls, e.adds, e.intersections, e.output_writes, e.output_updates
            )?;
            for t in &e.traffic {
                writeln!(
                    f,
                    "    {}: fills={}B buffer={}B reads={}",
                    t.tensor, t.fill_bytes, t.buffer_read_bytes, t.reads
                )?;
            }
            writeln!(
                f,
                "    {} (output): final={}B partial={}B",
                e.einsum, e.output_write_bytes, e.output_partial_bytes
            )?;
        }
        for b in &self.blocks {
            writeln!(
                f,
                "  block [{}]: {:.6e} s, bottleneck: {}",
                b.members.join(", "),
                b.seconds,
                b.bottleneck
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_pass_counts() {
        assert_eq!(passes_for(1, 64), 0);
        assert_eq!(passes_for(64, 64), 1);
        assert_eq!(passes_for(65, 64), 2);
        assert_eq!(passes_for(4096, 64), 2);
        assert_eq!(passes_for(8, 2), 3);
    }

    #[test]
    fn dram_accounting_sums_components() {
        let mut e = EinsumStats {
            einsum: "Z".into(),
            output_write_bytes: 100,
            output_partial_bytes: 20,
            ..EinsumStats::default()
        };
        e.traffic.push(TensorTraffic {
            tensor: "A".into(),
            fill_bytes: 50,
            ..TensorTraffic::default()
        });
        assert_eq!(e.dram_bytes(), 170);
        assert_eq!(e.dram_bytes_of("A"), 50);
        assert_eq!(e.dram_bytes_of("Z"), 120);
    }
}
