//! The engine stays in compressed storage end-to-end.
//!
//! `Simulator::run_data` must never decompress, whichever representation
//! its inputs arrive in: every catalog SpMSpM spec's transform pipeline
//! (swizzles, shape/occupancy partitions, flattens — including the
//! three-rank flatten of the double-flatten cascade) runs on CSF arrays,
//! owned inputs that need a transform are compressed rather than
//! decompressed into, and outputs assemble as CSF. The process-wide
//! [`teaal_fibertree::telemetry::decompress_count`] pins this. Owned and
//! compressed inputs must also yield bit-identical reports.
//!
//! This file holds a single test so nothing else in the process touches
//! the decompression counter between the snapshots.

use teaal_core::TeaalSpec;
use teaal_fibertree::{telemetry, CompressedTensor, TensorData};
use teaal_sim::Simulator;
use teaal_workloads::genmat;

#[test]
fn catalog_specs_run_compressed_native_with_zero_decompressions() {
    // Dense enough to exercise multi-boundary occupancy partitions,
    // flattening, and caches in every catalog spec.
    let a = genmat::uniform("A", &["K", "M"], 60, 50, 700, 21);
    let b = genmat::uniform("B", &["K", "N"], 60, 40, 600, 22);
    let ca = TensorData::Compressed(CompressedTensor::from_tensor(&a).unwrap());
    let cb = TensorData::Compressed(CompressedTensor::from_tensor(&b).unwrap());
    let (oa, ob) = (TensorData::Owned(a), TensorData::Owned(b));
    let specs = teaal_fixtures::spmspm_specs()
        .into_iter()
        .chain([("double-flatten", teaal_fixtures::DOUBLE_FLATTEN)]);

    let before = telemetry::decompress_count();
    let mut reports = Vec::new();
    for (label, yaml) in specs {
        let sim = Simulator::new(TeaalSpec::parse(yaml).unwrap()).unwrap();
        let owned = sim.run_data(&[&oa, &ob]).unwrap();
        let compressed = sim.run_data(&[&ca, &cb]).unwrap();
        reports.push((label, owned, compressed));
    }
    assert_eq!(
        telemetry::decompress_count(),
        before,
        "run_data must never call to_tensor(), with owned or compressed inputs"
    );

    for (label, owned, compressed) in &reports {
        // Every Instruments-derived counter, bit for bit.
        assert_eq!(
            owned.einsums, compressed.einsums,
            "{label}: instrument counters diverge across input representations"
        );
        assert_eq!(owned.seconds, compressed.seconds, "{label}: time diverges");
        assert_eq!(
            owned.energy_joules, compressed.energy_joules,
            "{label}: energy diverges"
        );
        // Outputs: CSF from either input, and equal bit for bit.
        assert_eq!(
            owned.outputs, compressed.outputs,
            "{label}: outputs diverge"
        );
        for (name, c) in &compressed.outputs {
            assert!(c.is_compressed(), "{label}/{name}: output is not CSF");
        }
    }
}
