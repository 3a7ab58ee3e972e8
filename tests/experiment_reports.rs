//! The evaluation's rendered reports: the exact `reproduce` text is
//! pinned, and its sections follow the experiment registry; shape tests
//! check the row/column counts of the figures EXPERIMENTS.md quotes.

use cryowire::experiments::{self, registry, Fidelity};
use cryowire_harness::stable_hash64;
use std::collections::HashSet;
use std::process::Command;

/// `stable_hash64` of the Quick `reproduce` text: every report of the
/// evaluation in paper order plus the fig23/fig24 summary lines (md5
/// `e4326d6404a37fb3b581f577882870e0`, the digest the e2e-bench
/// `reproduce` workload checks).
const REPRODUCE_QUICK_HASH: u64 = 0xcc60_f608_1997_dc70;

/// The exact `reproduce` output is pinned: any change to a row, a
/// header, the formatting, the order or a summary line shows here. Its
/// `[id]` headers are the registry's ids, in registry order, each once.
#[test]
fn reproduce_output_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--threads", "2"])
        .output()
        .expect("reproduce runs");
    assert!(out.status.success(), "reproduce failed: {:?}", out.status);

    let text = String::from_utf8_lossy(&out.stdout);
    let headers: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix('[')?.split_once(']'))
        .map(|(id, _)| id)
        .collect();
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    assert_eq!(headers, ids, "reproduce sections follow the registry");
    assert_eq!(
        ids.iter().collect::<HashSet<_>>().len(),
        ids.len(),
        "registry ids are unique"
    );

    assert_eq!(
        stable_hash64(&out.stdout),
        REPRODUCE_QUICK_HASH,
        "reproduce output changed"
    );
}

#[test]
fn fig23_report_has_13_workloads_and_5_designs() {
    let r = experiments::fig23_system_performance(Fidelity::Quick);
    assert_eq!(r.rows.len(), 13);
    assert_eq!(r.designs.len(), 5);
    let report = r.report();
    assert_eq!(report.headers.len(), 6); // workload + 5 designs
}

#[test]
fn fig24_report_has_12_workloads_and_4_designs() {
    let r = experiments::fig24_spec_prefetch(Fidelity::Quick);
    assert_eq!(r.rows.len(), 12);
    assert_eq!(r.designs.len(), 4);
}

#[test]
fn fig27_report_has_8_temperatures() {
    let r = experiments::fig27_temperature_sweep();
    assert_eq!(r.points.len(), 8);
    assert_eq!(r.report().len(), 8);
}
