//! # cryowire
//!
//! A full reproduction of **"CryoWire: Wire-Driven Microarchitecture
//! Designs for Cryogenic Computing"** (Min, Chung, Byun, Kim & Kim,
//! ASPLOS 2022) as a pure-Rust library.
//!
//! The paper proposes two 77 K microarchitectures — **CryoSP**, a
//! frontend-superpipelined out-of-order core exploiting the collapse of
//! data-forwarding wire delay at 77 K, and **CryoBus**, an H-tree snooping
//! bus with dynamic link connection reaching a 1-cycle 64-core broadcast —
//! and shows a 3.82x system-level speed-up over a 300 K server. This crate
//! ties together the substrate crates and exposes every published table
//! and figure as a runnable experiment.
//!
//! ## Crates
//!
//! | crate | paper role |
//! |---|---|
//! | [`device`] | cryo-MOSFET, cryo-wire, repeaters, voltage scaling, cooling |
//! | [`faults`] | deterministic fault plans/schedules for degraded-operation studies |
//! | [`floorplan`] | unit geometry & inter-unit wire lengths (Table 1) |
//! | [`pipeline`] | stage critical paths, superpipelining, CryoSP (Figs. 2, 12–14, Table 3) |
//! | [`noc`] | cycle-level NoC simulation, CryoBus (Figs. 15, 18–21, 25, 26) |
//! | [`memory`] | cache/DRAM latency models (Table 4, Fig. 16) |
//! | [`system`] | 64-core system model & workloads (Figs. 3, 17, 23, 24) |
//! | [`power`] | McPAT/Orion-like power + cooling (Fig. 22, Table 3) |
//!
//! ## Quickstart
//!
//! ```
//! use cryowire::experiments::{self, Fidelity};
//!
//! // Regenerate the paper's headline comparison (Fig. 23, quick mode).
//! let fig23 = experiments::fig23_system_performance(Fidelity::Quick);
//! assert!(fig23.average_speedup_vs_300k > 3.0);
//! println!("{}", fig23.report());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod experiments;
pub mod report;

pub use report::Report;

pub use cryowire_device as device;
pub use cryowire_faults as faults;
pub use cryowire_floorplan as floorplan;
pub use cryowire_memory as memory;
pub use cryowire_noc as noc;
pub use cryowire_ooo as ooo;
pub use cryowire_pipeline as pipeline;
pub use cryowire_power as power;
pub use cryowire_system as system;

/// Level of simulation effort for the simulation-backed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short simulations — seconds, good for tests and CI.
    Quick,
    /// Full-length simulations — the settings used for EXPERIMENTS.md.
    Full,
}
