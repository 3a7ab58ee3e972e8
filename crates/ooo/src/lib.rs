//! # cryowire-ooo
//!
//! A cycle-level out-of-order core simulator — the BOOM/Gem5-core
//! substitute behind the paper's IPC numbers (Fig. 11, Table 3).
//!
//! The simulator implements the microarchitecture the paper analyses:
//! a fetch frontend with the **overriding branch predictor** (fast 1-cycle
//! BTB prediction backed by a slower GShare that can override it), rename
//! with ROB / issue-queue / load-store-queue / physical-register
//! structural limits, out-of-order wakeup & select, and — crucially — a
//! configurable **result-bypass latency**: 1 cycle means dependent
//! instructions execute back-to-back, 2+ models what happens if the
//! backend forwarding stages were pipelined. The paper's 300 K
//! Observation #2 ("backend stages are un-pipelinable because of the huge
//! IPC overhead") is directly measurable here, as is Table 3's IPC
//! column (width halving → 0.93, three extra frontend stages → 0.96).
//!
//! ```
//! use cryowire_ooo::{CoreConfig, CoreSimulator, TraceConfig};
//!
//! let trace = TraceConfig::parsec_like().generate(20_000, 7);
//! let baseline = CoreSimulator::new(CoreConfig::skylake_8_wide()).run(&trace);
//! let cryocore = CoreSimulator::new(CoreConfig::cryocore_4_wide()).run(&trace);
//! assert!(cryocore.ipc() < baseline.ipc());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod cache;
pub mod config;
pub mod core;
pub mod metrics;
pub mod predictor;
pub mod scratch;
pub mod trace;

pub use arena::TraceArena;
pub use cache::{AddressModel, Cache, CacheConfig, CacheHierarchy};
pub use config::CoreConfig;
pub use core::CoreSimulator;
pub use metrics::CoreMetrics;
pub use predictor::{Btb, GShare, OverridingPredictor};
pub use scratch::CoreScratch;
pub use trace::{Inst, InstKind, Trace, TraceConfig, TraceError};
