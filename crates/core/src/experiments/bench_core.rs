//! The `bench-core` throughput benchmark behind `BENCH_core.json`.
//!
//! Times the constant-memory ring-buffer core engine against the
//! retained naive reference engine (`cryowire_ooo::core::reference`)
//! over a frontend-depth × width × bypass design-space grid — the
//! CryoSP exploration pattern (Table 3, Section 4.4) where cheap IPC
//! evaluation at many design points is the whole game. Wall time and
//! instruction throughput are recorded per point, and both engines'
//! `CoreMetrics` are cross-checked for bit-identity while timing. The
//! sweep binary's `--sweep bench-core` mode serializes the result as
//! `BENCH_core.json` and can gate CI on the *relative* speedup
//! (optimized vs reference, measured in the same run), which is
//! machine-independent — absolute instructions/sec are context only.

use std::time::Instant;

use crate::bench::{bench_value, speedup_stats};
use cryowire_ooo::core::reference::ReferenceCoreSimulator;
use cryowire_ooo::{CoreConfig, CoreScratch, CoreSimulator, TraceArena, TraceConfig};
use serde_json::Value;

/// Timing repetitions per configuration; the minimum wall time across
/// repetitions is reported (identical work each time, so the minimum is
/// the cleanest measurement).
const TIMING_REPS: u32 = 5;

/// One design-point measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCorePoint {
    /// Display name (`w{width}-d{depth}-b{bypass}`).
    pub name: String,
    /// Fetch/rename/commit width.
    pub width: usize,
    /// Frontend depth (the superpipelining axis).
    pub frontend_depth: u32,
    /// Result-bypass latency in cycles (the backend-pipelining axis).
    pub bypass_cycles: u32,
    /// Wall time of the optimized engine, ms.
    pub wall_ms_optimized: f64,
    /// Wall time of the reference engine, ms.
    pub wall_ms_reference: f64,
    /// Simulated IPC (identical for both engines by construction).
    pub ipc: f64,
    /// Optimized-engine throughput, million simulated instructions/sec.
    pub minsts_per_sec_optimized: f64,
    /// Reference-engine throughput, million simulated instructions/sec.
    pub minsts_per_sec_reference: f64,
    /// Relative speedup (`wall_ms_reference / wall_ms_optimized`).
    pub speedup: f64,
}

/// The full `bench-core` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCoreResult {
    /// Trace length (instructions) per point.
    pub insts: usize,
    /// Trace RNG seed.
    pub seed: u64,
    /// Per-design-point measurements.
    pub points: Vec<BenchCorePoint>,
    /// Smallest per-point speedup.
    pub min_speedup: f64,
    /// Geometric-mean speedup across all points.
    pub geomean_speedup: f64,
    /// Whole-grid speedup — total reference wall-time over total
    /// optimized wall-time. This is the gating figure: it weights each
    /// point by how long it actually takes, which is what a design-space
    /// sweep over the grid experiences.
    pub overall_speedup: f64,
}

/// The benchmark grid: frontend-depth × width × bypass design points on
/// the Skylake-class structure sizes (Table 3's baseline).
///
/// The full grid spans widths {2, 4, 8} × depths {6, 9, 12} ×
/// bypass {1, 2} — the CryoCore/CryoSP axes. The smoke grid used by CI
/// is widths {4, 8} × depths {6, 9} × bypass {1, 2}, which keeps every
/// axis represented while staying fast enough for a gate.
#[must_use]
pub fn bench_core_grid(smoke: bool) -> Vec<(String, CoreConfig)> {
    let (widths, depths, bypasses): (&[usize], &[u32], &[u32]) = if smoke {
        (&[4, 8], &[6, 9], &[1, 2])
    } else {
        (&[2, 4, 8], &[6, 9, 12], &[1, 2])
    };
    let mut grid = Vec::new();
    for &frontend_depth in depths {
        for &width in widths {
            for &bypass_cycles in bypasses {
                grid.push((
                    format!("w{width}-d{frontend_depth}-b{bypass_cycles}"),
                    CoreConfig {
                        width,
                        frontend_depth,
                        bypass_cycles,
                        ..CoreConfig::skylake_8_wide()
                    },
                ));
            }
        }
    }
    grid
}

/// Runs the benchmark: both engines over every design point in `grid`
/// on one shared PARSEC-like trace (from the global [`TraceArena`]),
/// sharing one [`CoreScratch`] across all points so the optimized
/// engine is measured in its steady (allocation-free, decode-cached)
/// state — exactly how the experiment sweeps run it.
///
/// # Panics
///
/// Panics if the two engines ever disagree — bit-identity is a hard
/// invariant, so a divergence is a bug, not a benchmark result.
#[must_use]
pub fn bench_core(insts: usize, seed: u64, grid: &[(String, CoreConfig)]) -> BenchCoreResult {
    let trace = TraceArena::global().get(&TraceConfig::parsec_like(), insts, seed);
    let mut scratch = CoreScratch::new();
    // Warm the scratch (decoded trace + rings sized for the largest
    // window on the grid) outside the timed region.
    for (_, cfg) in grid {
        let _ = CoreSimulator::new(*cfg).run_with_scratch(&trace, &mut scratch);
    }
    let mut points = Vec::new();
    for (name, cfg) in grid {
        let optimized = CoreSimulator::new(*cfg);
        let reference = ReferenceCoreSimulator::new(*cfg);
        // Best-of-N timing: each repetition re-runs the identical
        // deterministic simulation, so the minimum wall time is the
        // least noise-contaminated measurement of the same work.
        let mut wall_opt = f64::INFINITY;
        let mut wall_ref = f64::INFINITY;
        let mut a = None;
        let mut b = None;
        for _ in 0..TIMING_REPS {
            let t0 = Instant::now();
            let r = optimized.run_with_scratch(&trace, &mut scratch);
            wall_opt = wall_opt.min(t0.elapsed().as_secs_f64());
            a = Some(r);
            let t1 = Instant::now();
            let r = reference.run(&trace);
            wall_ref = wall_ref.min(t1.elapsed().as_secs_f64());
            b = Some(r);
        }
        let (a, b) = (a.expect("at least one rep"), b.expect("at least one rep"));
        assert_eq!(a, b, "engines diverged on design point {name}");
        points.push(BenchCorePoint {
            name: name.clone(),
            width: cfg.width,
            frontend_depth: cfg.frontend_depth,
            bypass_cycles: cfg.bypass_cycles,
            wall_ms_optimized: wall_opt * 1e3,
            wall_ms_reference: wall_ref * 1e3,
            ipc: a.ipc(),
            minsts_per_sec_optimized: insts as f64 / wall_opt.max(1e-12) / 1e6,
            minsts_per_sec_reference: insts as f64 / wall_ref.max(1e-12) / 1e6,
            speedup: wall_ref / wall_opt.max(1e-12),
        });
    }
    let walls: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.wall_ms_reference, p.wall_ms_optimized))
        .collect();
    let stats = speedup_stats(&walls);
    BenchCoreResult {
        insts,
        seed,
        points,
        min_speedup: stats.min,
        geomean_speedup: stats.geomean,
        overall_speedup: stats.overall,
    }
}

/// Serializes a run as the `BENCH_core.json` value, in the shared
/// [`crate::bench::bench_value`] schema. The gating figure lives
/// under the same `overall_speedup` key as `BENCH_noc.json`, so
/// [`speedup_from_json`](crate::bench::speedup_from_json) reads both.
#[must_use]
pub fn bench_core_json(result: &BenchCoreResult) -> Value {
    bench_value(
        "core_hot_loop",
        vec![
            ("insts".into(), Value::UInt(result.insts as u64)),
            ("seed".into(), Value::UInt(result.seed)),
        ],
        crate::bench::SpeedupStats {
            min: result.min_speedup,
            geomean: result.geomean_speedup,
            overall: result.overall_speedup,
        },
        result
            .points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("name".into(), Value::String(p.name.clone())),
                    ("width".into(), Value::UInt(p.width as u64)),
                    (
                        "frontend_depth".into(),
                        Value::UInt(u64::from(p.frontend_depth)),
                    ),
                    (
                        "bypass_cycles".into(),
                        Value::UInt(u64::from(p.bypass_cycles)),
                    ),
                    (
                        "wall_ms_optimized".into(),
                        Value::Float(p.wall_ms_optimized),
                    ),
                    (
                        "wall_ms_reference".into(),
                        Value::Float(p.wall_ms_reference),
                    ),
                    ("ipc".into(), Value::Float(p.ipc)),
                    (
                        "minsts_per_sec_optimized".into(),
                        Value::Float(p.minsts_per_sec_optimized),
                    ),
                    (
                        "minsts_per_sec_reference".into(),
                        Value::Float(p.minsts_per_sec_reference),
                    ),
                    ("speedup".into(), Value::Float(p.speedup)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::speedup_from_json;

    #[test]
    fn smoke_run_beats_reference_and_round_trips() {
        let grid = bench_core_grid(true);
        assert_eq!(grid.len(), 8, "2 widths x 2 depths x 2 bypasses");
        let r = bench_core(30_000, 7, &grid);
        assert_eq!(r.points.len(), 8);
        assert!(
            r.overall_speedup > 1.0,
            "ring-buffer engine should beat the reference, got {}",
            r.overall_speedup
        );
        let json = bench_core_json(&r);
        let parsed = serde_json::from_str(&serde_json::to_string(&json).expect("serializes"))
            .expect("parses");
        let got = speedup_from_json(&parsed).expect("has overall_speedup");
        assert!((got - r.overall_speedup).abs() < 1e-9);
    }

    #[test]
    fn full_grid_covers_the_design_axes() {
        let grid = bench_core_grid(false);
        assert_eq!(grid.len(), 18, "3 widths x 3 depths x 2 bypasses");
        let widths: std::collections::BTreeSet<_> = grid.iter().map(|(_, c)| c.width).collect();
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), vec![2, 4, 8]);
    }
}
