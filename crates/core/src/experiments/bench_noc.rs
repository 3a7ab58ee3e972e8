//! The `bench-noc` throughput benchmark behind `BENCH_noc.json`.
//!
//! Times the memoized hot-loop engine against the retained naive
//! reference engine (`cryowire_noc::sim::reference`) over the Fig. 21
//! uniform-random injection-rate grid, records wall-time and packet
//! throughput per point, and cross-checks that both engines produce
//! bit-identical results while doing so. The sweep binary's
//! `--sweep bench-noc` mode serializes the result as `BENCH_noc.json`
//! and can gate CI on the *relative* speedup (optimized vs reference,
//! measured in the same run), which is machine-independent — absolute
//! packets/sec are recorded for context only.

use std::time::Instant;

use crate::bench::{bench_value, speedup_stats};
use cryowire_device::Temperature;
use cryowire_faults::FaultSchedule;
use cryowire_noc::sim::reference::ReferenceSimulator;
use cryowire_noc::{
    Network, NocError, NocKind, RouterClass, RouterNetwork, SimConfig, SimError, SimScratch,
    Simulator, TrafficPattern,
};
use serde_json::Value;

use super::noc_figs;

/// Timing repetitions per (network, rate) point; the minimum wall time
/// across repetitions is reported (identical seeded work each time, so
/// the minimum is the cleanest measurement).
const TIMING_REPS: u32 = 5;

/// One (network, rate) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchNocPoint {
    /// Network display name.
    pub network: String,
    /// Offered per-node injection rate.
    pub rate: f64,
    /// Wall time of the optimized engine, ms.
    pub wall_ms_optimized: f64,
    /// Wall time of the reference engine, ms.
    pub wall_ms_reference: f64,
    /// Measured packets (identical for both engines by construction).
    pub packets: u64,
    /// Optimized-engine throughput, measured packets per second.
    pub packets_per_sec_optimized: f64,
    /// Reference-engine throughput, measured packets per second.
    pub packets_per_sec_reference: f64,
    /// Relative speedup (`wall_ms_reference / wall_ms_optimized`).
    pub speedup: f64,
}

/// The full `bench-noc` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchNocResult {
    /// Simulated cycles per point.
    pub cycles: u64,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Per-(network, rate) measurements.
    pub points: Vec<BenchNocPoint>,
    /// Smallest per-point speedup.
    pub min_speedup: f64,
    /// Geometric-mean speedup across all points.
    pub geomean_speedup: f64,
    /// Whole-sweep speedup — total reference wall-time over total
    /// optimized wall-time, i.e. the packet-throughput improvement of
    /// running the entire grid. This is the gating figure: it weights
    /// each point by how long it actually takes, which is what a user
    /// sweeping Fig. 21 experiences.
    pub overall_speedup: f64,
}

/// The benchmark grid: the injection rates and networks to time.
///
/// The full grid is exactly the Fig. 21 sweep (all nine 77 K networks
/// over the full injection-rate grid), so `overall_speedup` is the
/// wall-time improvement a user sees when regenerating the figure.
/// The smoke grid used by CI is the two mesh networks (the most
/// route-construction-bound of the Fig. 21 set) at two loaded rates:
/// at light load every engine is bound by the (bit-identical, hence
/// non-negotiable) RNG stream, so the light-load bus points of the
/// full grid measure the RNG, not the hot loop — the full grid keeps
/// them for honesty, the smoke gate skips them for signal.
#[must_use]
pub fn bench_noc_grid(smoke: bool) -> (Vec<f64>, Vec<Box<dyn Network + Sync>>) {
    if smoke {
        let t77 = Temperature::liquid_nitrogen();
        let mk = |kind, class| -> Box<dyn Network + Sync> {
            Box::new(RouterNetwork::new(kind, 64, class, t77).expect("valid 64-core networks"))
        };
        (
            vec![0.032, 0.08],
            vec![
                mk(NocKind::Mesh, RouterClass::OneCycle),
                mk(NocKind::Mesh, RouterClass::ThreeCycle),
            ],
        )
    } else {
        (noc_figs::fig21_rates(), noc_figs::all_nocs_77k())
    }
}

/// Runs the benchmark: both engines over `rates` on each network in
/// `networks`, sharing one [`SimScratch`] per network so the optimized
/// engine is measured in its steady (allocation-free) state.
///
/// # Errors
///
/// Returns the validation error of a degenerate `config` (zero cycles or
/// a warm-up swallowing the whole window) before any simulation runs.
///
/// # Panics
///
/// Panics if the two engines ever disagree — bit-identity is a hard
/// invariant, so a divergence is a bug, not a benchmark result.
pub fn bench_noc(
    config: SimConfig,
    rates: &[f64],
    networks: &[Box<dyn Network + Sync>],
) -> Result<BenchNocResult, NocError> {
    config.validate()?;
    // Fault-free runs cannot trip the watchdog, so `Stalled` is
    // unreachable and the only error channel is `NocError`.
    let unfault = |e: SimError| match e {
        SimError::Noc(e) => e,
        _ => unreachable!("no faults injected, the watchdog cannot fire"),
    };
    let empty = FaultSchedule::default();
    let optimized = Simulator::new(config);
    let reference = ReferenceSimulator::new(config);
    let mut points = Vec::new();
    for net in networks {
        let mut scratch = SimScratch::new();
        // Warm the scratch (route arena + free vector) outside the
        // timed region; the steady state is what the sweeps run in.
        let _ = optimized
            .run_with_scratch(
                net.as_ref(),
                TrafficPattern::UniformRandom,
                rates[0],
                &empty,
                &mut scratch,
            )
            .map_err(unfault)?;
        for &rate in rates {
            // Best-of-N timing: each repetition re-runs the identical
            // seeded simulation, so the minimum wall time is the least
            // noise-contaminated measurement of the same work.
            let mut wall_opt = f64::INFINITY;
            let mut wall_ref = f64::INFINITY;
            let mut a = None;
            let mut b = None;
            for _ in 0..TIMING_REPS {
                let t0 = Instant::now();
                let r = optimized
                    .run_with_scratch(
                        net.as_ref(),
                        TrafficPattern::UniformRandom,
                        rate,
                        &empty,
                        &mut scratch,
                    )
                    .map_err(unfault)?;
                wall_opt = wall_opt.min(t0.elapsed().as_secs_f64());
                a = Some(r);
                let t1 = Instant::now();
                let r = reference.run(net.as_ref(), TrafficPattern::UniformRandom, rate)?;
                wall_ref = wall_ref.min(t1.elapsed().as_secs_f64());
                b = Some(r);
            }
            let (a, b) = (a.expect("at least one rep"), b.expect("at least one rep"));
            assert_eq!(a, b, "engines diverged on {} at rate {rate}", net.name());
            points.push(BenchNocPoint {
                network: net.name(),
                rate,
                wall_ms_optimized: wall_opt * 1e3,
                wall_ms_reference: wall_ref * 1e3,
                packets: a.packets,
                packets_per_sec_optimized: a.packets as f64 / wall_opt.max(1e-12),
                packets_per_sec_reference: b.packets as f64 / wall_ref.max(1e-12),
                speedup: wall_ref / wall_opt.max(1e-12),
            });
        }
    }
    let walls: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.wall_ms_reference, p.wall_ms_optimized))
        .collect();
    let stats = speedup_stats(&walls);
    Ok(BenchNocResult {
        cycles: config.cycles,
        warmup: config.warmup,
        points,
        min_speedup: stats.min,
        geomean_speedup: stats.geomean,
        overall_speedup: stats.overall,
    })
}

/// Serializes a run as the `BENCH_noc.json` value, in the shared
/// [`crate::bench::bench_value`] schema.
#[must_use]
pub fn bench_noc_json(result: &BenchNocResult) -> Value {
    bench_value(
        "noc_hot_loop",
        vec![
            ("cycles".into(), Value::UInt(result.cycles)),
            ("warmup".into(), Value::UInt(result.warmup)),
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
                    ("network".into(), Value::String(p.network.clone())),
                    ("rate".into(), Value::Float(p.rate)),
                    (
                        "wall_ms_optimized".into(),
                        Value::Float(p.wall_ms_optimized),
                    ),
                    (
                        "wall_ms_reference".into(),
                        Value::Float(p.wall_ms_reference),
                    ),
                    ("packets".into(), Value::UInt(p.packets)),
                    (
                        "packets_per_sec_optimized".into(),
                        Value::Float(p.packets_per_sec_optimized),
                    ),
                    (
                        "packets_per_sec_reference".into(),
                        Value::Float(p.packets_per_sec_reference),
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
        let config = SimConfig {
            cycles: 6_000,
            warmup: 1_500,
            ..SimConfig::default()
        };
        let (rates, networks) = bench_noc_grid(true);
        let r = bench_noc(config, &rates, &networks).expect("valid config");
        assert_eq!(r.points.len(), 4, "2 networks x 2 rates");
        assert!(
            r.overall_speedup > 1.0,
            "memoized engine should beat the reference, got {}",
            r.overall_speedup
        );
        let json = bench_noc_json(&r);
        let parsed = serde_json::from_str(&serde_json::to_string(&json).expect("serializes"))
            .expect("parses");
        let got = speedup_from_json(&parsed).expect("has overall_speedup");
        assert!((got - r.overall_speedup).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_is_rejected_up_front() {
        let config = SimConfig {
            cycles: 1_000,
            warmup: 1_000,
            ..SimConfig::default()
        };
        let (rates, networks) = bench_noc_grid(true);
        assert!(matches!(
            bench_noc(config, &rates, &networks),
            Err(NocError::InvalidSimWindow { .. })
        ));
    }
}
