//! The evaluation's one id-to-function list, in paper order. `reproduce`
//! runs every entry; `experiment <id>` runs one.

use super::*;
use crate::Report;

/// What one experiment prints: its report, plus a free-form summary line
/// that `reproduce` prints after the table (fig23 and fig24 only).
#[derive(Debug)]
pub struct Section {
    /// The rendered rows/series.
    pub report: Report,
    /// Text-mode summary line, newline-terminated.
    pub summary: Option<String>,
}

impl From<Report> for Section {
    fn from(report: Report) -> Self {
        Section {
            report,
            summary: None,
        }
    }
}

/// One runnable artifact of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `experiment <id>` takes and the report header shows.
    pub id: &'static str,
    /// Runs the experiment; analytic experiments ignore the fidelity.
    pub run: fn(Fidelity) -> Section,
}

/// Every table, figure, ablation and cross-validation, in paper order.
#[must_use]
pub fn registry() -> &'static [Experiment] {
    REGISTRY
}

const fn entry(id: &'static str, run: fn(Fidelity) -> Section) -> Experiment {
    Experiment { id, run }
}

const REGISTRY: &[Experiment] = &[
    entry("fig2", |_| fig02_stage_breakdown().report().into()),
    entry("fig3", |_| fig03_cpi_stacks().report().into()),
    entry("fig5", |_| fig05_wire_speedup().report().into()),
    entry("fig9", |_| fig09_validation().report().into()),
    entry("fig10", |_| fig10_link_validation().report().into()),
    entry("fig12", |_| fig12_critical_path_300k().report().into()),
    entry("fig13", |_| fig13_critical_path_77k().report().into()),
    entry("fig14", |_| fig14_superpipelined().report().into()),
    entry("tab1", |_| tab01_floorplan().report().into()),
    entry("tab3", |_| tab03_core_specs().report().into()),
    entry("tab4", |_| tab04_setup().into()),
    entry("fig16", |_| fig16_llc_latency().report().into()),
    entry("fig17", |_| fig17_bus_vs_mesh().report().into()),
    entry("fig18", |f| fig18_bus_load_latency(f).report().into()),
    entry("fig20", |_| fig20_bus_latency_breakdown().report().into()),
    entry("fig21", |f| fig21_noc_load_latency(f).report().into()),
    entry("fig22", |_| fig22_noc_power().report().into()),
    entry("fig23", |f| {
        let fig23 = fig23_system_performance(f);
        let summary = format!(
            "fig23 summary: {:.2}x vs CHP (paper 2.53), {:.2}x vs 300K (paper 3.82), \
             CryoSP-only {:.3} (paper 1.161), CryoBus-only {:.2} (paper ~2.1), \
             best case {} at {:.2}x (paper: streamcluster 5.74)\n",
            fig23.average_speedup_vs_chp,
            fig23.average_speedup_vs_300k,
            fig23.cryosp_only_speedup,
            fig23.cryobus_only_speedup,
            fig23.best_case.0,
            fig23.best_case.1
        );
        Section {
            report: fig23.report(),
            summary: Some(summary),
        }
    }),
    entry("fig24", |f| {
        let fig24 = fig24_spec_prefetch(f);
        let summary = format!(
            "fig24 summary: {:.2}x vs 300K (paper 2.11), {:.2}x vs CHP (paper 1.372), \
             2-way {:.2}x vs 300K (paper 2.34); contention-bound: {:?}\n",
            fig24.cryobus_vs_300k,
            fig24.cryobus_vs_chp,
            fig24.cryobus2_vs_300k,
            fig24.contention_bound
        );
        Section {
            report: fig24.report(),
            summary: Some(summary),
        }
    }),
    entry("fig25", |f| fig25_traffic_patterns(f).report().into()),
    entry("fig26", |f| fig26_hybrid_256(f).report().into()),
    entry("fig27", |_| fig27_temperature_sweep().report().into()),
    entry("abl-bus", |_| ablation_bus_topology().report().into()),
    entry("abl-ways", |_| ablation_interleaving().report().into()),
    entry("abl-ff", |_| ablation_ff_overhead().report().into()),
    entry("abl-alu", |_| ablation_alu_count().report().into()),
    entry("abl-thick", |_| ablation_wire_thickness().report().into()),
    entry("abl-depth", |_| ablation_depth_sweep().report().into()),
    entry("abl-engine", |_| {
        ablation_engine_comparison().report().into()
    }),
    entry("abl-core-engine", |_| {
        ablation_core_engine().report().into()
    }),
    entry("abl-ipc", |_| ipc_cross_validation().report().into()),
    entry("cpi-sim", |_| cpi_stack_cycle_level().report().into()),
    entry("abl-coherence", |_| {
        coherence_cross_validation().report().into()
    }),
    entry("summary", |f| headline_summary(f).report().into()),
];
