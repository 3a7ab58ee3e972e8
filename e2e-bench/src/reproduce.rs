//! The `reproduce` and `reproduce-par` workloads: every table and figure
//! of the `reproduce` binary at Quick fidelity, in paper order, through
//! the harness executor — the run users make by default.
//!
//! The task list mirrors `crates/core/src/bin/reproduce.rs` (a binary,
//! so its list cannot be imported). The pinned digest is the MD5 of the
//! exact text that binary prints, so any drift between the two lists —
//! an experiment added, removed or reordered — fails the gate.

use std::time::Instant;

use cryowire::experiments::{self, Fidelity, HeadlineSummary};
use cryowire::Report;
use cryowire_harness::Executor;

use crate::sample::Sample;
use crate::sys::{md5_hex, process_cpu_s};
use crate::trace::{self, traced, Recorder};

/// MD5 of `reproduce`'s Quick text output (`reproduce | md5sum`).
pub const REPRODUCE_MD5: &str = "e4326d6404a37fb3b581f577882870e0";

/// Largest share of the serial run's `wall_s` that may fall outside
/// every experiment and the report span (executor dispatch only).
const MAX_REMAINDER_SHARE: f64 = 0.01;

/// The crate whose work dominates an experiment; per-layer roll-ups sum
/// experiment time by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Cycle-level and analytic NoC models (`cryowire-noc`).
    Noc,
    /// The 64-core system model (`cryowire-system`).
    System,
    /// The cycle-level out-of-order core (`cryowire-ooo`).
    Ooo,
    /// Coherence protocols (`cryowire-memory`, `cryowire-coherence`).
    Coherence,
    /// Closed-form models: device, floorplan, pipeline and power.
    Analytic,
}

impl Layer {
    /// Metric prefix of the roll-up.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Noc => "noc",
            Layer::System => "system",
            Layer::Ooo => "ooo",
            Layer::Coherence => "coherence",
            Layer::Analytic => "analytic",
        }
    }

    /// Every roll-up, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Noc,
        Layer::System,
        Layer::Ooo,
        Layer::Coherence,
        Layer::Analytic,
    ];
}

/// Experiment → dominant-crate mapping. Every task id must appear
/// exactly once (the `every_task_maps_to_exactly_one_layer` test).
pub const LAYER_OF: [(Layer, &[&str]); 5] = [
    (
        Layer::Noc,
        &[
            "fig16",
            "fig18",
            "fig20",
            "fig21",
            "fig25",
            "fig26",
            "abl-bus",
            "abl-ways",
            "abl-engine",
        ],
    ),
    (
        Layer::System,
        &[
            "fig3", "tab4", "fig17", "fig23", "fig24", "fig27", "summary",
        ],
    ),
    (Layer::Ooo, &["abl-core-engine", "abl-ipc", "cpi-sim"]),
    (Layer::Coherence, &["abl-coherence"]),
    (
        Layer::Analytic,
        &[
            "fig2",
            "fig5",
            "fig9",
            "fig10",
            "fig12",
            "fig13",
            "fig14",
            "tab1",
            "tab3",
            "fig22",
            "abl-ff",
            "abl-alu",
            "abl-thick",
            "abl-depth",
        ],
    ),
];

/// Experiments reported one by one (`core.exp.<id>.*`): the slowest
/// ones plus one representative per remaining layer. The rest are
/// summed into `core.exp.rest.wall_s`.
pub const NAMED: [&str; 11] = [
    "abl-engine",
    "fig25",
    "fig26",
    "fig27",
    "fig23",
    "fig24",
    "summary",
    "fig21",
    "fig17",
    "fig3",
    "cpi-sim",
];

/// The dominant crate of experiment `id`, if mapped.
pub fn layer_of(id: &str) -> Option<Layer> {
    LAYER_OF
        .iter()
        .find(|(_, ids)| ids.contains(&id))
        .map(|(layer, _)| *layer)
}

/// What one task contributes to the output.
pub struct Section {
    report: Report,
    summary: Option<String>,
    headline: Option<HeadlineSummary>,
}

fn only(report: Report) -> Section {
    Section {
        report,
        summary: None,
        headline: None,
    }
}

/// One experiment of the task list.
pub struct Task {
    /// Experiment id as `experiment list` prints it.
    pub id: &'static str,
    run: Box<dyn Fn() -> Section + Sync>,
}

fn task(id: &'static str, run: impl Fn() -> Section + Sync + 'static) -> Task {
    Task {
        id,
        run: Box::new(run),
    }
}

/// `reproduce`'s task list at `fidelity`, in paper order.
pub fn tasks(fidelity: Fidelity) -> Vec<Task> {
    vec![
        task("fig2", || {
            only(experiments::fig02_stage_breakdown().report())
        }),
        task("fig3", || only(experiments::fig03_cpi_stacks().report())),
        task("fig5", || only(experiments::fig05_wire_speedup().report())),
        task("fig9", || only(experiments::fig09_validation().report())),
        task("fig10", || {
            only(experiments::fig10_link_validation().report())
        }),
        task("fig12", || {
            only(experiments::fig12_critical_path_300k().report())
        }),
        task("fig13", || {
            only(experiments::fig13_critical_path_77k().report())
        }),
        task("fig14", || {
            only(experiments::fig14_superpipelined().report())
        }),
        task("tab1", || only(experiments::tab01_floorplan().report())),
        task("tab3", || only(experiments::tab03_core_specs().report())),
        task("tab4", || only(experiments::tab04_setup())),
        task("fig16", || only(experiments::fig16_llc_latency().report())),
        task("fig17", || only(experiments::fig17_bus_vs_mesh().report())),
        task("fig18", move || {
            only(experiments::fig18_bus_load_latency(fidelity).report())
        }),
        task("fig20", || {
            only(experiments::fig20_bus_latency_breakdown().report())
        }),
        task("fig21", move || {
            only(experiments::fig21_noc_load_latency(fidelity).report())
        }),
        task("fig22", || only(experiments::fig22_noc_power().report())),
        task("fig23", move || {
            let fig23 = experiments::fig23_system_performance(fidelity);
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
                headline: None,
            }
        }),
        task("fig24", move || {
            let fig24 = experiments::fig24_spec_prefetch(fidelity);
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
                headline: None,
            }
        }),
        task("fig25", move || {
            only(experiments::fig25_traffic_patterns(fidelity).report())
        }),
        task("fig26", move || {
            only(experiments::fig26_hybrid_256(fidelity).report())
        }),
        task("fig27", || {
            only(experiments::fig27_temperature_sweep().report())
        }),
        task("abl-bus", || {
            only(experiments::ablation_bus_topology().report())
        }),
        task("abl-ways", || {
            only(experiments::ablation_interleaving().report())
        }),
        task("abl-ff", || {
            only(experiments::ablation_ff_overhead().report())
        }),
        task("abl-alu", || {
            only(experiments::ablation_alu_count().report())
        }),
        task("abl-thick", || {
            only(experiments::ablation_wire_thickness().report())
        }),
        task("abl-depth", || {
            only(experiments::ablation_depth_sweep().report())
        }),
        task("abl-engine", || {
            only(experiments::ablation_engine_comparison().report())
        }),
        task("abl-core-engine", || {
            only(experiments::ablation_core_engine().report())
        }),
        task("abl-ipc", || {
            only(experiments::ipc_cross_validation().report())
        }),
        task("cpi-sim", || {
            only(experiments::cpi_stack_cycle_level().report())
        }),
        task("abl-coherence", || {
            only(experiments::coherence_cross_validation().report())
        }),
        task("summary", move || {
            let headline = experiments::headline_summary(fidelity);
            Section {
                report: headline.report(),
                summary: None,
                headline: Some(headline),
            }
        }),
    ]
}

/// Mean |measured / paper − 1| over the abstract's four claims.
fn paper_rel_err(h: &HeadlineSummary) -> f64 {
    let claims = [
        (h.cryosp_clock_gain, 1.96),
        (h.cryobus_latency_factor, 5.0),
        (h.system_speedup_vs_300k, 3.82),
        (h.system_speedup_vs_chp, 2.53),
    ];
    claims.iter().map(|(m, p)| (m / p - 1.0).abs()).sum::<f64>() / claims.len() as f64
}

/// The text `reproduce` prints for `sections`.
fn render(sections: &[Section]) -> String {
    let mut s = String::new();
    for section in sections {
        s.push_str(&section.report.to_string());
        s.push('\n');
        if let Some(summary) = &section.summary {
            s.push_str(summary);
            s.push('\n');
        }
    }
    s
}

/// Builds the task list (the workload's set-up).
pub fn setup() -> Vec<Task> {
    tasks(Fidelity::Quick)
}

/// Runs every task on `threads` executor workers, renders the text and
/// checks it against the pinned digest.
pub fn run(tasks: &[Task], threads: usize, rec: Option<&Recorder>, out: &mut Sample) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    // Per-experiment CPU is attributable only when experiments do not
    // overlap, i.e. on one executor thread.
    let exp_cpu = std::sync::Mutex::new(Vec::new());
    let (sections, digest) = traced(rec, "reproduce", None, |root| {
        let sections = traced(rec, "executor", root, |exec| {
            Executor::new(threads).run(tasks, |_, t| {
                traced(rec, format!("exp.{}", t.id), exec, |_| {
                    let c0 = (rec.is_some() && threads == 1).then(process_cpu_s);
                    let section = (t.run)();
                    if let Some(c0) = c0 {
                        exp_cpu
                            .lock()
                            .expect("cpu log lock is never poisoned")
                            .push((t.id, process_cpu_s() - c0));
                    }
                    section
                })
            })
        });
        let digest = traced(rec, "report", root, |_| {
            md5_hex(render(&sections).as_bytes())
        });
        (sections, digest)
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    out.ops += tasks.len() as u64;

    out.check(digest == REPRODUCE_MD5, || {
        format!("reproduce text md5 {digest}, pinned {REPRODUCE_MD5}")
    });
    out.digest("reproduce", &digest);
    match sections.iter().find_map(|s| s.headline.as_ref()) {
        Some(h) => out.set("paper_rel_err", paper_rel_err(h)),
        None => out.check(false, || "no headline summary section".to_string()),
    }

    if let Some(rec) = rec {
        let exp_cpu = exp_cpu
            .into_inner()
            .expect("cpu log lock is never poisoned");
        layer_metrics(&rec.spans(), threads, wall, cpu, &exp_cpu, out);
    }
}

/// Per-layer metrics of one traced run from its spans.
fn layer_metrics(
    spans: &[trace::Span],
    threads: usize,
    wall: f64,
    cpu: f64,
    exp_cpu: &[(&str, f64)],
    out: &mut Sample,
) {
    fn exp(s: &trace::Span) -> Option<&str> {
        s.name.strip_prefix("exp.")
    }
    for id in NAMED {
        out.set(
            &format!("core.exp.{id}.wall_s"),
            trace::total_secs(spans, |s| exp(s) == Some(id)),
        );
        if threads == 1 {
            let c: f64 = exp_cpu
                .iter()
                .filter(|(e, _)| *e == id)
                .map(|(_, c)| c)
                .sum();
            out.set(&format!("core.exp.{id}.cpu_s"), c);
        }
    }
    out.set(
        "core.exp.rest.wall_s",
        trace::total_secs(spans, |s| exp(s).is_some_and(|id| !NAMED.contains(&id))),
    );
    out.set(
        "core.report_s",
        trace::total_secs(spans, |s| s.name == "report"),
    );
    out.set("core.parallelism", cpu / wall);
    for layer in Layer::ALL {
        out.set(
            &format!("{}.wall_s", layer.name()),
            trace::total_secs(spans, |s| exp(s).and_then(layer_of) == Some(layer)),
        );
    }

    let exec = spans
        .iter()
        .position(|s| s.name == "executor")
        .expect("the executor span is recorded");
    let task_spans = || spans.iter().filter(|s| exp(s).is_some());
    out.set(
        "executor.critical_s",
        task_spans().map(trace::Span::secs).fold(0.0, f64::max),
    );
    out.set(
        "executor.idle_s",
        threads as f64 * spans[exec].secs() - task_spans().map(trace::Span::secs).sum::<f64>(),
    );

    // Coverage: outside the experiment spans and the report span only
    // executor dispatch may remain.
    let root = spans
        .iter()
        .position(|s| s.name == "reproduce")
        .expect("the root span is recorded");
    let remainder = trace::self_secs(spans, root) + trace::self_secs(spans, exec);
    out.set("core.remainder_s", remainder);
    if threads == 1 {
        out.check(remainder <= MAX_REMAINDER_SHARE * wall, || {
            format!(
                "experiment spans leave {remainder:.4} s of {wall:.4} s uncovered \
                 (limit {MAX_REMAINDER_SHARE})"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_maps_to_exactly_one_layer() {
        let tasks = tasks(Fidelity::Quick);
        for t in &tasks {
            let owners = LAYER_OF
                .iter()
                .filter(|(_, ids)| ids.contains(&t.id))
                .count();
            assert_eq!(owners, 1, "experiment `{}` maps to {owners} layers", t.id);
        }
        let mapped: usize = LAYER_OF.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(
            mapped,
            tasks.len(),
            "the mapping names an experiment not in the task list"
        );
        let mut ids: Vec<_> = tasks.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len(), "task ids are unique");
        assert!(NAMED.iter().all(|id| ids.contains(id)));
    }
}
