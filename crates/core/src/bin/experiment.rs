//! Run a single experiment by id.
//!
//! ```sh
//! cargo run --release --bin experiment -- fig23
//! cargo run --release --bin experiment -- list
//! cargo run --release --bin experiment -- fig21 --full
//! ```

use cryowire::experiments::*;
use cryowire::Report;

/// Runs one experiment at a given fidelity.
type Run = fn(Fidelity) -> Report;

/// Every experiment id, in `list` order, with the function that runs it.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig2", |_| fig02_stage_breakdown().report()),
    ("fig3", |_| fig03_cpi_stacks().report()),
    ("fig5", |_| fig05_wire_speedup().report()),
    ("fig9", |_| fig09_validation().report()),
    ("fig10", |_| fig10_link_validation().report()),
    ("fig12", |_| fig12_critical_path_300k().report()),
    ("fig13", |_| fig13_critical_path_77k().report()),
    ("fig14", |_| fig14_superpipelined().report()),
    ("tab1", |_| tab01_floorplan().report()),
    ("tab3", |_| tab03_core_specs().report()),
    ("tab4", |_| tab04_setup()),
    ("fig16", |_| fig16_llc_latency().report()),
    ("fig17", |_| fig17_bus_vs_mesh().report()),
    ("fig18", |f| fig18_bus_load_latency(f).report()),
    ("fig20", |_| fig20_bus_latency_breakdown().report()),
    ("fig21", |f| fig21_noc_load_latency(f).report()),
    ("fig22", |_| fig22_noc_power().report()),
    ("fig23", |f| fig23_system_performance(f).report()),
    ("fig24", |f| fig24_spec_prefetch(f).report()),
    ("fig25", |f| fig25_traffic_patterns(f).report()),
    ("fig26", |f| fig26_hybrid_256(f).report()),
    ("fig27", |_| fig27_temperature_sweep().report()),
    ("abl-bus", |_| ablation_bus_topology().report()),
    ("abl-ways", |_| ablation_interleaving().report()),
    ("abl-ff", |_| ablation_ff_overhead().report()),
    ("abl-alu", |_| ablation_alu_count().report()),
    ("abl-thick", |_| ablation_wire_thickness().report()),
    ("abl-depth", |_| ablation_depth_sweep().report()),
    ("abl-engine", |_| ablation_engine_comparison().report()),
    ("abl-core-engine", |_| ablation_core_engine().report()),
    ("abl-ipc", |_| ipc_cross_validation().report()),
    ("abl-coherence", |_| coherence_cross_validation().report()),
    ("cpi-sim", |_| cpi_stack_cycle_level().report()),
    ("summary", |f| headline_summary(f).report()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fidelity = if args.iter().any(|a| a == "--full") {
        Fidelity::Full
    } else {
        Fidelity::Quick
    };
    let id = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str);

    match id {
        None | Some("list") => {
            println!("available experiments:");
            for (id, _) in EXPERIMENTS {
                println!("  {id}");
            }
            println!("\nusage: experiment <id> [--full] [--json]");
        }
        Some(id) => match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
            Some((_, run)) => {
                let report = run(fidelity);
                if args.iter().any(|a| a == "--json") {
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&report).expect("reports serialize")
                    );
                } else {
                    println!("{report}");
                }
            }
            None => {
                eprintln!("unknown experiment `{id}`; try `experiment list`");
                std::process::exit(1);
            }
        },
    }
}
