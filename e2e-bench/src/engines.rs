//! The engine phase of the `engines-sweep` workload: the two cycle-level
//! engines `reproduce` barely touches, fed long inputs generated from
//! the seed.
//!
//! - `ooo`: `CoreSimulator::run_with_scratch` over the 18-point
//!   `bench_core_grid(false)` design grid, on a PARSEC-like trace and on
//!   a dependency-bound serial chain.
//! - `coherence`: MESI and Dragon snooping over the CryoBus and MESI
//!   directory over the mesh, each on all four sharing patterns, so
//!   invalidation-heavy and sharing-free runs sit side by side.

use std::fmt::Write as _;
use std::time::Instant;

use cryowire::device::Temperature;
use cryowire::experiments::bench_core_grid;
use cryowire::memory::MemoryDesign;
use cryowire::noc::{CryoBus, RouterClass, RouterNetwork};
use cryowire::ooo::{CoreScratch, CoreSimulator, Trace, TraceConfig};
use cryowire_coherence::{
    AccessTrace, CoherenceConfig, CoherenceMetrics, CoherenceScratch, CoherenceSystem, Protocol,
    SharingPattern, SystemFabric, TraceGenConfig,
};

use crate::sample::Sample;
use crate::sys::md5_hex;
use crate::trace::{self, traced, Recorder, SpanId};
use crate::{splitmix64, DEFAULT_SEED, HELD_OUT_SEED};

/// Instructions per core trace.
const INSTS: usize = 2_000_000;
/// Cores driven by every coherence trace.
const CORES: usize = 8;
/// References per core in every coherence trace.
const ACCESSES_PER_CORE: usize = 50_000;
/// Directory mesh clock, GHz (the 77 K router mesh of `bench-coherence`).
const MESH_CLOCK_GHZ: f64 = 5.44;

/// MD5 over every `CoreMetrics` and `CoherenceMetrics` counter of one
/// iteration, for the seeds whose output is pinned.
const PINNED: [(u64, &str); 2] = [
    (DEFAULT_SEED, "6f98f0980b541432318bf258179652cf"),
    (HELD_OUT_SEED, "7289616d3a92643803320782ca5714f6"),
];

/// The two core traces, by metric name.
pub const CORE_TRACES: [&str; 2] = ["parsec_like", "serial_chain"];

/// The three coherence engines, by metric name.
pub const ENGINES: [&str; 3] = [
    "mesi-snoop-cryobus",
    "mesi-directory-mesh",
    "dragon-snoop-cryobus",
];

/// Everything built before the first timed call.
pub struct Inputs {
    seed: u64,
    core_traces: Vec<(&'static str, Trace)>,
    cores: Vec<(String, CoreSimulator)>,
    core_scratch: CoreScratch,
    coh_traces: Vec<(SharingPattern, AccessTrace)>,
    systems: Vec<(&'static str, CoherenceSystem)>,
    coh_scratch: CoherenceScratch,
    ooo_trace_gen_s: f64,
    coh_trace_gen_s: f64,
}

fn system(engine: &str) -> CoherenceSystem {
    let t77 = Temperature::liquid_nitrogen();
    let config = |protocol| CoherenceConfig {
        protocol,
        ..CoherenceConfig::default()
    };
    let bus = || SystemFabric::CryoBus(CryoBus::new(64, t77));
    let built = match engine {
        "mesi-snoop-cryobus" => {
            CoherenceSystem::snooping(bus(), MemoryDesign::mem_77k(), config(Protocol::Mesi))
        }
        "dragon-snoop-cryobus" => {
            CoherenceSystem::snooping(bus(), MemoryDesign::mem_77k(), config(Protocol::Dragon))
        }
        _ => CoherenceSystem::directory(
            RouterNetwork::mesh64(RouterClass::OneCycle, t77),
            MESH_CLOCK_GHZ,
            MemoryDesign::mem_77k(),
            config(Protocol::Mesi),
        ),
    };
    built.expect("the benchmark's coherence configurations are valid")
}

/// Generates the seed's traces and builds simulators and scratch.
pub fn setup(seed: u64) -> Inputs {
    let t = Instant::now();
    let core_traces = vec![
        (
            "parsec_like",
            TraceConfig::parsec_like().generate(INSTS, splitmix64(seed ^ 1)),
        ),
        (
            "serial_chain",
            TraceConfig::serial_chain().generate(INSTS, splitmix64(seed ^ 2)),
        ),
    ];
    let ooo_trace_gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let coh_traces = SharingPattern::all()
        .into_iter()
        .zip(3..)
        .map(|(pattern, salt)| {
            let config = TraceGenConfig {
                accesses_per_core: ACCESSES_PER_CORE,
                seed: splitmix64(seed ^ salt),
                ..TraceGenConfig::new(pattern, CORES)
            };
            let trace = config
                .generate()
                .expect("the benchmark's trace configurations are valid");
            (pattern, trace)
        })
        .collect();
    let coh_trace_gen_s = t.elapsed().as_secs_f64();
    Inputs {
        seed,
        core_traces,
        cores: bench_core_grid(false)
            .into_iter()
            .map(|(name, config)| (name, CoreSimulator::new(config)))
            .collect(),
        core_scratch: CoreScratch::new(),
        coh_traces,
        systems: ENGINES.iter().map(|&e| (e, system(e))).collect(),
        coh_scratch: CoherenceScratch::new(),
        ooo_trace_gen_s,
        coh_trace_gen_s,
    }
}

fn run_name(engine: &str, pattern: SharingPattern) -> String {
    format!("coherence.run.{engine}.{}", pattern.name())
}

/// Host time and summed counters of the core runs.
#[derive(Default)]
struct CoreTotals {
    secs: f64,
    insts: u64,
    cycles: u64,
    mispredicts: u64,
}

/// Every counter of a coherence run, in a fixed order for the digest.
fn coherence_counters(m: &CoherenceMetrics) -> [u64; 18] {
    [
        m.accesses,
        m.reads,
        m.writes,
        m.hits,
        m.misses,
        m.upgrades,
        m.bus_transactions,
        m.network_messages,
        m.updates,
        m.invalidations,
        m.c2c_transfers,
        m.fills,
        m.writebacks,
        m.evictions,
        m.cycles,
        m.total_latency_cycles,
        m.max_latency_cycles,
        m.fabric_busy_cycles,
    ]
}

/// Runs every trace on every grid point, appending each run's counters
/// to `counters`.
fn run_cores(
    inputs: &mut Inputs,
    rec: Option<&Recorder>,
    root: Option<SpanId>,
    counters: &mut String,
    out: &mut Sample,
) -> CoreTotals {
    let mut totals = CoreTotals::default();
    let t = Instant::now();
    traced(rec, "ooo", root, |ooo| {
        for (trace_name, trace) in &inputs.core_traces {
            traced(rec, format!("ooo.{trace_name}"), ooo, |parent| {
                for (config_name, sim) in &inputs.cores {
                    let span = format!("ooo.{trace_name}.{config_name}");
                    let m = traced(rec, span, parent, |_| {
                        sim.run_with_scratch(trace, &mut inputs.core_scratch)
                    });
                    out.check(m.instructions == trace.len() as u64, || {
                        format!(
                            "{trace_name}/{config_name} committed {} of {}",
                            m.instructions,
                            trace.len()
                        )
                    });
                    totals.insts += m.instructions;
                    totals.cycles += m.cycles;
                    totals.mispredicts += m.mispredicts;
                    let _ = writeln!(
                        counters,
                        "ooo {trace_name} {config_name} {} {} {} {} {}",
                        m.instructions, m.cycles, m.branches, m.mispredicts, m.overrides
                    );
                }
            });
        }
    });
    totals.secs = t.elapsed().as_secs_f64();
    totals
}

/// Runs every engine on every sharing pattern, appending each run's
/// counters to `counters`; returns the host time and summed counters.
fn run_coherence(
    inputs: &mut Inputs,
    rec: Option<&Recorder>,
    root: Option<SpanId>,
    counters: &mut String,
    out: &mut Sample,
) -> (f64, CoherenceMetrics) {
    let mut sum = CoherenceMetrics::default();
    let t = Instant::now();
    traced(rec, "coherence", root, |parent| {
        for (engine, system) in &inputs.systems {
            for (pattern, trace) in &inputs.coh_traces {
                let outcome = traced(rec, run_name(engine, *pattern), parent, |_| {
                    system.run_with(trace, None, &mut inputs.coh_scratch)
                });
                let m = match outcome {
                    Ok(o) => o.metrics,
                    Err(e) => {
                        out.check(false, || format!("{engine}/{}: {e}", pattern.name()));
                        continue;
                    }
                };
                let complete =
                    m.accesses == trace.total_accesses() && m.reads + m.writes == m.accesses;
                out.check(complete, || {
                    let expected = trace.total_accesses();
                    format!(
                        "{engine}/{}: {} of {expected} accesses",
                        pattern.name(),
                        m.accesses
                    )
                });
                let all: Vec<String> = coherence_counters(&m).iter().map(u64::to_string).collect();
                let _ = writeln!(
                    counters,
                    "coh {engine} {} {}",
                    pattern.name(),
                    all.join(" ")
                );
                sum.accesses += m.accesses;
                sum.misses += m.misses;
                sum.invalidations += m.invalidations;
                sum.c2c_transfers += m.c2c_transfers;
                sum.bus_transactions += m.bus_transactions;
                sum.network_messages += m.network_messages;
                sum.cycles += m.cycles;
            }
        }
    });
    (t.elapsed().as_secs_f64(), sum)
}

/// Runs every engine configuration once and checks the counters.
pub fn run(inputs: &mut Inputs, rec: Option<&Recorder>, out: &mut Sample) {
    let mut counters = String::new();
    let (core, (coh_s, coh)) = traced(rec, "engines", None, |root| {
        let core = run_cores(inputs, rec, root, &mut counters, out);
        (core, run_coherence(inputs, rec, root, &mut counters, out))
    });
    out.ops += (inputs.core_traces.len() * inputs.cores.len()
        + inputs.systems.len() * inputs.coh_traces.len()) as u64;
    out.set("core_minst_per_s", core.insts as f64 / core.secs * 1e-6);
    out.set("coh_maccess_per_s", coh.accesses as f64 / coh_s * 1e-6);

    let digest = md5_hex(counters.as_bytes());
    if let Some((_, pinned)) = PINNED.iter().find(|(s, _)| *s == inputs.seed) {
        out.check(digest == *pinned, || {
            format!(
                "engine counters md5 {digest}, pinned {pinned} for seed {}",
                inputs.seed
            )
        });
    }
    out.digest("engines", &digest);

    out.set("ooo.trace_gen_s", inputs.ooo_trace_gen_s);
    out.set("coherence.trace_gen_s", inputs.coh_trace_gen_s);
    out.set("ooo.insts", core.insts as f64);
    out.set("ooo.cycles", core.cycles as f64);
    out.set("ooo.mispredicts", core.mispredicts as f64);
    for (name, v) in [
        ("accesses", coh.accesses),
        ("misses", coh.misses),
        ("invalidations", coh.invalidations),
        ("c2c_transfers", coh.c2c_transfers),
        ("bus_transactions", coh.bus_transactions),
        ("network_messages", coh.network_messages),
        ("cycles", coh.cycles),
    ] {
        out.set(&format!("coherence.{name}"), v as f64);
    }
    if let Some(rec) = rec {
        layer_metrics(&rec.spans(), inputs, out);
    }
}

/// Per-layer host times of one traced run from its spans.
fn layer_metrics(spans: &[trace::Span], inputs: &Inputs, out: &mut Sample) {
    let named = |name: &str| trace::total_secs(spans, |s| s.name == name);
    let ooo = named("ooo");
    let coh = named("coherence");
    out.set("ooo.run_s", ooo);
    out.set("ooo.wall_s", ooo);
    out.set("coherence.run_s", coh);
    out.set("coherence.wall_s", coh);
    for (name, trace) in &inputs.core_traces {
        let per_inst = named(&format!("ooo.{name}")) / (trace.len() * inputs.cores.len()) as f64;
        out.set(&format!("ooo.{name}.ns_per_inst"), per_inst * 1e9);
    }
    let accesses = |p: &AccessTrace| p.total_accesses() as f64;
    for (pattern, trace) in &inputs.coh_traces {
        let secs: f64 = ENGINES.iter().map(|e| named(&run_name(e, *pattern))).sum();
        let per_access = secs / (accesses(trace) * ENGINES.len() as f64);
        out.set(
            &format!("coherence.{}.ns_per_access", pattern.name()),
            per_access * 1e9,
        );
    }
    let all_accesses: f64 = inputs.coh_traces.iter().map(|(_, t)| accesses(t)).sum();
    for engine in ENGINES {
        let secs: f64 = inputs
            .coh_traces
            .iter()
            .map(|(p, _)| named(&run_name(engine, *p)))
            .sum();
        out.set(
            &format!("coherence.{engine}.ns_per_access"),
            secs / all_accesses * 1e9,
        );
    }
}
