//! End-to-end benchmark of the CryoWire reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload reproduce --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The process started by that command is the *controller*: a closed loop
//! with one caller that starts a fresh *worker* process (this same
//! executable with `--worker`) per iteration, so every iteration starts
//! cold the way a user's process does — empty `TraceArena::global()`,
//! fresh cache directory and journal. It repeats until `--seconds` have
//! passed, checks every worker's outputs, and prints each metric's
//! median by name and unit, then one JSON result line. With `--trace 1`
//! it alternates untraced and traced workers and prints the per-layer
//! metrics instead. Between workers the controller times a fixed kernel of
//! its own, so host times can be reported at a reference host speed.
//! See `README.md` for the workloads and metrics.

mod engines;
mod reproduce;
mod sample;
mod sweep_journal;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sample::Sample;
use trace::Recorder;

/// Seed used when `--seed` is omitted; its outputs are pinned.
pub const DEFAULT_SEED: u64 = 42;
/// Seed held out from tuning; its outputs are pinned too, and a claimed
/// gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_221_028;

/// Fewest worker runs a result is built from (per kind when tracing).
const MIN_SAMPLES: usize = 3;
/// Extra set-up-only workers per run, so `setup_s` is a median of many.
const SETUP_PROBES: usize = 8;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["reproduce", "reproduce-par", "engines-sweep"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("max_rss_mb", "MiB"),
];

/// `host.calibration_s` on the host the bounds were tuned on (2 vCPUs
/// of an Intel Xeon). Host times are reported at that host speed: each
/// worker's times are scaled by this over its own calibration time.
const REFERENCE_CALIBRATION_S: f64 = 0.037;

/// Per-layer metrics measured on untraced workers: workload-specific
/// throughputs, the model-accuracy sentinel and the host speed.
const FROM_UNTRACED: [&str; 6] = [
    "paper_rel_err",
    "core_minst_per_s",
    "coh_maccess_per_s",
    "cold_points_per_s",
    "warm_points_per_s",
    "host.calibration_s",
];

/// Every per-layer metric (`--trace 1`), with units, in report order. A
/// metric of a layer the workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("error_rate".into(), "ratio"),
        ("trace.overhead_s".into(), "s"),
        ("host.calibration_s".into(), "s"),
        ("raw.wall_s".into(), "s"),
        ("raw.cpu_s".into(), "s"),
        ("paper_rel_err".into(), "ratio"),
        ("core_minst_per_s".into(), "Minst/s"),
        ("coh_maccess_per_s".into(), "Maccess/s"),
        ("cold_points_per_s".into(), "points/s"),
        ("warm_points_per_s".into(), "points/s"),
    ];
    for id in reproduce::NAMED {
        m.push((format!("core.exp.{id}.wall_s"), "s"));
        m.push((format!("core.exp.{id}.cpu_s"), "s"));
    }
    for name in ["core.exp.rest.wall_s", "core.report_s", "core.remainder_s"] {
        m.push((name.into(), "s"));
    }
    m.push(("core.parallelism".into(), "cores"));
    for layer in reproduce::Layer::ALL {
        m.push((format!("{}.wall_s", layer.name()), "s"));
    }
    for name in [
        "executor.critical_s",
        "executor.idle_s",
        "ooo.run_s",
        "ooo.trace_gen_s",
    ] {
        m.push((name.into(), "s"));
    }
    for t in engines::CORE_TRACES {
        m.push((format!("ooo.{t}.ns_per_inst"), "ns"));
    }
    for name in ["ooo.insts", "ooo.cycles", "ooo.mispredicts"] {
        m.push((name.into(), "count"));
    }
    for name in ["coherence.run_s", "coherence.trace_gen_s"] {
        m.push((name.into(), "s"));
    }
    for p in cryowire_coherence::SharingPattern::all() {
        m.push((format!("coherence.{}.ns_per_access", p.name()), "ns"));
    }
    for e in engines::ENGINES {
        m.push((format!("coherence.{e}.ns_per_access"), "ns"));
    }
    for c in [
        "accesses",
        "misses",
        "invalidations",
        "c2c_transfers",
        "bus_transactions",
        "network_messages",
        "cycles",
    ] {
        m.push((format!("coherence.{c}"), "count"));
    }
    for pass in ["cold", "warm", "resume"] {
        m.push((format!("harness.{pass}.us_per_point"), "us"));
    }
    for name in [
        "harness.cold.eval_s",
        "harness.recover_s",
        "harness.canonical_json_s",
    ] {
        m.push((name.into(), "s"));
    }
    m.push(("harness.journal_bytes".into(), "bytes"));
    m.push(("harness.cache_bytes".into(), "bytes"));
    m.push(("harness.warm.hit_ratio".into(), "ratio"));
    m.push(("harness.journal_errors".into(), "count"));
    m.push(("harness.quarantine_failed".into(), "count"));
    m
}

/// Scrambles a seed into an independent stream (SplitMix64 finalizer).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Executor threads a workload runs with: `reproduce-par` uses
/// `min(2, nproc)`, everything else one.
fn threads_of(workload: &str) -> usize {
    if workload == "reproduce-par" {
        sys::nproc().min(2)
    } else {
        1
    }
}

/// Parsed command line.
#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Worker mode: run one iteration (or only its set-up) and print
    /// the sample.
    worker: bool,
    setup_only: bool,
    traced: bool,
    run_id: u64,
    spawned_at_ns: u128,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        worker: false,
        setup_only: false,
        traced: false,
        run_id: 0,
        spawned_at_ns: 0,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = number(value("--seed")?)?,
            "--seconds" => args.seconds = number(value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--worker" => args.worker = true,
            "--setup-only" => args.setup_only = true,
            "--traced" => args.traced = true,
            "--run-id" => args.run_id = number(value("--run-id")?)?,
            "--spawned-at-ns" => {
                let v = value("--spawned-at-ns")?;
                args.spawned_at_ns = v
                    .parse()
                    .map_err(|_| format!("`{v}` is not a whole number"))?;
            }
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let controller_all = args.workload == "all" && !args.worker;
    if !WORKLOADS.contains(&args.workload.as_str()) && !controller_all {
        return Err(format!(
            "--workload must be one of {} or all, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// One worker iteration: set up, report how long the process waited
/// before its first timed call, then (unless `--setup-only`) run the
/// workload once and print the sample.
fn worker(args: &Args) {
    enum Inputs {
        Reproduce(Vec<reproduce::Task>),
        EnginesSweep(Box<engines::Inputs>, sweep_journal::Inputs),
    }
    let mut inputs = match args.workload.as_str() {
        "engines-sweep" => {
            let dir = args.dir.as_deref().expect("the controller passes --dir");
            let engine_inputs = Box::new(engines::setup(args.seed));
            Inputs::EnginesSweep(engine_inputs, sweep_journal::setup(args.seed, dir))
        }
        _ => Inputs::Reproduce(reproduce::setup()),
    };
    let mut out = Sample::default();
    let waited_ns = unix_ns().saturating_sub(args.spawned_at_ns);
    out.set("setup_s", waited_ns as f64 * 1e-9);
    if !args.setup_only {
        let recorder = args.traced.then(|| Recorder::new(args.run_id));
        let rec = recorder.as_ref();
        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        match &mut inputs {
            Inputs::Reproduce(tasks) => {
                reproduce::run(tasks, threads_of(&args.workload), rec, &mut out);
            }
            Inputs::EnginesSweep(engine_inputs, sweep_inputs) => {
                engines::run(engine_inputs, rec, &mut out);
                sweep_journal::run(sweep_inputs, rec, &mut out);
            }
        }
        out.set("wall_s", t0.elapsed().as_secs_f64());
        out.set("cpu_s", sys::process_cpu_s() - cpu0);
        out.set("max_rss_mb", sys::peak_rss_mb());
    }
    print!("{}", out.encode());
}

/// Root of the checkout the benchmark was built in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the checkout")
}

/// Parent of every controller's worker directories.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// This controller's directory; each worker gets a fresh subdirectory for
/// its cache and journal.
fn run_dir(args: &Args) -> PathBuf {
    work_dir().join(format!("{}-{}", args.workload, std::process::id()))
}

/// Starts one worker and waits for its sample.
fn spawn(args: &Args, run_id: u64, traced: bool, setup_only: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let dir = run_dir(args).join(run_id.to_string());
    let mut cmd = Command::new(exe);
    cmd.args(["--worker", "--workload", &args.workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--run-id",
            &run_id.to_string(),
        ])
        .arg("--dir")
        .arg(&dir);
    if traced {
        cmd.arg("--traced");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    cmd.args(["--spawned-at-ns", &unix_ns().to_string()]);
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "worker {run_id} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Sample::parse(&String::from_utf8_lossy(&output.stdout))
}

/// [`spawn`] between two host-speed readings taken by the controller while
/// no worker runs; their mean becomes the worker's `host.calibration_s`.
/// `host` holds the reading after the previous worker, which is also
/// the one before this worker, and is advanced.
fn spawn_calibrated(
    args: &Args,
    run_id: u64,
    traced: bool,
    setup_only: bool,
    host: &mut f64,
) -> Result<Sample, String> {
    let result = spawn(args, run_id, traced, setup_only);
    let after = sys::calibration_s();
    let mean = (*host + after) / 2.0;
    *host = after;
    result.map(|mut s| {
        s.set("host.calibration_s", mean);
        s
    })
}

/// Median of `values` (0 when empty).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median over `samples` of measurement `name`.
fn median_of<'a>(samples: impl IntoIterator<Item = &'a Sample>, name: &str) -> f64 {
    let mut v: Vec<f64> = samples
        .into_iter()
        .filter_map(|s| s.values.get(name).copied())
        .collect();
    median(&mut v)
}

/// Host time `name` of one worker at the reference host speed: the
/// measured seconds times the reference calibration time over the
/// worker's own. A host that runs everything 20 % slower for a while
/// slows the calibration kernel too, and the two cancel.
fn at_reference_speed(s: &Sample, name: &str) -> Option<f64> {
    let host = s.values.get("host.calibration_s")?;
    Some(s.values.get(name)? * REFERENCE_CALIBRATION_S / host)
}

/// Median over `samples` of host time `name` at the reference speed.
fn median_at_reference_speed<'a>(samples: impl IntoIterator<Item = &'a Sample>, name: &str) -> f64 {
    let mut v: Vec<f64> = samples
        .into_iter()
        .filter_map(|s| at_reference_speed(s, name))
        .collect();
    median(&mut v)
}

/// What one workload's run concluded.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// The one-line JSON result.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Runs `args.workload` for `args.seconds`, prints the stamp, every
/// metric and every failed check, and returns the outcome.
fn measure(args: &Args) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut crashes: Vec<String> = Vec::new();
    let mut run_id = 0;
    let mut host = sys::calibration_s();
    loop {
        let trace_this = args.trace && run_id % 2 == 1;
        match spawn_calibrated(args, run_id, trace_this, false, &mut host) {
            Ok(s) if trace_this => traced.push(s),
            Ok(s) => untraced.push(s),
            Err(e) => crashes.push(e),
        }
        run_id += 1;
        let enough = untraced.len() >= MIN_SAMPLES && (!args.trace || traced.len() >= MIN_SAMPLES);
        if started.elapsed() >= budget && (enough || !crashes.is_empty()) {
            break;
        }
    }
    let mut probes: Vec<Sample> = Vec::new();
    for _ in 0..SETUP_PROBES {
        match spawn_calibrated(args, run_id, false, true, &mut host) {
            Ok(s) => probes.push(s),
            Err(e) => crashes.push(e),
        }
        run_id += 1;
    }
    // The directories go only after the last worker, so no file
    // deletion overlaps a measured worker. Removing the shared parent
    // fails harmlessly while another controller still uses it.
    let _ = std::fs::remove_dir_all(run_dir(args));
    let _ = std::fs::remove_dir(work_dir());

    // Correctness: every worker's own checks, no crash, and one digest
    // per name across all runs of this seed.
    let all: Vec<&Sample> = untraced.iter().chain(&traced).collect();
    let mut failures: Vec<String> = all.iter().flat_map(|s| s.failures.clone()).collect();
    failures.extend(crashes.iter().cloned());
    if let Some(first) = all.first() {
        for (name, digest) in &first.digests {
            if all.iter().any(|s| s.digests.get(name) != Some(digest)) {
                failures.push(format!("digest `{name}` differs between runs of one seed"));
            }
        }
    }
    let ops_per_run = all.first().map_or(1, |s| s.ops.max(1));
    let attempted: u64 =
        all.iter().map(|s| s.ops).sum::<u64>() + crashes.len() as u64 * ops_per_run;
    let correct = failures.is_empty() && !all.is_empty();
    // A failed check invalidates every operation of the run.
    let failed = if correct { 0 } else { attempted };

    let metrics: Vec<(String, &'static str, f64)> = if args.trace {
        let untraced_wall = median_at_reference_speed(&untraced, "wall_s");
        let traced_wall = median_at_reference_speed(&traced, "wall_s");
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "error_rate" => failed as f64 / attempted.max(1) as f64,
                    "trace.overhead_s" => traced_wall - untraced_wall,
                    "raw.wall_s" => median_of(&untraced, "wall_s"),
                    "raw.cpu_s" => median_of(&untraced, "cpu_s"),
                    n if FROM_UNTRACED.contains(&n) => median_of(&untraced, n),
                    n => median_of(&traced, n),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "max_rss_mb" => median_of(&untraced, name),
                    "setup_s" => median_at_reference_speed(untraced.iter().chain(&probes), name),
                    _ => median_at_reference_speed(&untraced, name),
                };
                (name.to_string(), unit, value)
            })
            .collect()
    };
    let known: Vec<String> = per_layer()
        .into_iter()
        .map(|(n, _)| n)
        .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
        .collect();
    for s in &all {
        for name in s.values.keys() {
            assert!(
                known.contains(name),
                "worker emitted unlisted metric `{name}`"
            );
        }
    }

    let stamp = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("threads", threads_of(&args.workload).to_string()),
        ("nproc", sys::nproc().to_string()),
        ("cpu", sys::cpu_model()),
        ("rustc", env!("E2E_BENCH_RUSTC").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", sys::git_commit(repo_root())),
        ("trace", u8::from(args.trace).to_string()),
        (
            "runs",
            format!("{} untraced, {} traced", untraced.len(), traced.len()),
        ),
    ];
    let stamp: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("# {}", stamp.join(" "));
    for (name, unit, value) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    if !args.trace {
        println!(
            "# as measured: wall_s = {} s, cpu_s = {} s, setup_s = {} s, host.calibration_s = {} s (reference {REFERENCE_CALIBRATION_S} s)",
            median_of(&untraced, "wall_s"),
            median_of(&untraced, "cpu_s"),
            median_of(untraced.iter().chain(&probes), "setup_s"),
            median_of(&untraced, "host.calibration_s"),
        );
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            eprintln!(
                "usage: e2e-bench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.worker {
        worker(&args);
    } else if args.workload == "all" {
        // Every workload in turn; the last line combines them, with
        // each metric prefixed by its workload.
        let mut all = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for workload in WORKLOADS {
            let one = measure(&Args {
                workload: workload.to_string(),
                ..args.clone()
            });
            all.correct &= one.correct;
            all.attempted += one.attempted;
            all.failed += one.failed;
            all.metrics.extend(
                one.metrics
                    .into_iter()
                    .map(|(name, unit, value)| (format!("{workload}.{name}"), unit, value)),
            );
        }
        println!("{}", all.json());
    } else {
        println!("{}", measure(&args).json());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_metrics() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let metrics = all_metrics();
        for (name, unit) in &metrics {
            assert!(name_ok(name), "bad metric name `{name}`");
            assert!(unit_ok(unit), "bad unit `{unit}` of `{name}`");
        }
        let mut names: Vec<_> = metrics.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "metric names are unique");
        assert!(FROM_UNTRACED.iter().all(|n| names.iter().any(|m| m == n)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the checkout root");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &serde_json::Value, k: &str| -> String {
            let s = v.get(k).and_then(|f| f.as_str());
            s.expect("names and units are strings").to_string()
        };
        let array = |k: &str| {
            let a = json.get(k).and_then(|v| v.as_array());
            a.expect("BENCHMARK.json lists are arrays").to_vec()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            array(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |m: Vec<(String, &str)>| -> Vec<(String, String)> {
            m.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
        let workloads: Vec<String> = array("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
