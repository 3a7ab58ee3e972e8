//! End-to-end robustness scenarios: fault injection, panic isolation,
//! cache corruption, and stall watchdogs, exercised across crate
//! boundaries the way the sweep binary composes them.

use cryowire::experiments::{
    degraded_sweep_artifact, InjectFaults, SweepOptions, DEGRADED_SCENARIOS,
};
use cryowire::faults::{FaultEvent, FaultKind, FaultSchedule};
use cryowire::noc::{
    Network, RouterClass, RouterNetwork, SimConfig, SimError, Simulator, TrafficPattern,
};
use cryowire::system::{EventSimConfig, EventSimulator, SystemDesign, Workload};
use cryowire_device::Temperature;
use cryowire_harness::ResultCache;
use std::path::PathBuf;

const FAULT_SEED: u64 = 0xC0FFEE;

/// The four fault scenarios plus the untyped `panic` point.
fn with_panic() -> InjectFaults {
    InjectFaults {
        panic: true,
        ..InjectFaults::default()
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cryowire-robustness-{tag}-{}", std::process::id()))
}

/// A sweep containing a deliberately panicking point completes, records
/// the error, reports partial failure — and every healthy point is
/// value-identical to the same sweep without the panic point.
#[test]
fn injected_panic_is_isolated_and_survivors_match() {
    let clean =
        degraded_sweep_artifact(FAULT_SEED, InjectFaults::default(), SweepOptions::serial());
    let faulted = degraded_sweep_artifact(FAULT_SEED, with_panic(), SweepOptions::threaded(4));

    assert!(!clean.has_failures());
    assert_eq!(clean.stats.points, DEGRADED_SCENARIOS.len());
    assert_eq!(faulted.stats.points, DEGRADED_SCENARIOS.len() + 1);
    assert_eq!(faulted.stats.failed, 1);
    assert!(faulted.has_failures());

    let bad = faulted
        .failed_points()
        .next()
        .expect("exactly one failed point");
    assert_eq!(bad.params.str("scenario"), "panic");
    assert!(
        bad.error
            .as_deref()
            .is_some_and(|e| e.contains("injected panic point")),
        "the panic message is preserved in the artifact: {:?}",
        bad.error
    );

    // Every healthy point survives byte-identical to the panic-free run.
    for c in &clean.points {
        let s = faulted
            .points
            .iter()
            .find(|p| p.key == c.key)
            .expect("healthy point present in faulted run");
        assert_eq!(s.value, c.value);
        assert_eq!(s.seed, c.seed);
        assert!(!s.failed());
    }
}

/// A panicking point is recomputed on every run — failures never enter
/// the cache, so a later fixed evaluation is not shadowed by a stale
/// error.
#[test]
fn failed_points_never_poison_the_cache() {
    let dir = unique_dir("poison");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::with_dir(&dir).unwrap();

    let first = degraded_sweep_artifact(
        FAULT_SEED,
        with_panic(),
        SweepOptions::serial().with_cache(&cache),
    );
    assert_eq!(first.stats.failed, 1);

    let second = degraded_sweep_artifact(
        FAULT_SEED,
        with_panic(),
        SweepOptions::serial().with_cache(&cache),
    );
    assert_eq!(second.stats.failed, 1, "the panic point fails again");
    assert_eq!(
        second.stats.cache_hits,
        DEGRADED_SCENARIOS.len(),
        "all healthy points hit the cache; the failed one was never stored"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting every on-disk cache entry (torn writes) quarantines them
/// and recomputes — and the recomputed artifact is byte-identical to the
/// original.
#[test]
fn corrupt_cache_recomputes_identical_artifact() {
    let dir = unique_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);

    let original = {
        let cache = ResultCache::with_dir(&dir).unwrap();
        degraded_sweep_artifact(
            FAULT_SEED,
            InjectFaults::default(),
            SweepOptions::serial().with_cache(&cache),
        )
    };

    // Tear every entry mid-document.
    let mut torn = 0u64;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            torn += 1;
        }
    }
    assert!(torn > 0, "the sweep persisted entries to corrupt");

    let cache = ResultCache::with_dir(&dir).unwrap();
    let recomputed = degraded_sweep_artifact(
        FAULT_SEED,
        InjectFaults::default(),
        SweepOptions::serial().with_cache(&cache),
    );
    assert_eq!(
        cache.stats().quarantined,
        torn,
        "every torn entry is quarantined"
    );
    assert_eq!(original.canonical_json(), recomputed.canonical_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The injected typed-failure points compose with the supervision
/// policy exactly as the scalar contract promises: flaky heals under a
/// retry budget (and its healed value is what lands in the artifact),
/// poison exhausts the budget and is quarantined with its class, and
/// every healthy point stays byte-identical to an injection-free run.
#[test]
fn typed_injections_heal_or_quarantine_in_process() {
    use cryowire_harness::SupervisePolicy;
    let inject = InjectFaults {
        flaky: true,
        poison: true,
        ..InjectFaults::default()
    };
    let mut policy = SupervisePolicy::with_retries(2);
    policy.backoff_base = std::time::Duration::from_millis(1);
    let opts = SweepOptions::threaded(2).with_policy(policy);
    let artifact = degraded_sweep_artifact(FAULT_SEED, inject, opts);

    assert_eq!(artifact.stats.points, DEGRADED_SCENARIOS.len() + 2);
    assert_eq!(artifact.stats.failed, 1, "only the poison point fails");
    assert_eq!(artifact.stats.quarantined, 1);
    assert!(
        artifact.stats.retried >= 3,
        "flaky retried once, poison twice"
    );

    let flaky = artifact.find(|p| p.str("scenario") == "flaky").unwrap();
    assert!(!flaky.failed());
    assert_eq!(flaky.attempts, 2);
    assert_eq!(
        flaky
            .value
            .get("healed")
            .and_then(serde_json::Value::as_bool),
        Some(true)
    );

    let poison = artifact.find(|p| p.str("scenario") == "poison").unwrap();
    assert!(poison.quarantined());
    assert_eq!(poison.attempts, 3);
    assert_eq!(
        poison.failure_class,
        Some(cryowire_harness::FailureClass::Io)
    );

    let clean =
        degraded_sweep_artifact(FAULT_SEED, InjectFaults::default(), SweepOptions::serial());
    for c in &clean.points {
        let s = artifact.points.iter().find(|p| p.key == c.key).unwrap();
        assert_eq!(s.value, c.value);
    }
}

// ------------------------------------------------------- chaos (subprocess)

mod chaos {
    use super::unique_dir;
    use std::path::Path;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    fn sweep() -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        cmd
    }

    fn newline_count(path: &Path) -> usize {
        std::fs::read(path)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0)
    }

    /// The wedge answer for a truly stuck process: `kill -9` a sweep
    /// mid-grid, resume from its journal, and the canonical artifact is
    /// byte-identical to an uninterrupted run.
    #[test]
    fn kill_nine_mid_sweep_then_resume_is_byte_identical() {
        let dir = unique_dir("kill9");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("run.wal");
        let grid: &[&str] = &["--sweep", "depth", "--temps", "4", "--max-split", "4"];

        // 16 points paced at 150 ms each: the grid takes >= 2.4 s, so a
        // kill after a handful of journal records lands mid-sweep.
        let mut child = sweep()
            .args(grid)
            .args(["--point-delay-ms", "150", "--canonical"])
            .arg("--journal")
            .arg(&journal)
            .arg("--out")
            .arg(dir.join("killed.json"))
            .spawn()
            .expect("spawn sweep");
        let deadline = Instant::now() + Duration::from_secs(30);
        // Wait for the header plus at least three acknowledged records.
        while newline_count(&journal) < 4 {
            assert!(Instant::now() < deadline, "journal never grew");
            assert!(
                child.try_wait().expect("try_wait").is_none(),
                "sweep exited before it could be killed"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        child.kill().expect("SIGKILL");
        let _ = child.wait();
        let lines = newline_count(&journal);
        assert!(
            (4..17).contains(&lines),
            "kill -9 landed mid-grid (journal has {lines} lines)"
        );

        let reference = dir.join("reference.json");
        let status = sweep()
            .args(grid)
            .args(["--canonical"])
            .arg("--out")
            .arg(&reference)
            .status()
            .expect("reference run");
        assert!(status.success());

        let resumed = dir.join("resumed.json");
        let status = sweep()
            .args(grid)
            .args(["--resume", "--canonical"])
            .arg("--journal")
            .arg(&journal)
            .arg("--out")
            .arg(&resumed)
            .status()
            .expect("resumed run");
        assert!(status.success());

        assert_eq!(
            std::fs::read(&reference).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "resumed canonical artifact differs from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An always-failing point exhausts its retry budget, is
    /// quarantined with its typed class in the artifact, and the run
    /// exits 2 (partial failure), not 1.
    #[test]
    fn poison_point_quarantined_after_retry_budget_with_exit_2() {
        let dir = unique_dir("poisoncli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("poison.json");
        let status = sweep()
            .args(["--sweep", "degraded", "--inject-poison"])
            .args(["--retries", "2", "--backoff-ms", "1"])
            .arg("--out")
            .arg(&out)
            .status()
            .expect("poison run");
        assert_eq!(status.code(), Some(2), "partial failure exits 2");

        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"failure_class\": \"io\""));
        assert!(text.contains("injected poison point"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A transiently failing point heals under a retry budget (exit 0)
    /// and is quarantined without one (exit 2).
    #[test]
    fn flaky_point_heals_with_retries_and_fails_without() {
        let dir = unique_dir("flakycli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let healed = dir.join("healed.json");
        let status = sweep()
            .args(["--sweep", "degraded", "--inject-flaky"])
            .args(["--retries", "2", "--backoff-ms", "1"])
            .arg("--out")
            .arg(&healed)
            .status()
            .expect("flaky run with retries");
        assert_eq!(status.code(), Some(0), "flaky heals within the budget");
        assert!(std::fs::read_to_string(&healed)
            .unwrap()
            .contains("\"healed\": true"));

        let status = sweep()
            .args(["--sweep", "degraded", "--inject-flaky"])
            .status()
            .expect("flaky run without retries");
        assert_eq!(status.code(), Some(2), "no budget: first failure sticks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--cycles 0` is a usage error (exit 1, nothing written) in every
    /// mode that reads it, not a panic or a zero-length benchmark.
    #[test]
    fn zero_cycles_is_rejected_before_any_work() {
        let dir = unique_dir("zerocycles");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for mode in ["coherence", "bench-coherence", "bench-core", "bench-noc"] {
            let out = dir.join(format!("{mode}.json"));
            let run = sweep()
                .args(["--sweep", mode, "--smoke", "--cycles", "0"])
                .arg("--out")
                .arg(&out)
                .stderr(Stdio::piped())
                .output()
                .expect("zero-cycles run");
            assert_eq!(run.status.code(), Some(1), "{mode}: usage error exits 1");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                stderr.contains("--cycles must be at least 1"),
                "{mode}: {stderr}"
            );
            assert!(!out.exists(), "{mode}: nothing written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wedged evaluator is converted into a typed timeout by the
    /// cooperative deadline and quarantined.
    #[test]
    fn wedged_point_trips_the_deadline() {
        let dir = unique_dir("wedgecli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("wedge.json");
        let status = sweep()
            .args(["--sweep", "degraded", "--inject-wedge"])
            .args(["--deadline-ms", "100"])
            .arg("--out")
            .arg(&out)
            .status()
            .expect("wedge run");
        assert_eq!(status.code(), Some(2));
        assert!(std::fs::read_to_string(&out)
            .unwrap()
            .contains("\"failure_class\": \"timeout\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Killing every resource of a mesh never hangs the NoC simulator: the
/// watchdog converts the would-be livelock into a structured stall.
#[test]
fn fully_dead_mesh_stalls_instead_of_hanging() {
    let mesh = RouterNetwork::mesh64(RouterClass::OneCycle, Temperature::liquid_nitrogen());
    let events = (0..mesh.resource_count())
        .map(|r| FaultEvent::permanent(0, FaultKind::LinkDead { resource: r }))
        .collect();
    let faults = FaultSchedule::from_events(events, 30_000);
    let sim = Simulator::new(SimConfig {
        watchdog_blocked_packets: 200,
        ..SimConfig::default()
    });
    match sim.run_with_faults(&mesh, TrafficPattern::UniformRandom, 0.01, &faults) {
        Err(SimError::Stalled {
            blocked_resources, ..
        }) => assert_eq!(blocked_resources.len(), mesh.resource_count()),
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// Killing both CryoBus ways never hangs the system-level event
/// simulator either: the stall surfaces with the blocked resources.
#[test]
fn fully_dead_cryobus_stalls_the_event_sim() {
    let design = SystemDesign::cryosp_cryobus_2way();
    let workload = &Workload::parsec()[0];
    let events = (0..8)
        .map(|r| FaultEvent::permanent(0, FaultKind::LinkDead { resource: r }))
        .collect();
    let faults = FaultSchedule::from_events(events, 1_000_000);
    let sim = EventSimulator::new(EventSimConfig {
        horizon_ns: 20_000.0,
        watchdog_blocked_accesses: 500,
        ..EventSimConfig::default()
    });
    match sim.simulate_with_faults(workload, &design, &faults) {
        Err(SimError::Stalled {
            blocked_resources, ..
        }) => assert!(!blocked_resources.is_empty()),
        other => panic!("expected Stalled, got {other:?}"),
    }
}
