//! The sweep driver: ties a [`SweepSpec`] to the executor, cache,
//! journal, supervision and artifact layers.

use crate::artifact::{PointRecord, RunArtifact, RunStats};
use crate::cache::ResultCache;
use crate::executor::{CancelToken, Executor};
use crate::hash::{content_key, point_seed};
use crate::journal::{JournalHeader, RunJournal};
use crate::spec::{Point, SweepSpec};
use crate::supervise::{supervised, Failure, FailureClass, SupervisePolicy};
use serde_json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// A configured sweep run over a [`SweepSpec`].
///
/// ```
/// use cryowire_harness::{Sweep, SweepSpec};
/// use serde_json::Value;
///
/// let spec = SweepSpec::new("demo").axis("x", [1i64, 2, 3]);
/// let artifact = Sweep::new(spec)
///     .eval_tag("demo/v1")
///     .threads(2)
///     .run(|point, _seed| Value::Int(point.i64("x") * 10));
/// assert_eq!(artifact.points.len(), 3);
/// assert_eq!(artifact.points[2].value, Value::Int(30));
/// ```
pub struct Sweep<'c> {
    spec: SweepSpec,
    executor: Executor,
    cache: Option<&'c ResultCache>,
    eval_tag: String,
    base_seed: u64,
    policy: SupervisePolicy,
    journal_path: Option<PathBuf>,
    resume: bool,
}

impl<'c> Sweep<'c> {
    /// A sweep over `spec` with default settings: one thread, no
    /// cache, the spec name as evaluator tag, base seed 0, no journal,
    /// single-attempt supervision.
    #[must_use]
    pub fn new(spec: SweepSpec) -> Self {
        let eval_tag = spec.name().to_string();
        Sweep {
            spec,
            executor: Executor::new(1),
            cache: None,
            eval_tag,
            base_seed: 0,
            policy: SupervisePolicy::default(),
            journal_path: None,
            resume: false,
        }
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.executor = Executor::new(threads);
        self
    }

    /// Uses a pre-built executor (e.g. [`Executor::per_cpu`]).
    #[must_use]
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches a result cache; points whose keys are present are not
    /// re-evaluated.
    #[must_use]
    pub fn cache(mut self, cache: &'c ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the evaluator tag — the cache namespace. Bump it (e.g.
    /// `fig27/v2`) whenever evaluator semantics change, so stale
    /// cached values cannot be replayed.
    #[must_use]
    pub fn eval_tag(mut self, tag: impl Into<String>) -> Self {
        self.eval_tag = tag.into();
        self
    }

    /// Sets the base RNG seed the per-point seeds derive from.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the supervision policy: per-attempt deadline, retry budget
    /// and backoff for transient failures, fail-fast vs keep-going.
    /// The default policy (one attempt, keep going) reproduces plain
    /// panic isolation.
    #[must_use]
    pub fn supervise(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Journals every completed point to an append-only, checksummed
    /// WAL at `path` (truncating any previous journal there). A run
    /// killed at any moment can then be continued with
    /// [`Sweep::resume`].
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self.resume = false;
        self
    }

    /// Resumes from (and keeps journaling to) the WAL at `path`:
    /// points whose keys are acknowledged in the journal are replayed
    /// instead of evaluated, and the canonical artifact is
    /// byte-identical to an uninterrupted run. A missing journal file
    /// degrades to a fresh [`Sweep::journal`] run.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self.resume = true;
        self
    }

    /// Opens (or resumes) the run journal and, when resuming, moves
    /// journal-acknowledged points out of the dispatch list.
    ///
    /// Journal open failures panic: an unusable journal the caller
    /// explicitly asked for is a configuration error, not a per-point
    /// fault (the CLI pre-checks with [`RunJournal::recover`] for a
    /// friendlier message).
    fn open_journal(&self, plan: &mut DispatchPlan) -> Option<RunJournal> {
        let path = self.journal_path.as_ref()?;
        let header = JournalHeader {
            sweep: self.spec.name().to_string(),
            eval_tag: self.eval_tag.clone(),
            base_seed: self.base_seed,
            grid_key: plan.grid_key(),
        };
        if self.resume {
            match RunJournal::resume(path, &header) {
                Ok((journal, records)) => {
                    let replay: HashMap<String, Value> = records.into_iter().collect();
                    plan.probe_journal(&replay);
                    Some(journal)
                }
                Err(e) => panic!("cannot resume journal {}: {e}", path.display()),
            }
        } else {
            match RunJournal::create(path, &header) {
                Ok(journal) => Some(journal),
                Err(e) => panic!("cannot create journal {}: {e}", path.display()),
            }
        }
    }

    /// Evaluates every point and returns the assembled artifact.
    ///
    /// `eval` receives the point and its deterministic seed
    /// ([`point_seed`]); it must be a pure function of those two
    /// inputs for caching and parallel determinism to hold. Cache hits,
    /// journal replays and content-key duplicates are resolved before
    /// dispatch, so `eval` only ever sees distinct, unresolved points.
    /// Each successful point is written to the cache and then
    /// acknowledged in the journal from inside the worker, so a
    /// `kill -9` mid-grid finds every completed point in both.
    ///
    /// Every evaluation runs under the sweep's [`SupervisePolicy`]: a
    /// panicking evaluator is isolated to its point and classified
    /// ([`crate::supervise::classify`]); transient failure classes are
    /// retried with deterministic backoff; a point that exhausts its
    /// budget is quarantined — the run completes, the point's record
    /// carries the message in [`PointRecord::error`] and the class in
    /// [`PointRecord::failure_class`] with a [`Value::Null`] value,
    /// nothing is cached or journaled for it, and [`RunStats::failed`]
    /// counts it. All other points are unaffected — their records are
    /// bit-identical to a run without the failure. Under
    /// [`SupervisePolicy::fail_fast`], the first quarantined point
    /// stops dispatch; undispatched points are marked skipped (which
    /// makes the canonical artifact schedule-dependent — fail-fast
    /// trades determinism for early exit).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SweepSpec::validate`] (empty axis or
    /// zero points) — a spec bug, not a data error — or if a requested
    /// journal cannot be opened.
    #[must_use]
    pub fn run<F>(self, eval: F) -> RunArtifact
    where
        F: Fn(&Point, u64) -> Value + Sync,
    {
        if let Err(msg) = self.spec.validate() {
            panic!("{msg}");
        }
        let started = Instant::now();
        let points = self.spec.points();
        let mut plan = DispatchPlan::new(&points, &self.eval_tag, self.base_seed);
        let journal = self.open_journal(&mut plan);
        if let Some(cache) = self.cache {
            plan.probe_cache(cache);
        }
        let cancel = CancelToken::new();
        let policy = self.policy;
        let outcomes = self.executor.run(&plan.dispatch, |_, &i| {
            if policy.fail_fast && cancel.is_cancelled() {
                return Outcome::skipped();
            }
            let (point, seed) = (&points[i], plan.seeds[i]);
            let t0 = Instant::now();
            let sup = supervised(&policy, seed, || eval(point, seed));
            let eval_ms = t0.elapsed().as_secs_f64() * 1e3;
            match sup.result {
                Ok(value) => {
                    // Store, then acknowledge, inside the worker: a
                    // `kill -9` mid-grid must find every completed point
                    // already on disk.
                    if let Some(cache) = self.cache {
                        cache.insert(&plan.keys[i], &value);
                    }
                    if let Some(journal) = &journal {
                        journal.append(&plan.keys[i], &value);
                    }
                    Outcome {
                        value,
                        error: None,
                        eval_ms,
                        attempts: sup.attempts,
                        class: None,
                    }
                }
                Err(failure) => {
                    if policy.fail_fast {
                        cancel.cancel();
                    }
                    Outcome::failed(failure, eval_ms, sup.attempts)
                }
            }
        });
        self.assemble(points, plan, outcomes, journal, started)
    }

    /// Scatters dispatch outcomes back over the full grid (mirroring
    /// duplicates from their representatives) and assembles the
    /// artifact.
    fn assemble(
        self,
        points: Vec<Point>,
        plan: DispatchPlan,
        outcomes: Vec<Outcome>,
        journal: Option<RunJournal>,
        started: Instant,
    ) -> RunArtifact {
        let outcome_of: HashMap<usize, &Outcome> =
            plan.dispatch.iter().copied().zip(&outcomes).collect();
        let hit_of: HashMap<usize, &Value> = plan.hits.iter().map(|(i, v)| (*i, v)).collect();
        let resumed_of: HashMap<usize, &Value> =
            plan.resumed.iter().map(|(i, v)| (*i, v)).collect();
        let mut records: Vec<PointRecord> = Vec::with_capacity(points.len());
        for (index, point) in points.iter().enumerate() {
            let rep = plan.representative[index];
            let record = if let Some(outcome) = outcome_of.get(&rep) {
                let mirrored = rep != index;
                PointRecord {
                    index,
                    params: point.clone(),
                    key: plan.keys[index].clone(),
                    seed: plan.seeds[index],
                    // A duplicate of a successful evaluation is a hit
                    // by construction (answered without evaluating);
                    // mirrored failures stay failures.
                    cached: mirrored && outcome.error.is_none(),
                    eval_ms: if mirrored { 0.0 } else { outcome.eval_ms },
                    value: outcome.value.clone(),
                    error: outcome.error.clone(),
                    attempts: outcome.attempts,
                    resumed: false,
                    failure_class: outcome.class,
                }
            } else if let Some(value) = resumed_of.get(&rep) {
                // Representative was acknowledged in the run journal:
                // replayed, not evaluated.
                PointRecord {
                    index,
                    params: point.clone(),
                    key: plan.keys[index].clone(),
                    seed: plan.seeds[index],
                    cached: false,
                    eval_ms: 0.0,
                    value: (*value).clone(),
                    error: None,
                    attempts: 0,
                    resumed: true,
                    failure_class: None,
                }
            } else {
                // Representative resolved as a cache hit during
                // planning.
                let value = *hit_of
                    .get(&rep)
                    .expect("a non-dispatched representative is a pre-probed hit or replay");
                PointRecord {
                    index,
                    params: point.clone(),
                    key: plan.keys[index].clone(),
                    seed: plan.seeds[index],
                    cached: true,
                    eval_ms: 0.0,
                    value: value.clone(),
                    error: None,
                    attempts: 1,
                    resumed: false,
                    failure_class: None,
                }
            };
            records.push(record);
        }
        let cache_hits = records.iter().filter(|r| r.cached).count();
        let resumed = records.iter().filter(|r| r.resumed).count();
        let skipped = records.iter().filter(|r| r.skipped()).count();
        let failed = records.iter().filter(|r| r.failed()).count();
        let quarantined = records.iter().filter(|r| r.quarantined()).count();
        let retried = outcomes
            .iter()
            .map(|o| u64::from(o.attempts.saturating_sub(1)))
            .sum();
        let stats = RunStats {
            points: records.len(),
            cache_hits,
            evaluated: records.len() - cache_hits - resumed - skipped,
            deduped: records.len() - plan.dispatch.len() - plan.hits.len() - plan.resumed.len(),
            threads: self.executor.threads(),
            failed,
            resumed,
            quarantined,
            skipped,
            retried,
            journal_errors: journal.as_ref().map_or(0, RunJournal::write_errors),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        RunArtifact {
            sweep: self.spec.name().to_string(),
            eval_tag: self.eval_tag,
            base_seed: self.base_seed,
            points: records,
            stats,
        }
    }
}

/// The outcome of one dispatched point.
struct Outcome {
    value: Value,
    error: Option<String>,
    eval_ms: f64,
    attempts: u32,
    class: Option<FailureClass>,
}

impl Outcome {
    /// A point that never ran because fail-fast stopped the grid.
    fn skipped() -> Outcome {
        Outcome {
            value: Value::Null,
            error: Some("skipped: fail-fast stopped the grid after an earlier failure".into()),
            eval_ms: 0.0,
            attempts: 0,
            class: None,
        }
    }

    /// A point quarantined with a classified failure.
    fn failed(failure: Failure, eval_ms: f64, attempts: u32) -> Outcome {
        Outcome {
            value: Value::Null,
            error: Some(failure.message),
            eval_ms,
            attempts,
            class: Some(failure.class),
        }
    }
}

/// The dispatch plan of a grid: per-point keys and seeds, the
/// first-occurrence representative of every content key, and the list
/// of indices that actually need evaluating (representatives minus
/// journal replays minus pre-resolved cache hits).
struct DispatchPlan {
    keys: Vec<String>,
    seeds: Vec<u64>,
    /// `representative[i]` is the smallest index with the same content
    /// key as point `i` (itself, when first).
    representative: Vec<usize>,
    /// Indices dispatched to the evaluator, in enumeration order.
    dispatch: Vec<usize>,
    /// Cache hits resolved before dispatch: `(index, value)`.
    hits: Vec<(usize, Value)>,
    /// Journal replays (`--resume` only): `(index, value)`.
    resumed: Vec<(usize, Value)>,
}

impl DispatchPlan {
    fn new(points: &[Point], eval_tag: &str, base_seed: u64) -> Self {
        let mut keys = Vec::with_capacity(points.len());
        let mut seeds = Vec::with_capacity(points.len());
        for point in points {
            let canonical = point.canonical();
            keys.push(content_key(eval_tag, &canonical));
            seeds.push(point_seed(eval_tag, &canonical, base_seed));
        }
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut representative = Vec::with_capacity(points.len());
        let mut dispatch = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let rep = *first.entry(key.as_str()).or_insert(i);
            representative.push(rep);
            if rep == i {
                dispatch.push(i);
            }
        }
        DispatchPlan {
            keys,
            seeds,
            representative,
            dispatch,
            hits: Vec::new(),
            resumed: Vec::new(),
        }
    }

    /// Content key pinning the exact point set and enumeration order
    /// of this grid — the journal header's identity check. Point keys
    /// are fixed-width hex, so plain concatenation is unambiguous.
    fn grid_key(&self) -> String {
        content_key("cryowire-grid", &self.keys.concat())
    }

    /// Removes dispatch entries acknowledged in a recovered journal,
    /// recording them as replays.
    fn probe_journal(&mut self, replay: &HashMap<String, Value>) {
        let keys = &self.keys;
        let resumed = &mut self.resumed;
        self.dispatch.retain(|&i| match replay.get(&keys[i]) {
            Some(value) => {
                resumed.push((i, value.clone()));
                false
            }
            None => true,
        });
    }

    /// Removes dispatch entries already answered by `cache`, recording
    /// them as hits.
    fn probe_cache(&mut self, cache: &ResultCache) {
        let keys = &self.keys;
        let hits = &mut self.hits;
        self.dispatch.retain(|&i| match cache.get(&keys[i]) {
            Some(value) => {
                hits.push((i, value));
                false
            }
            None => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use crate::supervise;
    use parking_lot::Mutex;
    use std::path::PathBuf;

    fn spec() -> SweepSpec {
        SweepSpec::new("unit")
            .axis("t", [77.0, 300.0])
            .axis("d", [1i64, 2])
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cryowire-sweep-{tag}-{}.wal", std::process::id()))
    }

    fn quick_policy(max_attempts: u32) -> SupervisePolicy {
        SupervisePolicy {
            max_attempts,
            backoff_base: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(4),
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn serial_and_parallel_artifacts_agree() {
        let eval =
            |p: &Point, seed: u64| Value::Float(p.f64("t") * p.i64("d") as f64 + (seed % 7) as f64);
        let a1 = Sweep::new(spec()).eval_tag("unit/v1").run(eval);
        let a4 = Sweep::new(spec()).eval_tag("unit/v1").threads(4).run(eval);
        assert_eq!(a1.canonical_json(), a4.canonical_json());
        assert_eq!(a1.stats.threads, 1);
        assert_eq!(a4.stats.threads, 4);
    }

    #[test]
    fn cache_skips_overlapping_points() {
        let cache = ResultCache::new();
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(first.stats.evaluated, 2);
        let second = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(second.stats.cache_hits, 2);
        assert_eq!(second.stats.evaluated, 1);
        assert_eq!(second.points[2].value, Value::Int(3));
    }

    #[test]
    fn serial_worker_stores_each_point_before_the_next_runs() {
        // The cache write happens in the worker, not after the run: in
        // a serial run, point i's evaluator already finds point i-1.
        let cache = ResultCache::new();
        let grid = SweepSpec::new("s").axis("x", [1i64, 2, 3]);
        let keys: Vec<String> = grid
            .points()
            .iter()
            .map(|p| content_key("s/v1", &p.canonical()))
            .collect();
        let found_previous = Mutex::new(Vec::new());
        let artifact = Sweep::new(grid).eval_tag("s/v1").cache(&cache).run(|p, _| {
            let i = usize::try_from(p.i64("x") - 1).unwrap();
            if i > 0 {
                found_previous.lock().push(cache.get(&keys[i - 1]));
            }
            Value::Int(p.i64("x") * 10)
        });
        assert_eq!(artifact.stats.evaluated, 3);
        assert_eq!(
            found_previous.into_inner(),
            vec![Some(Value::Int(10)), Some(Value::Int(20))]
        );
    }

    #[test]
    fn prewarmed_cache_answers_every_point_without_evaluating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ResultCache::new();
        let eval = |p: &Point, _: u64| Value::Float(p.f64("t") * p.i64("d") as f64);
        let cold = Sweep::new(spec())
            .eval_tag("unit/v1")
            .cache(&cache)
            .run(eval);
        for threads in [1, 4] {
            let calls = AtomicUsize::new(0);
            let warm = Sweep::new(spec())
                .eval_tag("unit/v1")
                .cache(&cache)
                .threads(threads)
                .run(|p, seed| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    eval(p, seed)
                });
            assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={threads}");
            assert_eq!(warm.stats.cache_hits, 4, "threads={threads}");
            assert_eq!(warm.stats.evaluated, 0, "threads={threads}");
            assert_eq!(warm.canonical_json(), cold.canonical_json());
        }
    }

    #[test]
    fn eval_tag_namespaces_the_cache() {
        let cache = ResultCache::new();
        let run = |tag: &str| {
            Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
                .eval_tag(tag)
                .cache(&cache)
                .run(|_, _| Value::Int(0))
        };
        assert_eq!(run("s/v1").stats.evaluated, 1);
        assert_eq!(run("s/v2").stats.evaluated, 1, "new tag, new namespace");
        assert_eq!(run("s/v1").stats.cache_hits, 1);
    }

    #[test]
    fn panicking_point_is_isolated() {
        let eval = |p: &Point, _: u64| {
            assert_ne!(p.i64("x"), 2, "injected failure");
            Value::Int(p.i64("x") * 10)
        };
        let clean = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 3]))
            .eval_tag("s/v1")
            .run(eval);
        let faulted = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .threads(3)
            .run(eval);
        assert_eq!(faulted.stats.failed, 1);
        assert_eq!(faulted.stats.quarantined, 1);
        assert_eq!(faulted.stats.points, 3);
        let bad = &faulted.points[1];
        assert!(bad.failed());
        assert!(bad.quarantined());
        assert_eq!(bad.failure_class, Some(FailureClass::Panic));
        assert_eq!(bad.value, Value::Null);
        assert!(bad.error.as_deref().unwrap().contains("injected failure"));
        // The surviving points are bit-identical to the clean run
        // (modulo wall-clock timing, which is not part of the
        // canonical artifact).
        let survivors: Vec<&PointRecord> = faulted.points.iter().filter(|p| !p.failed()).collect();
        assert_eq!(survivors.len(), 2);
        for (s, c) in survivors.iter().zip(&clean.points) {
            assert_eq!(s.value, c.value);
            assert_eq!(s.key, c.key);
            assert_eq!(s.seed, c.seed);
        }
    }

    #[test]
    fn failed_points_are_not_cached() {
        let cache = ResultCache::new();
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|_, _| panic!("boom"));
        assert_eq!(first.stats.failed, 1);
        let second = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .cache(&cache)
            .run(|p, _| Value::Int(p.i64("x")));
        assert_eq!(second.stats.cache_hits, 0, "error must not be replayed");
        assert_eq!(second.points[0].value, Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "axis `x` has no values")]
    fn empty_axis_is_rejected() {
        let _ =
            Sweep::new(SweepSpec::new("s").axis("x", Vec::<i64>::new())).run(|_, _| Value::Int(0));
    }

    #[test]
    fn validate_explains_empty_specs() {
        assert!(SweepSpec::new("ok").axis("x", [1i64]).validate().is_ok());
        let none = SweepSpec::new("none").validate().unwrap_err();
        assert!(none.contains("enumerates no points"), "{none}");
        let zip = SweepSpec::new("z")
            .zip(vec![Axis::new("a", Vec::<i64>::new())])
            .validate()
            .unwrap_err();
        assert!(zip.contains("zipped axes [a]"), "{zip}");
    }

    #[test]
    fn intra_grid_duplicates_collapse_but_stay_listed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // An axis with repeated values enumerates content-identical
        // points; they must be evaluated once yet all appear in the
        // artifact.
        let calls = AtomicUsize::new(0);
        let artifact = Sweep::new(SweepSpec::new("dup").axis("x", [1i64, 2, 1, 1, 2]))
            .eval_tag("dup/v1")
            .threads(4)
            .run(|p, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(calls.load(Ordering::Relaxed), 2, "two distinct points");
        assert_eq!(artifact.stats.points, 5, "every requested point listed");
        assert_eq!(artifact.stats.deduped, 3);
        assert_eq!(artifact.points.len(), 5);
        let values: Vec<_> = artifact.points.iter().map(|p| p.value.clone()).collect();
        assert_eq!(
            values,
            vec![
                Value::Int(10),
                Value::Int(20),
                Value::Int(10),
                Value::Int(10),
                Value::Int(20)
            ]
        );
        // Duplicates share their representative's key and seed, so the
        // canonical artifact is identical to a no-dedupe evaluation.
        assert_eq!(artifact.points[0].key, artifact.points[2].key);
        assert_eq!(artifact.points[0].seed, artifact.points[2].seed);
        assert!(artifact.points[2].cached, "duplicate answered w/o eval");
    }

    #[test]
    fn deduped_duplicate_of_failed_point_mirrors_the_failure() {
        let artifact = Sweep::new(SweepSpec::new("dup").axis("x", [1i64, 1]))
            .eval_tag("dup/v1")
            .run(|_, _| panic!("boom"));
        assert_eq!(artifact.stats.failed, 2);
        assert_eq!(artifact.stats.quarantined, 2);
        assert!(artifact.points[1].failed());
        assert!(!artifact.points[1].cached);
    }

    #[test]
    fn seeds_are_schedule_independent() {
        let base = Sweep::new(spec()).eval_tag("unit/v1").base_seed(42);
        let a = base.run(|_, seed| Value::UInt(seed));
        // Different axis order enumerates the same logical points at
        // different indices; matching points still get matching seeds
        // only when their canonical encodings match — which requires
        // the same entry order. Same spec, different threads:
        let b = Sweep::new(spec())
            .eval_tag("unit/v1")
            .base_seed(42)
            .threads(3)
            .run(|_, seed| Value::UInt(seed));
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.value, pb.value);
        }
    }

    #[test]
    fn transient_lane_heals_under_retry_budget() {
        // A point that fails on its first two attempts succeeds under a
        // budget of 3; the record carries the attempt count, and the
        // canonical artifact equals an always-healthy run.
        let eval = |p: &Point, _: u64| {
            if p.i64("x") == 2 && supervise::current_attempt() < 3 {
                supervise::fail(FailureClass::Io, "flaky I/O");
            }
            Value::Int(p.i64("x") * 10)
        };
        let healthy = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .run(|p, _| Value::Int(p.i64("x") * 10));
        let healed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(quick_policy(3))
            .run(eval);
        assert_eq!(healed.canonical_json(), healthy.canonical_json());
        assert_eq!(healed.stats.failed, 0);
        assert_eq!(healed.stats.retried, 2);
        assert_eq!(healed.points[1].attempts, 3);
        assert_eq!(healed.points[0].attempts, 1);
    }

    #[test]
    fn poison_point_quarantined_after_budget_and_grid_survives() {
        let artifact = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(quick_policy(3))
            .run(|p, _| {
                if p.i64("x") == 2 {
                    supervise::fail(FailureClass::Stalled, "always wedged");
                }
                Value::Int(p.i64("x"))
            });
        assert_eq!(artifact.stats.quarantined, 1);
        assert_eq!(artifact.stats.failed, 1);
        assert_eq!(
            artifact.stats.retried, 2,
            "budget of 3 spent on the poison point"
        );
        let bad = &artifact.points[1];
        assert_eq!(bad.failure_class, Some(FailureClass::Stalled));
        assert_eq!(bad.attempts, 3);
        assert_eq!(artifact.points[2].value, Value::Int(3), "grid completed");
    }

    #[test]
    fn fail_fast_skips_undispatched_points() {
        let policy = SupervisePolicy {
            fail_fast: true,
            ..quick_policy(1)
        };
        // Serial execution makes the skip set deterministic: point 1
        // fails, point 2 is skipped.
        let artifact = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .supervise(policy)
            .run(|p, _| {
                assert_ne!(p.i64("x"), 2, "poison");
                Value::Int(p.i64("x"))
            });
        assert_eq!(artifact.stats.quarantined, 1);
        assert_eq!(artifact.stats.skipped, 1);
        assert_eq!(artifact.stats.failed, 2, "quarantined + skipped");
        let skipped = &artifact.points[2];
        assert!(skipped.skipped() && !skipped.quarantined());
        assert_eq!(skipped.attempts, 0);
        assert!(skipped.error.as_deref().unwrap().contains("fail-fast"));
    }

    #[test]
    fn journal_roundtrip_resumes_byte_identically() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let eval =
            |p: &Point, seed: u64| Value::Float(p.f64("t") * p.i64("d") as f64 + (seed % 7) as f64);
        let reference = Sweep::new(spec()).eval_tag("unit/v1").run(eval);
        let journaled = Sweep::new(spec())
            .eval_tag("unit/v1")
            .journal(&path)
            .run(eval);
        assert_eq!(journaled.canonical_json(), reference.canonical_json());
        assert_eq!(journaled.stats.journal_errors, 0);
        // Resume with an evaluator that must never run: every point is
        // acknowledged, so the whole grid replays from the journal.
        let resumed = Sweep::new(spec())
            .eval_tag("unit/v1")
            .resume(&path)
            .run(|_, _| unreachable!("fully journaled grid re-evaluated"));
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        assert_eq!(resumed.stats.resumed, 4);
        assert_eq!(resumed.stats.evaluated, 0);
        assert!(resumed.points.iter().all(|p| p.resumed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_journal_resumes_only_missing_points() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmp("partial");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x") * 10);
        let reference = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .run(eval);
        // An interrupted run: points 1 and 2 complete and are
        // acknowledged; 3 and 4 fail (standing in for a crash), so the
        // journal holds exactly half the grid.
        let first = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(|p, _| {
                assert!(p.i64("x") <= 2, "simulated crash point");
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(first.stats.failed, 2);
        let evals = AtomicUsize::new(0);
        let resumed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3, 4]))
            .eval_tag("s/v1")
            .resume(&path)
            .run(|p, _| {
                evals.fetch_add(1, Ordering::Relaxed);
                Value::Int(p.i64("x") * 10)
            });
        assert_eq!(
            evals.load(Ordering::Relaxed),
            2,
            "only unacknowledged points run"
        );
        assert_eq!(resumed.stats.resumed, 2);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "different run")]
    fn resume_with_wrong_seed_is_refused() {
        let path = tmp("wrong-seed");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x"));
        let _ = Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(eval);
        let result = std::panic::catch_unwind(|| {
            Sweep::new(SweepSpec::new("s").axis("x", [1i64]))
                .eval_tag("s/v1")
                .base_seed(99)
                .resume(&path)
                .run(eval)
        });
        let _ = std::fs::remove_file(&path);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn journal_write_errors_degrade_gracefully() {
        crate::failpoint::reset();
        let path = tmp("degrade");
        let _ = std::fs::remove_file(&path);
        let eval = |p: &Point, _: u64| Value::Int(p.i64("x"));
        let reference = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .run(eval);
        crate::failpoint::arm(
            "journal::append",
            crate::failpoint::FailAction::Io("No space left on device (os error 28)".into()),
            1,
        );
        let broken = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .journal(&path)
            .run(eval);
        crate::failpoint::reset();
        // The sweep itself is unharmed — full artifact, zero failures —
        // and the drop is visible in the stats.
        assert_eq!(broken.canonical_json(), reference.canonical_json());
        assert_eq!(broken.stats.failed, 0);
        assert_eq!(
            broken.stats.journal_errors, 3,
            "first error breaks the journal"
        );
        // Resume still works: unacknowledged points just recompute.
        let resumed = Sweep::new(SweepSpec::new("s").axis("x", [1i64, 2, 3]))
            .eval_tag("s/v1")
            .resume(&path)
            .run(eval);
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_file(&path);
    }
}
