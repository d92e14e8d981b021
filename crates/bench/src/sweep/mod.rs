//! The sweep engine: persistent result cache + hardened parallel executor
//! + per-run telemetry.
//!
//! Every experiment in [`crate::exp`] is a sweep over (mix × configuration)
//! points, each an independent deterministic simulation. The engine wraps
//! each point with:
//!
//! 1. a **content-addressed cache** ([`cache`]): the point's result is keyed
//!    by a stable hash of everything that determines it, so a warm re-run
//!    of `repro --all` loads results from `results/cache/` instead of
//!    re-simulating, bit-identically;
//! 2. a **panic-isolating executor** ([`executor`]) with a configurable
//!    worker count (`--jobs` / `SMT_BENCH_JOBS`);
//! 3. a **telemetry sink** ([`telemetry`]) appending one structured JSON
//!    record per run to `results/telemetry.jsonl`.
//!
//! The library default is fully inert (no cache, no telemetry, automatic
//! parallelism) so unit tests never touch the filesystem; the `repro`,
//! `calibrate` and `characterize` binaries call [`configure`] at startup to
//! turn the persistent pieces on.

pub mod cache;
pub mod ckpt;
pub mod executor;
pub mod span;
pub mod telemetry;

pub use cache::{point_key, CacheKey, ResultCache, CODE_SALT};
pub use ckpt::{CkptStats, CkptStore};
pub use executor::{par_map, resolve_jobs, run_isolated, PointError};
pub use span::{spans, SpanArtifacts, SpanEvent, SpanRecorder};
pub use telemetry::{
    CacheOutcome, ObsSummary, TelemetryRecord, TelemetrySink, TELEMETRY_SCHEMA_VERSION,
};

use serde::{Deserialize, Serialize};
use smt_stats::RunSeries;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What to turn on when building a [`SweepEngine`].
#[derive(Clone, Debug, Default)]
pub struct SweepConfig {
    /// Worker count; `None` resolves via `SMT_BENCH_JOBS`, then
    /// `available_parallelism`.
    pub jobs: Option<usize>,
    /// Persistent cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Telemetry JSONL path; `None` disables telemetry.
    pub telemetry_path: Option<PathBuf>,
}

#[derive(Default)]
struct Scope {
    label: String,
    points: u64,
    hits: u64,
    misses: u64,
    bypassed: u64,
    wall_ms: f64,
}

/// Shared state consulted by every sweep point.
pub struct SweepEngine {
    jobs: usize,
    cache: Option<ResultCache>,
    telemetry: Option<TelemetrySink>,
    scope: Mutex<Scope>,
}

impl SweepEngine {
    /// Build an engine from `cfg`. An unopenable cache directory disables
    /// caching with a warning rather than failing the sweep.
    pub fn new(cfg: SweepConfig) -> Self {
        let cache = cfg.cache_dir.and_then(|dir| match ResultCache::new(&dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!(
                    "warning: result cache at {} unavailable: {e}",
                    dir.display()
                );
                None
            }
        });
        let telemetry = cfg.telemetry_path.map(TelemetrySink::open);
        SweepEngine {
            jobs: resolve_jobs(cfg.jobs),
            cache,
            telemetry,
            scope: Mutex::new(Scope::default()),
        }
    }

    /// Fully inert engine: no cache, no telemetry.
    fn inert() -> Self {
        SweepEngine::new(SweepConfig::default())
    }

    /// Worker count for parallel sweeps.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether a persistent cache is attached.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Start a new accounting scope (one table/figure). Returns nothing;
    /// the matching [`SweepEngine::scope_summary`] reads and resets it.
    pub fn begin_scope(&self, label: &str) {
        let mut s = self.scope.lock().expect("sweep scope poisoned");
        *s = Scope {
            label: label.to_string(),
            ..Scope::default()
        };
    }

    /// One-line summary of the scope begun by [`SweepEngine::begin_scope`].
    pub fn scope_summary(&self) -> String {
        let s = self.scope.lock().expect("sweep scope poisoned");
        format!(
            "sweep[{}]: {} points ({} cache hits, {} misses, {} uncached) in {:.1} s",
            if s.label.is_empty() { "-" } else { &s.label },
            s.points,
            s.hits,
            s.misses,
            s.bypassed,
            s.wall_ms / 1e3,
        )
    }

    fn note(&self, outcome: CacheOutcome, wall_ms: f64) -> String {
        let mut s = self.scope.lock().expect("sweep scope poisoned");
        s.points += 1;
        s.wall_ms += wall_ms;
        let counter = match outcome {
            CacheOutcome::Hit => {
                s.hits += 1;
                "cache_hits"
            }
            CacheOutcome::Miss => {
                s.misses += 1;
                "cache_misses"
            }
            CacheOutcome::Bypass => {
                s.bypassed += 1;
                "cache_bypass"
            }
        };
        span::spans().bump(counter, 1);
        s.label.clone()
    }

    /// Run (or recall) one simulation point producing a [`RunSeries`],
    /// with full cache + telemetry treatment.
    pub fn run_series(
        &self,
        kind: &str,
        point: &str,
        key: CacheKey,
        run: impl FnOnce() -> RunSeries,
    ) -> RunSeries {
        // The label is only formatted when spans are on, so the
        // disabled path stays allocation-free.
        let sp = span::spans();
        let _sp = sp
            .enabled()
            .then(|| sp.begin(&format!("point:{kind}:{point}"), "point"));
        let t0 = Instant::now();
        let (outcome, series) = match &self.cache {
            Some(c) => match c.load::<RunSeries>(key) {
                Some(s) => (CacheOutcome::Hit, s),
                None => {
                    let s = run();
                    c.store(key, &s);
                    (CacheOutcome::Miss, s)
                }
            },
            None => (CacheOutcome::Bypass, run()),
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let experiment = self.note(outcome, wall_ms);
        if let Some(t) = &self.telemetry {
            t.append(&TelemetryRecord::from_series(
                &experiment,
                kind,
                point,
                key.hex(),
                outcome,
                wall_ms,
                &series,
            ));
        }
        series
    }

    /// Append a pre-built record to the telemetry sink (no-op when
    /// telemetry is disabled) and count it in the current scope. For runs
    /// that bypass [`SweepEngine::run_series`] — the observability passes
    /// must re-simulate to regenerate events, so they never consult the
    /// result cache, but their runs should still land in the log.
    pub fn append_telemetry(&self, record: &TelemetryRecord, wall_ms: f64) {
        self.note(CacheOutcome::Bypass, wall_ms);
        if let Some(t) = &self.telemetry {
            t.append(record);
        }
    }

    /// Run (or recall) one point producing an arbitrary serializable value.
    /// Cached and counted in the scope, but not written to telemetry (the
    /// JSONL schema is per-run counter rates, which only a series carries).
    pub fn run_value<T>(&self, key: CacheKey, run: impl FnOnce() -> T) -> T
    where
        T: Serialize + Deserialize,
    {
        let t0 = Instant::now();
        let (outcome, value) = match &self.cache {
            Some(c) => match c.load::<T>(key) {
                Some(v) => (CacheOutcome::Hit, v),
                None => {
                    let v = run();
                    c.store(key, &v);
                    (CacheOutcome::Miss, v)
                }
            },
            None => (CacheOutcome::Bypass, run()),
        };
        self.note(outcome, t0.elapsed().as_secs_f64() * 1e3);
        value
    }
}

static ENGINE: OnceLock<SweepEngine> = OnceLock::new();

/// Install the process-wide engine. Must run before any sweep executes
/// (the binaries call it first thing in `main`); later calls are ignored
/// with a warning because sweeps may already have consulted the engine.
/// Its worker count also becomes the batch step budget
/// ([`smt_sim::batch::set_step_budget`]), so `--jobs` caps the threads
/// stepping batch groups too.
pub fn configure(cfg: SweepConfig) {
    match ENGINE.set(SweepEngine::new(cfg)) {
        Ok(()) => smt_sim::batch::set_step_budget(engine().jobs()),
        Err(_) => {
            eprintln!("warning: sweep engine already configured; ignoring reconfiguration")
        }
    }
}

/// The process-wide engine (inert until [`configure`] installs one).
pub fn engine() -> &'static SweepEngine {
    ENGINE.get_or_init(|| {
        let e = SweepEngine::inert();
        smt_sim::batch::set_step_budget(e.jobs());
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_stats::QuantumRecord;

    fn series(committed: u64) -> RunSeries {
        RunSeries {
            quanta: vec![QuantumRecord {
                index: 0,
                policy: "ICOUNT".into(),
                cycles: 100,
                committed,
                ipc: committed as f64 / 100.0,
                l1_miss_rate: 0.0,
                lsq_full_rate: 0.0,
                mispredict_rate: 0.0,
                branch_rate: 0.0,
                idle_fetch_rate: 0.0,
            }],
            switches: vec![],
        }
    }

    #[test]
    fn inert_engine_bypasses_cache() {
        let e = SweepEngine::inert();
        e.begin_scope("t");
        let key = point_key("fixed", &"m", &1u32, &"c");
        let mut runs = 0;
        for _ in 0..2 {
            let s = e.run_series("fixed", "p", key, || {
                runs += 1;
                series(250)
            });
            assert_eq!(s.quanta[0].committed, 250);
        }
        assert_eq!(runs, 2, "no cache, so every call simulates");
        let summary = e.scope_summary();
        assert!(
            summary.contains("2 points") && summary.contains("2 uncached"),
            "{summary}"
        );
    }

    #[test]
    fn cached_engine_runs_once_and_replays_identically() {
        let dir = std::env::temp_dir().join(format!("smt-adts-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = SweepEngine::new(SweepConfig {
            jobs: Some(1),
            cache_dir: Some(dir.clone()),
            telemetry_path: None,
        });
        e.begin_scope("t");
        let key = point_key("fixed", &"m", &1u32, &"c");
        let mut runs = 0;
        let first = e.run_series("fixed", "p", key, || {
            runs += 1;
            series(300)
        });
        let second = e.run_series("fixed", "p", key, || {
            runs += 1;
            series(999)
        });
        assert_eq!(runs, 1, "second call must be a cache hit");
        assert_eq!(
            first, second,
            "hit must replay the stored result bit-identically"
        );
        let summary = e.scope_summary();
        assert!(
            summary.contains("1 cache hits") && summary.contains("1 misses"),
            "{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
