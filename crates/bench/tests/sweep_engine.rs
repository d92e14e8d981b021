//! Integration tests of the sweep engine against real simulations: worker
//! counts must not change results, panics must stay confined to their
//! point, a warm cache must replay bit-identically, warm and
//! checkpoint-restored sweeps must equal cold ones, and telemetry must be
//! valid JSONL.

use smt_bench::sweep::{point_key, run_isolated, SweepConfig, SweepEngine, TelemetryRecord};
use smt_bench::{fixed_series, threshold_type_sweep_with, warm, ExpParams, ThresholdTypeSweep};
use smt_policies::FetchPolicy;
use smt_stats::RunSeries;
use smt_workloads::mix;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Held by every test that goes through the process-wide warm pool, so
/// one test's pool resets and counters never interleave with another's.
static WARM_POOL: Mutex<()> = Mutex::new(());

fn lock_warm_pool() -> MutexGuard<'static, ()> {
    WARM_POOL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_params() -> ExpParams {
    ExpParams {
        seed: 42,
        warmup_quanta: 1,
        quanta: 5,
        quantum_cycles: 2048,
        mix_ids: vec![1],
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("smt-adts-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The satellite determinism requirement: pushing the same seeded points
/// through the executor with 1, 2 and 8 workers yields byte-identical
/// serialized `RunSeries` in the same order.
#[test]
fn worker_count_does_not_change_serialized_results() {
    let _pool = lock_warm_pool();
    let p = tiny_params();
    let points: Vec<(usize, FetchPolicy)> = vec![
        (1, FetchPolicy::Icount),
        (9, FetchPolicy::BrCount),
        (13, FetchPolicy::L1MissCount),
        (5, FetchPolicy::RoundRobin),
    ];
    let sweep_with = |jobs: usize| -> Vec<String> {
        run_isolated(&points, jobs, |&(mi, policy)| {
            let sub = mix(mi).take_threads(4, p.seed);
            serde::json::to_string(&fixed_series(&sub, policy, &p))
        })
        .into_iter()
        .map(|r| r.expect("no point panics"))
        .collect()
    };
    let serial = sweep_with(1);
    assert_eq!(
        sweep_with(2),
        serial,
        "2 workers must replay the serial bytes"
    );
    assert_eq!(
        sweep_with(8),
        serial,
        "8 workers must replay the serial bytes"
    );
    // Distinct points must actually be distinct runs, or the assertion
    // above would be vacuous.
    assert_ne!(serial[0], serial[1]);
}

/// A poisoned simulation point fails alone; its siblings' results survive
/// and arrive in order.
#[test]
fn poisoned_simulation_point_fails_alone() {
    let _pool = lock_warm_pool();
    let p = tiny_params();
    let points = vec![1usize, 9, 13];
    let results = run_isolated(&points, 2, |&mi| {
        if mi == 9 {
            panic!("injected failure for mix {mi}");
        }
        let sub = mix(mi).take_threads(2, p.seed);
        fixed_series(&sub, FetchPolicy::Icount, &p).aggregate_ipc()
    });
    assert_eq!(results.len(), 3);
    assert!(results[0].as_ref().is_ok_and(|ipc| *ipc > 0.0));
    let err = results[1].as_ref().expect_err("mix 9 was poisoned");
    assert_eq!(err.index, 1);
    assert!(
        err.message.contains("injected failure for mix 9"),
        "{}",
        err.message
    );
    assert!(results[2].as_ref().is_ok_and(|ipc| *ipc > 0.0));
}

/// The tentpole acceptance path in miniature: a cold pass simulates and
/// stores, a warm pass must not simulate at all and must reproduce the
/// exact bytes.
#[test]
fn warm_cache_replays_real_run_bit_identically() {
    let dir = tmp_dir("warm");
    let p = tiny_params();
    let sub = mix(13).take_threads(2, p.seed);
    let key = point_key("fixed", &sub, &p, &FetchPolicy::Icount);
    let run_pass = |may_simulate: bool| -> String {
        let engine = SweepEngine::new(SweepConfig {
            jobs: Some(1),
            cache_dir: Some(dir.clone()),
            telemetry_path: None,
        });
        let series = engine.run_series("fixed", "MIX13/ICOUNT", key, || {
            assert!(may_simulate, "warm pass must be served from the cache");
            let mut m = adts_core::machine_for_mix(&sub, p.seed);
            let _ = adts_core::run_fixed(
                FetchPolicy::Icount,
                &mut m,
                p.warmup_quanta,
                p.quantum_cycles,
            );
            adts_core::run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
        });
        serde::json::to_string(&series)
    };
    let cold = run_pass(true);
    let warm = run_pass(false);
    assert_eq!(
        cold, warm,
        "cache hit must be byte-identical to the simulated result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cell of a sweep, as exact bits: the fixed-ICOUNT baselines,
/// then (IPC, switches, judged, benign) per adaptive cell.
fn sweep_bits(sw: &ThresholdTypeSweep) -> Vec<(u64, usize, usize, usize)> {
    let baselines = sw.icount.iter().map(|ipc| (ipc.to_bits(), 0, 0, 0));
    let cells = sw
        .cells
        .iter()
        .flatten()
        .flatten()
        .map(|c| (c.ipc.to_bits(), c.switches, c.judged, c.benign));
    baselines.chain(cells).collect()
}

/// The threshold×type sweep gives the same bits cold (pool off), warm
/// (empty pool, writing checkpoints) and checkpoint-restored (empty pool
/// reading them back, as a fresh process would). The warm pass warms
/// each mix exactly once and the restored pass reads every mix from the
/// store. It runs the scalar reference path, which asks the pool once
/// per point, so the pool really serves the other 25 points of a mix.
#[test]
fn sweep_is_bit_identical_cold_warm_and_checkpoint_restored() {
    let _pool = lock_warm_pool();
    let dir = tmp_dir("ckpt");
    let p = ExpParams {
        seed: 42,
        warmup_quanta: 4,
        quanta: 2,
        quantum_cycles: 2048,
        mix_ids: vec![1, 9],
    };
    let mixes = p.mix_ids.len() as u64;

    warm::set_enabled(false);
    warm::configure_store(None);
    let cold = sweep_bits(&threshold_type_sweep_with(&p, false));

    warm::set_enabled(true);
    warm::reset_pool();
    warm::configure_store(Some(dir.clone()));
    let warmed = sweep_bits(&threshold_type_sweep_with(&p, false));
    let warm_stats = warm::stats();

    warm::reset_pool();
    let restored = sweep_bits(&threshold_type_sweep_with(&p, false));
    let restore_stats = warm::stats();

    warm::configure_store(None);
    warm::reset_pool();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold.len(), 26 * p.mix_ids.len());
    assert_eq!(warmed, cold, "warm-pool sweep diverged from the cold one");
    assert_eq!(restored, cold, "checkpoint-restored sweep diverged");
    assert_eq!(
        warm_stats.warmups, mixes,
        "one warmup per mix: {warm_stats:?}"
    );
    assert!(
        warm_stats.pool_hits > 0,
        "pool served nothing: {warm_stats:?}"
    );
    assert_eq!(
        restore_stats.warmups, 0,
        "restored pass re-warmed: {restore_stats:?}"
    );
    assert_eq!(
        restore_stats.ckpt_hits, mixes,
        "restored pass missed the store: {restore_stats:?}"
    );
}

/// Every run appends one parseable telemetry record whose aggregates match
/// the series it describes.
#[test]
fn telemetry_lines_are_valid_and_match_the_run() {
    let dir = tmp_dir("telemetry");
    let path = dir.join("telemetry.jsonl");
    let p = tiny_params();
    let sub = mix(1).take_threads(2, p.seed);
    let engine = SweepEngine::new(SweepConfig {
        jobs: Some(1),
        cache_dir: None,
        telemetry_path: Some(path.clone()),
    });
    engine.begin_scope("it_telemetry");
    let key = point_key("fixed", &sub, &p, &FetchPolicy::Icount);
    let series: RunSeries = engine.run_series("fixed", "MIX01/ICOUNT", key, || {
        let mut m = adts_core::machine_for_mix(&sub, p.seed);
        adts_core::run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
    });
    let text = std::fs::read_to_string(&path).expect("telemetry file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1);
    let record: TelemetryRecord = serde::json::from_str(lines[0]).expect("line is valid JSON");
    assert_eq!(record.experiment, "it_telemetry");
    assert_eq!(record.kind, "fixed");
    assert_eq!(record.point, "MIX01/ICOUNT");
    assert_eq!(record.key, key.hex());
    assert_eq!(record.quanta, series.quanta.len());
    assert_eq!(record.aggregate_ipc, series.aggregate_ipc());
    assert_eq!(record.per_quantum_ipc.len(), series.quanta.len());
    let summary = engine.scope_summary();
    assert!(
        summary.contains("it_telemetry") && summary.contains("1 points"),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Empty and single-item sweeps terminate and preserve shape (the executor
/// edge cases the old `par_map` handled, now with panic isolation on).
#[test]
fn empty_and_single_item_sweeps_work() {
    let _pool = lock_warm_pool();
    let none: Vec<u32> = Vec::new();
    assert!(run_isolated(&none, 4, |&x| x).is_empty());
    let p = tiny_params();
    let one = run_isolated(&[13usize], 4, |&mi| {
        let sub = mix(mi).take_threads(2, p.seed);
        fixed_series(&sub, FetchPolicy::Icount, &p).aggregate_ipc()
    });
    assert_eq!(one.len(), 1);
    assert!(one[0].as_ref().is_ok_and(|ipc| *ipc > 0.0));
}
