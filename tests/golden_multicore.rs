//! Multi-core golden conformance suite.
//!
//! Two halves:
//!
//! 1. **N=1 bit-identity** — a 1-core `MultiCoreMachine` (shared-L2
//!    rotation and all) replays *every* committed golden fixture
//!    byte-for-byte: the seven canonical synthetic points, the adaptive
//!    ADTS point, and both trace-replay points. These tests never bless;
//!    the scalar suites (`golden_trace.rs`, `golden_trace_replay.rs`)
//!    own the fixtures, and a divergence here means the multi-core
//!    machinery perturbed the single-core model.
//! 2. **Allocation points** — 2-core runs whose placement is re-decided
//!    every quantum by an allocation policy, with a nonzero migration
//!    penalty, pinned in their own fixtures (blessed here via the usual
//!    `SMT_GOLDEN_BLESS=1` flow). A batched-vs-scalar agreement test
//!    extends the lockstep conformance story to multi-core cells.

#[path = "golden_common/mod.rs"]
mod golden_common;

use golden_common::{
    adaptive_fixture_path, bless_requested, canonical_points, compare_adaptive, compare_multi,
    compare_traces, fixture_path, mix_for, multicore_allocs, multicore_fixture_path,
    multicore_points, trace_capture_path, trace_fixture_path, trace_points, AdaptiveGolden,
    AllocTrace, GoldenTrace, MultiGolden, PolicyTrace, MC_MIGRATION_PENALTY, QUANTA,
    QUANTUM_CYCLES, SCHEMA, SEED, TRACE_QUANTA, TRACE_QUANTUM_CYCLES, TRACE_WARMUP_QUANTA,
};
use smt_adts::prelude::*;
use smt_bench::tracebench::trace_machine;
use smt_isa::tracefile::TraceFile;
use smt_sim::{MachineBatch, MultiCoreMachine};

// ---------------------------------------------------------------------------
// half 1: N=1 replays of every committed fixture
// ---------------------------------------------------------------------------

/// The capture protocol of `golden_trace.rs`, driven through a 1-core
/// `MultiCoreMachine` instead of the bare `SmtMachine`.
fn record_single(mix_id: usize, threads: usize) -> GoldenTrace {
    let mix = mix_for(mix_id, threads);
    GoldenTrace {
        schema: SCHEMA,
        mix: mix.name.clone(),
        threads,
        seed: SEED,
        quanta: QUANTA,
        quantum_cycles: QUANTUM_CYCLES,
        policies: FetchPolicy::ALL
            .iter()
            .map(|&policy| {
                let mut machine = MultiCoreMachine::single(adts::machine_for_mix(&mix, SEED));
                let series = adts::run_alloc(
                    policy,
                    AllocKind::Static,
                    &mut machine,
                    QUANTA,
                    QUANTUM_CYCLES,
                );
                machine.check_invariants();
                PolicyTrace {
                    policy: policy.name().to_string(),
                    quantum_cycles: series.quanta.iter().map(|q| q.cycles).collect(),
                    quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
                    quantum_ipc_milli: series
                        .quanta
                        .iter()
                        .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
                        .collect(),
                    final_counters: machine.counter_snapshot(),
                }
            })
            .collect(),
    }
}

/// Replay-only byte comparison against a fixture another suite owns.
fn check_replay(
    json_path: std::path::PathBuf,
    fresh_json: String,
    semantic: impl Fn(&str) -> String,
) {
    if bless_requested() {
        return; // fixtures are owned (and mid-regeneration) elsewhere
    }
    let committed = std::fs::read_to_string(&json_path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); bless the owning suite first",
            json_path.display()
        )
    });
    if fresh_json != committed {
        panic!(
            "N=1 MultiCoreMachine diverged from {}: {}",
            json_path.display(),
            semantic(&committed)
        );
    }
}

fn check_single_point(mix_id: usize, threads: usize) {
    let trace = record_single(mix_id, threads);
    check_replay(
        fixture_path(mix_id, threads),
        serde::json::to_string(&trace),
        |committed| {
            let old: GoldenTrace = serde::json::from_str(committed).expect("parse fixture");
            compare_traces(&old, &trace).expect_err("bytes differ, structs must too")
        },
    );
}

#[test]
fn n1_replays_mix01_t8() {
    check_single_point(1, 8);
}

#[test]
fn n1_replays_mix09_t8() {
    check_single_point(9, 8);
}

#[test]
fn n1_replays_mix13_t8() {
    check_single_point(13, 8);
}

#[test]
fn n1_replays_reduced_points() {
    for (mix_id, threads) in canonical_points() {
        if threads < 8 {
            check_single_point(mix_id, threads);
        }
    }
}

/// The ADTS adaptive point: one `AdaptiveScheduler` per core (here: one),
/// stepped through the lockstep multi-core executor.
#[test]
fn n1_replays_adaptive_point() {
    let mix = mix_for(1, 8);
    let mut machine = MultiCoreMachine::single(adts::machine_for_mix(&mix, SEED));
    let cfg = adts::AdtsConfig {
        quantum_cycles: QUANTUM_CYCLES,
        ipc_threshold: 8.0,
        ..adts::AdtsConfig::default()
    };
    let mut scheds = adts::run_adaptive_multicore(cfg, &mut machine, QUANTA);
    machine.check_invariants();
    let final_counters = machine.counter_snapshot();
    let (series, audit) = scheds.remove(0).into_recordings();
    let golden = AdaptiveGolden {
        schema: SCHEMA,
        mix: mix.name.clone(),
        threads: 8,
        seed: SEED,
        quanta: QUANTA,
        quantum_cycles: QUANTUM_CYCLES,
        ipc_threshold_milli: (cfg.ipc_threshold * 1000.0) as u64,
        heuristic: cfg.heuristic.name().to_string(),
        quantum_policy: series.quanta.iter().map(|q| q.policy.clone()).collect(),
        quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
        quantum_ipc_milli: series
            .quanta
            .iter()
            .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
            .collect(),
        switch_quantum: series.switches.iter().map(|s| s.quantum).collect(),
        switch_from: series.switches.iter().map(|s| s.from.clone()).collect(),
        switch_to: series.switches.iter().map(|s| s.to.clone()).collect(),
        final_counters,
    };
    let audit: Vec<adts::DecisionRecord> = audit.iter().cloned().collect();
    check_replay(
        adaptive_fixture_path(),
        serde::json::to_string(&golden),
        |committed| {
            let old: AdaptiveGolden = serde::json::from_str(committed).expect("parse fixture");
            compare_adaptive(&old, &golden, &audit).expect_err("bytes differ, structs must too")
        },
    );
}

/// Both trace-replay points: the committed `.smttrace` capture drives a
/// 1-core multi-core machine under the exact replay protocol.
#[test]
fn n1_replays_trace_points() {
    if bless_requested() {
        return;
    }
    for (mix_id, threads) in trace_points() {
        let capture = trace_capture_path(mix_id, threads);
        let bytes = std::fs::read(&capture)
            .unwrap_or_else(|e| panic!("missing trace capture {} ({e})", capture.display()));
        let file = TraceFile::parse(bytes)
            .unwrap_or_else(|e| panic!("committed trace {} corrupt: {e}", capture.display()));
        let mix = mix_for(mix_id, threads);
        let trace = GoldenTrace {
            schema: SCHEMA,
            mix: mix.name.clone(),
            threads,
            seed: SEED,
            quanta: TRACE_QUANTA,
            quantum_cycles: TRACE_QUANTUM_CYCLES,
            policies: FetchPolicy::ALL
                .iter()
                .map(|&policy| {
                    let core = trace_machine(&file).expect("replay machine from committed trace");
                    let mut machine = MultiCoreMachine::single(core);
                    adts::run_alloc(
                        FetchPolicy::Icount,
                        AllocKind::Static,
                        &mut machine,
                        TRACE_WARMUP_QUANTA,
                        TRACE_QUANTUM_CYCLES,
                    );
                    let series = adts::run_alloc(
                        policy,
                        AllocKind::Static,
                        &mut machine,
                        TRACE_QUANTA,
                        TRACE_QUANTUM_CYCLES,
                    );
                    machine.check_invariants();
                    PolicyTrace {
                        policy: policy.name().to_string(),
                        quantum_cycles: series.quanta.iter().map(|q| q.cycles).collect(),
                        quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
                        quantum_ipc_milli: series
                            .quanta
                            .iter()
                            .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
                            .collect(),
                        final_counters: machine.counter_snapshot(),
                    }
                })
                .collect(),
        };
        check_replay(
            trace_fixture_path(mix_id, threads),
            serde::json::to_string(&trace),
            |committed| {
                let old: GoldenTrace = serde::json::from_str(committed).expect("parse fixture");
                compare_traces(&old, &trace).expect_err("bytes differ, structs must too")
            },
        );
    }
}

// ---------------------------------------------------------------------------
// half 2: genuinely multi-core allocation points (owned here)
// ---------------------------------------------------------------------------

fn record_multicore(mix_id: usize, threads: usize, cores: usize) -> MultiGolden {
    let mix = mix_for(mix_id, threads);
    MultiGolden {
        schema: SCHEMA,
        mix: mix.name.clone(),
        threads,
        cores,
        seed: SEED,
        quanta: QUANTA,
        quantum_cycles: QUANTUM_CYCLES,
        migration_penalty: MC_MIGRATION_PENALTY,
        allocs: multicore_allocs()
            .into_iter()
            .map(|alloc_name| {
                let alloc = AllocKind::by_name(alloc_name).expect("known alloc policy");
                let mut machine = adts::multicore_for_mix(&mix, SEED, cores, MC_MIGRATION_PENALTY);
                let series = adts::run_alloc(
                    FetchPolicy::Icount,
                    alloc,
                    &mut machine,
                    QUANTA,
                    QUANTUM_CYCLES,
                );
                machine.check_invariants();
                AllocTrace {
                    alloc: alloc_name.to_string(),
                    fetch: FetchPolicy::Icount.name().to_string(),
                    quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
                    quantum_ipc_milli: series
                        .quanta
                        .iter()
                        .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
                        .collect(),
                    migrations: machine.migrations().to_vec(),
                    final_counters: machine.counter_snapshot(),
                }
            })
            .collect(),
    }
}

fn check_multicore_point(mix_id: usize, threads: usize, cores: usize) {
    let json_path = multicore_fixture_path(mix_id, threads, cores);
    let golden = record_multicore(mix_id, threads, cores);
    let fresh = serde::json::to_string(&golden);
    if bless_requested() {
        std::fs::create_dir_all(json_path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&json_path, &fresh).expect("write fixture");
        eprintln!("blessed {}", json_path.display());
        return;
    }
    let committed = std::fs::read_to_string(&json_path).unwrap_or_else(|e| {
        panic!(
            "missing multi-core golden fixture {} ({e}); generate with \
             SMT_GOLDEN_BLESS=1 cargo test --test golden_multicore",
            json_path.display()
        )
    });
    if fresh == committed {
        return;
    }
    let old: MultiGolden = serde::json::from_str(&committed).expect("parse committed fixture");
    match compare_multi(&old, &golden) {
        Err(msg) => panic!(
            "multi-core golden fixture {}: {msg}\n\
             if this change is intended, re-bless with \
             SMT_GOLDEN_BLESS=1 cargo test --test golden_multicore",
            json_path.display()
        ),
        Ok(()) => panic!(
            "multi-core golden fixture {} is semantically equal but not byte-identical",
            json_path.display()
        ),
    }
}

#[test]
fn golden_mc2_mix01_t2() {
    let (mix_id, threads, cores) = multicore_points()[0];
    check_multicore_point(mix_id, threads, cores);
}

#[test]
fn golden_mc2_mix05_t4() {
    let (mix_id, threads, cores) = multicore_points()[1];
    check_multicore_point(mix_id, threads, cores);
}

#[test]
fn multicore_fixture_set_is_complete() {
    if bless_requested() {
        return;
    }
    for (mix_id, threads, cores) in multicore_points() {
        let path = multicore_fixture_path(mix_id, threads, cores);
        assert!(
            path.exists(),
            "multi-core fixture {} missing; bless it first",
            path.display()
        );
    }
}

/// Lockstep conformance for multi-core cells: a `MachineBatch` over the
/// full fetch × allocation matrix must reproduce the scalar [`run_alloc`]
/// series of every point exactly, while actually sharing work.
#[test]
fn multicore_batch_matches_scalar() {
    let (mix_id, threads, cores) = multicore_points()[0];
    let mix = mix_for(mix_id, threads);
    let quanta = 6u64;
    let quantum_cycles = 1024u64;
    let fetches = [FetchPolicy::Icount, FetchPolicy::RoundRobin];

    let warm = adts::multicore_for_mix(&mix, SEED, cores, MC_MIGRATION_PENALTY);
    let cells: Vec<AllocCell> = fetches
        .iter()
        .flat_map(|&f| AllocKind::ALL.into_iter().map(move |a| (f, a)))
        .map(|(f, a)| AllocCell::new(f, a, quantum_cycles, &warm))
        .collect();
    let mut batch = MachineBatch::new(warm.clone(), cells);
    for _ in 0..quanta {
        batch.run_quantum();
    }
    let stats = batch.stats();
    assert!(
        stats.machine_quanta < stats.cell_quanta,
        "batch shared no work: {stats:?}"
    );
    let batched = batch.into_cells();

    for cell in batched {
        let (f, a) = (cell.fetch_policy(), cell.alloc_kind());
        let mut machine = warm.clone();
        let scalar = adts::run_alloc(f, a, &mut machine, quanta, quantum_cycles);
        assert_eq!(
            cell.into_series(),
            scalar,
            "batched {}+{} diverged from scalar",
            f.name(),
            a.name()
        );
    }
}
