//! Multi-core observability differential suite.
//!
//! Mirror of `tests/obs_differential.rs` for the multi-core layer: the
//! per-core event rings, slot attribution, and the `MultiCoreSampler`
//! must not change what a `MultiCoreMachine` does. Each point runs twice
//! — once bare, once with every instrument enabled — and the pinned
//! observables (per-quantum cycles / commits / milli-IPC, per-thread
//! migration counts, the final [`CounterSnapshot`]) must serialize to
//! byte-identical JSON. On top of that, the two runs' full
//! [`MultiCoreSnapshot`] encodings must agree byte for byte: capture
//! strips instrumentation, so any residue the obs layer left in the
//! architectural state shows up as a checksum-covered byte diff.

use serde::{Deserialize, Serialize};
use smt_adts::prelude::*;
use smt_sim::obs::{MetricsRegistry, MultiCoreSampler};
use smt_sim::{run_scalar_quantum, CounterSnapshot, MultiCoreSnapshot};

const QUANTA: u64 = 6;
const QUANTUM_CYCLES: u64 = 2048;
const SEED: u64 = 42;
const CORES: usize = 2;
const MIGRATION_PENALTY: u64 = 64;
const EVENTS_CAP: usize = 16384;

/// Everything a run pins, in canonical-JSON-comparable form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Observables {
    quantum_cycles: Vec<u64>,
    quantum_committed: Vec<u64>,
    quantum_ipc_milli: Vec<u64>,
    migrations: Vec<u64>,
    final_counters: CounterSnapshot,
}

fn observables(series: &RunSeries, machine: &MultiCoreMachine) -> Observables {
    Observables {
        quantum_cycles: series.quanta.iter().map(|q| q.cycles).collect(),
        quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
        quantum_ipc_milli: series
            .quanta
            .iter()
            .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
            .collect(),
        migrations: machine.migrations().to_vec(),
        final_counters: machine.counter_snapshot(),
    }
}

fn fresh_machine(mix_id: usize) -> MultiCoreMachine {
    let mix = workloads::mix(mix_id).take_threads(4, 1);
    adts::multicore_for_mix(&mix, SEED, CORES, MIGRATION_PENALTY)
}

/// One allocation-policy point: returns the pinned observables as JSON
/// plus the machine's full snapshot encoding (instrumentation stripped
/// by `capture`, so both flavors should encode identically).
fn alloc_run(mix_id: usize, alloc: AllocKind, observed: bool) -> (String, Vec<u8>, u64) {
    let mut machine = fresh_machine(mix_id);
    let (series, events) = if observed {
        machine.enable_trace(EVENTS_CAP);
        machine.enable_attr();
        let mut reg = MetricsRegistry::new();
        let mut sampler = MultiCoreSampler::new(&mut reg, &machine);
        let mut cell = AllocCell::new(FetchPolicy::Icount, alloc, QUANTUM_CYCLES, &machine);
        for _ in 0..QUANTA {
            run_scalar_quantum(&mut cell, &mut machine);
            sampler.sample(&machine, &mut reg);
        }
        let recorded: u64 = machine
            .disable_trace()
            .into_iter()
            .flatten()
            .map(|buf| buf.recorded)
            .sum();
        machine.disable_attr();
        (cell.into_series(), recorded)
    } else {
        let series = adts::run_alloc(
            FetchPolicy::Icount,
            alloc,
            &mut machine,
            QUANTA,
            QUANTUM_CYCLES,
        );
        (series, 0)
    };
    machine.check_invariants();
    let json = serde::json::to_string(&observables(&series, &machine));
    let snapshot = MultiCoreSnapshot::capture(&machine, Vec::new()).to_bytes();
    (json, snapshot, events)
}

/// Fixed-policy point under static placement (nothing migrates), same
/// contract.
fn fixed_run(mix_id: usize, observed: bool) -> (String, Vec<u8>, u64) {
    let mut machine = fresh_machine(mix_id);
    let mut events = 0;
    if observed {
        machine.enable_trace(EVENTS_CAP);
        machine.enable_attr();
    }
    let series = adts::run_alloc(
        FetchPolicy::Icount,
        AllocKind::Static,
        &mut machine,
        QUANTA,
        QUANTUM_CYCLES,
    );
    if observed {
        let mut reg = MetricsRegistry::new();
        let mut sampler = MultiCoreSampler::new(&mut reg, &machine);
        sampler.sample(&machine, &mut reg);
        events = machine
            .disable_trace()
            .into_iter()
            .flatten()
            .map(|buf| buf.recorded)
            .sum();
        machine.disable_attr();
    }
    machine.check_invariants();
    let json = serde::json::to_string(&observables(&series, &machine));
    let snapshot = MultiCoreSnapshot::capture(&machine, Vec::new()).to_bytes();
    (json, snapshot, events)
}

fn check_alloc_point(mix_id: usize, alloc: AllocKind) {
    let (bare, bare_snap, _) = alloc_run(mix_id, alloc, false);
    let (observed, obs_snap, events) = alloc_run(mix_id, alloc, true);
    assert_eq!(
        bare,
        observed,
        "obs instrumentation changed MIX{mix_id:02}/{}",
        alloc.name()
    );
    assert_eq!(
        bare_snap,
        obs_snap,
        "snapshot bytes diverged for MIX{mix_id:02}/{}",
        alloc.name()
    );
    assert!(events > 0, "observed run must record events");
}

#[test]
fn fixed_mix01_identical_with_obs_on() {
    let (bare, bare_snap, _) = fixed_run(1, false);
    let (observed, obs_snap, events) = fixed_run(1, true);
    assert_eq!(bare, observed, "obs instrumentation changed MIX01/fixed");
    assert_eq!(
        bare_snap, obs_snap,
        "snapshot bytes diverged for MIX01/fixed"
    );
    assert!(events > 0, "observed run must record events");
}

#[test]
fn alloc_static_mix01_identical_with_obs_on() {
    check_alloc_point(1, AllocKind::Static);
}

#[test]
fn alloc_rotate_mix01_identical_with_obs_on() {
    check_alloc_point(1, AllocKind::Rotate);
}

#[test]
fn alloc_ipc_greedy_mix09_identical_with_obs_on() {
    check_alloc_point(9, AllocKind::IpcGreedy);
}

#[test]
fn alloc_ilp_aware_mix09_identical_with_obs_on() {
    check_alloc_point(9, AllocKind::IlpAware);
}
