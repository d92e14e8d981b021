//! Observability differential suite.
//!
//! The whole value of the obs layer rests on one claim: turning it on does
//! not change what the machine does. These tests run the same points twice
//! — once bare, once with the event ring, per-quantum occupancy sampling
//! and the metrics registry all enabled — and require the pinned
//! observables (per-quantum cycles / commits / milli-IPC and the final
//! [`CounterSnapshot`]) to serialize to byte-identical JSON. They also pin
//! the exporters: for a fully traced run, all three output formats must
//! parse back.

use serde::{Deserialize, Serialize};
use smt_adts::prelude::*;
use smt_sim::obs::{export, MetricsRegistry, PipelineSampler};
use smt_sim::{CounterSnapshot, TraceEvent};

const QUANTA: u64 = 8;
const QUANTUM_CYCLES: u64 = 4096;
const SEED: u64 = 42;
const EVENTS_CAP: usize = 16384;

/// Everything a run pins, in canonical-JSON-comparable form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Observables {
    quantum_cycles: Vec<u64>,
    quantum_committed: Vec<u64>,
    quantum_ipc_milli: Vec<u64>,
    final_counters: CounterSnapshot,
}

fn observables(series: &RunSeries, machine: &SmtMachine) -> Observables {
    Observables {
        quantum_cycles: series.quanta.iter().map(|q| q.cycles).collect(),
        quantum_committed: series.quanta.iter().map(|q| q.committed).collect(),
        quantum_ipc_milli: series
            .quanta
            .iter()
            .map(|q| q.committed.saturating_mul(1000) / q.cycles.max(1))
            .collect(),
        final_counters: machine.counter_snapshot(),
    }
}

/// Fixed-policy run; when `observed`, with the full instrumentation stack.
fn fixed_run(mix_id: usize, observed: bool) -> (String, Option<smt_sim::TraceBuffer>) {
    let mix = workloads::mix(mix_id);
    let mut machine = adts::machine_for_mix(&mix, SEED);
    let (series, buf) = if observed {
        machine.enable_trace(EVENTS_CAP);
        let mut reg = MetricsRegistry::new();
        let mut sampler = PipelineSampler::new(&mut reg, &machine);
        let series = adts::run_fixed_sampled(
            FetchPolicy::Icount,
            &mut machine,
            QUANTA,
            QUANTUM_CYCLES,
            |_, m, _| sampler.sample(m, &mut reg),
        );
        let buf = machine.disable_trace().expect("trace was enabled");
        (series, Some(buf))
    } else {
        let series = adts::run_fixed(FetchPolicy::Icount, &mut machine, QUANTA, QUANTUM_CYCLES);
        (series, None)
    };
    machine.check_invariants();
    let json = serde::json::to_string(&observables(&series, &machine));
    (json, buf)
}

/// Adaptive (ADTS) run; same contract.
fn adaptive_run(mix_id: usize, observed: bool) -> String {
    let mix = workloads::mix(mix_id);
    let mut machine = adts::machine_for_mix(&mix, SEED);
    let cfg = AdtsConfig {
        quantum_cycles: QUANTUM_CYCLES,
        ..AdtsConfig::default()
    };
    let mut reg = MetricsRegistry::new();
    let mut sampler = if observed {
        machine.enable_trace(EVENTS_CAP);
        Some(PipelineSampler::new(&mut reg, &machine))
    } else {
        None
    };
    let mut sched = AdaptiveScheduler::new(cfg, machine.n_threads());
    for _ in 0..QUANTA {
        sched.run_quantum(&mut machine);
        if let Some(s) = sampler.as_mut() {
            s.sample(&machine, &mut reg);
        }
    }
    let series = sched.into_series();
    machine.check_invariants();
    serde::json::to_string(&observables(&series, &machine))
}

#[test]
fn fixed_mix01_identical_with_obs_on() {
    let (bare, _) = fixed_run(1, false);
    let (observed, buf) = fixed_run(1, true);
    assert_eq!(bare, observed, "obs instrumentation changed MIX01/ICOUNT");
    assert!(buf.unwrap().recorded > 0, "observed run must record events");
}

#[test]
fn fixed_mix09_identical_with_obs_on() {
    let (bare, _) = fixed_run(9, false);
    let (observed, buf) = fixed_run(9, true);
    assert_eq!(bare, observed, "obs instrumentation changed MIX09/ICOUNT");
    assert!(buf.unwrap().recorded > 0, "observed run must record events");
}

#[test]
fn adaptive_mix01_identical_with_obs_on() {
    assert_eq!(
        adaptive_run(1, false),
        adaptive_run(1, true),
        "obs instrumentation changed MIX01/adts"
    );
}

#[test]
fn adaptive_mix09_identical_with_obs_on() {
    assert_eq!(
        adaptive_run(9, false),
        adaptive_run(9, true),
        "obs instrumentation changed MIX09/adts"
    );
}

/// All three exporter formats parse back for a full traced run.
#[test]
fn exporters_parse_for_a_traced_run() {
    let mix = workloads::mix(1);
    let mut machine = adts::machine_for_mix(&mix, SEED);
    machine.enable_trace(EVENTS_CAP);
    let mut reg = MetricsRegistry::new();
    let mut sampler = PipelineSampler::new(&mut reg, &machine);
    let series = adts::run_fixed_sampled(
        FetchPolicy::Icount,
        &mut machine,
        QUANTA,
        QUANTUM_CYCLES,
        |_, m, _| sampler.sample(m, &mut reg),
    );
    adts::register_series_metrics(&mut reg, &series);
    let buf = machine.disable_trace().expect("trace was enabled");
    assert!(!buf.is_empty());

    // JSONL: every line is one event that round-trips.
    let jsonl = export::jsonl(buf.events());
    let mut lines = 0;
    for line in jsonl.lines() {
        let _: TraceEvent = serde::json::from_str(line).expect("JSONL line must parse");
        lines += 1;
    }
    assert_eq!(lines, buf.len());

    // Chrome trace: a JSON object with a non-empty traceEvents array.
    let chrome = export::chrome_trace(buf.events());
    let value = serde::json::from_str::<serde::Value>(&chrome).expect("chrome trace must parse");
    let serde::Value::Map(obj) = value else {
        panic!("chrome trace must be a JSON object");
    };
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let serde::Value::Seq(items) = events else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(items.len(), buf.len());

    // Prometheus: every sample line is `name{labels} value` with a float
    // value, and the registered families are present.
    let prom = export::prometheus(&reg);
    assert!(prom.contains("smt_quantum_ipc_ICOUNT_bucket"));
    assert!(prom.contains("smt_rob_depth_per_thread_count"));
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().expect("sample line has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad prometheus value {value:?} in {line:?}: {e}"));
    }
}
