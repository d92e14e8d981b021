//! Convenience experiment drivers.
//!
//! Each runs a machine for N quanta and returns the per-quantum
//! [`RunSeries`] the experiment harness aggregates, by stepping one
//! [`PointCell`] through [`run_scalar_quantum`] as a batched sweep steps
//! many (the oracle's driver is [`crate::run_oracle`]). They also
//! centralize machine construction from a [`Mix`].

use crate::adaptive::AdtsConfig;
use crate::lockstep::PointCell;
use smt_policies::FetchPolicy;
use smt_sim::{run_scalar_quantum, CounterSnapshot, SimConfig, SmtMachine};
use smt_stats::RunSeries;
use smt_workloads::Mix;

/// Build a machine for a mix (threads = mix size) on a default-derived
/// `SimConfig`.
pub fn machine_for_mix(mix: &Mix, seed: u64) -> SmtMachine {
    let cfg = SimConfig::with_threads(mix.apps.len());
    SmtMachine::new(cfg, mix.streams(seed))
}

/// Build a machine for a mix with an explicit config (threads must match).
pub fn machine_for_mix_with(cfg: SimConfig, mix: &Mix, seed: u64) -> SmtMachine {
    SmtMachine::new(cfg, mix.streams(seed))
}

/// Run a fixed policy for `quanta` quanta of `quantum_cycles` each.
pub fn run_fixed(
    policy: FetchPolicy,
    machine: &mut SmtMachine,
    quanta: u64,
    quantum_cycles: u64,
) -> RunSeries {
    run_fixed_sampled(policy, machine, quanta, quantum_cycles, |_, _, _| {})
}

/// [`run_fixed`] with a per-quantum observer hook.
///
/// After each quantum the observer receives the quantum index, the
/// machine itself and the per-quantum *delta* of every thread's status
/// indicators ([`CounterSnapshot::delta`]) — the raw material telemetry
/// and external analyses build on, at the same granularity the detector
/// thread samples. The machine is what an occupancy sampler
/// (`smt_sim::obs::PipelineSampler`) needs: queue depths are
/// instantaneous state, not counter deltas.
pub fn run_fixed_sampled(
    policy: FetchPolicy,
    machine: &mut SmtMachine,
    quanta: u64,
    quantum_cycles: u64,
    mut observer: impl FnMut(u64, &SmtMachine, &CounterSnapshot),
) -> RunSeries {
    let mut cell = PointCell::fixed(policy, quantum_cycles);
    // Snapshot buffers reused across quanta — the observer loop allocates
    // only on the first iteration.
    let mut counters_before = CounterSnapshot::default();
    let mut counters_after = CounterSnapshot::default();
    let mut counters_delta = CounterSnapshot::default();
    for index in 0..quanta {
        machine.counter_snapshot_into(&mut counters_before);
        run_scalar_quantum(&mut cell, machine);
        machine.counter_snapshot_into(&mut counters_after);
        counters_before.delta_into(&counters_after, &mut counters_delta);
        observer(index, machine, &counters_delta);
    }
    cell.into_series()
}

/// Run the adaptive scheduler for `quanta` quanta.
pub fn run_adaptive(cfg: AdtsConfig, machine: &mut SmtMachine, quanta: u64) -> RunSeries {
    let mut cell = PointCell::adaptive(cfg, machine.n_threads());
    for _ in 0..quanta {
        run_scalar_quantum(&mut cell, machine);
    }
    cell.into_series()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::mix;

    #[test]
    fn machine_for_mix_matches_width() {
        let m = mix(1);
        let machine = machine_for_mix(&m, 42);
        assert_eq!(machine.n_threads(), 8);
    }

    #[test]
    fn machine_for_submix() {
        let m = mix(1).take_threads(4, 7);
        let machine = machine_for_mix(&m, 42);
        assert_eq!(machine.n_threads(), 4);
    }

    #[test]
    fn run_fixed_produces_expected_quanta() {
        let m = mix(10).take_threads(2, 1);
        let mut machine = machine_for_mix(&m, 5);
        let series = run_fixed(FetchPolicy::Icount, &mut machine, 5, 2048);
        assert_eq!(series.quanta.len(), 5);
        assert!(series.aggregate_ipc() > 0.0);
        assert!(series.switches.is_empty());
    }

    #[test]
    fn observer_sees_per_quantum_counter_deltas() {
        let m = mix(10).take_threads(2, 1);
        let mut machine = machine_for_mix(&m, 5);
        let mut seen = Vec::new();
        let series = run_fixed_sampled(FetchPolicy::Icount, &mut machine, 3, 2048, |i, _, d| {
            seen.push((i, d.cycle, d.committed()));
        });
        assert_eq!(seen.len(), 3);
        for (qi, ((i, cycles, committed), q)) in seen.iter().zip(&series.quanta).enumerate() {
            assert_eq!(*i, qi as u64);
            assert_eq!(
                *cycles, q.cycles,
                "delta cycles must match the quantum record"
            );
            assert_eq!(
                *committed, q.committed,
                "delta commits must match the quantum record"
            );
        }
    }

    #[test]
    fn fixed_and_adaptive_at_zero_threshold_agree() {
        let m = mix(10).take_threads(2, 1);
        let mut a = machine_for_mix(&m, 6);
        let mut b = machine_for_mix(&m, 6);
        let f = run_fixed(FetchPolicy::Icount, &mut a, 4, 8192);
        let ad = run_adaptive(
            AdtsConfig {
                ipc_threshold: 0.0,
                ..Default::default()
            },
            &mut b,
            4,
        );
        assert_eq!(f.aggregate_ipc(), ad.aggregate_ipc());
    }
}
