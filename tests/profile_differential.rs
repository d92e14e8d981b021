//! Stage-profile differential suite.
//!
//! The sampled stage profile (`SmtMachine::enable_profile`) only reads the
//! host clock: a profiled run must leave the same machine, byte for byte,
//! as a bare one. And its readings must account for the run: each
//! stage's timed nanoseconds, scaled from the sampled cycles to all of
//! them, must together cover at least 95% of the wall time the profiled
//! cycles took to step.

use smt_adts::prelude::*;
use smt_sim::obs::PROFILE_PERIOD;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{CounterSnapshot, StageProfile};
use std::time::Instant;

const QUANTA: u64 = 6;
const QUANTUM_CYCLES: u64 = 8192;
const SEED: u64 = 42;

/// A 4-thread subset of MIX01 and the full 8-thread MIX09.
fn points() -> [workloads::Mix; 2] {
    [workloads::mix(1).take_threads(4, 7), workloads::mix(9)]
}

struct Run {
    snapshot: Vec<u8>,
    counters: CounterSnapshot,
    profile: Option<StageProfile>,
    wall_ns: u64,
}

/// Warm `mix` for one quantum, then step `QUANTA` quanta of fixed ICOUNT,
/// with the profile on when `profiled`. The last quantum steps cycle by
/// cycle, so both `run` and `step` are covered.
fn run(mix: &workloads::Mix, profiled: bool) -> Run {
    let mut machine = adts::machine_for_mix(mix, SEED);
    let mut tsu = Tsu::new(FetchPolicy::Icount, machine.n_threads());
    machine.run(QUANTUM_CYCLES, &mut tsu);
    if profiled {
        machine.enable_profile();
    }
    let t = Instant::now();
    for _ in 1..QUANTA {
        machine.run(QUANTUM_CYCLES, &mut tsu);
    }
    for _ in 0..QUANTUM_CYCLES {
        machine.step(&mut tsu);
    }
    let wall_ns = t.elapsed().as_nanos() as u64;
    let profile = machine.disable_profile();
    machine.check_invariants();
    Run {
        snapshot: MachineSnapshot::capture(&machine).to_bytes(),
        counters: machine.counter_snapshot(),
        profile,
        wall_ns,
    }
}

#[test]
fn profile_changes_no_snapshot_byte_or_counter() {
    for mix in points() {
        let (bare, profiled) = (run(&mix, false), run(&mix, true));
        assert!(bare.profile.is_none());
        assert!(
            bare.snapshot == profiled.snapshot,
            "{}: the profile changed the machine's snapshot",
            mix.name
        );
        assert_eq!(bare.counters, profiled.counters, "{}", mix.name);
    }
}

#[test]
fn profile_counts_every_cycle_and_times_one_in_the_period() {
    for mix in points() {
        let p = run(&mix, true).profile.expect("profile was on");
        assert_eq!(p.cycles, QUANTA * QUANTUM_CYCLES, "{}", mix.name);
        assert_eq!(p.sampled, p.cycles / PROFILE_PERIOD, "{}", mix.name);
        assert!(p.uops > 0 && p.uop_gen_ns > 0, "{}: {p:?}", mix.name);
        assert!(p.uop_gen_ns <= p.fetch_ns, "{}: {p:?}", mix.name);
        assert!(p.stage_ns().iter().all(|&ns| ns > 0), "{}: {p:?}", mix.name);
    }
}

/// Coverage is a timing claim on a shared host: a preemption that lands in
/// an untimed cycle lengthens the wall time without reaching the profile.
/// So each point gets three attempts, and one must reach 95%.
#[test]
fn profile_covers_the_stepping_time() {
    for mix in points() {
        let sums: Vec<f64> = (0..3)
            .map(|_| {
                let r = run(&mix, true);
                let p = r.profile.expect("profile was on");
                p.shares(r.wall_ns).iter().sum()
            })
            .collect();
        assert!(
            sums.iter().any(|&s| s >= 0.95),
            "{}: stage shares sum to {sums:?} of the wall time",
            mix.name
        );
    }
}
