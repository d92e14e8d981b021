//! Correct-path lookahead: a run that generates its µops on a helper
//! thread must leave the machine bit-identical to an inline run, the
//! helper must come out of the step budget only when a slot is free, and
//! a panicking run must hand its slots back.
//!
//! Every test here sets the process-wide budget and reads the
//! process-wide count of runs that borrowed a helper, so each one holds
//! [`BUDGET`] for its whole run; this file is its own test binary, so no
//! other suite sees the settings.

use smt_isa::Tid;
use smt_sim::batch::{run_helpers, set_step_budget};
use smt_sim::lookahead::MIN_RUN;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{
    FetchChooser, LockstepCell, MachineBatch, PolicyView, RoundRobin, SimConfig, SmtMachine,
};
use smt_workloads::{mix, TraceStream, UopStream};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

static BUDGET: Mutex<()> = Mutex::new(());

/// Hold the budget lock and set the budget to `threads`.
fn budget(threads: usize) -> MutexGuard<'static, ()> {
    let guard = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
    set_step_budget(threads);
    guard
}

const QUANTUM: u64 = 8_192;

/// Fewest ops in the front end first: an ICOUNT stand-in that reads the
/// machine, so any difference in fetched ops changes the schedule.
struct Icount;

impl FetchChooser for Icount {
    fn prioritize(&mut self, _: u64, views: &mut Vec<PolicyView>) {
        views.sort_by_key(|v| (v.front_end_occ + v.iq_occ, v.tid.0));
    }
}

fn mix_machine(id: usize, threads: usize) -> SmtMachine {
    let m = mix(id);
    let m = if threads == m.apps.len() {
        m
    } else {
        m.take_threads(threads, 7)
    };
    SmtMachine::new(SimConfig::with_threads(threads), m.streams(42))
}

/// Two threads replaying 20,000 recorded ops each, wrapping.
fn trace_machine() -> SmtMachine {
    let streams = ["gzip", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let profile = Arc::new(smt_workloads::app(app));
            let base = smt_workloads::thread_addr_base(i);
            let mut synth = UopStream::new(Arc::clone(&profile), 9 + i as u64, base);
            let ops = (0..20_000).map(|_| synth.next_uop()).collect();
            UopStream::Trace(TraceStream::replay(profile, base, Arc::new(ops)))
        })
        .collect();
    SmtMachine::new(SimConfig::with_threads(2), streams)
}

/// Everything a run can change, as bytes.
fn state(m: &SmtMachine) -> (Vec<u8>, smt_sim::CounterSnapshot) {
    (MachineSnapshot::capture(m).to_bytes(), m.counter_snapshot())
}

/// Step `inline` at budget 1 and `ahead` at budget 2 through `quantum`
/// on each, then require equal bytes and counters. Returns the runs
/// that borrowed a helper at each budget.
fn lockstep(
    inline: &mut SmtMachine,
    ahead: &mut SmtMachine,
    quantum: impl Fn(&mut SmtMachine),
    what: &str,
) -> (u64, u64) {
    set_step_budget(1);
    let before = run_helpers();
    quantum(inline);
    let at_1 = run_helpers() - before;
    set_step_budget(2);
    let before = run_helpers();
    quantum(ahead);
    let at_2 = run_helpers() - before;
    assert!(state(inline) == state(ahead), "{what}: lookahead diverged");
    (at_1, at_2)
}

#[test]
fn lookahead_equals_inline_on_every_quantum() {
    let _budget = budget(2);
    let points = [
        ("MIX01x8", mix_machine(1, 8)),
        ("MIX13x1", mix_machine(13, 1)),
        ("MIX09x2", mix_machine(9, 2)),
        ("trace", trace_machine()),
    ];
    for (what, m) in points {
        let (mut inline, mut ahead) = (m.clone(), m);
        for q in 0..3 {
            let helpers = lockstep(
                &mut inline,
                &mut ahead,
                |m| m.run(QUANTUM, &mut Icount),
                &format!("{what} q{q}"),
            );
            assert_eq!(helpers, (0, 1), "{what} q{q}: runs that borrowed");
        }
    }
}

#[test]
fn split_short_and_rethreaded_runs_equal_inline() {
    let _budget = budget(2);
    let m = mix_machine(9, 2);
    let (mut inline, mut ahead) = (m.clone(), m);
    lockstep(
        &mut inline,
        &mut ahead,
        |m| m.run(QUANTUM, &mut Icount),
        "warm",
    );

    // A delayed switch splits a quantum into two runs under two policies,
    // as `AdaptiveScheduler::execute_plan` does; only the first part is
    // long enough to borrow.
    let delay = QUANTUM - MIN_RUN / 2;
    let split = |m: &mut SmtMachine| {
        m.run(delay, &mut Icount);
        m.run(QUANTUM - delay, &mut RoundRobin);
    };
    assert_eq!(lockstep(&mut inline, &mut ahead, split, "split"), (0, 1));

    let short = |m: &mut SmtMachine| m.run(MIN_RUN - 1, &mut Icount);
    assert_eq!(lockstep(&mut inline, &mut ahead, short, "short"), (0, 0));

    // A new job on context 0, and context 1 migrated out and back in,
    // between runs.
    for m in [&mut inline, &mut ahead] {
        let fresh = UopStream::new(
            Arc::new(smt_workloads::app("mcf")),
            77,
            smt_workloads::thread_addr_base(0),
        );
        m.replace_thread(Tid(0), fresh, 40);
        let moved = m.migrate_out(Tid(1));
        m.migrate_in(Tid(1), moved, 64);
    }
    for q in 0..2 {
        let run = |m: &mut SmtMachine| m.run(QUANTUM, &mut Icount);
        assert_eq!(
            lockstep(&mut inline, &mut ahead, run, &format!("moved q{q}")),
            (0, 1)
        );
    }
    assert_eq!(
        inline.stream_generated(Tid(1)),
        ahead.stream_generated(Tid(1))
    );
}

/// A batch cell whose plan is its key's parity: cells of one parity
/// share a partition.
struct Keyed(usize);

impl LockstepCell for Keyed {
    type Plan = usize;
    type Boundary = ();

    fn plan(&mut self, _: &SmtMachine) -> usize {
        self.0 % 2
    }

    fn execute(plan: &usize, m: &mut SmtMachine) {
        m.run(MIN_RUN, &mut RoundRobin);
        m.set_fetch_enabled(Tid(0), *plan == 0);
    }

    fn observe(&mut self, _: &SmtMachine) {}

    fn apply_boundary(_: &(), _: &mut SmtMachine) {}
}

#[test]
fn a_quantum_lends_its_idle_slot_to_one_run_only() {
    let _budget = budget(2);
    let base = mix_machine(1, 2);
    let before = run_helpers();
    let mut one = MachineBatch::new(base.clone(), vec![Keyed(0), Keyed(2)]);
    assert_eq!(one.run_quantum().helpers, 0);
    assert_eq!(
        run_helpers() - before,
        1,
        "a one-partition run borrowed nothing"
    );

    let before = run_helpers();
    let mut two = MachineBatch::new(base.clone(), vec![Keyed(0), Keyed(1)]);
    let forks = two.run_quantum();
    assert_eq!(forks.groups, 2);
    assert_eq!(
        run_helpers() - before,
        0,
        "a run of a two-partition quantum borrowed"
    );

    // Both batches stepped the same machine the same way, whoever
    // generated the µops.
    let mut inline = base;
    set_step_budget(1);
    inline.run(MIN_RUN, &mut RoundRobin);
    inline.set_fetch_enabled(Tid(0), true);
    assert!(state(one.machine_for(0)) == state(&inline));
}

/// Blocks at `at` on two barriers, so the test can act while the run is
/// in flight, then panics on the next cycle if `panics`.
struct Pausing {
    at: u64,
    gate: Arc<Barrier>,
    panics: bool,
}

impl FetchChooser for Pausing {
    fn prioritize(&mut self, cycle: u64, views: &mut Vec<PolicyView>) {
        if cycle == self.at {
            self.gate.wait();
            self.gate.wait();
        }
        if self.panics && cycle > self.at {
            panic!("chooser failed at cycle {cycle}");
        }
        RoundRobin.prioritize(cycle, views);
    }
}

#[test]
fn a_run_holds_its_slots_until_it_ends_or_panics() {
    let _budget = budget(2);
    let machine = mix_machine(13, 2);
    for panics in [false, true] {
        let gate = Arc::new(Barrier::new(2));
        let before = run_helpers();
        let outcome = std::thread::scope(|s| {
            let mut m = machine.clone();
            let chooser = Pausing {
                at: 100,
                gate: Arc::clone(&gate),
                panics,
            };
            let run = s.spawn(move || m.run(QUANTUM, &mut { chooser }));
            // The run is in flight with its helper: the budget is spent.
            gate.wait();
            assert_eq!(
                run_helpers() - before,
                1,
                "the paused run borrowed no helper"
            );
            let mut other = machine.clone();
            other.run(MIN_RUN, &mut RoundRobin);
            assert_eq!(run_helpers() - before, 1, "a run borrowed past the budget");
            gate.wait();
            run.join()
        });
        match (panics, outcome) {
            (false, Ok(())) => {}
            (true, Err(payload)) => {
                let msg = payload.downcast_ref::<String>().expect("a formatted panic");
                assert!(msg.starts_with("chooser failed"), "{msg}");
            }
            (_, outcome) => panic!("panics {panics}: run ended {:?}", outcome.is_ok()),
        }
        // Both slots came back: the next run borrows again.
        let before = run_helpers();
        machine.clone().run(MIN_RUN, &mut RoundRobin);
        assert_eq!(
            run_helpers() - before,
            1,
            "panics {panics}: a slot was kept"
        );
    }
}
