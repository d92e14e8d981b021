//! The batch step budget: how many threads step a quantum's partitions
//! must never change a result, a quantum must never hold more helpers
//! than the budget leaves, and a panicking partition must hand its
//! helpers back.
//!
//! Every test here sets the process-wide budget, so each one holds
//! [`BUDGET`] for its whole run; this file is its own test binary, so no
//! other suite sees the settings.

use smt_isa::{AppProfile, Tid};
use smt_sim::batch::set_step_budget;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{
    BatchStats, FetchChooser, LockstepCell, LockstepMachine, MachineBatch, MultiCoreMachine,
    MultiCoreSnapshot, PolicyView, RoundRobin, SimConfig, SmtMachine,
};
use smt_workloads::UopStream;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

static BUDGET: Mutex<()> = Mutex::new(());

/// Hold the budget lock and set the budget to `threads`.
fn budget(threads: usize) -> MutexGuard<'static, ()> {
    let guard = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
    set_step_budget(threads);
    guard
}

const QUANTUM: u64 = 300;

fn core(first_thread: usize, n: usize, seed: u64) -> SmtMachine {
    let streams = (first_thread..first_thread + n)
        .map(|g| {
            UopStream::new(
                Arc::new(AppProfile::builder("t").build()),
                seed + g as u64,
                smt_workloads::thread_addr_base(g),
            )
        })
        .collect();
    SmtMachine::new(SimConfig::with_threads(n), streams)
}

/// Round-robin priority rotated by a plan-chosen offset.
#[derive(Clone, Copy)]
struct Rotated(usize);

impl FetchChooser for Rotated {
    fn prioritize(&mut self, cycle: u64, views: &mut Vec<PolicyView>) {
        RoundRobin.prioritize(cycle, views);
        let n = views.len().max(1);
        views.rotate_left(self.0 % n);
    }
}

/// What the test cells need of a machine, on one core or many.
trait Machine: LockstepMachine {
    fn run_rotated(&mut self, cycles: u64, rot: usize);
    fn committed(&self) -> u64;
    fn now(&self) -> u64;
    fn threads(&self) -> usize;
    fn gate(&mut self, thread: usize, on: bool);
    fn bytes(&self) -> Vec<u8>;
}

impl Machine for SmtMachine {
    fn run_rotated(&mut self, cycles: u64, rot: usize) {
        self.run(cycles, &mut Rotated(rot));
    }
    fn committed(&self) -> u64 {
        self.total_committed()
    }
    fn now(&self) -> u64 {
        self.cycle()
    }
    fn threads(&self) -> usize {
        self.n_threads()
    }
    fn gate(&mut self, thread: usize, on: bool) {
        self.set_fetch_enabled(Tid(thread as u8), on);
    }
    fn bytes(&self) -> Vec<u8> {
        MachineSnapshot::capture(self).to_bytes()
    }
}

impl Machine for MultiCoreMachine {
    fn run_rotated(&mut self, cycles: u64, rot: usize) {
        let mut choosers = vec![Rotated(rot); self.n_cores()];
        self.run(cycles, &mut choosers);
    }
    fn committed(&self) -> u64 {
        self.total_committed()
    }
    fn now(&self) -> u64 {
        self.cycle()
    }
    fn threads(&self) -> usize {
        self.n_threads()
    }
    fn gate(&mut self, thread: usize, on: bool) {
        let (c, s) = self.placement()[thread];
        self.core_mut(c).set_fetch_enabled(Tid(s as u8), on);
    }
    fn bytes(&self) -> Vec<u8> {
        MultiCoreSnapshot::capture(self, Vec::new()).to_bytes()
    }
}

/// A policy-point stand-in whose plan and boundary depend on the machine
/// and on the cell's key, so a batch splits at both fork points.
struct Cell {
    key: u64,
    /// (cycle, committed) after every quantum.
    series: Vec<(u64, u64)>,
}

#[derive(Clone, Debug, PartialEq)]
struct Plan {
    rot: usize,
}

#[derive(Clone, Debug, PartialEq)]
struct Gate {
    thread: usize,
    on: bool,
}

impl<M: Machine> LockstepCell<M> for Cell {
    type Plan = Plan;
    type Boundary = Gate;

    fn plan(&mut self, m: &M) -> Plan {
        Plan {
            rot: ((m.committed() / 16 + self.key) % 4) as usize,
        }
    }

    fn execute(plan: &Plan, m: &mut M) {
        m.run_rotated(QUANTUM, plan.rot);
    }

    fn observe(&mut self, m: &M) -> Gate {
        self.series.push((m.now(), m.committed()));
        Gate {
            thread: (self.key as usize) % m.threads(),
            on: !(m.committed() + self.key).is_multiple_of(3),
        }
    }

    fn apply_boundary(g: &Gate, m: &mut M) {
        m.gate(g.thread, g.on);
    }
}

/// Everything a batch produced: each cell's series, the counters, each
/// cell's final machine bytes, and the helpers every quantum used.
type Outcome = (Vec<Vec<(u64, u64)>>, BatchStats, Vec<Vec<u8>>, Vec<usize>);

fn run_batch<M: Machine>(machine: M, cells: usize, quanta: usize) -> Outcome {
    let cells = (0..cells as u64)
        .map(|key| Cell {
            key,
            series: Vec::new(),
        })
        .collect();
    let mut batch = MachineBatch::new(machine, cells);
    let helpers = (0..quanta).map(|_| batch.run_quantum().helpers).collect();
    let bytes = (0..batch.n_cells())
        .map(|c| batch.machine_for(c).bytes())
        .collect();
    let stats = batch.stats();
    let series = batch.into_cells().into_iter().map(|c| c.series).collect();
    (series, stats, bytes, helpers)
}

fn smt() -> SmtMachine {
    let mut m = core(0, 4, 11);
    m.run(1_000, &mut RoundRobin);
    m
}

fn multicore() -> MultiCoreMachine {
    let cores = vec![core(0, 2, 23), core(2, 2, 23)];
    let placement = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
    let mut m = MultiCoreMachine::from_cores(cores, placement, 64);
    m.run(1_000, &mut [RoundRobin, RoundRobin]);
    m
}

/// Steps `machine`'s batch at budgets 1, 2 and 4: every output matches
/// the serial run, and the wider budgets really borrow helpers.
fn same_at_every_budget<M: Machine>(machine: impl Fn() -> M) {
    let runs: Vec<Outcome> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let _budget = budget(threads);
            run_batch(machine(), 8, 6)
        })
        .collect();
    let (series, stats, bytes, helpers) = &runs[0];
    assert!(helpers.iter().all(|&h| h == 0), "budget 1: {helpers:?}");
    assert!(stats.machine_quanta > 6, "the batch never split: {stats:?}");
    assert!(
        stats.plan_forks > 0 && stats.boundary_forks > 0,
        "{stats:?}"
    );
    for (threads, run) in [2, 4].into_iter().zip(&runs[1..]) {
        assert_eq!(&run.0, series, "budget {threads}: cell series");
        assert_eq!(&run.1, stats, "budget {threads}: batch stats");
        assert!(run.2 == *bytes, "budget {threads}: machine bytes");
        assert!(run.3.iter().any(|&h| h > 0), "budget {threads}: no helper");
        assert!(run.3.iter().all(|&h| h < threads), "budget {threads}");
    }
}

#[test]
fn smt_batch_is_identical_at_every_budget() {
    same_at_every_budget(smt);
}

#[test]
fn multicore_batch_is_identical_at_every_budget() {
    same_at_every_budget(multicore);
}

/// Every thread that ran [`Wide::execute`].
static STEPPERS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

/// A cell whose plan is its own key, so `n` cells step `n` partitions
/// from the first quantum on, and a key of [`PANICS`] panics.
struct Wide(usize);

const PANICS: usize = 1;

impl LockstepCell for Wide {
    type Plan = usize;
    type Boundary = ();

    fn plan(&mut self, _: &SmtMachine) -> usize {
        self.0
    }

    fn execute(&key: &usize, m: &mut SmtMachine) {
        STEPPERS.lock().unwrap().push(std::thread::current().id());
        if key == PANICS {
            panic!("cell {key} fails");
        }
        m.run(40, &mut RoundRobin);
    }

    fn observe(&mut self, _: &SmtMachine) {}

    fn apply_boundary(_: &(), _: &mut SmtMachine) {}
}

fn wide_batch(cells: usize) -> MachineBatch<Wide> {
    MachineBatch::new(core(0, 2, 5), (0..cells).map(|k| Wide(k + 2)).collect())
}

#[test]
fn a_wide_batch_under_budget_two_runs_one_helper() {
    let _budget = budget(2);
    let mut batch = wide_batch(26);
    for q in 0..3 {
        STEPPERS.lock().unwrap().clear();
        let forks = batch.run_quantum();
        let threads: HashSet<ThreadId> = STEPPERS.lock().unwrap().drain(..).collect();
        assert_eq!(forks.groups, 26, "quantum {q}");
        assert_eq!(forks.helpers, 1, "quantum {q}");
        assert!(threads.len() <= 2, "quantum {q}: {} threads", threads.len());
    }
}

#[test]
fn a_panicking_quantum_returns_its_helpers() {
    let _budget = budget(2);
    let mut cells: Vec<Wide> = (0..4).map(|k| Wide(k + 2)).collect();
    cells[2] = Wide(PANICS);
    let mut batch = MachineBatch::new(core(0, 2, 5), cells);
    let err = catch_unwind(AssertUnwindSafe(|| batch.run_quantum()))
        .expect_err("the quantum must re-raise its cell's panic");
    let msg = err.downcast_ref::<String>().map(String::as_str);
    assert_eq!(msg, Some("cell 1 fails"), "the cell's own message");
    // Had the helper not been returned, the budget would be spent and
    // this quantum would step serially.
    assert_eq!(wide_batch(4).run_quantum().helpers, 1);
}
