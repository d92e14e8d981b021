//! Outside-in layer probes for the traced run.
//!
//! Nothing here reaches inside the simulator: every number comes from
//! timing calls into public functions — a [`FetchChooser`] wrapper around
//! the fetch policy, a [`LockstepCell`] wrapper around the sweep cells,
//! and clock reads around `run` and `run_quantum` — plus the machines'
//! public counters before and after each call.
//!
//! Probes add into a thread-local [`LayerAcc`], because a cell's
//! `execute` has no `self` to carry one; [`collect`] runs a closure
//! against a fresh accumulator and hands it back.

use adts_core::{AllocCell, PointCell, QuantumPlan};
use smt_bench::sweep::SpanRecorder;
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{
    FetchChooser, LockstepCell, LockstepMachine, MultiCoreMachine, PolicyView, SmtMachine,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The inputs of one chooser call in this many are kept for replay.
const CHOOSER_SAMPLE: u64 = 64;
/// At most this many sampled calls are kept per region and thread.
const CHOOSER_SAMPLE_CAP: usize = 16_384;

/// Host time and simulated work seen by the probes of one traced region.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc {
    /// Wall time inside machine `run` calls (simulation plus chooser).
    pub exec_ns: u64,
    /// Wall time of each machine-quantum.
    pub quantum_ns: Vec<u64>,
    pub work: Marks,
    /// Instruction-queue occupancy per core, summed over quantum ends.
    pub iq_sum: f64,
    pub iq_samples: u64,
    pub chooser_calls: u64,
    pub chooser: ChooserSamples,
    /// `LockstepCell::plan` / `observe` / `apply_boundary` wall time.
    pub plan_ns: u64,
    pub observe_ns: u64,
    pub boundary_ns: u64,
    /// `MachineBatch::run_quantum` wall time and sharing counters.
    pub batch_ns: u64,
    pub cell_quanta: u64,
    pub forks: u64,
    /// Wall time of the whole probed region: the denominator of every
    /// layer share.
    pub busy_ns: u64,
}

impl LayerAcc {
    pub fn merge(&mut self, o: LayerAcc) {
        self.exec_ns += o.exec_ns;
        self.quantum_ns.extend(o.quantum_ns);
        self.work = self.work.plus(o.work);
        self.iq_sum += o.iq_sum;
        self.iq_samples += o.iq_samples;
        self.chooser_calls += o.chooser_calls;
        self.chooser.append(o.chooser);
        self.plan_ns += o.plan_ns;
        self.observe_ns += o.observe_ns;
        self.boundary_ns += o.boundary_ns;
        self.batch_ns += o.batch_ns;
        self.cell_quanta += o.cell_quanta;
        self.forks += o.forks;
        self.busy_ns += o.busy_ns;
    }
}

/// Inputs of a sample of chooser calls: the TSU and cycle of each call
/// and the views it was handed, before it reordered them.
///
/// A call costs tens of nanoseconds, no more than the two clock reads
/// that would time it in place, so the calls are timed afterwards by
/// replaying their inputs instead.
#[derive(Clone, Debug, Default)]
pub struct ChooserSamples {
    /// (TSU, cycle, first view, view count) per sampled call.
    calls: Vec<(Tsu, u64, usize, usize)>,
    views: Vec<PolicyView>,
}

impl ChooserSamples {
    fn push(&mut self, tsu: Tsu, cycle: u64, views: &[PolicyView]) {
        if self.calls.len() < CHOOSER_SAMPLE_CAP {
            self.calls.push((tsu, cycle, self.views.len(), views.len()));
            self.views.extend_from_slice(views);
        }
    }

    fn append(&mut self, o: ChooserSamples) {
        let base = self.views.len();
        let room = CHOOSER_SAMPLE_CAP.saturating_sub(self.calls.len());
        let calls = o.calls.into_iter().take(room);
        self.calls
            .extend(calls.map(|(t, c, start, n)| (t, c, start + base, n)));
        self.views.extend(o.views);
    }

    /// Mean host nanoseconds of `Tsu::prioritize` on the sampled inputs:
    /// the replay of every sample on a fresh copy of its views, less the
    /// same loop without the call. Best of three trials each.
    pub fn ns_per_call(&self) -> f64 {
        const REPEAT: usize = 4;
        if self.calls.is_empty() {
            return 0.0;
        }
        let replay = |call: bool| {
            (0..3)
                .map(|_| {
                    let mut buf = Vec::with_capacity(16);
                    let t = Instant::now();
                    for _ in 0..REPEAT {
                        for &(mut tsu, cycle, start, n) in &self.calls {
                            buf.clear();
                            buf.extend_from_slice(&self.views[start..start + n]);
                            if call {
                                tsu.prioritize(cycle, &mut buf);
                            }
                            black_box(&mut buf);
                        }
                    }
                    elapsed_ns(t)
                })
                .min()
                .unwrap_or(0)
        };
        let n = (REPEAT * self.calls.len()) as f64;
        (replay(true) as f64 - replay(false) as f64).max(0.0) / n
    }
}

thread_local! {
    static ACC: RefCell<LayerAcc> = RefCell::new(LayerAcc::default());
}

fn add(f: impl FnOnce(&mut LayerAcc)) {
    ACC.with(|a| f(&mut a.borrow_mut()));
}

/// Run `f` against a fresh accumulator on this thread and return what
/// the probes inside it recorded.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, LayerAcc) {
    let saved = ACC.with(|a| a.take());
    let out = f();
    (out, ACC.with(|a| a.replace(saved)))
}

pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The benchmark's own span recorder: workload → rep → setup/timed →
/// quantum. Kept in memory and written out when the run ends.
pub fn recorder() -> &'static SpanRecorder {
    static REC: OnceLock<SpanRecorder> = OnceLock::new();
    REC.get_or_init(SpanRecorder::new)
}

/// Cumulative simulated work of a machine, read from public counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Marks {
    pub cycles: u64,
    /// Cycles times cores: the unit skipping and chooser calls count in.
    pub core_cycles: u64,
    pub skipped: u64,
    pub committed: u64,
    pub fetched: u64,
    pub l2_misses: u64,
}

impl Marks {
    fn plus(self, o: Marks) -> Marks {
        Marks {
            cycles: self.cycles + o.cycles,
            core_cycles: self.core_cycles + o.core_cycles,
            skipped: self.skipped + o.skipped,
            committed: self.committed + o.committed,
            fetched: self.fetched + o.fetched,
            l2_misses: self.l2_misses + o.l2_misses,
        }
    }

    fn minus(self, o: Marks) -> Marks {
        Marks {
            cycles: self.cycles - o.cycles,
            core_cycles: self.core_cycles - o.core_cycles,
            skipped: self.skipped - o.skipped,
            committed: self.committed - o.committed,
            fetched: self.fetched - o.fetched,
            l2_misses: self.l2_misses - o.l2_misses,
        }
    }
}

/// A machine the probes can read work counters from.
pub trait Probed {
    fn marks(&self) -> Marks;
    /// Instruction-queue entries (integer plus floating point) per core.
    fn iq_occupancy(&self) -> f64;
}

impl Probed for SmtMachine {
    fn marks(&self) -> Marks {
        let (mut fetched, mut l2_misses) = (0, 0);
        for t in 0..self.n_threads() {
            let c = self.counters(smt_isa::Tid(t as u8));
            fetched += c.fetched;
            l2_misses += c.l2_misses;
        }
        Marks {
            cycles: self.cycle(),
            core_cycles: self.cycle(),
            skipped: self.skipped_cycles(),
            committed: self.total_committed(),
            fetched,
            l2_misses,
        }
    }

    fn iq_occupancy(&self) -> f64 {
        (self.int_iq_len() + self.fp_iq_len()) as f64
    }
}

impl Probed for MultiCoreMachine {
    fn marks(&self) -> Marks {
        let (mut fetched, mut l2_misses) = (0, 0);
        for g in 0..self.n_threads() {
            let c = self.thread_counters(g);
            fetched += c.fetched;
            l2_misses += c.l2_misses;
        }
        Marks {
            cycles: self.cycle(),
            core_cycles: self.cycle() * self.n_cores() as u64,
            skipped: self.skipped_cycles(),
            committed: self.total_committed(),
            fetched,
            l2_misses,
        }
    }

    fn iq_occupancy(&self) -> f64 {
        let total: usize = (0..self.n_cores())
            .map(|i| self.core(i).int_iq_len() + self.core(i).fp_iq_len())
            .sum();
        total as f64 / self.n_cores() as f64
    }
}

/// Record one machine-quantum that started at `before` and took `ns`.
pub fn record_quantum(before: Marks, machine: &impl Probed, ns: u64) {
    let work = machine.marks().minus(before);
    let iq = machine.iq_occupancy();
    add(|a| {
        a.exec_ns += ns;
        a.quantum_ns.push(ns);
        a.work = a.work.plus(work);
        a.iq_sum += iq;
        a.iq_samples += 1;
    });
}

/// A TSU that counts its calls and keeps a sample of their inputs.
pub struct TimedTsu {
    tsu: Tsu,
    calls: u64,
}

impl TimedTsu {
    pub fn new(tsu: Tsu) -> Self {
        TimedTsu { tsu, calls: 0 }
    }

    pub fn set_policy(&mut self, policy: FetchPolicy) {
        self.tsu.set_policy(policy);
    }
}

impl FetchChooser for TimedTsu {
    fn prioritize(&mut self, cycle: u64, views: &mut Vec<PolicyView>) {
        self.calls += 1;
        if self.calls.is_multiple_of(CHOOSER_SAMPLE) {
            add(|a| a.chooser.push(self.tsu, cycle, views));
        }
        self.tsu.prioritize(cycle, views);
    }
}

impl Drop for TimedTsu {
    fn drop(&mut self) {
        let calls = self.calls;
        // Never panic in drop: a chooser dropped during unwinding or
        // thread teardown just loses its count.
        let _ = ACC.try_with(|a| {
            if let Ok(mut a) = a.try_borrow_mut() {
                a.chooser_calls += calls;
            }
        });
    }
}

/// A cell's `execute` with its fetch policy behind [`TimedTsu`].
pub trait TimedExecute<M: LockstepMachine>: LockstepCell<M> {
    fn execute_timed(plan: &Self::Plan, machine: &mut M);
}

impl TimedExecute<SmtMachine> for PointCell {
    /// `AdaptiveScheduler::execute_plan` with the TSU behind [`TimedTsu`].
    /// The traced run checks that this path and the public sweep give
    /// the same fingerprint for every point.
    fn execute_timed(plan: &QuantumPlan, machine: &mut SmtMachine) {
        let mut tsu = TimedTsu::new(Tsu::new(plan.from, machine.n_threads()));
        match plan.switch {
            Some((delay, to)) => {
                machine.run(delay.min(plan.quantum_cycles), &mut tsu);
                tsu.set_policy(to);
                machine.note_policy_switch(plan.from.id(), to.id());
                machine.run(plan.quantum_cycles.saturating_sub(delay), &mut tsu);
            }
            None => machine.run(plan.quantum_cycles, &mut tsu),
        }
    }
}

impl TimedExecute<MultiCoreMachine> for AllocCell {
    /// `AllocCell::execute` with each core's TSU behind [`TimedTsu`].
    fn execute_timed(plan: &(FetchPolicy, u64), machine: &mut MultiCoreMachine) {
        let mut tsus: Vec<_> = (0..machine.n_cores())
            .map(|i| TimedTsu::new(Tsu::new(plan.0, machine.core(i).n_threads())))
            .collect();
        machine.run(plan.1, &mut tsus);
    }
}

/// A lockstep cell whose every phase is timed.
pub struct Timed<C>(pub C);

impl<M, C> LockstepCell<M> for Timed<C>
where
    M: LockstepMachine + Probed,
    C: TimedExecute<M>,
{
    type Plan = C::Plan;
    type Boundary = C::Boundary;

    fn plan(&mut self, machine: &M) -> Self::Plan {
        let t = Instant::now();
        let plan = self.0.plan(machine);
        let ns = elapsed_ns(t);
        add(|a| a.plan_ns += ns);
        plan
    }

    fn execute(plan: &Self::Plan, machine: &mut M) {
        let before = machine.marks();
        let t = Instant::now();
        C::execute_timed(plan, machine);
        record_quantum(before, machine, elapsed_ns(t));
    }

    fn observe(&mut self, machine: &M) -> Self::Boundary {
        let t = Instant::now();
        let boundary = self.0.observe(machine);
        let ns = elapsed_ns(t);
        add(|a| a.observe_ns += ns);
        boundary
    }

    fn apply_boundary(boundary: &Self::Boundary, machine: &mut M) {
        let t = Instant::now();
        C::apply_boundary(boundary, machine);
        let ns = elapsed_ns(t);
        add(|a| a.boundary_ns += ns);
    }
}

/// Note one `MachineBatch::run_quantum` call and its sharing counters.
pub fn record_batch_quantum(ns: u64, cells: usize, forks: &smt_sim::QuantumForks) {
    add(|a| {
        a.batch_ns += ns;
        a.cell_quanta += cells as u64;
        a.forks += forks.plan_forks + forks.boundary_forks;
    });
}

/// Add `ns` of probed-region wall time.
pub fn record_busy(ns: u64) {
    add(|a| a.busy_ns += ns);
}
