//! Batched lockstep stepping of near-identical machines.
//!
//! A threshold×type sweep steps dozens of machines that share one
//! workload mix, one seed, and one warmup prefix — they differ only in
//! the *decisions* a scheduling policy takes at quantum boundaries. This
//! module exploits that: a [`MachineBatch`] keeps one [`SmtMachine`] per
//! *equivalence group* of cells and advances each group once per
//! quantum, fanning the result out to every member cell. Cells whose
//! policies decide identically share all simulation work; a group only
//! *forks* (clones its machine) at the moment two members' decisions
//! diverge.
//!
//! The contract that makes sharing sound is determinism: the machine is
//! a pure function of its state and the per-quantum [`LockstepCell::Plan`]
//! applied to it. Two cells holding bit-identical machine state that
//! produce equal plans *must* evolve identically — this is exactly the
//! property the differential suite (`proptest_batch_equiv`) and the
//! golden batch conformance test pin.
//!
//! A quantum has two fork points:
//!
//! 1. **Plan fork** — before stepping, each member cell is asked for its
//!    `Plan` (policy for the quantum, pending-switch schedule, …).
//!    Members are partitioned by plan equality; each partition becomes a
//!    (sub-)group and is stepped once.
//! 2. **Boundary fork** — after stepping, each member observes the
//!    machine and returns a [`LockstepCell::Boundary`] describing any
//!    state mutation it wants applied at the quantum boundary (e.g. a
//!    clog-control fetch toggle). Members are partitioned by boundary
//!    equality and the (usually empty) boundary is applied once per
//!    partition.
//!
//! Partitioning is deterministic: members are kept in ascending cell
//! order, partitions form in first-appearance order, and the first
//! partition inherits the group's machine while later ones clone it.
//! Groups never merge — once diverged, cells stay apart — so the engine
//! is intended for runs with few quanta (sweeps restore a warm snapshot
//! and run a handful of measured quanta).
//!
//! A quantum runs in three phases. The calling thread plans and forks
//! every group, then every partition's machine is stepped, then the
//! calling thread observes and forks at the boundary in partition
//! order. The partitions share nothing, so the middle phase runs on the
//! calling thread plus helper threads drawn from a process-wide budget
//! ([`set_step_budget`]). Each machine is stepped by exactly one thread
//! and every cell call stays on the calling thread, in the same order,
//! so no result depends on the budget or on how the threads interleave.
//!
//! The budget counts every thread that is stepping a machine: a
//! quantum's threads, and the caller of [`SmtMachine::run`] or
//! `MultiCoreMachine::run` for the length of the run, unless a quantum
//! already counts it. A long enough bare [`SmtMachine::run`] borrows
//! one more slot for a thread that generates its correct-path µops
//! (`crate::lookahead`) if the count with it stays within the budget.

use crate::machine::SmtMachine;
use std::cell::Cell;
use std::panic;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The machine side of lockstep stepping: anything deterministic and
/// clonable that a [`LockstepCell`] can plan over. Implemented by
/// [`SmtMachine`] and by `MultiCoreMachine` (multi-core cells). `Send`
/// because a quantum may step a partition's machine on a helper thread.
pub trait LockstepMachine: Clone + Send {}

impl LockstepMachine for SmtMachine {}

/// Per-cell policy driver for lockstep stepping.
///
/// A cell owns everything about a sweep point *except* the machine: the
/// scheduler state, thresholds, and accumulated per-quantum records.
/// The machine-facing half is split into pure-ish halves so the batch
/// engine can execute one plan on one shared machine for many cells:
///
/// * [`plan`](Self::plan)/[`observe`](Self::observe) take `&mut self`
///   and may mutate cell state, but must treat the machine as
///   read-only.
/// * [`execute`](Self::execute)/[`apply_boundary`](Self::apply_boundary)
///   are associated functions with no access to the cell at all — they
///   may only depend on the plan/boundary value, which is what makes
///   running them once per *group* equivalent to once per *cell*.
pub trait LockstepCell<M: LockstepMachine = SmtMachine> {
    /// Everything that determines the machine's evolution over one
    /// quantum. Two equal plans applied to bit-identical machines must
    /// produce bit-identical machines. `Send + Sync` because a helper
    /// thread may execute it.
    type Plan: Clone + PartialEq + std::fmt::Debug + Send + Sync;

    /// Machine mutation requested at the quantum boundary (often a
    /// no-op). Two equal boundaries applied to bit-identical machines
    /// must produce bit-identical machines.
    type Boundary: Clone + PartialEq + std::fmt::Debug;

    /// Decide the plan for the next quantum from (read-only) machine
    /// state. May record per-quantum bookkeeping on `self`.
    fn plan(&mut self, machine: &M) -> Self::Plan;

    /// Step the machine through one quantum under `plan`.
    fn execute(plan: &Self::Plan, machine: &mut M);

    /// Inspect the post-quantum machine, record stats on `self`, and
    /// return the boundary mutation to apply.
    fn observe(&mut self, machine: &M) -> Self::Boundary;

    /// Apply the boundary mutation to the machine.
    fn apply_boundary(boundary: &Self::Boundary, machine: &mut M);
}

/// Run one full quantum of a single cell against its own machine — the
/// scalar reference path. Batched stepping of a batch of one must be
/// observationally identical to repeated calls of this function.
pub fn run_scalar_quantum<M: LockstepMachine, C: LockstepCell<M>>(cell: &mut C, machine: &mut M) {
    let plan = cell.plan(machine);
    C::execute(&plan, machine);
    let boundary = cell.observe(machine);
    C::apply_boundary(&boundary, machine);
}

/// Sharing/fork counters for one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lockstep quanta advanced (`run_quantum` calls).
    pub quanta: u64,
    /// Cell-quanta covered (what a scalar runner would have stepped).
    pub cell_quanta: u64,
    /// Machine-quanta actually simulated. `cell_quanta / machine_quanta`
    /// is the sharing factor the batch engine achieved.
    pub machine_quanta: u64,
    /// Group splits caused by diverging plans.
    pub plan_forks: u64,
    /// Group splits caused by diverging boundary actions.
    pub boundary_forks: u64,
}

/// Fork activity of one `run_quantum` call — what the engine-span layer
/// records as batch fork events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantumForks {
    /// Group splits this quantum caused by diverging plans.
    pub plan_forks: u64,
    /// Group splits this quantum caused by diverging boundary actions.
    pub boundary_forks: u64,
    /// Live equivalence groups after the quantum.
    pub groups: usize,
    /// Helper threads that stepped partitions beside the calling thread
    /// (0 when the quantum stepped serially).
    pub helpers: usize,
}

impl QuantumForks {
    /// Did any group split this quantum?
    pub fn forked(&self) -> bool {
        self.plan_forks + self.boundary_forks > 0
    }
}

/// Threads allowed to step batch groups at once, process-wide; 0 until
/// [`set_step_budget`] is called.
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Threads stepping machines right now: each quantum's calling thread
/// plus the helpers it took, and each run's caller plus its generation
/// helper.
static STEPPING: AtomicUsize = AtomicUsize::new(0);

/// Runs that borrowed a generation helper, process-wide.
static RUN_HELPERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Is this thread stepping a quantum's partitions, and so already in
    /// [`STEPPING`]?
    static IN_QUANTUM: Cell<bool> = const { Cell::new(false) };
}

/// Cap the threads that step machines at once, across the process (at
/// least 1): batch groups, runs and the runs' generation helpers. A
/// quantum or a run counts its calling thread and takes helpers only
/// from what is left, so at most `threads - 1` helpers exist at any
/// moment, and `1` steps every batch serially and every run inline.
/// Results never depend on the budget (module docs).
pub fn set_step_budget(threads: usize) {
    BUDGET.store(threads.max(1), Ordering::Relaxed);
}

/// The budget [`set_step_budget`] set, or the host's available
/// parallelism if it was never called.
pub fn step_budget() -> usize {
    match BUDGET.load(Ordering::Relaxed) {
        0 => {
            static HOST: OnceLock<usize> = OnceLock::new();
            *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        n => n,
    }
}

/// One quantum's share of the budget: its calling thread and `helpers`
/// more, returned on drop — also when a cell panics.
struct Stepping {
    helpers: usize,
}

impl Stepping {
    /// Count the calling thread and take up to `want` helpers from what
    /// the budget has left, without waiting.
    fn take(want: usize) -> Stepping {
        let budget = step_budget();
        let helpers = |busy: usize| want.min(budget.saturating_sub(busy + 1));
        let busy = STEPPING
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |busy| {
                Some(busy + 1 + helpers(busy))
            })
            .expect("the update always applies");
        Stepping {
            helpers: helpers(busy),
        }
    }
}

impl Drop for Stepping {
    fn drop(&mut self) {
        STEPPING.fetch_sub(1 + self.helpers, Ordering::AcqRel);
    }
}

/// Runs, process-wide, that borrowed a thread to generate their
/// correct-path µops.
pub fn run_helpers() -> u64 {
    RUN_HELPERS.load(Ordering::Relaxed)
}

/// One run's share of the budget: its calling thread, unless a quantum
/// already counts it, and a generation helper if it got one. Returned
/// on drop, also when the run panics.
pub(crate) struct RunSlots {
    slots: usize,
    /// Did the run get a generation helper?
    pub(crate) helper: bool,
}

impl RunSlots {
    /// Count the calling thread and, if `want_helper`, take a helper
    /// when the count with it stays within the budget, without waiting.
    pub(crate) fn take(want_helper: bool) -> RunSlots {
        let caller = usize::from(!IN_QUANTUM.with(Cell::get));
        let budget = step_budget();
        let helper = |busy: usize| want_helper && busy + caller < budget;
        let busy = STEPPING
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |busy| {
                Some(busy + caller + usize::from(helper(busy)))
            })
            .expect("the update always applies");
        let helper = helper(busy);
        if helper {
            RUN_HELPERS.fetch_add(1, Ordering::Relaxed);
        }
        RunSlots {
            slots: caller + usize::from(helper),
            helper,
        }
    }
}

impl Drop for RunSlots {
    fn drop(&mut self) {
        STEPPING.fetch_sub(self.slots, Ordering::AcqRel);
    }
}

/// Marks the current thread as counted by a quantum until dropped.
struct InQuantum(bool);

impl InQuantum {
    fn enter() -> InQuantum {
        InQuantum(IN_QUANTUM.with(|c| c.replace(true)))
    }
}

impl Drop for InQuantum {
    fn drop(&mut self) {
        IN_QUANTUM.with(|c| c.set(self.0));
    }
}

struct Group<M> {
    machine: M,
    /// Cell indices sharing `machine`, ascending.
    members: Vec<usize>,
}

/// One plan partition of a group: stepped once, then observed by its
/// members.
struct Part<P, M> {
    plan: P,
    machine: M,
    members: Vec<usize>,
}

/// Execute every part's plan on its machine, on the calling thread and
/// as many helpers as the budget allows. Parts are taken in order off a
/// shared index, so each machine is stepped by exactly one thread. A
/// helper's panic is re-raised on the calling thread with its own
/// payload. Returns the helpers used.
fn step_parts<M: LockstepMachine, C: LockstepCell<M>>(parts: &mut [Part<C::Plan, M>]) -> usize {
    let stepping = Stepping::take(parts.len().saturating_sub(1));
    let parts: Vec<Mutex<&mut Part<C::Plan, M>>> = parts.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let _counted = InQuantum::enter();
        while let Some(part) = parts.get(next.fetch_add(1, Ordering::Relaxed)) {
            let mut part = part.lock().expect("each part is taken once");
            let part = &mut **part;
            C::execute(&part.plan, &mut part.machine);
        }
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (0..stepping.helpers).map(|_| s.spawn(work)).collect();
        work();
        for h in helpers {
            if let Err(payload) = h.join() {
                panic::resume_unwind(payload);
            }
        }
    });
    stepping.helpers
}

/// N cells stepped in lockstep over shared machines (see module docs).
pub struct MachineBatch<C, M: LockstepMachine = SmtMachine>
where
    C: LockstepCell<M>,
{
    groups: Vec<Group<M>>,
    cells: Vec<C>,
    stats: BatchStats,
}

impl<C, M: LockstepMachine> MachineBatch<C, M>
where
    C: LockstepCell<M>,
{
    /// Build a batch whose cells all start from the same machine state
    /// (typically a warm-pool snapshot restored once).
    ///
    /// # Panics
    /// Panics if `cells` is empty.
    pub fn new(machine: M, cells: Vec<C>) -> Self {
        assert!(!cells.is_empty(), "MachineBatch needs at least one cell");
        let members = (0..cells.len()).collect();
        MachineBatch {
            groups: vec![Group { machine, members }],
            cells,
            stats: BatchStats::default(),
        }
    }

    /// Advance every cell by one quantum. Returns the quantum's fork
    /// activity (plan/boundary splits, resulting group count and helper
    /// threads) so callers can stream fork events without diffing
    /// [`Self::stats`].
    pub fn run_quantum(&mut self) -> QuantumForks {
        let before = self.stats;
        self.stats.quanta += 1;
        self.stats.cell_quanta += self.cells.len() as u64;

        // Phase 1, fork point 1: partition each group's members by plan.
        // The first partition inherits the group's machine; later ones
        // clone it before anything steps.
        let mut parts = Vec::with_capacity(self.groups.len());
        for Group { machine, members } in std::mem::take(&mut self.groups) {
            let mut split: Vec<(C::Plan, Vec<usize>)> = Vec::new();
            for ci in members {
                let plan = self.cells[ci].plan(&machine);
                match split.iter_mut().find(|(p, _)| *p == plan) {
                    Some((_, m)) => m.push(ci),
                    None => split.push((plan, vec![ci])),
                }
            }
            self.stats.plan_forks += split.len() as u64 - 1;
            let clones: Vec<M> = (1..split.len()).map(|_| machine.clone()).collect();
            let machines = std::iter::once(machine).chain(clones);
            for ((plan, members), machine) in split.into_iter().zip(machines) {
                parts.push(Part {
                    plan,
                    machine,
                    members,
                });
            }
        }

        // Phase 2: step each partition once.
        let helpers = step_parts::<M, C>(&mut parts);
        self.stats.machine_quanta += parts.len() as u64;

        // Phase 3, fork point 2: partition by boundary action, in
        // partition order.
        let mut next = Vec::with_capacity(parts.len());
        for Part {
            machine, members, ..
        } in parts
        {
            let mut bparts: Vec<(C::Boundary, Vec<usize>)> = Vec::new();
            for ci in members {
                let b = self.cells[ci].observe(&machine);
                match bparts.iter_mut().find(|(p, _)| *p == b) {
                    Some((_, mm)) => mm.push(ci),
                    None => bparts.push((b, vec![ci])),
                }
            }
            self.stats.boundary_forks += bparts.len() as u64 - 1;

            let n_bparts = bparts.len();
            let mut stepped = Some(machine);
            for (bi, (b, members)) in bparts.into_iter().enumerate() {
                let mut m = stepped.take().expect("boundary machine");
                if bi + 1 < n_bparts {
                    stepped = Some(m.clone());
                }
                C::apply_boundary(&b, &mut m);
                next.push(Group {
                    machine: m,
                    members,
                });
            }
        }
        self.groups = next;
        QuantumForks {
            plan_forks: self.stats.plan_forks - before.plan_forks,
            boundary_forks: self.stats.boundary_forks - before.boundary_forks,
            groups: self.groups.len(),
            helpers,
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of live equivalence groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Sharing/fork counters so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// The cells, in construction order.
    pub fn cells(&self) -> &[C] {
        &self.cells
    }

    /// The machine currently backing `cell` (shared with every other
    /// member of its group).
    pub fn machine_for(&self, cell: usize) -> &M {
        &self
            .groups
            .iter()
            .find(|g| g.members.contains(&cell))
            .expect("cell index out of range")
            .machine
    }

    /// Consume the batch, returning the cells with their accumulated
    /// records.
    pub fn into_cells(self) -> Vec<C> {
        self.cells
    }
}
