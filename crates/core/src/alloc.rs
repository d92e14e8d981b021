//! Thread-to-core allocation above the per-core fetch policy.
//!
//! The paper's ADTS heuristics pick *which threads fetch* inside one SMT
//! core; this module adds the next axis up — *which threads live on
//! which core* — re-decided at quantum boundaries, in the spirit of the
//! thread-to-core allocation families of Navarro et al. and Durbhakula
//! (PAPERS.md). An [`AllocationPolicy`] maps the just-finished quantum's
//! per-thread activity to a new placement; `MultiCoreMachine::
//! apply_placement` then performs the migrations, each one a flushed
//! architectural transfer paying a cold-frontend penalty attributed to
//! the `migration` CPI-stack category.
//!
//! Four policies ship ([`AllocKind`]):
//!
//! * **static** — never migrate; the initial round-robin partition.
//! * **rotate** — cyclic shift: every quantum each core's resident set
//!   moves one core up. Maximum churn; the migration-cost yardstick.
//! * **ipc-greedy** — threads sorted by last-quantum committed ops,
//!   greedily dealt to the core with the lowest committed-sum so far
//!   (load balance on observed throughput).
//! * **ilp-aware** — threads sorted by last-quantum L1D misses,
//!   snake-dealt so each core pairs memory-bound with compute-bound
//!   threads instead of stacking the cache-hungry ones.
//!
//! Every policy is deterministic: sorts are stable with ascending global
//! thread id as the tiebreak, and core choices break ties toward the
//! lowest core id. One fixed-fetch-policy quantum on a multi-core machine
//! is one step of [`AllocCell`] (a `LockstepCell<MultiCoreMachine>`): the
//! batched sweep steps many, [`run_alloc`] steps one, and a run with a
//! fixed placement is [`AllocKind::Static`], so scalar and lockstep runs
//! are interchangeable (`proptest_batch_equiv` idiom).

use crate::adaptive::{AdaptiveScheduler, AdtsConfig, QuantumPlan};
use serde::{Serialize, Value};
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{EventRing, LockstepCell, MultiCoreMachine, SimConfig, SmtMachine};
use smt_stats::{QuantumRecord, RunSeries, SwitchEvent};
use smt_workloads::{Mix, UopStream};

/// Read-only view of the just-finished quantum, handed to
/// [`AllocationPolicy::decide`]. All per-thread slices are indexed by
/// global thread id.
#[derive(Debug)]
pub struct AllocView<'a> {
    /// Index of the quantum that just finished (0-based).
    pub quantum: u64,
    pub n_cores: usize,
    /// Current placement: global thread → (core, context slot).
    pub placement: &'a [(usize, usize)],
    /// Context slots per core (a placement may not exceed these).
    pub core_capacity: &'a [usize],
    /// Micro-ops committed per thread in the just-finished quantum.
    pub committed_delta: &'a [u64],
    /// L1D misses per thread in the just-finished quantum — the
    /// memory-boundedness proxy the ILP-aware policy keys on.
    pub mem_delta: &'a [u64],
}

/// A thread-to-core allocation policy: decides, at each quantum
/// boundary, the destination core of every global thread.
pub trait AllocationPolicy {
    fn name(&self) -> &'static str;

    /// Destination core per global thread for the next quantum. The
    /// result must respect `view.core_capacity`; threads whose core is
    /// unchanged do not migrate.
    fn decide(&mut self, view: &AllocView<'_>) -> Vec<usize>;

    /// [`decide`](Self::decide) with the evidence kept: the identical
    /// placement plus an [`AllocDecisionRecord`] naming the policy's
    /// rationale and every migration the placement implies. The default
    /// wraps `decide` under [`AllocReason::Opaque`]; implementations
    /// overriding it must return exactly what `decide` would, so an
    /// audited run stays on the unaudited trajectory.
    fn decide_explained(&mut self, view: &AllocView<'_>) -> (Vec<usize>, AllocDecisionRecord) {
        let dest = self.decide(view);
        let record = AllocDecisionRecord::new(self.name(), AllocReason::Opaque, view, &dest);
        (dest, record)
    }

    /// Opaque state for the multi-core checkpoint container. The four
    /// shipped policies are stateless, so the default empty blob
    /// round-trips them exactly.
    fn encode_state(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// The shipped allocation policies (module docs). Implements
/// [`AllocationPolicy`] directly so cells can hold it by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocKind {
    Static,
    Rotate,
    IpcGreedy,
    IlpAware,
}

impl AllocKind {
    pub const ALL: [AllocKind; 4] = [
        AllocKind::Static,
        AllocKind::Rotate,
        AllocKind::IpcGreedy,
        AllocKind::IlpAware,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AllocKind::Static => "static",
            AllocKind::Rotate => "rotate",
            AllocKind::IpcGreedy => "ipc-greedy",
            AllocKind::IlpAware => "ilp-aware",
        }
    }

    pub fn by_name(name: &str) -> Option<AllocKind> {
        AllocKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Thread ids ordered by `key` descending, global id ascending on ties.
fn by_key_desc(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[b].cmp(&keys[a]).then(a.cmp(&b)));
    order
}

/// Deal `order` across cores in snake order (0..n-1, n-1..0, …),
/// skipping cores already at capacity.
fn snake_deal(order: &[usize], view: &AllocView<'_>) -> Vec<usize> {
    let n = view.n_cores;
    let mut counts = vec![0usize; n];
    let mut out = vec![0usize; order.len()];
    let mut lap = 0usize;
    let mut pos = 0usize;
    for &g in order {
        loop {
            let c = if lap.is_multiple_of(2) {
                pos
            } else {
                n - 1 - pos
            };
            let advance = |lap: &mut usize, pos: &mut usize| {
                *pos += 1;
                if *pos == n {
                    *pos = 0;
                    *lap += 1;
                }
            };
            if counts[c] < view.core_capacity[c] {
                out[g] = c;
                counts[c] += 1;
                advance(&mut lap, &mut pos);
                break;
            }
            advance(&mut lap, &mut pos);
        }
    }
    out
}

impl AllocationPolicy for AllocKind {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn decide(&mut self, view: &AllocView<'_>) -> Vec<usize> {
        let n = view.n_cores;
        match self {
            AllocKind::Static => view.placement.iter().map(|&(c, _)| c).collect(),
            // A cyclic shift permutes whole resident sets, so per-core
            // occupancy is preserved (uniform capacities assumed, which
            // is what the constructors build).
            AllocKind::Rotate => view.placement.iter().map(|&(c, _)| (c + 1) % n).collect(),
            AllocKind::IpcGreedy => {
                let order = by_key_desc(view.committed_delta);
                let mut load = vec![0u64; n];
                let mut counts = vec![0usize; n];
                let mut out = vec![0usize; order.len()];
                for &g in &order {
                    let c = (0..n)
                        .filter(|&c| counts[c] < view.core_capacity[c])
                        .min_by_key(|&c| (load[c], c))
                        .expect("total capacity below thread count");
                    out[g] = c;
                    load[c] += view.committed_delta[g];
                    counts[c] += 1;
                }
                out
            }
            AllocKind::IlpAware => snake_deal(&by_key_desc(view.mem_delta), view),
        }
    }

    fn decide_explained(&mut self, view: &AllocView<'_>) -> (Vec<usize>, AllocDecisionRecord) {
        let dest = self.decide(view);
        let reason = match self {
            AllocKind::Static => AllocReason::Pinned,
            AllocKind::Rotate => AllocReason::CyclicShift,
            AllocKind::IpcGreedy => AllocReason::LoadBalance,
            AllocKind::IlpAware => AllocReason::MemBalance,
        };
        let record = AllocDecisionRecord::new((*self).name(), reason, view, &dest);
        (dest, record)
    }
}

// ---------------------------------------------------------------------------
// decision audit
// ---------------------------------------------------------------------------

/// Why an allocation decision placed threads the way it did — the
/// thread-to-core analogue of [`crate::audit::DecisionReason`]. One
/// reason covers the whole placement (allocation policies are global,
/// unlike the per-edge ADTS transitions), and the per-thread evidence
/// rides in [`AllocDecisionRecord::threads`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocReason {
    /// `static`: the placement is never re-derived.
    Pinned,
    /// `rotate`: every resident set moved one core up.
    CyclicShift,
    /// `ipc-greedy`: threads dealt to the least-loaded core by observed
    /// committed micro-ops.
    LoadBalance,
    /// `ilp-aware`: threads snake-dealt by L1D-miss rank so each core
    /// mixes memory-bound with compute-bound threads.
    MemBalance,
    /// A policy without an explained implementation (the trait default).
    Opaque,
}

impl AllocReason {
    pub fn name(self) -> &'static str {
        match self {
            AllocReason::Pinned => "pinned",
            AllocReason::CyclicShift => "cyclic_shift",
            AllocReason::LoadBalance => "load_balance",
            AllocReason::MemBalance => "mem_balance",
            AllocReason::Opaque => "opaque",
        }
    }
}

/// One thread's row of an allocation decision: where it was, where it
/// goes, and the last-quantum activity the policy keyed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocThreadRow {
    /// Global thread id.
    pub thread: usize,
    pub from_core: usize,
    pub to_core: usize,
    /// Micro-ops committed in the just-finished quantum.
    pub committed: u64,
    /// L1D misses in the just-finished quantum.
    pub l1d_misses: u64,
    /// `from_core != to_core` — this row pays a migration.
    pub migrated: bool,
}

impl Serialize for AllocThreadRow {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("thread".into(), self.thread.to_value()),
            ("from_core".into(), self.from_core.to_value()),
            ("to_core".into(), self.to_core.to_value()),
            ("committed".into(), self.committed.to_value()),
            ("l1d_misses".into(), self.l1d_misses.to_value()),
            ("migrated".into(), self.migrated.to_value()),
        ])
    }
}

/// One quantum boundary of thread-to-core allocation, audited: the
/// policy, its rationale, and per-thread evidence rows. Mirrors the ADTS
/// [`crate::audit::DecisionRecord`] — serializes to canonical JSON for
/// the JSONL exporter and the bench explain pass.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocDecisionRecord {
    /// Index of the quantum that just finished (0-based).
    pub quantum: u64,
    pub policy: &'static str,
    pub reason: AllocReason,
    pub threads: Vec<AllocThreadRow>,
    /// How many rows migrate (`from_core != to_core`).
    pub migrations: u64,
}

impl AllocDecisionRecord {
    /// Build the record for `dest` as returned by a policy's `decide`
    /// over `view`.
    pub fn new(
        policy: &'static str,
        reason: AllocReason,
        view: &AllocView<'_>,
        dest: &[usize],
    ) -> Self {
        assert_eq!(
            dest.len(),
            view.placement.len(),
            "one destination core per placed thread"
        );
        let threads: Vec<AllocThreadRow> = dest
            .iter()
            .enumerate()
            .map(|(g, &to)| AllocThreadRow {
                thread: g,
                from_core: view.placement[g].0,
                to_core: to,
                committed: view.committed_delta[g],
                l1d_misses: view.mem_delta[g],
                migrated: view.placement[g].0 != to,
            })
            .collect();
        let migrations = threads.iter().filter(|r| r.migrated).count() as u64;
        AllocDecisionRecord {
            quantum: view.quantum,
            policy,
            reason,
            threads,
            migrations,
        }
    }
}

impl Serialize for AllocDecisionRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("quantum".into(), self.quantum.to_value()),
            ("policy".into(), self.policy.to_value()),
            ("reason".into(), self.reason.name().to_value()),
            ("threads".into(), self.threads.to_value()),
            ("migrations".into(), self.migrations.to_value()),
        ])
    }
}

// ---------------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------------

/// Build an `n_cores`-core machine for a mix on default-derived per-core
/// configs. Every core gets one context slot per mix thread (full
/// migration freedom — any allocation up to "all threads on one core" is
/// representable); global thread `g` starts on core `g % n_cores`,
/// packed into ascending slots. With `n_cores == 1` this is
/// [`machine_for_mix`](crate::runner::machine_for_mix) wrapped via
/// `MultiCoreMachine::single` (the penalty is never paid: nothing can
/// migrate), so [`run_alloc`] under [`AllocKind::Static`] steps it exactly
/// as [`run_fixed`](crate::runner::run_fixed) steps the bare core — the
/// N=1 bit-identity anchor `tests/golden_multicore.rs` pins.
pub fn multicore_for_mix(
    mix: &Mix,
    seed: u64,
    n_cores: usize,
    migration_penalty: u64,
) -> MultiCoreMachine {
    assert!(n_cores >= 1, "need at least one core");
    let total = mix.apps.len();
    let cfg = SimConfig::with_threads(total);
    // Thread g → core g % n_cores, slot = rank of g within its core.
    let mut placement = Vec::with_capacity(total);
    let mut next_slot = vec![0usize; n_cores];
    for g in 0..total {
        let c = g % n_cores;
        placement.push((c, next_slot[c]));
        next_slot[c] += 1;
    }
    let cores: Vec<SmtMachine> = (0..n_cores)
        .map(|c| {
            // Slot s of core c hosts global thread c + s*n_cores (when it
            // exists); higher slots get an arbitrary placeholder stream
            // and are parked by `from_cores`.
            let mut pool: Vec<Option<UopStream>> =
                mix.streams(seed).into_iter().map(Some).collect();
            let spare = mix.streams(seed);
            let streams = (0..total)
                .map(|s| {
                    let g = c + s * n_cores;
                    match pool.get_mut(g).and_then(Option::take) {
                        Some(stream) => stream,
                        None => spare[s].clone(),
                    }
                })
                .collect();
            SmtMachine::new(cfg.clone(), streams)
        })
        .collect();
    MultiCoreMachine::from_cores(cores, placement, migration_penalty)
}

// ---------------------------------------------------------------------------
// runners
// ---------------------------------------------------------------------------

/// Execute one quantum of per-core [`QuantumPlan`]s on a multi-core
/// machine, in lockstep. Reproduces `AdaptiveScheduler::execute_plan`
/// per core exactly: the quantum is cut at each core's pending-switch
/// delay; between segments the switching cores' TSUs change policy and
/// the switch is noted on that core.
fn execute_plans_multicore(machine: &mut MultiCoreMachine, plans: &[QuantumPlan]) {
    assert_eq!(plans.len(), machine.n_cores(), "one plan per core");
    let q = plans[0].quantum_cycles;
    assert!(
        plans.iter().all(|p| p.quantum_cycles == q),
        "cores must share the quantum length"
    );
    let mut tsus: Vec<Tsu> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| Tsu::new(p.from, machine.core(i).n_threads()))
        .collect();
    let mut cuts: Vec<u64> = plans
        .iter()
        .filter_map(|p| p.switch.map(|(delay, _)| delay.min(q)))
        .collect();
    cuts.push(q);
    cuts.sort_unstable();
    cuts.dedup();
    let mut at = 0u64;
    for cut in cuts {
        machine.run(cut - at, &mut tsus);
        at = cut;
        for (i, p) in plans.iter().enumerate() {
            if let Some((delay, to)) = p.switch {
                if delay.min(q) == cut {
                    tsus[i].set_policy(to);
                    machine.core_mut(i).note_policy_switch(p.from.id(), to.id());
                }
            }
        }
    }
}

/// Run one [`AdaptiveScheduler`] per core for `quanta` quanta, with the
/// cores stepping in lockstep through `execute_plans_multicore`.
/// Returns the schedulers (recordings inside). For a 1-core machine the
/// single scheduler's series and audit are bit-identical to a scalar
/// `run_quantum` loop on the wrapped `SmtMachine`.
pub fn run_adaptive_multicore(
    cfg: AdtsConfig,
    machine: &mut MultiCoreMachine,
    quanta: u64,
) -> Vec<AdaptiveScheduler> {
    let mut scheds: Vec<AdaptiveScheduler> = (0..machine.n_cores())
        .map(|i| AdaptiveScheduler::new(cfg, machine.core(i).n_threads()))
        .collect();
    for _ in 0..quanta {
        let plans: Vec<QuantumPlan> = scheds
            .iter_mut()
            .enumerate()
            .map(|(i, s)| s.plan_quantum(machine.core(i)))
            .collect();
        execute_plans_multicore(machine, &plans);
        for (i, s) in scheds.iter_mut().enumerate() {
            let (_stats, boundary) = s.observe_quantum(machine.core(i));
            AdaptiveScheduler::apply_boundary(&boundary, machine.core_mut(i));
        }
    }
    scheds
}

// ---------------------------------------------------------------------------
// lockstep cell
// ---------------------------------------------------------------------------

/// One allocation-sweep point: a fixed per-core fetch policy plus an
/// [`AllocKind`] re-deciding placement each quantum boundary. Implements
/// [`LockstepCell`] over [`MultiCoreMachine`], so a whole
/// policy × allocation matrix for one mix runs batched on one warm
/// machine, forking only where placements actually diverge.
#[derive(Clone, Debug)]
pub struct AllocCell {
    fetch: FetchPolicy,
    alloc: AllocKind,
    quantum_cycles: u64,
    quantum: u64,
    /// Per global thread, cumulative at last quantum boundary:
    /// (committed, L1D misses).
    prev: Vec<(u64, u64)>,
    prev_placement: Vec<(usize, usize)>,
    series: RunSeries,
    migrations: u64,
    /// Decision-audit ring; `None` (the default) costs nothing and keeps
    /// the cell on the plain-`decide` code path.
    audit: Option<EventRing<AllocDecisionRecord>>,
}

fn thread_marks(machine: &MultiCoreMachine) -> Vec<(u64, u64)> {
    (0..machine.n_threads())
        .map(|g| {
            let c = machine.thread_counters(g);
            (c.committed, c.l1d_misses)
        })
        .collect()
}

impl AllocCell {
    pub fn new(
        fetch: FetchPolicy,
        alloc: AllocKind,
        quantum_cycles: u64,
        machine: &MultiCoreMachine,
    ) -> Self {
        AllocCell {
            fetch,
            alloc,
            quantum_cycles,
            quantum: 0,
            prev: thread_marks(machine),
            prev_placement: machine.placement().to_vec(),
            series: RunSeries::default(),
            migrations: 0,
            audit: None,
        }
    }

    /// Keep one [`AllocDecisionRecord`] per quantum boundary in a
    /// bounded ring (oldest drop first). Placements are computed through
    /// [`AllocationPolicy::decide_explained`], which must agree with
    /// `decide`, so an audited cell follows the unaudited trajectory
    /// exactly.
    pub fn enable_audit(&mut self, cap: usize) {
        self.audit = Some(EventRing::new(cap));
    }

    /// The decision-audit ring, when enabled.
    pub fn audit(&self) -> Option<&EventRing<AllocDecisionRecord>> {
        self.audit.as_ref()
    }

    /// Detach the decision-audit ring, disabling further auditing.
    pub fn take_audit(&mut self) -> Option<EventRing<AllocDecisionRecord>> {
        self.audit.take()
    }

    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch
    }

    pub fn alloc_kind(&self) -> AllocKind {
        self.alloc
    }

    /// Cross-core migrations this cell's allocation decisions caused.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The accumulated per-quantum records; `switches` holds one event
    /// per migration (`t<g>@c<from>` → `c<to>`).
    pub fn into_series(self) -> RunSeries {
        self.series
    }
}

impl LockstepCell<MultiCoreMachine> for AllocCell {
    /// (fetch policy, quantum cycles): the entire machine-side input of
    /// one quantum — placement changes ride in the boundary.
    type Plan = (FetchPolicy, u64);
    /// Destination core per global thread.
    type Boundary = Vec<usize>;

    fn plan(&mut self, _machine: &MultiCoreMachine) -> Self::Plan {
        (self.fetch, self.quantum_cycles)
    }

    fn execute(plan: &Self::Plan, machine: &mut MultiCoreMachine) {
        let mut tsus: Vec<Tsu> = (0..machine.n_cores())
            .map(|i| Tsu::new(plan.0, machine.core(i).n_threads()))
            .collect();
        machine.run(plan.1, &mut tsus);
    }

    fn observe(&mut self, machine: &MultiCoreMachine) -> Self::Boundary {
        // Record the migrations the *previous* boundary performed (the
        // placement diff is only visible once the group machine has the
        // boundary applied, i.e. here).
        for (g, (&old, &new)) in self
            .prev_placement
            .iter()
            .zip(machine.placement())
            .enumerate()
        {
            if old.0 != new.0 {
                self.migrations += 1;
                self.series.switches.push(SwitchEvent {
                    quantum: self.quantum,
                    from: format!("t{g}@c{}", old.0),
                    to: format!("c{}", new.0),
                    benign: None,
                });
            }
        }
        self.prev_placement = machine.placement().to_vec();

        let marks = thread_marks(machine);
        let committed_delta: Vec<u64> = marks
            .iter()
            .zip(&self.prev)
            .map(|(m, p)| m.0 - p.0)
            .collect();
        let mem_delta: Vec<u64> = marks
            .iter()
            .zip(&self.prev)
            .map(|(m, p)| m.1 - p.1)
            .collect();
        self.prev = marks;

        let committed: u64 = committed_delta.iter().sum();
        self.series.quanta.push(QuantumRecord {
            index: self.quantum,
            policy: self.fetch.name().to_string(),
            cycles: self.quantum_cycles,
            committed,
            ipc: committed as f64 / self.quantum_cycles.max(1) as f64,
            l1_miss_rate: 0.0,
            lsq_full_rate: 0.0,
            mispredict_rate: 0.0,
            branch_rate: 0.0,
            idle_fetch_rate: 0.0,
        });

        let capacities: Vec<usize> = (0..machine.n_cores())
            .map(|i| machine.core(i).n_threads())
            .collect();
        let view = AllocView {
            quantum: self.quantum,
            n_cores: machine.n_cores(),
            placement: machine.placement(),
            core_capacity: &capacities,
            committed_delta: &committed_delta,
            mem_delta: &mem_delta,
        };
        self.quantum += 1;
        if let Some(audit) = &mut self.audit {
            let (dest, record) = self.alloc.decide_explained(&view);
            audit.push(record);
            dest
        } else {
            self.alloc.decide(&view)
        }
    }

    fn apply_boundary(boundary: &Self::Boundary, machine: &mut MultiCoreMachine) {
        machine.apply_placement(boundary);
    }
}

/// Scalar driver for one allocation point: `quanta` quanta of
/// [`AllocCell`] against its own machine. The batched sweep must be
/// observationally identical to this.
pub fn run_alloc(
    fetch: FetchPolicy,
    alloc: AllocKind,
    machine: &mut MultiCoreMachine,
    quanta: u64,
    quantum_cycles: u64,
) -> RunSeries {
    let mut cell = AllocCell::new(fetch, alloc, quantum_cycles, machine);
    for _ in 0..quanta {
        smt_sim::run_scalar_quantum(&mut cell, machine);
    }
    cell.into_series()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::obs::export::jsonl;
    use smt_workloads::mix;

    fn view_fixture<'a>(
        placement: &'a [(usize, usize)],
        capacity: &'a [usize],
        committed: &'a [u64],
        mem: &'a [u64],
    ) -> AllocView<'a> {
        AllocView {
            quantum: 3,
            n_cores: capacity.len(),
            placement,
            core_capacity: capacity,
            committed_delta: committed,
            mem_delta: mem,
        }
    }

    #[test]
    fn decide_explained_matches_decide_for_every_kind() {
        let placement = [(0, 0), (1, 0), (0, 1), (1, 1)];
        let capacity = [4, 4];
        let committed = [5, 1, 9, 3];
        let mem = [2, 8, 1, 4];
        for kind in AllocKind::ALL {
            let view = view_fixture(&placement, &capacity, &committed, &mem);
            let plain = { kind }.decide(&view);
            let (dest, record) = { kind }.decide_explained(&view);
            assert_eq!(
                dest,
                plain,
                "{}: explained placement must match",
                kind.name()
            );
            assert_eq!(record.policy, kind.name());
            assert_eq!(record.quantum, 3);
            assert_eq!(record.threads.len(), 4);
            let migrated = dest
                .iter()
                .zip(&placement)
                .filter(|(&to, &(from, _))| to != from)
                .count() as u64;
            assert_eq!(record.migrations, migrated);
            for (g, row) in record.threads.iter().enumerate() {
                assert_eq!(row.thread, g);
                assert_eq!(row.from_core, placement[g].0);
                assert_eq!(row.to_core, dest[g]);
                assert_eq!(row.committed, committed[g]);
                assert_eq!(row.l1d_misses, mem[g]);
                assert_eq!(row.migrated, row.from_core != row.to_core);
            }
        }
    }

    #[test]
    fn default_explained_impl_reports_opaque() {
        struct Pin;
        impl AllocationPolicy for Pin {
            fn name(&self) -> &'static str {
                "pin"
            }
            fn decide(&mut self, view: &AllocView<'_>) -> Vec<usize> {
                view.placement.iter().map(|&(c, _)| c).collect()
            }
        }
        let placement = [(0, 0), (1, 0)];
        let view = view_fixture(&placement, &[2, 2], &[1, 2], &[3, 4]);
        let (dest, record) = Pin.decide_explained(&view);
        assert_eq!(dest, vec![0, 1]);
        assert_eq!(record.reason, AllocReason::Opaque);
        assert_eq!(record.policy, "pin");
        assert_eq!(record.migrations, 0);
    }

    #[test]
    fn records_serialize_to_jsonl() {
        let placement = [(0, 0), (1, 0)];
        let view = view_fixture(&placement, &[2, 2], &[7, 7], &[0, 0]);
        let (_, record) = AllocKind::Rotate.decide_explained(&view);
        let text = jsonl([&record, &record]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v: Value = serde::json::from_str(line).expect("parses");
            assert_eq!(v.get("policy"), Some(&Value::Str("rotate".into())));
            assert_eq!(v.get("reason"), Some(&Value::Str("cyclic_shift".into())));
            assert_eq!(v.get("migrations"), Some(&Value::UInt(2)));
            let Some(Value::Seq(rows)) = v.get("threads") else {
                panic!("threads must be a list");
            };
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].get("migrated"), Some(&Value::Bool(true)));
        }
    }

    #[test]
    fn alloc_decision_jsonl_bytes_are_pinned() {
        let placement = [(0, 0), (1, 0), (0, 1)];
        let view = view_fixture(&placement, &[2, 2], &[7, 5, 9], &[0, 3, 1]);
        let (_, rotate) = AllocKind::Rotate.decide_explained(&view);
        let (_, pinned) = AllocKind::Static.decide_explained(&view);
        let expected = concat!(
            r#"{"quantum":3,"policy":"rotate","reason":"cyclic_shift","threads":["#,
            r#"{"thread":0,"from_core":0,"to_core":1,"committed":7,"l1d_misses":0,"migrated":true},"#,
            r#"{"thread":1,"from_core":1,"to_core":0,"committed":5,"l1d_misses":3,"migrated":true},"#,
            r#"{"thread":2,"from_core":0,"to_core":1,"committed":9,"l1d_misses":1,"migrated":true}],"#,
            r#""migrations":3}"#,
            "\n",
            r#"{"quantum":3,"policy":"static","reason":"pinned","threads":["#,
            r#"{"thread":0,"from_core":0,"to_core":0,"committed":7,"l1d_misses":0,"migrated":false},"#,
            r#"{"thread":1,"from_core":1,"to_core":1,"committed":5,"l1d_misses":3,"migrated":false},"#,
            r#"{"thread":2,"from_core":0,"to_core":0,"committed":9,"l1d_misses":1,"migrated":false}],"#,
            r#""migrations":0}"#,
            "\n",
        );
        assert_eq!(jsonl([&rotate, &pinned]), expected);
    }

    #[test]
    fn audited_cell_follows_the_unaudited_trajectory() {
        let m = mix(1).take_threads(4, 7);
        let quanta = 6;
        let qc = 2048;

        let mut plain_machine = multicore_for_mix(&m, 7, 2, 64);
        let expected = run_alloc(
            FetchPolicy::Icount,
            AllocKind::IpcGreedy,
            &mut plain_machine,
            quanta,
            qc,
        );

        let mut machine = multicore_for_mix(&m, 7, 2, 64);
        let mut cell = AllocCell::new(FetchPolicy::Icount, AllocKind::IpcGreedy, qc, &machine);
        cell.enable_audit(1024);
        for _ in 0..quanta {
            smt_sim::run_scalar_quantum(&mut cell, &mut machine);
        }

        assert_eq!(
            machine.counter_snapshot(),
            plain_machine.counter_snapshot(),
            "audit must not perturb the simulation"
        );
        let ring = cell.take_audit().expect("audit enabled");
        assert_eq!(ring.len() as u64, quanta, "one record per boundary");
        // The final boundary is applied but never observed (no further
        // quantum follows), so the cell's tally covers all but the last
        // ring record.
        let audited: u64 = ring
            .iter()
            .take(quanta as usize - 1)
            .map(|r| r.migrations)
            .sum();
        assert_eq!(
            cell.migrations(),
            audited,
            "ring agrees with the cell tally"
        );
        assert_eq!(cell.into_series(), expected);
    }
}
