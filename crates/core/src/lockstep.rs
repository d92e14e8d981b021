//! Lockstep sweep cells: the `smt_sim::batch` drivers for this crate's
//! schedulers.
//!
//! A sweep point is either a fixed-policy run or an adaptive run
//! ([`AdaptiveScheduler`]). [`PointCell`] wraps both behind one
//! [`LockstepCell`] implementation with a *shared* plan type
//! ([`QuantumPlan`]), so a fixed-ICOUNT cell and an adaptive cell that
//! has not (yet) switched away from ICOUNT group together and share all
//! simulation work.
//!
//! Equivalence contract (pinned by `tests/golden_batch.rs` and the
//! differential suites): the scalar drivers of [`crate::runner`] step one
//! `PointCell` through [`smt_sim::batch::run_scalar_quantum`], and a
//! [`smt_sim::MachineBatch`] of cells produces bit-identical
//! [`RunSeries`] and leaves the machine bit-identical too.

use crate::adaptive::{AdaptiveScheduler, AdtsConfig, BoundaryActions, QuantumPlan};
use crate::indicators::{MachineSnapshot, QuantumStats};
use smt_policies::FetchPolicy;
use smt_sim::{LockstepCell, SmtMachine};
use smt_stats::RunSeries;

/// A fixed-policy cell: one quantum under a constant fetch policy per
/// lockstep step, recorded like every other quantum.
#[derive(Clone, Debug)]
pub struct FixedCell {
    policy: FetchPolicy,
    quantum_cycles: u64,
    index: u64,
    before: Option<MachineSnapshot>,
    series: RunSeries,
}

impl FixedCell {
    pub fn new(policy: FetchPolicy, quantum_cycles: u64) -> Self {
        FixedCell {
            policy,
            quantum_cycles,
            index: 0,
            before: None,
            series: RunSeries::default(),
        }
    }
}

/// One sweep point driven in lockstep: fixed policy or adaptive ADTS.
///
/// Both variants share [`QuantumPlan`]/[`BoundaryActions`], so a batch
/// may hold any mixture; a fixed cell simply always plans
/// `switch: None` under its constant policy.
#[derive(Clone, Debug)]
pub enum PointCell {
    Fixed(FixedCell),
    /// Boxed: the scheduler (series, audit ring, …) dwarfs `FixedCell`.
    Adaptive(Box<AdaptiveScheduler>),
}

impl PointCell {
    /// Fixed-policy cell: `policy` for every quantum, never switching.
    pub fn fixed(policy: FetchPolicy, quantum_cycles: u64) -> Self {
        PointCell::Fixed(FixedCell::new(policy, quantum_cycles))
    }

    /// Adaptive cell around a fresh scheduler.
    pub fn adaptive(cfg: AdtsConfig, n_threads: usize) -> Self {
        PointCell::Adaptive(Box::new(AdaptiveScheduler::new(cfg, n_threads)))
    }

    /// The recorded series (consumes the cell).
    pub fn into_series(self) -> RunSeries {
        match self {
            PointCell::Fixed(c) => c.series,
            PointCell::Adaptive(s) => s.into_series(),
        }
    }
}

impl LockstepCell for PointCell {
    type Plan = QuantumPlan;
    type Boundary = BoundaryActions;

    fn plan(&mut self, machine: &SmtMachine) -> QuantumPlan {
        match self {
            PointCell::Fixed(c) => {
                c.before = Some(MachineSnapshot::take(machine));
                QuantumPlan {
                    quantum_cycles: c.quantum_cycles,
                    from: c.policy,
                    switch: None,
                }
            }
            PointCell::Adaptive(s) => s.plan_quantum(machine),
        }
    }

    fn execute(plan: &QuantumPlan, machine: &mut SmtMachine) {
        AdaptiveScheduler::execute_plan(plan, machine);
    }

    fn observe(&mut self, machine: &SmtMachine) -> BoundaryActions {
        match self {
            PointCell::Fixed(c) => {
                let fetch_width = machine.config().fetch_width;
                let before = c.before.take().expect("observe without plan");
                let after = MachineSnapshot::take(machine);
                let stats = QuantumStats::between(&before, &after, fetch_width);
                c.series.quanta.push(stats.record(c.index, c.policy));
                c.index += 1;
                BoundaryActions::default()
            }
            PointCell::Adaptive(s) => s.observe_quantum(machine).1,
        }
    }

    fn apply_boundary(boundary: &BoundaryActions, machine: &mut SmtMachine) {
        AdaptiveScheduler::apply_boundary(boundary, machine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicKind;
    use crate::runner::machine_for_mix;
    use smt_policies::Tsu;
    use smt_sim::{run_scalar_quantum, MachineBatch};
    use smt_workloads::mix;

    const QC: u64 = 2048;

    fn test_mix() -> smt_workloads::Mix {
        mix(10).take_threads(2, 1)
    }

    fn adts(kind: HeuristicKind, m: f64) -> AdtsConfig {
        AdtsConfig {
            quantum_cycles: QC,
            ipc_threshold: m,
            heuristic: kind,
            ..Default::default()
        }
    }

    /// The reference does not step a cell: one `Tsu` kept across quanta
    /// and a plain `SmtMachine::run` per quantum.
    #[test]
    fn fixed_cell_matches_a_plain_tsu_loop() {
        let m = test_mix();
        let mut scalar = machine_for_mix(&m, 5);
        let width = scalar.config().fetch_width;
        let mut tsu = Tsu::new(FetchPolicy::Icount, scalar.n_threads());
        let mut expected = RunSeries::default();
        for index in 0..6 {
            let before = MachineSnapshot::take(&scalar);
            scalar.run(QC, &mut tsu);
            let stats = QuantumStats::between(&before, &MachineSnapshot::take(&scalar), width);
            expected
                .quanta
                .push(stats.record(index, FetchPolicy::Icount));
        }

        let mut cell = PointCell::fixed(FetchPolicy::Icount, QC);
        let mut machine = machine_for_mix(&m, 5);
        for _ in 0..6 {
            run_scalar_quantum(&mut cell, &mut machine);
        }
        assert_eq!(cell.into_series(), expected);
        assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
    }

    #[test]
    fn adaptive_cell_reproduces_run_quantum() {
        let m = test_mix();
        let mut scalar = machine_for_mix(&m, 6);
        let mut sched = AdaptiveScheduler::new(adts(HeuristicKind::Type3, 8.0), 2);
        for _ in 0..8 {
            sched.run_quantum(&mut scalar);
        }
        let expected = sched.into_series();

        let mut cell = PointCell::adaptive(adts(HeuristicKind::Type3, 8.0), 2);
        let mut machine = machine_for_mix(&m, 6);
        for _ in 0..8 {
            run_scalar_quantum(&mut cell, &mut machine);
        }
        assert_eq!(cell.into_series(), expected);
        assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
    }

    #[test]
    fn batched_cells_match_their_scalar_runs() {
        let m = test_mix();
        // A mixed batch: one fixed baseline + adaptive cells whose
        // thresholds force divergence at different times.
        let build = || {
            vec![
                PointCell::fixed(FetchPolicy::Icount, QC),
                PointCell::adaptive(adts(HeuristicKind::Type3, 0.0), 2),
                PointCell::adaptive(adts(HeuristicKind::Type3, 8.0), 2),
                PointCell::adaptive(adts(HeuristicKind::Type1, 8.0), 2),
            ]
        };
        let quanta = 8;

        let scalar: Vec<RunSeries> = build()
            .into_iter()
            .map(|mut cell| {
                let mut machine = machine_for_mix(&m, 7);
                for _ in 0..quanta {
                    run_scalar_quantum(&mut cell, &mut machine);
                }
                cell.into_series()
            })
            .collect();

        let mut batch = MachineBatch::new(machine_for_mix(&m, 7), build());
        for _ in 0..quanta {
            batch.run_quantum();
        }
        let stats = batch.stats();
        let batched: Vec<RunSeries> = batch
            .into_cells()
            .into_iter()
            .map(PointCell::into_series)
            .collect();

        assert_eq!(batched, scalar);
        // The m=0 adaptive cell never switches, so it must have shared
        // every quantum with the fixed-ICOUNT cell.
        assert!(
            stats.machine_quanta < stats.cell_quanta,
            "no sharing happened: {stats:?}"
        );
    }

    #[test]
    fn never_switching_cells_stay_in_one_group() {
        let m = test_mix();
        let cells = vec![
            PointCell::fixed(FetchPolicy::Icount, QC),
            PointCell::adaptive(adts(HeuristicKind::Type3, 0.0), 2),
            PointCell::adaptive(adts(HeuristicKind::Type4, 0.0), 2),
        ];
        let mut batch = MachineBatch::new(machine_for_mix(&m, 8), cells);
        for _ in 0..5 {
            batch.run_quantum();
        }
        let stats = batch.stats();
        assert_eq!(batch.n_groups(), 1, "m=0 never switches, so no forks");
        assert_eq!(stats.machine_quanta, 5);
        assert_eq!(stats.cell_quanta, 15);
        assert_eq!(stats.plan_forks + stats.boundary_forks, 0);
    }
}
