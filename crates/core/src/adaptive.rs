//! The adaptive dynamic thread scheduler (the paper's core loop, Fig 2/3).
//!
//! Every `quantum_cycles` (8 K by default) the detector thread compares the
//! quantum's committed IPC against the threshold `m`. Below threshold, the
//! active heuristic picks a (possibly) new fetch policy; the switch lands
//! in the next quantum after the DT-model delay. Switch *quality* is
//! judged exactly as in §4.2: a switch is benign iff the next quantum's
//! IPC exceeds the quantum that triggered it — and Type 4 feeds that
//! verdict back into its history buffer.
//!
//! The scheduler also performs the DT's secondary duty, clog
//! identification (§4: "the threads that are clogging the pipelines can be
//! identified and marked so that the job scheduler can later suspend
//! them"), exposing the marks via [`AdaptiveScheduler::clog_log`]. With
//! `clog_control` enabled it additionally exercises the thread-control
//! flags: the clogging thread's fetch is disabled for the following
//! quantum (an optional extension the paper describes but does not
//! evaluate; off by default).

use crate::audit::{DecisionReason, DecisionRecord};
use crate::detector::DtModel;
use crate::heuristics::{CondThresholds, Heuristic, HeuristicKind};
use crate::indicators::{MachineSnapshot, QuantumStats};
use crate::threshold::{ThresholdMode, ThresholdTracker};
use serde::{Deserialize, Serialize};
use smt_isa::Tid;
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{EventRing, SmtMachine};
use smt_stats::{RunSeries, SwitchEvent};

/// Capacity of the per-scheduler decision-audit ring: one record per
/// quantum, so this covers 4096 quanta (33 M cycles at the default 8 K)
/// before the oldest records rotate out.
const DECISION_RING_CAP: usize = 4096;

/// ADTS configuration; defaults are the paper's evaluated operating point
/// (8 K-cycle quanta, threshold m = 2, Type 3, free DT, ICOUNT start).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdtsConfig {
    pub quantum_cycles: u64,
    /// The IPC threshold m ("IPC_thold"); with `self_tuning` set this is
    /// only the bootstrap value used until the tuning window fills.
    pub ipc_threshold: f64,
    /// §4.2 extension: let the detector thread update `IPC_thold` itself,
    /// tracking the given percentile of the last `window` quanta's IPC.
    pub self_tuning: Option<SelfTuning>,
    pub heuristic: HeuristicKind,
    pub dt: DtModel,
    pub thresholds: CondThresholds,
    pub initial_policy: FetchPolicy,
    /// Also act on the clog flags (disable the clogging thread's fetch for
    /// one quantum). Off by default: the paper marks but does not act.
    pub clog_control: bool,
}

/// Self-tuning parameters (see [`crate::threshold`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SelfTuning {
    /// Percentile of recent IPC the threshold tracks (0..=1).
    pub percentile: f64,
    /// Number of recent quanta consulted.
    pub window: usize,
}

impl Default for AdtsConfig {
    fn default() -> Self {
        AdtsConfig {
            quantum_cycles: 8192,
            ipc_threshold: 2.0,
            self_tuning: None,
            heuristic: HeuristicKind::Type3,
            dt: DtModel::Free,
            thresholds: CondThresholds::default(),
            initial_policy: FetchPolicy::Icount,
            clog_control: false,
        }
    }
}

/// Everything that determines how the machine evolves over one quantum.
///
/// Produced by [`AdaptiveScheduler::plan_quantum`]; executed (possibly on
/// a machine shared between many schedulers — see `smt_sim::batch`) by
/// [`AdaptiveScheduler::execute_plan`]. Two equal plans applied to
/// bit-identical machines evolve them identically: the TSU is stateless
/// beyond its policy, so the plan's policy/switch schedule is the entire
/// scheduler-side input to the quantum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantumPlan {
    /// Cycles to simulate.
    pub quantum_cycles: u64,
    /// Policy at quantum entry.
    pub from: FetchPolicy,
    /// Pending switch landing this quantum: (delay-cycles, target).
    pub switch: Option<(u64, FetchPolicy)>,
}

/// Machine mutations the scheduler wants applied at a quantum boundary.
///
/// Empty unless `clog_control` is enabled (the paper's schedulers mark
/// clogs but do not act), so batched cells virtually never fork here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoundaryActions {
    /// Fetch-enable toggles, applied in order: (thread, enabled).
    pub fetch_toggles: Vec<(Tid, bool)>,
}

impl BoundaryActions {
    /// No machine mutation requested?
    pub fn is_empty(&self) -> bool {
        self.fetch_toggles.is_empty()
    }
}

/// The adaptive scheduler: owns the TSU and the heuristic state.
///
/// ```
/// use adts_core::{AdaptiveScheduler, AdtsConfig, machine_for_mix};
///
/// let mix = smt_workloads::mix(9);
/// let mut machine = machine_for_mix(&mix, 42);
/// let mut sched = AdaptiveScheduler::new(AdtsConfig::default(), machine.n_threads());
/// let stats = sched.run_quantum(&mut machine);
/// assert!(stats.ipc > 0.0);
/// assert_eq!(sched.series().quanta.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveScheduler {
    cfg: AdtsConfig,
    tsu: Tsu,
    heuristic: Heuristic,
    threshold: ThresholdTracker,
    /// IPC of the quantum before the last (for the gradient guard).
    prev_ipc: Option<f64>,
    /// Switch decided at the last boundary: (target, delay-cycles,
    /// index into `series.switches`).
    pending_switch: Option<(FetchPolicy, u64, usize)>,
    /// Thread whose fetch we disabled for the current quantum.
    blocked: Option<Tid>,
    /// Pre-quantum counter snapshot, captured by [`Self::plan_quantum`]
    /// and consumed by [`Self::observe_quantum`].
    before: Option<MachineSnapshot>,
    series: RunSeries,
    clog_log: Vec<(u64, Tid)>,
    /// One [`DecisionRecord`] per quantum boundary (ring-bounded).
    audit: EventRing<DecisionRecord>,
    quantum_index: u64,
}

impl AdaptiveScheduler {
    pub fn new(cfg: AdtsConfig, n_threads: usize) -> Self {
        let mode = match cfg.self_tuning {
            None => ThresholdMode::Fixed(cfg.ipc_threshold),
            Some(st) => ThresholdMode::SelfTuning {
                percentile: st.percentile,
                window: st.window,
                bootstrap: cfg.ipc_threshold,
            },
        };
        AdaptiveScheduler {
            tsu: Tsu::new(cfg.initial_policy, n_threads),
            heuristic: Heuristic::with_thresholds(cfg.heuristic, cfg.thresholds),
            threshold: ThresholdTracker::new(mode),
            prev_ipc: None,
            pending_switch: None,
            blocked: None,
            before: None,
            series: RunSeries::default(),
            clog_log: Vec::new(),
            audit: EventRing::new(DECISION_RING_CAP),
            quantum_index: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &AdtsConfig {
        &self.cfg
    }

    /// The incumbent fetch policy.
    pub fn policy(&self) -> FetchPolicy {
        self.tsu.policy
    }

    /// Override the Type 2 rotation sequence (ablation A4).
    pub fn set_rotation(&mut self, rotation: Vec<FetchPolicy>) {
        self.heuristic.set_rotation(rotation);
    }

    /// Per-quantum records and switch events so far.
    pub fn series(&self) -> &RunSeries {
        &self.series
    }

    /// Take ownership of the series (ends the recording).
    pub fn into_series(self) -> RunSeries {
        self.series
    }

    /// Clog marks: (quantum index, thread).
    pub fn clog_log(&self) -> &[(u64, Tid)] {
        &self.clog_log
    }

    /// The decision-audit trail: one record per completed quantum, oldest
    /// first (ring-bounded at `DECISION_RING_CAP`, 4,096 quanta).
    pub fn decision_log(&self) -> &EventRing<DecisionRecord> {
        &self.audit
    }

    /// Take both recordings (series and decision audit), ending them.
    pub fn into_recordings(self) -> (RunSeries, EventRing<DecisionRecord>) {
        (self.series, self.audit)
    }

    /// The threshold value the next quantum will be judged against.
    pub fn current_threshold(&self) -> f64 {
        self.threshold.current()
    }

    /// Run one scheduling quantum on `machine` and apply the ADTS boundary
    /// work. Returns the quantum's stats.
    ///
    /// This is exactly the four lockstep phases in sequence — the scalar
    /// path and the batched path (`smt_sim::batch`) share every line of
    /// scheduler logic.
    pub fn run_quantum(&mut self, machine: &mut SmtMachine) -> QuantumStats {
        let plan = self.plan_quantum(machine);
        Self::execute_plan(&plan, machine);
        let (stats, boundary) = self.observe_quantum(machine);
        Self::apply_boundary(&boundary, machine);
        stats
    }

    /// Phase 1: decide the plan for the next quantum. Captures the
    /// pre-quantum counter snapshot and commits the pending policy switch
    /// to the TSU (the plan records the old policy and the switch delay).
    pub fn plan_quantum(&mut self, machine: &SmtMachine) -> QuantumPlan {
        self.before = Some(MachineSnapshot::take(machine));
        let from = self.tsu.policy;
        let switch = self.pending_switch.map(|(to, delay, _)| (delay, to));
        if let Some((to, _, _)) = self.pending_switch {
            self.tsu.set_policy(to);
        }
        QuantumPlan {
            quantum_cycles: self.cfg.quantum_cycles,
            from,
            switch,
        }
    }

    /// Phase 2: step the machine through one quantum under `plan`. Pure
    /// in the scheduler: depends only on the plan and the machine, so one
    /// execution can serve every batched cell that produced an equal plan.
    pub fn execute_plan(plan: &QuantumPlan, machine: &mut SmtMachine) {
        // The TSU is stateless beyond its policy, so reconstructing it
        // from the plan is exact.
        let mut tsu = Tsu::new(plan.from, machine.n_threads());
        match plan.switch {
            // Apply the pending switch `delay` cycles into the quantum.
            Some((delay, to)) => {
                machine.run(delay.min(plan.quantum_cycles), &mut tsu);
                tsu.set_policy(to);
                // Records into the event trace only; a no-op (and no
                // behavior change) on untraced machines.
                machine.note_policy_switch(plan.from.id(), to.id());
                machine.run(plan.quantum_cycles.saturating_sub(delay), &mut tsu);
            }
            None => machine.run(plan.quantum_cycles, &mut tsu),
        }
    }

    /// Phase 3: inspect the post-quantum machine (read-only), record the
    /// quantum, judge the landed switch, and run the detector-thread
    /// decision. Returns the stats plus the boundary mutations to apply.
    pub fn observe_quantum(&mut self, machine: &SmtMachine) -> (QuantumStats, BoundaryActions) {
        let fetch_width = machine.config().fetch_width;
        let before = self
            .before
            .take()
            .expect("observe_quantum without a preceding plan_quantum");
        let after = MachineSnapshot::take(machine);
        let stats = QuantumStats::between(&before, &after, fetch_width);
        let mut boundary = BoundaryActions::default();

        // Judge the switch that produced this quantum (benign = IPC rose
        // relative to the quantum that triggered it = `prev` record).
        if let Some((_, _, switch_idx)) = self.pending_switch.take() {
            let ipc_before = self
                .series
                .quanta
                .last()
                .map(|q| q.ipc)
                .expect("a switch implies a prior quantum");
            let benign = stats.ipc > ipc_before;
            self.series.switches[switch_idx].benign = Some(benign);
            self.heuristic.feed_outcome(benign);
        }

        // Lift last quantum's clog block before deciding anew.
        if let Some(t) = self.blocked.take() {
            boundary.fetch_toggles.push((t, true));
        }

        let record = stats.record(self.quantum_index, self.tsu.policy);

        // The detector thread's main check: IPC_last < IPC_thold?
        // (With self-tuning, the threshold excludes the quantum it judges.)
        let threshold = self.threshold.current();
        self.threshold.observe(stats.ipc);
        let last_ipc_for_gradient = self.prev_ipc;
        self.prev_ipc = Some(stats.ipc);
        let incumbent = self.tsu.policy;
        let mut decision = DecisionRecord {
            quantum: self.quantum_index,
            cycle: machine.cycle(),
            incumbent,
            chosen: incumbent,
            ipc: stats.ipc,
            threshold,
            below_threshold: stats.ipc < threshold,
            switched: false,
            reason: DecisionReason::AboveThreshold,
            trace: None,
        };
        if stats.ipc < threshold {
            // Identify clogging threads first (Fig 2's left branch).
            if let Some(clog) = stats.clogging_thread() {
                self.clog_log.push((self.quantum_index, clog));
                if self.cfg.clog_control {
                    boundary.fetch_toggles.push((clog, false));
                    self.blocked = Some(clog);
                }
            }
            // Determine_NewPolicy + Policy_Switch.
            let trace = self
                .heuristic
                .decide_explained(incumbent, &stats, last_ipc_for_gradient);
            let target = trace.target;
            decision.chosen = target;
            decision.reason = trace.reason;
            if target != incumbent {
                match self.cfg.dt.decision_delay(
                    self.cfg.heuristic,
                    stats.idle_fetch_rate,
                    self.cfg.quantum_cycles,
                ) {
                    Some(delay) => {
                        self.series.switches.push(SwitchEvent {
                            quantum: self.quantum_index,
                            from: incumbent.name().to_string(),
                            to: target.name().to_string(),
                            benign: None,
                        });
                        let idx = self.series.switches.len() - 1;
                        self.pending_switch = Some((target, delay, idx));
                        decision.switched = true;
                    }
                    None => {
                        self.heuristic.cancel_pending();
                        decision.reason = DecisionReason::DtStarved;
                    }
                }
            }
            decision.trace = Some(trace);
        }
        self.audit.push(decision);

        self.series.quanta.push(record);
        self.quantum_index += 1;
        (stats, boundary)
    }

    /// Phase 4: apply the boundary mutations. Like [`Self::execute_plan`]
    /// this depends only on its value argument, so equal boundaries can be
    /// applied once per batched group.
    pub fn apply_boundary(boundary: &BoundaryActions, machine: &mut SmtMachine) {
        for &(t, enabled) in &boundary.fetch_toggles {
            machine.set_fetch_enabled(t, enabled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_adaptive;
    use smt_isa::AppProfile;
    use smt_workloads::UopStream;
    use std::sync::Arc;

    fn machine(n: usize, seed: u64) -> SmtMachine {
        let cfg = smt_sim::SimConfig::with_threads(n);
        let streams = (0..n)
            .map(|i| {
                UopStream::new(
                    Arc::new(AppProfile::builder("t").build()),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        SmtMachine::new(cfg, streams)
    }

    #[test]
    fn records_one_record_per_quantum() {
        let mut m = machine(4, 1);
        let series = run_adaptive(AdtsConfig::default(), &mut m, 10);
        assert_eq!(series.quanta.len(), 10);
        assert!(series.quanta.iter().all(|q| q.cycles == 8192));
        assert_eq!(m.cycle(), 10 * 8192);
    }

    #[test]
    fn high_threshold_forces_switching() {
        let mut m = machine(4, 2);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            ..Default::default()
        };
        let series = run_adaptive(cfg, &mut m, 20);
        assert!(!series.switches.is_empty(), "m=8 must trigger switches");
        // All but possibly the last switch must have judged outcomes.
        assert!(series.judged_switches() >= series.switches.len() - 1);
    }

    #[test]
    fn zero_threshold_never_switches() {
        let mut m = machine(4, 3);
        let cfg = AdtsConfig {
            ipc_threshold: 0.0,
            ..Default::default()
        };
        let series = run_adaptive(cfg, &mut m, 10);
        assert!(series.switches.is_empty());
        assert!(series.quanta.iter().all(|q| q.policy == "ICOUNT"));
    }

    #[test]
    fn type1_alternates_between_icount_and_brcount() {
        let mut m = machine(2, 4);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            heuristic: HeuristicKind::Type1,
            ..Default::default()
        };
        let series = run_adaptive(cfg, &mut m, 12);
        for s in &series.switches {
            assert!(
                (s.from == "ICOUNT" && s.to == "BRCOUNT")
                    || (s.from == "BRCOUNT" && s.to == "ICOUNT"),
                "unexpected Type 1 transition {s:?}"
            );
        }
        assert!(
            series.switches.len() >= 6,
            "Type 1 at m=8 should toggle nearly every quantum"
        );
    }

    #[test]
    fn starved_dt_behaves_like_fixed() {
        let mut a = machine(4, 5);
        let mut b = machine(4, 5);
        let adaptive_starved = AdtsConfig {
            ipc_threshold: 8.0,
            dt: DtModel::Starved,
            ..Default::default()
        };
        let s1 = run_adaptive(adaptive_starved, &mut a, 10);
        let fixed = AdtsConfig {
            ipc_threshold: 0.0,
            ..Default::default()
        };
        let s2 = run_adaptive(fixed, &mut b, 10);
        assert!(s1.switches.is_empty());
        assert_eq!(s1.aggregate_ipc(), s2.aggregate_ipc());
    }

    #[test]
    fn budgeted_dt_delays_but_still_switches() {
        let mut m = machine(2, 6);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            dt: DtModel::Budgeted {
                throughput_factor: 1.0,
            },
            ..Default::default()
        };
        let series = run_adaptive(cfg, &mut m, 15);
        // A 2-thread machine leaves plenty of idle slots: switches happen.
        assert!(!series.switches.is_empty());
    }

    #[test]
    fn clog_log_populates_under_low_throughput() {
        let mut m = machine(4, 7);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..10 {
            sched.run_quantum(&mut m);
        }
        assert!(!sched.clog_log().is_empty());
    }

    #[test]
    fn clog_control_blocks_and_unblocks() {
        let mut m = machine(4, 8);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            clog_control: true,
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..6 {
            sched.run_quantum(&mut m);
        }
        // After the final boundary one thread may be blocked; all others
        // must be enabled.
        let blocked: Vec<bool> = (0..4).map(|t| !m.fetch_enabled(Tid(t))).collect();
        assert!(blocked.iter().filter(|b| **b).count() <= 1);
        assert!(!sched.clog_log().is_empty());
    }

    #[test]
    fn self_tuning_threshold_follows_workload() {
        let mut m = machine(4, 10);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0, // bootstrap: everything is "low" at first
            self_tuning: Some(SelfTuning {
                percentile: 0.5,
                window: 6,
            }),
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..6 {
            sched.run_quantum(&mut m);
        }
        let tuned = sched.current_threshold();
        // Once the window fills the threshold must track attained IPC
        // (well below the absurd bootstrap of 8).
        assert!(tuned < 6.0, "threshold did not tune: {tuned}");
        assert!(tuned > 0.0);
    }

    #[test]
    fn self_tuning_switches_less_than_absurd_fixed_threshold() {
        let run = |self_tuning| {
            let mut m = machine(4, 11);
            let cfg = AdtsConfig {
                ipc_threshold: 8.0,
                self_tuning,
                ..Default::default()
            };
            run_adaptive(cfg, &mut m, 20).switches.len()
        };
        let fixed = run(None);
        let tuned = run(Some(SelfTuning {
            percentile: 0.5,
            window: 6,
        }));
        assert!(
            tuned < fixed,
            "self-tuning ({tuned}) should calm the absurd fixed threshold ({fixed})"
        );
    }

    #[test]
    fn audit_records_every_quantum() {
        let mut m = machine(4, 2);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..12 {
            sched.run_quantum(&mut m);
        }
        let log: Vec<_> = sched.decision_log().iter().collect();
        assert_eq!(log.len(), 12);
        for (i, rec) in log.iter().enumerate() {
            assert_eq!(rec.quantum, i as u64);
            assert_eq!(rec.cycle, (i as u64 + 1) * 8192);
            assert!(!rec.reason.name().is_empty());
            // m = 8 is unattainable: every quantum is below threshold and
            // carries a full trace.
            assert!(rec.below_threshold);
            assert!(rec.trace.is_some());
        }
        // Every recorded switch event must be explained by a `switched`
        // audit record at the same quantum with matching endpoints.
        let (series, audit) = sched.into_recordings();
        assert!(!series.switches.is_empty());
        for s in &series.switches {
            let rec = audit
                .iter()
                .find(|r| r.quantum == s.quantum)
                .expect("audited quantum");
            assert!(rec.switched);
            assert_eq!(rec.incumbent.name(), s.from);
            assert_eq!(rec.chosen.name(), s.to);
        }
        // And the other way: every `switched` record has its switch event.
        let switched = audit.iter().filter(|r| r.switched).count();
        assert_eq!(switched, series.switches.len());
    }

    #[test]
    fn audit_marks_above_threshold_quanta_without_trace() {
        let mut m = machine(4, 3);
        let cfg = AdtsConfig {
            ipc_threshold: 0.0,
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..5 {
            sched.run_quantum(&mut m);
        }
        for rec in sched.decision_log().iter() {
            assert_eq!(rec.reason, crate::audit::DecisionReason::AboveThreshold);
            assert!(!rec.below_threshold);
            assert!(!rec.switched);
            assert_eq!(rec.incumbent, rec.chosen);
            assert!(rec.trace.is_none());
        }
    }

    #[test]
    fn audit_names_dt_starved_switches() {
        let mut m = machine(4, 5);
        let cfg = AdtsConfig {
            ipc_threshold: 8.0,
            dt: DtModel::Starved,
            ..Default::default()
        };
        let mut sched = AdaptiveScheduler::new(cfg, 4);
        for _ in 0..8 {
            sched.run_quantum(&mut m);
        }
        assert!(sched.series().switches.is_empty());
        let starved = sched
            .decision_log()
            .iter()
            .filter(|r| r.reason == crate::audit::DecisionReason::DtStarved)
            .count();
        assert!(starved > 0, "a starved DT must leave dt_starved records");
        assert!(sched.decision_log().iter().all(|r| !r.switched));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut m = machine(4, 9);
            run_adaptive(AdtsConfig::default(), &mut m, 8).aggregate_ipc()
        };
        assert_eq!(run(), run());
    }
}
