//! Policy-determination heuristics (paper §4.3).
//!
//! Once the detector thread has flagged a low-throughput quantum, one of
//! five heuristics picks the fetch policy for the next quantum:
//!
//! - **Type 1** — toggle ICOUNT ↔ BRCOUNT, no state inspected (Fig 4);
//! - **Type 2** — rotate ICOUNT → L1MISSCOUNT → BRCOUNT (Fig 5);
//! - **Type 3** — a condition-guarded FSM over the same three policies
//!   (Fig 6), using COND_MEM and COND_BR;
//! - **Type 3′** — Type 3 plus the throughput-gradient guard: no switch
//!   while IPC is rising ("Type 3 plus considering gradient of throughput");
//! - **Type 4** — Type 3′ plus the switching-history buffer: if past
//!   outcomes of this (incumbent, condition) case were not net-positive,
//!   switch in the *opposite* direction.
//!
//! Condition definitions and the threshold constants come straight from
//! §4.3.2; the constants "were determined by simulation … there can be no
//! single golden reference measures", so they are configurable (and an
//! ablation sweeps them).

use crate::audit::{evaluate_conditions, DecisionReason, DecisionTrace, HistoryEval};
use crate::history::SwitchHistory;
use crate::indicators::QuantumStats;
use serde::{Deserialize, Serialize};
use smt_policies::FetchPolicy;

/// Thresholds for COND_MEM / COND_BR (per-cycle rates over the last
/// quantum).
///
/// The paper set its constants to the *average value of each metric*
/// measured over eight-thread runs of its 13 mixes on its simulator
/// (§4.3.2) — and warns "there can be no single golden reference
/// measures". We follow the same procedure on this substrate:
/// [`Default`] carries the means measured by the `calibrate` binary;
/// [`CondThresholds::paper`] preserves the published constants (which
/// belong to SimpleSMT's rate scale, not ours).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CondThresholds {
    /// COND_MEM sub-condition 1: L1 miss count per cycle.
    pub l1_miss_rate: f64,
    /// COND_MEM sub-condition 2: LSQ-full events per cycle.
    pub lsq_full_rate: f64,
    /// COND_BR sub-condition 1: branch mispredictions per cycle.
    pub mispredict_rate: f64,
    /// COND_BR sub-condition 2: conditional branches per cycle.
    pub branch_rate: f64,
}

impl Default for CondThresholds {
    fn default() -> Self {
        // Means over the 13 mixes on this substrate (see `repro calibrate`).
        CondThresholds {
            l1_miss_rate: 0.75,
            lsq_full_rate: 0.17,
            mispredict_rate: 0.066,
            branch_rate: 0.25,
        }
    }
}

impl CondThresholds {
    /// The constants published in the paper (calibrated to SimpleSMT).
    pub fn paper() -> Self {
        CondThresholds {
            l1_miss_rate: 0.19,
            lsq_full_rate: 0.45,
            mispredict_rate: 0.02,
            branch_rate: 0.38,
        }
    }
}

impl CondThresholds {
    /// Scale every threshold by `f` (ablation A3).
    pub fn scaled(self, f: f64) -> Self {
        CondThresholds {
            l1_miss_rate: self.l1_miss_rate * f,
            lsq_full_rate: self.lsq_full_rate * f,
            mispredict_rate: self.mispredict_rate * f,
            branch_rate: self.branch_rate * f,
        }
    }

    /// COND_MEM: memory-side imbalance detected.
    pub fn cond_mem(&self, q: &QuantumStats) -> bool {
        q.l1_miss_rate > self.l1_miss_rate || q.lsq_full_rate > self.lsq_full_rate
    }

    /// COND_BR: control-side imbalance detected.
    pub fn cond_br(&self, q: &QuantumStats) -> bool {
        q.mispredict_rate > self.mispredict_rate || q.branch_rate > self.branch_rate
    }
}

/// Which heuristic drives policy determination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum HeuristicKind {
    Type1,
    Type2,
    Type3,
    Type3Prime,
    Type4,
}

impl HeuristicKind {
    /// All five, in the paper's presentation order.
    pub const ALL: [HeuristicKind; 5] = [
        HeuristicKind::Type1,
        HeuristicKind::Type2,
        HeuristicKind::Type3,
        HeuristicKind::Type3Prime,
        HeuristicKind::Type4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Type1 => "Type 1",
            HeuristicKind::Type2 => "Type 2",
            HeuristicKind::Type3 => "Type 3",
            HeuristicKind::Type3Prime => "Type 3'",
            HeuristicKind::Type4 => "Type 4",
        }
    }

    /// Detector-thread instruction cost of one decision (used by the DT
    /// cycle-budget model). The paper only says Type 1 "can be implemented
    /// in hardware" while "too sophisticated heuristics may not fit in the
    /// available cycle budget"; these costs encode that ordering.
    pub fn dt_cost_instructions(self) -> u64 {
        match self {
            HeuristicKind::Type1 => 30,
            HeuristicKind::Type2 => 40,
            HeuristicKind::Type3 => 120,
            HeuristicKind::Type3Prime => 140,
            HeuristicKind::Type4 => 260,
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The rotation triple every heuristic moves within.
const TRIPLE: [FetchPolicy; 3] = [
    FetchPolicy::Icount,
    FetchPolicy::L1MissCount,
    FetchPolicy::BrCount,
];

/// Third member of the triple, given two distinct members.
fn third(a: FetchPolicy, b: FetchPolicy) -> FetchPolicy {
    TRIPLE
        .into_iter()
        .find(|&p| p != a && p != b)
        .expect("a and b must be distinct members of the triple")
}

/// A policy-determination heuristic instance (owns Type 4's history).
#[derive(Clone, Debug)]
pub struct Heuristic {
    pub kind: HeuristicKind,
    pub thresholds: CondThresholds,
    history: SwitchHistory,
    /// Case of the most recent *applied* switch, awaiting its outcome.
    pending_case: Option<(FetchPolicy, bool)>,
    /// Type 2's rotation sequence. The paper: "variants based on this
    /// scheme can be made by changing the sequence of the transitions ...
    /// or adding more fetch policies" — ablation A4 exercises exactly that.
    rotation: Vec<FetchPolicy>,
}

impl Heuristic {
    pub fn new(kind: HeuristicKind) -> Self {
        Heuristic {
            kind,
            thresholds: CondThresholds::default(),
            history: SwitchHistory::new(),
            pending_case: None,
            rotation: vec![
                FetchPolicy::Icount,
                FetchPolicy::L1MissCount,
                FetchPolicy::BrCount,
            ],
        }
    }

    /// Override the Type 2 rotation sequence (must be non-empty).
    pub fn set_rotation(&mut self, rotation: Vec<FetchPolicy>) {
        assert!(!rotation.is_empty());
        self.rotation = rotation;
    }

    pub fn with_thresholds(kind: HeuristicKind, thresholds: CondThresholds) -> Self {
        Heuristic {
            thresholds,
            ..Heuristic::new(kind)
        }
    }

    /// The condition the paper associates with each incumbent (Type 3's
    /// out-edges; "for each policy, there is one condition that is
    /// checked").
    fn incumbent_condition(&self, incumbent: FetchPolicy, q: &QuantumStats) -> bool {
        match incumbent {
            FetchPolicy::BrCount => self.thresholds.cond_mem(q),
            _ => self.thresholds.cond_br(q),
        }
    }

    /// Type 3's transition function (Fig 6).
    fn type3(&self, incumbent: FetchPolicy, q: &QuantumStats) -> FetchPolicy {
        let mem = self.thresholds.cond_mem(q);
        let br = self.thresholds.cond_br(q);
        match incumbent {
            FetchPolicy::Icount => {
                if br {
                    FetchPolicy::BrCount
                } else if mem {
                    FetchPolicy::L1MissCount
                } else {
                    FetchPolicy::Icount
                }
            }
            FetchPolicy::BrCount => {
                // "BRCOUNT has not worked … if COND_MEM holds, the imbalance
                // might have been in L1 misses or LSQ usage → L1MISSCOUNT;
                // otherwise → ICOUNT which works best on the average."
                if mem {
                    FetchPolicy::L1MissCount
                } else {
                    FetchPolicy::Icount
                }
            }
            FetchPolicy::L1MissCount => {
                if br {
                    FetchPolicy::BrCount
                } else {
                    FetchPolicy::Icount
                }
            }
            // Heuristics only ever move within the triple; recover to the
            // average-best policy from anything else.
            _ => FetchPolicy::Icount,
        }
    }

    /// Decide the policy for the next quantum after a low-throughput
    /// detection. `prev_ipc` is the quantum-before-last's IPC (gradient).
    /// Returning the incumbent means "no switch".
    pub fn decide(
        &mut self,
        incumbent: FetchPolicy,
        q: &QuantumStats,
        prev_ipc: Option<f64>,
    ) -> FetchPolicy {
        self.decide_explained(incumbent, q, prev_ipc).target
    }

    /// [`Heuristic::decide`] with its working shown: the returned
    /// [`DecisionTrace`] carries every sub-condition evaluation, the
    /// gradient verdict, Type 3's regular target and Type 4's history
    /// vote, plus the reason the final target was chosen. Behaviorally
    /// identical to `decide` (including the Type 4 pending-case side
    /// effect) — `decide` is a thin wrapper over this.
    pub fn decide_explained(
        &mut self,
        incumbent: FetchPolicy,
        q: &QuantumStats,
        prev_ipc: Option<f64>,
    ) -> DecisionTrace {
        let gradient_positive = prev_ipc.is_some_and(|p| q.ipc > p);
        let mut trace = DecisionTrace {
            kind: self.kind,
            conds: evaluate_conditions(&self.thresholds, q),
            cond_mem: self.thresholds.cond_mem(q),
            cond_br: self.thresholds.cond_br(q),
            incumbent_cond: self.incumbent_condition(incumbent, q),
            gradient_positive,
            regular: None,
            history: None,
            reason: DecisionReason::Stay,
            target: incumbent,
        };
        match self.kind {
            HeuristicKind::Type1 => {
                trace.target = match incumbent {
                    FetchPolicy::Icount => FetchPolicy::BrCount,
                    _ => FetchPolicy::Icount,
                };
                trace.reason = DecisionReason::Toggle;
            }
            HeuristicKind::Type2 => {
                // Cycle through the rotation; unknown incumbents re-enter
                // at the head.
                trace.target = match self.rotation.iter().position(|&p| p == incumbent) {
                    Some(i) => self.rotation[(i + 1) % self.rotation.len()],
                    None => self.rotation[0],
                };
                trace.reason = DecisionReason::Rotation;
            }
            HeuristicKind::Type3 => {
                let regular = self.type3(incumbent, q);
                trace.regular = Some(regular);
                trace.target = regular;
                if regular != incumbent {
                    trace.reason = DecisionReason::Regular;
                }
            }
            HeuristicKind::Type3Prime => {
                if gradient_positive {
                    trace.reason = DecisionReason::GradientPositive;
                } else {
                    let regular = self.type3(incumbent, q);
                    trace.regular = Some(regular);
                    trace.target = regular;
                    if regular != incumbent {
                        trace.reason = DecisionReason::Regular;
                    }
                }
            }
            HeuristicKind::Type4 => {
                if gradient_positive {
                    trace.reason = DecisionReason::GradientPositive;
                } else {
                    let regular = self.type3(incumbent, q);
                    trace.regular = Some(regular);
                    if regular != incumbent {
                        let cond = trace.incumbent_cond;
                        let case = self.history.case(incumbent, cond);
                        let prefer_regular = case.prefer_regular();
                        trace.history = Some(HistoryEval {
                            poscnt: case.poscnt,
                            negcnt: case.negcnt,
                            prefer_regular,
                            inverted: !prefer_regular,
                        });
                        if prefer_regular {
                            trace.target = regular;
                            trace.reason = DecisionReason::Regular;
                        } else {
                            trace.target = third(incumbent, regular);
                            trace.reason = DecisionReason::HistoryInverted;
                        }
                        self.pending_case = Some((incumbent, cond));
                    }
                }
            }
        }
        trace
    }

    /// Feed back the outcome of the last applied switch (Type 4 history).
    /// No-op for other kinds.
    pub fn feed_outcome(&mut self, improved: bool) {
        if let Some((inc, cond)) = self.pending_case.take() {
            self.history.record(inc, cond, improved);
        }
    }

    /// Abandon the pending case (the scheduler dropped the switch, e.g.
    /// because the detector thread was starved of issue slots).
    pub fn cancel_pending(&mut self) {
        self.pending_case = None;
    }

    /// Read-only access to the Type 4 history (for inspection/tests).
    pub fn history(&self) -> &SwitchHistory {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ipc: f64, miss: f64, lsq: f64, mis: f64, br: f64) -> QuantumStats {
        QuantumStats {
            cycles: 8192,
            committed: (ipc * 8192.0) as u64,
            ipc,
            l1_miss_rate: miss,
            lsq_full_rate: lsq,
            mispredict_rate: mis,
            branch_rate: br,
            idle_fetch_rate: 4.0,
            per_thread_committed: vec![],
            per_thread_l1_misses: vec![],
            per_thread_icount: vec![],
        }
    }

    fn quiet() -> QuantumStats {
        stats(1.0, 0.0, 0.0, 0.0, 0.0)
    }

    fn memory_bound() -> QuantumStats {
        stats(1.0, 0.9, 0.6, 0.0, 0.1)
    }

    fn branchy() -> QuantumStats {
        stats(1.0, 0.0, 0.0, 0.1, 0.5)
    }

    #[test]
    fn paper_constants_preserved() {
        let t = CondThresholds::paper();
        assert_eq!(t.l1_miss_rate, 0.19);
        assert_eq!(t.lsq_full_rate, 0.45);
        assert_eq!(t.mispredict_rate, 0.02);
        assert_eq!(t.branch_rate, 0.38);
    }

    #[test]
    fn defaults_are_recalibrated_not_papers() {
        // The defaults must track this substrate's measured means (the
        // paper's own calibration procedure), not SimpleSMT's scale.
        let d = CondThresholds::default();
        let p = CondThresholds::paper();
        assert_ne!(d, p);
        assert!(
            d.l1_miss_rate > p.l1_miss_rate,
            "our L1 rate scale is higher"
        );
    }

    #[test]
    fn conds_trigger_on_either_subcondition() {
        let t = CondThresholds::default();
        assert!(t.cond_mem(&stats(1.0, 0.9, 0.0, 0.0, 0.0)));
        assert!(t.cond_mem(&stats(1.0, 0.0, 0.5, 0.0, 0.0)));
        assert!(!t.cond_mem(&quiet()));
        assert!(t.cond_br(&stats(1.0, 0.0, 0.0, 0.1, 0.0)));
        assert!(t.cond_br(&stats(1.0, 0.0, 0.0, 0.0, 0.4)));
        assert!(!t.cond_br(&quiet()));
    }

    #[test]
    fn type1_toggles() {
        let mut h = Heuristic::new(HeuristicKind::Type1);
        assert_eq!(
            h.decide(FetchPolicy::Icount, &quiet(), None),
            FetchPolicy::BrCount
        );
        assert_eq!(
            h.decide(FetchPolicy::BrCount, &quiet(), None),
            FetchPolicy::Icount
        );
    }

    #[test]
    fn type2_rotates_in_paper_order() {
        let mut h = Heuristic::new(HeuristicKind::Type2);
        let a = h.decide(FetchPolicy::Icount, &quiet(), None);
        assert_eq!(a, FetchPolicy::L1MissCount);
        let b = h.decide(a, &quiet(), None);
        assert_eq!(b, FetchPolicy::BrCount);
        let c = h.decide(b, &quiet(), None);
        assert_eq!(c, FetchPolicy::Icount);
    }

    #[test]
    fn type3_follows_conditions() {
        let mut h = Heuristic::new(HeuristicKind::Type3);
        assert_eq!(
            h.decide(FetchPolicy::Icount, &branchy(), None),
            FetchPolicy::BrCount
        );
        assert_eq!(
            h.decide(FetchPolicy::Icount, &memory_bound(), None),
            FetchPolicy::L1MissCount
        );
        assert_eq!(
            h.decide(FetchPolicy::Icount, &quiet(), None),
            FetchPolicy::Icount
        );
        // The paper's worked example: BRCOUNT incumbent + COND_MEM.
        assert_eq!(
            h.decide(FetchPolicy::BrCount, &memory_bound(), None),
            FetchPolicy::L1MissCount
        );
        assert_eq!(
            h.decide(FetchPolicy::BrCount, &quiet(), None),
            FetchPolicy::Icount
        );
        assert_eq!(
            h.decide(FetchPolicy::L1MissCount, &branchy(), None),
            FetchPolicy::BrCount
        );
        assert_eq!(
            h.decide(FetchPolicy::L1MissCount, &quiet(), None),
            FetchPolicy::Icount
        );
    }

    #[test]
    fn type3_prime_respects_positive_gradient() {
        let mut h = Heuristic::new(HeuristicKind::Type3Prime);
        // IPC rising: stay even though COND_BR holds.
        assert_eq!(
            h.decide(FetchPolicy::Icount, &branchy(), Some(0.5)),
            FetchPolicy::Icount
        );
        // IPC falling: switch.
        assert_eq!(
            h.decide(FetchPolicy::Icount, &branchy(), Some(2.0)),
            FetchPolicy::BrCount
        );
    }

    #[test]
    fn type4_inverts_on_bad_history() {
        let mut h = Heuristic::new(HeuristicKind::Type4);
        // Unseen case: poscnt == negcnt == 0 → opposite direction.
        // Regular (Type 3) from ICOUNT under COND_BR is BRCOUNT, so Type 4
        // goes to L1MISSCOUNT (the paper's example, §4.3.2).
        assert_eq!(
            h.decide(FetchPolicy::Icount, &branchy(), None),
            FetchPolicy::L1MissCount
        );
        // Feed positive outcomes for the case until poscnt > negcnt.
        h.feed_outcome(true);
        let mut h2 = h.clone();
        assert_eq!(
            h2.decide(FetchPolicy::Icount, &branchy(), None),
            FetchPolicy::BrCount
        );
    }

    #[test]
    fn type4_outcome_updates_only_pending_case() {
        let mut h = Heuristic::new(HeuristicKind::Type4);
        let _ = h.decide(FetchPolicy::Icount, &branchy(), None);
        h.feed_outcome(false);
        assert_eq!(h.history().case(FetchPolicy::Icount, true).negcnt, 1);
        // No pending case now; another outcome is ignored.
        h.feed_outcome(false);
        assert_eq!(h.history().case(FetchPolicy::Icount, true).negcnt, 1);
    }

    #[test]
    fn type4_cancel_pending_discards_case() {
        let mut h = Heuristic::new(HeuristicKind::Type4);
        let _ = h.decide(FetchPolicy::Icount, &branchy(), None);
        h.cancel_pending();
        h.feed_outcome(true);
        assert!(h.history().is_empty());
    }

    #[test]
    fn explained_pins_papers_brcount_cond_mem_example() {
        // The paper's worked case (Fig 6): BRCOUNT incumbent with COND_MEM
        // firing. Type 3 makes the regular transition to L1MISSCOUNT, and
        // the trace must name exactly the sub-conditions that fired.
        let mut h3 = Heuristic::new(HeuristicKind::Type3);
        let t = h3.decide_explained(FetchPolicy::BrCount, &memory_bound(), None);
        assert_eq!(t.target, FetchPolicy::L1MissCount);
        assert_eq!(t.reason, DecisionReason::Regular);
        assert!(t.incumbent_cond, "BRCOUNT's out-edge checks COND_MEM");
        assert!(t.cond_mem && !t.cond_br);
        assert_eq!(t.fired(), vec!["l1_miss_rate", "lsq_full_rate"]);
        assert!(t.history.is_none(), "Type 3 never reads the buffer");

        // Type 4 on the same evidence with an empty history buffer
        // (poscnt == negcnt == 0) inverts the regular transition:
        // third(BRCOUNT, L1MISSCOUNT) = ICOUNT.
        let mut h4 = Heuristic::new(HeuristicKind::Type4);
        let t = h4.decide_explained(FetchPolicy::BrCount, &memory_bound(), None);
        assert_eq!(t.regular, Some(FetchPolicy::L1MissCount));
        assert_eq!(t.target, FetchPolicy::Icount);
        assert_eq!(t.reason, DecisionReason::HistoryInverted);
        let hist = t.history.expect("Type 4 consulted the buffer");
        assert_eq!((hist.poscnt, hist.negcnt), (0, 0));
        assert!(!hist.prefer_regular);
        assert!(hist.inverted);
    }

    #[test]
    fn explained_reports_gradient_guard_and_fsm_self_loop() {
        let mut h = Heuristic::new(HeuristicKind::Type4);
        let t = h.decide_explained(FetchPolicy::Icount, &branchy(), Some(0.5));
        assert_eq!(t.target, FetchPolicy::Icount);
        assert_eq!(t.reason, DecisionReason::GradientPositive);
        assert!(t.history.is_none());

        let mut h3 = Heuristic::new(HeuristicKind::Type3);
        let t = h3.decide_explained(FetchPolicy::Icount, &quiet(), None);
        assert_eq!(t.target, FetchPolicy::Icount);
        assert_eq!(t.reason, DecisionReason::Stay);
        assert_eq!(t.regular, Some(FetchPolicy::Icount));
        assert!(t.fired().is_empty());
    }

    #[test]
    fn decide_matches_decide_explained_for_all_kinds() {
        for kind in HeuristicKind::ALL {
            for mk in [quiet, memory_bound, branchy] {
                for prev in [None, Some(0.5), Some(2.0)] {
                    for incumbent in [
                        FetchPolicy::Icount,
                        FetchPolicy::BrCount,
                        FetchPolicy::L1MissCount,
                    ] {
                        let mut a = Heuristic::new(kind);
                        let mut b = Heuristic::new(kind);
                        let plain = a.decide(incumbent, &mk(), prev);
                        let explained = b.decide_explained(incumbent, &mk(), prev);
                        assert_eq!(plain, explained.target, "{kind:?} {incumbent:?} {prev:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn costs_are_ordered_by_sophistication() {
        let costs: Vec<u64> = HeuristicKind::ALL
            .iter()
            .map(|k| k.dt_cost_instructions())
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
    }

    #[test]
    fn scaled_thresholds() {
        let t = CondThresholds::paper().scaled(2.0);
        assert_eq!(t.l1_miss_rate, 0.38);
        assert_eq!(t.branch_rate, 0.76);
    }

    #[test]
    fn third_member() {
        assert_eq!(
            third(FetchPolicy::Icount, FetchPolicy::BrCount),
            FetchPolicy::L1MissCount
        );
        assert_eq!(
            third(FetchPolicy::BrCount, FetchPolicy::L1MissCount),
            FetchPolicy::Icount
        );
    }
}
