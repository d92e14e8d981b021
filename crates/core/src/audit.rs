//! The decision-audit trail: *why* ADTS did (or did not) switch policies.
//!
//! The heuristics of §4.3 compress a lot of evidence — four sub-condition
//! rates against their thresholds, the throughput gradient, the Type-4
//! switching-history vote — into a single returned policy. This module
//! keeps the evidence: [`crate::Heuristic::decide_explained`] returns a
//! [`DecisionTrace`] naming every evaluated sub-condition and which of
//! them fired, and the scheduler wraps one [`DecisionRecord`] per quantum
//! (above-threshold quanta included, so the log is gapless) into an
//! [`smt_sim::EventRing`]. Records serialize to canonical JSON for the
//! JSONL exporter and the bench `explain` mode.

use crate::heuristics::{CondThresholds, HeuristicKind};
use crate::indicators::QuantumStats;
use serde::{Serialize, Value};
use smt_policies::FetchPolicy;

/// Why the scheduler ended a quantum with the policy it chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// IPC met the threshold; the heuristic never ran.
    AboveThreshold,
    /// Type 3′/4 gradient guard: IPC was rising, stay put.
    GradientPositive,
    /// The heuristic ran and kept the incumbent (Type 3 FSM self-loop).
    Stay,
    /// Type 1's unconditional ICOUNT ↔ BRCOUNT toggle.
    Toggle,
    /// Type 2's fixed rotation step.
    Rotation,
    /// A regular (Fig 6) condition-directed transition.
    Regular,
    /// Type 4 went the *opposite* direction: poscnt ≤ negcnt for this
    /// (incumbent, condition) case in the switching-history buffer.
    HistoryInverted,
    /// The heuristic wanted a switch but the detector thread could not
    /// execute the decision in its idle-slot budget (the DT model returned
    /// no delay), so the incumbent stayed.
    DtStarved,
}

impl DecisionReason {
    pub fn name(self) -> &'static str {
        match self {
            DecisionReason::AboveThreshold => "above_threshold",
            DecisionReason::GradientPositive => "gradient_positive",
            DecisionReason::Stay => "stay",
            DecisionReason::Toggle => "toggle",
            DecisionReason::Rotation => "rotation",
            DecisionReason::Regular => "regular",
            DecisionReason::HistoryInverted => "history_inverted",
            DecisionReason::DtStarved => "dt_starved",
        }
    }
}

/// One sub-condition rate compared against its threshold bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CondEval {
    /// The `QuantumStats` rate this row evaluates.
    pub metric: &'static str,
    pub rate: f64,
    pub bound: f64,
    pub fired: bool,
}

impl CondEval {
    fn new(metric: &'static str, rate: f64, bound: f64) -> Self {
        CondEval {
            metric,
            rate,
            bound,
            fired: rate > bound,
        }
    }
}

impl Serialize for CondEval {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("metric".into(), self.metric.to_value()),
            ("rate".into(), self.rate.to_value()),
            ("bound".into(), self.bound.to_value()),
            ("fired".into(), self.fired.to_value()),
        ])
    }
}

/// Evaluate all four §4.3.2 sub-conditions (COND_MEM's two rows first,
/// then COND_BR's two) against `t`.
pub fn evaluate_conditions(t: &CondThresholds, q: &QuantumStats) -> [CondEval; 4] {
    [
        CondEval::new("l1_miss_rate", q.l1_miss_rate, t.l1_miss_rate),
        CondEval::new("lsq_full_rate", q.lsq_full_rate, t.lsq_full_rate),
        CondEval::new("mispredict_rate", q.mispredict_rate, t.mispredict_rate),
        CondEval::new("branch_rate", q.branch_rate, t.branch_rate),
    ]
}

/// The Type-4 switching-history vote for the decisive case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryEval {
    pub poscnt: u64,
    pub negcnt: u64,
    /// `poscnt > negcnt` — the paper's rule for a regular transition.
    pub prefer_regular: bool,
    /// The vote sent the switch the opposite way.
    pub inverted: bool,
}

impl Serialize for HistoryEval {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("poscnt".into(), self.poscnt.to_value()),
            ("negcnt".into(), self.negcnt.to_value()),
            ("prefer_regular".into(), self.prefer_regular.to_value()),
            ("inverted".into(), self.inverted.to_value()),
        ])
    }
}

/// Everything one `decide` call looked at, and what it concluded.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionTrace {
    pub kind: HeuristicKind,
    /// All four sub-condition rows (also covers rates the heuristic's
    /// path never consulted — the audit shows the whole dashboard).
    pub conds: [CondEval; 4],
    pub cond_mem: bool,
    pub cond_br: bool,
    /// The condition on the incumbent's out-edge (COND_MEM for BRCOUNT,
    /// COND_BR otherwise) — Type 3/4's decisive input.
    pub incumbent_cond: bool,
    pub gradient_positive: bool,
    /// Type 3's regular verdict, where the path computed one.
    pub regular: Option<FetchPolicy>,
    /// The history vote, when Type 4 consulted the buffer.
    pub history: Option<HistoryEval>,
    pub reason: DecisionReason,
    /// The policy the heuristic chose (the incumbent means "no switch").
    pub target: FetchPolicy,
}

impl DecisionTrace {
    /// Names of the sub-conditions that fired, in dashboard order.
    pub fn fired(&self) -> Vec<&'static str> {
        self.conds
            .iter()
            .filter(|c| c.fired)
            .map(|c| c.metric)
            .collect()
    }
}

impl Serialize for DecisionTrace {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("kind".into(), self.kind.name().to_value()),
            ("conds".into(), self.conds.to_value()),
            ("fired".into(), self.fired().to_value()),
            ("cond_mem".into(), self.cond_mem.to_value()),
            ("cond_br".into(), self.cond_br.to_value()),
            ("incumbent_cond".into(), self.incumbent_cond.to_value()),
            (
                "gradient_positive".into(),
                self.gradient_positive.to_value(),
            ),
            (
                "regular".into(),
                self.regular.map(FetchPolicy::name).to_value(),
            ),
            ("history".into(), self.history.to_value()),
            ("reason".into(), self.reason.name().to_value()),
            ("target".into(), self.target.name().to_value()),
        ])
    }
}

/// One quantum boundary, audited. Above-threshold quanta carry no trace
/// (the heuristic never ran) and the reason [`DecisionReason::AboveThreshold`].
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    pub quantum: u64,
    /// Machine cycle at the boundary where the decision was taken.
    pub cycle: u64,
    pub incumbent: FetchPolicy,
    /// What the heuristic chose — kept even when the DT starved the switch
    /// (`switched` tells whether it will actually land).
    pub chosen: FetchPolicy,
    pub ipc: f64,
    pub threshold: f64,
    pub below_threshold: bool,
    /// A switch toward `chosen` was scheduled for the next quantum.
    pub switched: bool,
    pub reason: DecisionReason,
    pub trace: Option<DecisionTrace>,
}

impl Serialize for DecisionRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("quantum".into(), self.quantum.to_value()),
            ("cycle".into(), self.cycle.to_value()),
            ("incumbent".into(), self.incumbent.name().to_value()),
            ("chosen".into(), self.chosen.name().to_value()),
            ("ipc".into(), self.ipc.to_value()),
            ("threshold".into(), self.threshold.to_value()),
            ("below_threshold".into(), self.below_threshold.to_value()),
            ("switched".into(), self.switched.to_value()),
            ("reason".into(), self.reason.name().to_value()),
            ("trace".into(), self.trace.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::obs::export::jsonl;

    fn stats(miss: f64, lsq: f64, mis: f64, br: f64) -> QuantumStats {
        QuantumStats {
            cycles: 8192,
            committed: 8192,
            ipc: 1.0,
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

    #[test]
    fn cond_evals_mirror_cond_mem_and_cond_br() {
        let t = CondThresholds::default();
        let q = stats(0.9, 0.0, 0.0, 0.4);
        let evals = evaluate_conditions(&t, &q);
        assert_eq!(evals[0].metric, "l1_miss_rate");
        assert!(evals[0].fired);
        assert!(!evals[1].fired);
        assert!(!evals[2].fired);
        assert!(evals[3].fired);
        // Fired rows must reconstruct the aggregate conditions.
        let mem = evals[0].fired || evals[1].fired;
        let br = evals[2].fired || evals[3].fired;
        assert_eq!(mem, t.cond_mem(&q));
        assert_eq!(br, t.cond_br(&q));
    }

    #[test]
    fn reasons_have_stable_names() {
        for (r, n) in [
            (DecisionReason::AboveThreshold, "above_threshold"),
            (DecisionReason::GradientPositive, "gradient_positive"),
            (DecisionReason::Stay, "stay"),
            (DecisionReason::Toggle, "toggle"),
            (DecisionReason::Rotation, "rotation"),
            (DecisionReason::Regular, "regular"),
            (DecisionReason::HistoryInverted, "history_inverted"),
            (DecisionReason::DtStarved, "dt_starved"),
        ] {
            assert_eq!(r.name(), n);
            assert!(!r.name().is_empty());
        }
    }

    /// A below-threshold Type 4 record whose history vote inverted the
    /// switch: every optional part of the record is present.
    fn inverted_record() -> DecisionRecord {
        let t = CondThresholds::default();
        let q = stats(0.9, 0.6, 0.0, 0.1);
        DecisionRecord {
            quantum: 3,
            cycle: 32768,
            incumbent: FetchPolicy::BrCount,
            chosen: FetchPolicy::Icount,
            ipc: 1.25,
            threshold: 2.0,
            below_threshold: true,
            switched: true,
            reason: DecisionReason::HistoryInverted,
            trace: Some(DecisionTrace {
                kind: HeuristicKind::Type4,
                conds: evaluate_conditions(&t, &q),
                cond_mem: true,
                cond_br: false,
                incumbent_cond: true,
                gradient_positive: false,
                regular: Some(FetchPolicy::L1MissCount),
                history: Some(HistoryEval {
                    poscnt: 0,
                    negcnt: 0,
                    prefer_regular: false,
                    inverted: true,
                }),
                reason: DecisionReason::HistoryInverted,
                target: FetchPolicy::Icount,
            }),
        }
    }

    #[test]
    fn decision_jsonl_bytes_are_pinned() {
        let above = DecisionRecord {
            quantum: 0,
            cycle: 8192,
            incumbent: FetchPolicy::Icount,
            chosen: FetchPolicy::Icount,
            ipc: 3.0,
            threshold: 2.0,
            below_threshold: false,
            switched: false,
            reason: DecisionReason::AboveThreshold,
            trace: None,
        };
        // Type 3' held by its gradient guard: a trace with no regular
        // verdict and no history vote.
        let mut guarded = inverted_record();
        guarded.quantum = 4;
        guarded.chosen = FetchPolicy::BrCount;
        guarded.switched = false;
        guarded.reason = DecisionReason::GradientPositive;
        let trace = guarded.trace.as_mut().expect("fixture has a trace");
        trace.kind = HeuristicKind::Type3Prime;
        trace.gradient_positive = true;
        trace.regular = None;
        trace.history = None;
        trace.reason = DecisionReason::GradientPositive;
        trace.target = FetchPolicy::BrCount;
        let conds = concat!(
            r#""conds":[{"metric":"l1_miss_rate","rate":0.9,"bound":0.75,"fired":true},"#,
            r#"{"metric":"lsq_full_rate","rate":0.6,"bound":0.17,"fired":true},"#,
            r#"{"metric":"mispredict_rate","rate":0.0,"bound":0.066,"fired":false},"#,
            r#"{"metric":"branch_rate","rate":0.1,"bound":0.25,"fired":false}],"#,
            r#""fired":["l1_miss_rate","lsq_full_rate"],"cond_mem":true,"cond_br":false,"#,
            r#""incumbent_cond":true,"#,
        );
        let expected = [
            r#"{"quantum":0,"cycle":8192,"incumbent":"ICOUNT","chosen":"ICOUNT","ipc":3.0,"threshold":2.0,"below_threshold":false,"switched":false,"reason":"above_threshold","trace":null}"#.to_string(),
            format!(
                "{}{conds}{}",
                r#"{"quantum":3,"cycle":32768,"incumbent":"BRCOUNT","chosen":"ICOUNT","ipc":1.25,"threshold":2.0,"below_threshold":true,"switched":true,"reason":"history_inverted","trace":{"kind":"Type 4","#,
                r#""gradient_positive":false,"regular":"L1MISSCOUNT","history":{"poscnt":0,"negcnt":0,"prefer_regular":false,"inverted":true},"reason":"history_inverted","target":"ICOUNT"}}"#,
            ),
            format!(
                "{}{conds}{}",
                r#"{"quantum":4,"cycle":32768,"incumbent":"BRCOUNT","chosen":"BRCOUNT","ipc":1.25,"threshold":2.0,"below_threshold":true,"switched":false,"reason":"gradient_positive","trace":{"kind":"Type 3'","#,
                r#""gradient_positive":true,"regular":null,"history":null,"reason":"gradient_positive","target":"BRCOUNT"}}"#,
            ),
        ];
        let text = jsonl([&above, &inverted_record(), &guarded]);
        assert_eq!(text, expected.map(|line| line + "\n").concat());
        for line in text.lines() {
            let _: Value = serde::json::from_str(line).expect("each line is JSON");
        }
    }

    #[test]
    fn jsonl_emits_one_line_per_record() {
        let rec = DecisionRecord {
            quantum: 0,
            cycle: 8192,
            incumbent: FetchPolicy::Icount,
            chosen: FetchPolicy::Icount,
            ipc: 3.0,
            threshold: 2.0,
            below_threshold: false,
            switched: false,
            reason: DecisionReason::AboveThreshold,
            trace: None,
        };
        let text = jsonl([&rec, &rec]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v: Value = serde::json::from_str(line).expect("parses");
            assert_eq!(v.get("trace"), Some(&Value::Null));
        }
    }
}
