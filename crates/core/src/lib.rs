//! # adts-core
//!
//! Adaptive Dynamic Thread Scheduling (ADTS) — the primary contribution of
//! *Dynamic Scheduling Issues in SMT Architectures* (Shin, Lee, Gaudiot,
//! IPDPS 2003), reimplemented on the `smt-sim` machine model.
//!
//! A low-priority, programmable **detector thread** watches per-thread
//! hardware status indicators and, every 8 K-cycle scheduling quantum,
//! checks whether committed IPC fell below a threshold *m*. If so, one of
//! five **heuristics** (Type 1 … Type 4) chooses the fetch policy for the
//! next quantum, and the thread-selection unit is switched accordingly.
//!
//! Crate layout mirrors the paper's software architecture (Fig 2/3):
//!
//! - [`indicators`] — reading the per-thread status counters per quantum;
//! - [`heuristics`] — `Determine_NewPolicy()`: the Type 1–4 policies with
//!   the COND_MEM / COND_BR conditions;
//! - [`history`] — Type 4's switching-history buffer (poscnt/negcnt);
//! - [`audit`] — the decision-audit trail: a per-quantum
//!   [`DecisionRecord`] explaining every switch and non-switch;
//! - [`detector`] — the DT cycle-budget model (decisions execute in idle
//!   fetch slots; `Free` reproduces the paper's functional model);
//! - [`adaptive`] — the quantum loop: threshold check, clog
//!   identification, `Policy_Switch()`, switch-quality accounting;
//! - [`threshold`] — fixed and self-tuning IPC thresholds (§4.2 notes the
//!   threshold "may also be chosen to be updated by the detector thread");
//! - [`jobsched`] — the job-scheduler integration the paper describes in
//!   §3/§7 (context-switching clog-marked threads) but does not evaluate;
//! - [`oracle`] — the per-quantum exhaustive upper bound;
//! - [`lockstep`] — [`PointCell`], one fixed or adaptive quantum as a
//!   lockstep cell: the only code that runs and records one;
//! - [`runner`] — fixed/adaptive drivers, each stepping one `PointCell`.

pub mod adaptive;
pub mod alloc;
pub mod audit;
pub mod detector;
pub mod heuristics;
pub mod history;
pub mod indicators;
pub mod jobsched;
pub mod lockstep;
pub mod obs;
pub mod oracle;
pub mod runner;
pub mod threshold;

pub use adaptive::{AdaptiveScheduler, AdtsConfig, BoundaryActions, QuantumPlan};
pub use alloc::{
    multicore_for_mix, run_adaptive_multicore, run_alloc, AllocCell, AllocDecisionRecord,
    AllocKind, AllocReason, AllocThreadRow, AllocView, AllocationPolicy,
};
pub use audit::{
    evaluate_conditions, CondEval, DecisionReason, DecisionRecord, DecisionTrace, HistoryEval,
};
pub use detector::DtModel;
pub use heuristics::{CondThresholds, Heuristic, HeuristicKind};
pub use history::{CaseCounters, SwitchHistory};
pub use indicators::{MachineSnapshot, QuantumStats};
pub use jobsched::{EvictionPolicy, JobSchedConfig, JobSchedOutcome, JobScheduler};
pub use lockstep::{FixedCell, PointCell};
pub use obs::register_series_metrics;
pub use oracle::{run_oracle, OracleConfig};
pub use runner::{
    machine_for_mix, machine_for_mix_with, run_adaptive, run_fixed, run_fixed_sampled,
};
pub use threshold::ThresholdMode;
