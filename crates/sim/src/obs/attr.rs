//! Slot-accounting attribution: per-thread CPI stacks.
//!
//! Every cycle the machine owns `fetch_width` fetch slots, `issue_width`
//! issue slots and `commit_width` commit slots. This module classifies
//! where each of them went — used, or lost to a specific structural cause
//! — into a per-thread [`SlotStack`]. Summed over a quantum, the stacks
//! are the classic CPI-stack decomposition ("where did the IPC go?") the
//! dynamic-policy literature uses to explain per-thread interference, and
//! the raw material for the bench layer's `explain` mode.
//!
//! Attribution is **conserving by construction**: per cycle and stage the
//! categories sum exactly to the stage width (pinned by a `debug_assert`
//! in every machine hook and by `tests/proptest_attr.rs`). "Used" slots
//! are derived from deltas of the existing committed/fetched/`iq_occ`
//! counters across the stage, so the hot per-op loops are untouched; lost
//! slots are distributed deterministically (round-robin from the stage's
//! own starting thread, or in queue age order) and blamed on each
//! thread's own blocking condition.
//!
//! Like event tracing, the whole layer sits behind the `const TRACE`
//! monomorphization of `SmtMachine::step_impl`: with attribution off the
//! hooks are compiled out and the machine stays byte-identical to the
//! golden fixtures (`tests/obs_differential.rs`, `tests/golden_trace.rs`).

use crate::obs::metrics::MetricsRegistry;
use serde::{Serialize, Value};

/// Where one fetch slot went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchCause {
    /// Slot fetched a micro-op (correct or wrong path).
    Used,
    /// Thread stalled on an L1I (or deeper) miss.
    L1iMiss,
    /// Thread stalled redirecting after a squash.
    Redirect,
    /// Per-thread fetch buffer full (decode backlog).
    FrontEndFull,
    /// Per-thread reorder window full.
    RobFull,
    /// Thread was fetchable but the policy gave it no slots, or ADTS
    /// disabled its fetch, or a taken branch / line boundary ended the
    /// thread's fetch run early.
    PolicyStarved,
    /// Machine-wide syscall drain suppressed fetch entirely.
    Drain,
    /// Thread is serving the cold-frontend penalty of a cross-core
    /// migration (see `MultiCoreMachine::apply_placement`).
    Migration,
}

impl FetchCause {
    pub const COUNT: usize = 8;
    pub const ALL: [FetchCause; FetchCause::COUNT] = [
        FetchCause::Used,
        FetchCause::L1iMiss,
        FetchCause::Redirect,
        FetchCause::FrontEndFull,
        FetchCause::RobFull,
        FetchCause::PolicyStarved,
        FetchCause::Drain,
        FetchCause::Migration,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FetchCause::Used => "used",
            FetchCause::L1iMiss => "l1i_miss",
            FetchCause::Redirect => "redirect",
            FetchCause::FrontEndFull => "front_end_full",
            FetchCause::RobFull => "rob_full",
            FetchCause::PolicyStarved => "policy_starved",
            FetchCause::Drain => "drain",
            FetchCause::Migration => "migration",
        }
    }
}

/// Where one issue slot went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueCause {
    /// Slot issued a micro-op to a functional unit.
    Used,
    /// Nothing left in either instruction queue to blame.
    IqEmpty,
    /// A queue entry was ready for a unit but its producers had not
    /// completed (the paper's "IQ clog" signature).
    DepsNotReady,
    /// A dep-ready queue entry found no free unit / port / divider, or no
    /// remaining issue bandwidth.
    FuBusy,
    /// Machine-wide syscall drain: queues intentionally empty.
    Drain,
}

impl IssueCause {
    pub const COUNT: usize = 5;
    pub const ALL: [IssueCause; IssueCause::COUNT] = [
        IssueCause::Used,
        IssueCause::IqEmpty,
        IssueCause::DepsNotReady,
        IssueCause::FuBusy,
        IssueCause::Drain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IssueCause::Used => "used",
            IssueCause::IqEmpty => "iq_empty",
            IssueCause::DepsNotReady => "deps_not_ready",
            IssueCause::FuBusy => "fu_busy",
            IssueCause::Drain => "drain",
        }
    }
}

/// Where one commit slot went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitCause {
    /// Slot retired a micro-op.
    Used,
    /// Head of the window is a load still waiting on an L1D/L2 miss.
    DataMiss,
    /// Head of the window exists but has not completed (execution
    /// latency, dependence chain, or still in the front end).
    NotReady,
    /// Window empty while the thread redirects after a squash.
    SquashDrain,
    /// Window empty for any other reason (fetch-side starvation).
    Empty,
}

impl CommitCause {
    pub const COUNT: usize = 5;
    pub const ALL: [CommitCause; CommitCause::COUNT] = [
        CommitCause::Used,
        CommitCause::DataMiss,
        CommitCause::NotReady,
        CommitCause::SquashDrain,
        CommitCause::Empty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CommitCause::Used => "used",
            CommitCause::DataMiss => "data_miss",
            CommitCause::NotReady => "not_ready",
            CommitCause::SquashDrain => "squash_drain",
            CommitCause::Empty => "empty",
        }
    }
}

/// Per-thread slot counts by cause, one array per stage.
///
/// No serde derives: the vendored `serde` cannot deserialize fixed-size
/// arrays, so JSON export goes through a hand-written [`Serialize`] that
/// names every cause (`{"fetch": {"used": ..}, ..}`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotStack {
    pub fetch: [u64; FetchCause::COUNT],
    pub issue: [u64; IssueCause::COUNT],
    pub commit: [u64; CommitCause::COUNT],
}

impl SlotStack {
    pub fn fetch_count(&self, c: FetchCause) -> u64 {
        self.fetch[c as usize]
    }

    pub fn issue_count(&self, c: IssueCause) -> u64 {
        self.issue[c as usize]
    }

    pub fn commit_count(&self, c: CommitCause) -> u64 {
        self.commit[c as usize]
    }

    /// All fetch slots accounted (== cycles × fetch_width for a full run).
    pub fn fetch_total(&self) -> u64 {
        self.fetch.iter().sum()
    }

    pub fn issue_total(&self) -> u64 {
        self.issue.iter().sum()
    }

    pub fn commit_total(&self) -> u64 {
        self.commit.iter().sum()
    }

    /// Counts accumulated since `earlier` (a snapshot of the same thread).
    pub fn minus(&self, earlier: &SlotStack) -> SlotStack {
        let mut out = SlotStack::default();
        for (o, (a, b)) in out
            .fetch
            .iter_mut()
            .zip(self.fetch.iter().zip(&earlier.fetch))
        {
            *o = a - b;
        }
        for (o, (a, b)) in out
            .issue
            .iter_mut()
            .zip(self.issue.iter().zip(&earlier.issue))
        {
            *o = a - b;
        }
        for (o, (a, b)) in out
            .commit
            .iter_mut()
            .zip(self.commit.iter().zip(&earlier.commit))
        {
            *o = a - b;
        }
        out
    }
}

impl Serialize for SlotStack {
    fn to_value(&self) -> Value {
        let fetch = FetchCause::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Value::UInt(self.fetch_count(c))))
            .collect();
        let issue = IssueCause::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Value::UInt(self.issue_count(c))))
            .collect();
        let commit = CommitCause::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Value::UInt(self.commit_count(c))))
            .collect();
        Value::Map(vec![
            ("fetch".to_string(), Value::Map(fetch)),
            ("issue".to_string(), Value::Map(issue)),
            ("commit".to_string(), Value::Map(commit)),
        ])
    }
}

/// All threads' stacks plus the cycle count they cover, cheap to clone —
/// what the bench layer diffs per quantum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttrSnapshot {
    /// Cycles attributed (each contributing one full width per stage).
    pub cycles: u64,
    /// One stack per hardware context, indexed by thread id.
    pub threads: Vec<SlotStack>,
}

impl AttrSnapshot {
    /// Slots accumulated between `earlier` and `self`.
    pub fn delta(&self, earlier: &AttrSnapshot) -> AttrSnapshot {
        assert_eq!(
            self.threads.len(),
            earlier.threads.len(),
            "snapshots of different machines"
        );
        AttrSnapshot {
            cycles: self.cycles - earlier.cycles,
            threads: self
                .threads
                .iter()
                .zip(&earlier.threads)
                .map(|(a, b)| a.minus(b))
                .collect(),
        }
    }
}

impl Serialize for AttrSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cycles".to_string(), self.cycles.to_value()),
            ("threads".to_string(), self.threads.to_value()),
        ])
    }
}

/// Merge per-core attribution snapshots of one lockstep
/// `MultiCoreMachine` run into a single machine-wide snapshot.
///
/// The cores step in lockstep, so every snapshot must cover the same
/// cycle count; the merged snapshot keeps that shared `cycles` and
/// concatenates the per-core thread stacks in core order (core 0's
/// contexts first). Conservation therefore extends across cores: the
/// merged per-stage total is `cycles × width × n_cores`
/// (`tests/proptest_multicore_attr.rs`), with migration cost visible in
/// the `migration` fetch category of the migrated contexts.
///
/// # Panics
/// Panics on an empty slice or on snapshots with differing cycle counts.
pub fn merge_attr_snapshots(per_core: &[AttrSnapshot]) -> AttrSnapshot {
    assert!(!per_core.is_empty(), "need at least one core snapshot");
    let cycles = per_core[0].cycles;
    let mut threads = Vec::new();
    for snap in per_core {
        assert_eq!(
            snap.cycles, cycles,
            "lockstep cores must attribute the same cycle count"
        );
        threads.extend(snap.threads.iter().cloned());
    }
    AttrSnapshot { cycles, threads }
}

/// Live attribution state owned by the machine while enabled.
///
/// `stacks` accumulate monotonically; the `base_*` vectors are per-cycle
/// scratch recording each thread's cumulative counters at a stage
/// boundary, so "used" slots fall out as deltas without instrumenting the
/// per-op hot loops.
#[derive(Clone, Debug, Default)]
pub struct SlotAttribution {
    pub(crate) stacks: Vec<SlotStack>,
    pub(crate) cycles: u64,
    /// `fetched + wrongpath_fetched` per thread at cycle start.
    pub(crate) base_fetch: Vec<u64>,
    /// `committed` per thread at cycle start.
    pub(crate) base_commit: Vec<u64>,
    /// `iq_occ` per thread at the start of the issue stage.
    pub(crate) base_iq: Vec<u32>,
}

impl SlotAttribution {
    pub fn new(n_threads: usize) -> Self {
        SlotAttribution {
            stacks: vec![SlotStack::default(); n_threads],
            cycles: 0,
            base_fetch: vec![0; n_threads],
            base_commit: vec![0; n_threads],
            base_iq: vec![0; n_threads],
        }
    }

    /// Cycles attributed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cumulative stack for one thread.
    pub fn thread(&self, t: usize) -> &SlotStack {
        &self.stacks[t]
    }

    /// Cumulative stacks, indexed by thread id.
    pub fn stacks(&self) -> &[SlotStack] {
        &self.stacks
    }

    /// Copy out the current totals.
    pub fn snapshot(&self) -> AttrSnapshot {
        AttrSnapshot {
            cycles: self.cycles,
            threads: self.stacks.clone(),
        }
    }
}

/// Register every slot-stack count as a `slot_<stage>_<cause>_t<tid>`
/// counter, for Prometheus export alongside the sampler's metrics.
pub fn register_attr_metrics(reg: &mut MetricsRegistry, snap: &AttrSnapshot) {
    for (t, stack) in snap.threads.iter().enumerate() {
        for c in FetchCause::ALL {
            let id = reg.counter(&format!("slot_fetch_{}_t{t}", c.name()));
            reg.inc(id, stack.fetch_count(c));
        }
        for c in IssueCause::ALL {
            let id = reg.counter(&format!("slot_issue_{}_t{t}", c.name()));
            reg.inc(id, stack.issue_count(c));
        }
        for c in CommitCause::ALL {
            let id = reg.counter(&format!("slot_commit_{}_t{t}", c.name()));
            reg.inc(id, stack.commit_count(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(seed: u64) -> SlotStack {
        let mut s = SlotStack::default();
        for (i, v) in s.fetch.iter_mut().enumerate() {
            *v = seed + i as u64;
        }
        for (i, v) in s.issue.iter_mut().enumerate() {
            *v = 2 * seed + i as u64;
        }
        for (i, v) in s.commit.iter_mut().enumerate() {
            *v = 3 * seed + i as u64;
        }
        s
    }

    #[test]
    fn minus_subtracts_per_category() {
        let a = stack(10);
        let b = stack(4);
        let d = a.minus(&b);
        assert_eq!(d.fetch_count(FetchCause::Used), 6);
        assert_eq!(d.issue_count(IssueCause::Drain), 12);
        assert_eq!(d.commit_count(CommitCause::Empty), 18);
    }

    #[test]
    fn totals_sum_all_categories() {
        // stack(1) fills each stage with seed + index, so the totals are
        // arithmetic series over the stage's category count.
        let s = stack(1);
        assert_eq!(s.fetch_total(), (1..=FetchCause::COUNT as u64).sum::<u64>());
        assert_eq!(s.issue_total(), (2..=6).sum::<u64>());
        assert_eq!(s.commit_total(), (3..=7).sum::<u64>());
    }

    #[test]
    fn snapshot_delta_subtracts_cycles_and_threads() {
        let early = AttrSnapshot {
            cycles: 100,
            threads: vec![stack(1), stack(2)],
        };
        let late = AttrSnapshot {
            cycles: 250,
            threads: vec![stack(5), stack(9)],
        };
        let d = late.delta(&early);
        assert_eq!(d.cycles, 150);
        assert_eq!(d.threads[0].fetch_count(FetchCause::Used), 4);
        assert_eq!(d.threads[1].commit_count(CommitCause::Used), 21);
    }

    #[test]
    fn to_value_names_every_category() {
        let snap = AttrSnapshot {
            cycles: 7,
            threads: vec![stack(1)],
        };
        let v = snap.to_value();
        assert_eq!(v.get("cycles"), Some(&Value::UInt(7)));
        let Some(Value::Seq(threads)) = v.get("threads") else {
            panic!("threads must be a sequence");
        };
        let fetch = threads[0].get("fetch").expect("fetch map");
        assert_eq!(fetch.get("l1i_miss"), Some(&Value::UInt(2)));
        let text = serde::json::to_string(&snap);
        assert!(text.contains("\"deps_not_ready\""), "{text}");
    }

    #[test]
    fn merge_concatenates_thread_stacks_in_core_order() {
        let core0 = AttrSnapshot {
            cycles: 64,
            threads: vec![stack(1), stack(2)],
        };
        let core1 = AttrSnapshot {
            cycles: 64,
            threads: vec![stack(7)],
        };
        let merged = merge_attr_snapshots(&[core0.clone(), core1.clone()]);
        assert_eq!(merged.cycles, 64);
        assert_eq!(merged.threads.len(), 3);
        assert_eq!(merged.threads[0], core0.threads[0]);
        assert_eq!(merged.threads[2], core1.threads[0]);
        let per_core_total =
            |s: &AttrSnapshot| -> u64 { s.threads.iter().map(|t| t.fetch_total()).sum() };
        assert_eq!(
            merged.threads.iter().map(|t| t.fetch_total()).sum::<u64>(),
            per_core_total(&core0) + per_core_total(&core1)
        );
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_cycle_counts() {
        let a = AttrSnapshot {
            cycles: 10,
            threads: vec![stack(0)],
        };
        let b = AttrSnapshot {
            cycles: 11,
            threads: vec![stack(0)],
        };
        let _ = merge_attr_snapshots(&[a, b]);
    }

    #[test]
    fn metrics_registration_covers_all_causes() {
        let mut reg = MetricsRegistry::new();
        let snap = AttrSnapshot {
            cycles: 1,
            threads: vec![stack(0), stack(1)],
        };
        register_attr_metrics(&mut reg, &snap);
        let expected = 2 * (FetchCause::COUNT + IssueCause::COUNT + CommitCause::COUNT);
        assert_eq!(reg.counters().count(), expected);
        let id = reg.counter("slot_commit_data_miss_t1");
        assert_eq!(reg.counter_value(id), 3 + 1);
    }
}
