//! Per-quantum readings of the thread status indicators.
//!
//! The detector thread reads the hardware counters at every quantum
//! boundary and works with *deltas*: committed IPC, miss/branch/stall rates
//! per cycle. [`MachineSnapshot`] captures the cumulative counters;
//! [`QuantumStats::between`] turns two snapshots into the rates the
//! heuristics' conditions are defined over (§4.3 of the paper).

use smt_isa::Tid;
use smt_policies::FetchPolicy;
use smt_sim::SmtMachine;
use smt_stats::QuantumRecord;

/// Cumulative counter values at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSnapshot {
    pub cycle: u64,
    pub committed: u64,
    pub l1d_misses: u64,
    pub l1i_misses: u64,
    pub lsq_full_cycles: u64,
    pub mispredicts: u64,
    pub cond_branches: u64,
    pub fetch_slots_used: u64,
    pub per_thread_committed: Vec<u64>,
    pub per_thread_l1_misses: Vec<u64>,
    pub per_thread_icount: Vec<u64>,
}

impl MachineSnapshot {
    pub fn take(m: &SmtMachine) -> Self {
        let n = m.n_threads();
        let mut l1d = 0;
        let mut l1i = 0;
        let mut mis = 0;
        let mut br = 0;
        let mut per_committed = Vec::with_capacity(n);
        let mut per_miss = Vec::with_capacity(n);
        let mut per_icount = Vec::with_capacity(n);
        for t in Tid::all(n) {
            let c = m.counters(t);
            l1d += c.l1d_misses;
            l1i += c.l1i_misses;
            mis += c.mispredicts;
            br += c.cond_branches;
            per_committed.push(c.committed);
            per_miss.push(c.l1d_misses + c.l1i_misses);
            per_icount.push(c.icount_key());
        }
        let g = m.global();
        MachineSnapshot {
            cycle: m.cycle(),
            committed: g.committed,
            l1d_misses: l1d,
            l1i_misses: l1i,
            lsq_full_cycles: g.lsq_full_cycles,
            mispredicts: mis,
            cond_branches: br,
            fetch_slots_used: g.fetch_slots_used,
            per_thread_committed: per_committed,
            per_thread_l1_misses: per_miss,
            per_thread_icount: per_icount,
        }
    }
}

/// Rates over one quantum — the detector thread's working values.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantumStats {
    pub cycles: u64,
    pub committed: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// L1 misses (I + D) per cycle — COND_MEM input 1.
    pub l1_miss_rate: f64,
    /// Fraction of cycles the LSQ was full — COND_MEM input 2.
    pub lsq_full_rate: f64,
    /// Mispredicts per cycle — COND_BR input 1.
    pub mispredict_rate: f64,
    /// Conditional branches fetched per cycle — COND_BR input 2.
    pub branch_rate: f64,
    /// Unused fetch slots per cycle (the DT's instruction budget).
    pub idle_fetch_rate: f64,
    /// Per-thread committed counts this quantum (clog identification).
    pub per_thread_committed: Vec<u64>,
    /// Per-thread L1 misses this quantum.
    pub per_thread_l1_misses: Vec<u64>,
    /// Per-thread instruction-count gauge at quantum end.
    pub per_thread_icount: Vec<u64>,
}

impl QuantumStats {
    /// Rates between two snapshots (`start` before `end`); `fetch_width`
    /// converts used fetch slots into an idle rate.
    pub fn between(start: &MachineSnapshot, end: &MachineSnapshot, fetch_width: usize) -> Self {
        assert!(end.cycle > start.cycle, "empty quantum");
        let cycles = end.cycle - start.cycle;
        let cf = cycles as f64;
        let committed = end.committed - start.committed;
        let used = (end.fetch_slots_used - start.fetch_slots_used) as f64;
        QuantumStats {
            cycles,
            committed,
            ipc: committed as f64 / cf,
            l1_miss_rate: ((end.l1d_misses - start.l1d_misses)
                + (end.l1i_misses - start.l1i_misses)) as f64
                / cf,
            lsq_full_rate: (end.lsq_full_cycles - start.lsq_full_cycles) as f64 / cf,
            mispredict_rate: (end.mispredicts - start.mispredicts) as f64 / cf,
            branch_rate: (end.cond_branches - start.cond_branches) as f64 / cf,
            idle_fetch_rate: (fetch_width as f64 - used / cf).max(0.0),
            per_thread_committed: end
                .per_thread_committed
                .iter()
                .zip(&start.per_thread_committed)
                .map(|(e, s)| e - s)
                .collect(),
            per_thread_l1_misses: end
                .per_thread_l1_misses
                .iter()
                .zip(&start.per_thread_l1_misses)
                .map(|(e, s)| e - s)
                .collect(),
            per_thread_icount: end.per_thread_icount.clone(),
        }
    }

    /// The quantum's entry in a [`smt_stats::RunSeries`]: its index, the
    /// policy in force at its end, and the aggregate rates.
    pub fn record(&self, index: u64, policy: FetchPolicy) -> QuantumRecord {
        QuantumRecord {
            index,
            policy: policy.name().to_string(),
            cycles: self.cycles,
            committed: self.committed,
            ipc: self.ipc,
            l1_miss_rate: self.l1_miss_rate,
            lsq_full_rate: self.lsq_full_rate,
            mispredict_rate: self.mispredict_rate,
            branch_rate: self.branch_rate,
            idle_fetch_rate: self.idle_fetch_rate,
        }
    }

    /// The thread clogging the pipeline, per the paper's §4 description:
    /// the one holding the most pipeline slots (largest instruction count)
    /// while committing the least. We score by icount-per-committed.
    pub fn clogging_thread(&self) -> Option<Tid> {
        if self.per_thread_icount.is_empty() {
            return None;
        }
        (0..self.per_thread_icount.len())
            .max_by(|&a, &b| {
                let score = |i: usize| {
                    self.per_thread_icount[i] as f64 / (self.per_thread_committed[i] as f64 + 1.0)
                };
                score(a).total_cmp(&score(b))
            })
            .map(|i| Tid(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: u64, committed: u64) -> MachineSnapshot {
        MachineSnapshot {
            cycle,
            committed,
            l1d_misses: committed / 10,
            l1i_misses: 0,
            lsq_full_cycles: cycle / 4,
            mispredicts: committed / 100,
            cond_branches: committed / 8,
            fetch_slots_used: committed * 2,
            per_thread_committed: vec![committed / 2, committed / 2],
            per_thread_l1_misses: vec![committed / 20, committed / 20],
            per_thread_icount: vec![3, 9],
        }
    }

    #[test]
    fn rates_are_per_cycle_deltas() {
        let a = snap(1000, 2000);
        let b = snap(2000, 4000);
        let q = QuantumStats::between(&a, &b, 8);
        assert_eq!(q.cycles, 1000);
        assert_eq!(q.committed, 2000);
        assert!((q.ipc - 2.0).abs() < 1e-12);
        assert!((q.l1_miss_rate - 0.2).abs() < 1e-12);
        assert!((q.lsq_full_rate - 0.25).abs() < 1e-12);
        assert!((q.branch_rate - 0.25).abs() < 1e-12);
        // used slots = 4000 over 1000 cycles -> idle = 8 - 4 = 4.
        assert!((q.idle_fetch_rate - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_quantum_panics() {
        let a = snap(1000, 0);
        let _ = QuantumStats::between(&a, &a, 8);
    }

    #[test]
    fn clogging_thread_prefers_occupier_with_low_commit() {
        let a = snap(0, 0);
        let mut b = snap(1000, 1000);
        b.per_thread_committed = vec![900, 100];
        b.per_thread_icount = vec![4, 30];
        let q = QuantumStats::between(&a, &b, 8);
        assert_eq!(q.clogging_thread(), Some(Tid(1)));
    }

    #[test]
    fn clogging_thread_none_for_empty() {
        let q = QuantumStats {
            cycles: 1,
            committed: 0,
            ipc: 0.0,
            l1_miss_rate: 0.0,
            lsq_full_rate: 0.0,
            mispredict_rate: 0.0,
            branch_rate: 0.0,
            idle_fetch_rate: 0.0,
            per_thread_committed: vec![],
            per_thread_l1_misses: vec![],
            per_thread_icount: vec![],
        };
        assert_eq!(q.clogging_thread(), None);
    }
}
