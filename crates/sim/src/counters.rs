//! Per-thread status indicators.
//!
//! These are the hardware counters the paper's detector thread reads
//! ("per-thread status indicators updated by circuitry located throughout
//! the processor pipeline, based upon specific events such as cache miss,
//! pipeline stalls, population at each stage"). Two kinds live here:
//!
//! - **cumulative** event counts (`u64`, monotone): the ADTS layer takes
//!   per-quantum deltas of these to evaluate its COND_MEM / COND_BR
//!   conditions and IPC threshold;
//! - **gauges** (instantaneous occupancies) and **decayed** recent-activity
//!   counters: what the cycle-by-cycle fetch policies sort threads by.
//!
//! The decayed counters are halved every `decay_period` cycles, giving the
//! L1MISSCOUNT-family policies a sliding-window view without per-cycle
//! subtraction hardware — the same trick hardware "leaky bucket" counters
//! use.

use serde::{Deserialize, Serialize};
use smt_isa::Tid;

/// Status indicators for one hardware context.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadCounters {
    // --- cumulative (monotone) ---
    /// Correct-path micro-ops fetched.
    pub fetched: u64,
    /// Wrong-path micro-ops fetched (wasted fetch slots).
    pub wrongpath_fetched: u64,
    /// Micro-ops committed.
    pub committed: u64,
    /// Conditional branches fetched on the correct path.
    pub cond_branches: u64,
    /// Conditional branches resolved (executed, correct path).
    pub branches_resolved: u64,
    /// Mispredictions discovered at resolve.
    pub mispredicts: u64,
    /// Loads issued to the memory system (correct path).
    pub loads: u64,
    /// Stores issued to the memory system (correct path).
    pub stores: u64,
    /// L1 data-cache misses caused by this thread.
    pub l1d_misses: u64,
    /// L1 instruction-cache misses caused by this thread.
    pub l1i_misses: u64,
    /// L2 misses caused by this thread (instruction or data).
    pub l2_misses: u64,
    /// Cycles this thread wanted to fetch but was blocked (stall events).
    pub fetch_stall_cycles: u64,
    /// Cycles this thread observed a full load/store queue at dispatch.
    pub lsq_full_cycles: u64,
    /// Pipeline squashes (mispredict recoveries) this thread suffered.
    pub squashes: u64,
    /// System calls retired.
    pub syscalls: u64,

    // --- gauges (maintained incrementally by the machine) ---
    /// Ops in the front end: fetched but not yet dispatched.
    pub front_end_occ: u32,
    /// Ops waiting in an instruction queue (dispatched, not issued).
    pub iq_occ: u32,
    /// Unresolved branches anywhere in the pipeline.
    pub inflight_branches: u32,
    /// Loads in flight (fetched, not completed).
    pub inflight_loads: u32,
    /// Loads + stores in flight.
    pub inflight_mem: u32,
    /// Issued loads currently waiting on an L1D miss.
    pub outstanding_dmiss: u32,

    // --- decayed recent-activity counters ---
    pub recent_l1d_misses: u64,
    pub recent_l1i_misses: u64,
    pub recent_stalls: u64,
    pub recent_mispredicts: u64,
}

impl ThreadCounters {
    /// Apply the periodic decay (halve every recent counter).
    pub fn decay(&mut self) {
        self.recent_l1d_misses >>= 1;
        self.recent_l1i_misses >>= 1;
        self.recent_stalls >>= 1;
        self.recent_mispredicts >>= 1;
    }

    /// ICOUNT key: instructions in the decode/rename stages and the
    /// instruction queues (lower = higher fetch priority).
    #[inline]
    pub fn icount_key(&self) -> u64 {
        self.front_end_occ as u64 + self.iq_occ as u64
    }

    /// Accumulated IPC in milli-instructions-per-cycle over `cycles`.
    #[inline]
    pub fn acc_ipc_milli(&self, cycles: u64) -> u64 {
        self.committed
            .saturating_mul(1000)
            .checked_div(cycles)
            .unwrap_or_default()
    }
}

/// A compact copy of the policy-relevant counter values for one thread,
/// handed to the fetch chooser each cycle. Copying ~100 bytes per thread per
/// cycle is far cheaper than threading borrows through the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyView {
    pub tid: Tid,
    pub front_end_occ: u32,
    pub iq_occ: u32,
    pub inflight_branches: u32,
    pub inflight_loads: u32,
    pub inflight_mem: u32,
    pub outstanding_dmiss: u32,
    pub recent_l1d_misses: u64,
    pub recent_l1i_misses: u64,
    pub recent_stalls: u64,
    pub committed: u64,
    /// Milli-IPC since thread start.
    pub acc_ipc_milli: u64,
}

impl PolicyView {
    /// Build from counters at a given machine cycle.
    pub fn of(tid: Tid, c: &ThreadCounters, cycle: u64) -> Self {
        PolicyView {
            tid,
            front_end_occ: c.front_end_occ,
            iq_occ: c.iq_occ,
            inflight_branches: c.inflight_branches,
            inflight_loads: c.inflight_loads,
            inflight_mem: c.inflight_mem,
            outstanding_dmiss: c.outstanding_dmiss,
            recent_l1d_misses: c.recent_l1d_misses,
            recent_l1i_misses: c.recent_l1i_misses,
            recent_stalls: c.recent_stalls,
            committed: c.committed,
            acc_ipc_milli: c.acc_ipc_milli(cycle),
        }
    }
}

/// A machine-wide copy of every thread's counters at one instant.
///
/// This is the exportable face of the status-indicator hardware: telemetry
/// and external tooling take two snapshots and [`CounterSnapshot::delta`]
/// them to get per-interval event counts, exactly as the detector thread
/// does internally per quantum.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Machine cycle the snapshot was taken at.
    pub cycle: u64,
    /// One entry per hardware context, indexed by thread id.
    pub threads: Vec<ThreadCounters>,
}

impl CounterSnapshot {
    /// Events between `self` (earlier) and `later`: cumulative counters are
    /// subtracted; gauges and decayed counters keep `later`'s value (they
    /// are instantaneous, a difference would be meaningless).
    pub fn delta(&self, later: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        self.delta_into(later, &mut out);
        out
    }

    /// Write the [`Self::delta`] of `self` and `later` into `out` — the
    /// zero-allocation variant for per-quantum observer loops (`out`'s
    /// thread vector is reused once warm).
    pub fn delta_into(&self, later: &CounterSnapshot, out: &mut CounterSnapshot) {
        assert_eq!(
            self.threads.len(),
            later.threads.len(),
            "snapshots of different machines"
        );
        out.cycle = later.cycle.saturating_sub(self.cycle);
        out.threads.clear();
        out.threads.extend(
            self.threads
                .iter()
                .zip(&later.threads)
                .map(|(a, b)| ThreadCounters {
                    fetched: b.fetched.saturating_sub(a.fetched),
                    wrongpath_fetched: b.wrongpath_fetched.saturating_sub(a.wrongpath_fetched),
                    committed: b.committed.saturating_sub(a.committed),
                    cond_branches: b.cond_branches.saturating_sub(a.cond_branches),
                    branches_resolved: b.branches_resolved.saturating_sub(a.branches_resolved),
                    mispredicts: b.mispredicts.saturating_sub(a.mispredicts),
                    loads: b.loads.saturating_sub(a.loads),
                    stores: b.stores.saturating_sub(a.stores),
                    l1d_misses: b.l1d_misses.saturating_sub(a.l1d_misses),
                    l1i_misses: b.l1i_misses.saturating_sub(a.l1i_misses),
                    l2_misses: b.l2_misses.saturating_sub(a.l2_misses),
                    fetch_stall_cycles: b.fetch_stall_cycles.saturating_sub(a.fetch_stall_cycles),
                    lsq_full_cycles: b.lsq_full_cycles.saturating_sub(a.lsq_full_cycles),
                    squashes: b.squashes.saturating_sub(a.squashes),
                    syscalls: b.syscalls.saturating_sub(a.syscalls),
                    ..b.clone()
                }),
        );
    }

    /// Total committed micro-ops across threads.
    pub fn committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Total L1 (I+D) misses across threads.
    pub fn l1_misses(&self) -> u64 {
        self.threads
            .iter()
            .map(|t| t.l1d_misses + t.l1i_misses)
            .sum()
    }

    /// Total conditional branches fetched across threads.
    pub fn cond_branches(&self) -> u64 {
        self.threads.iter().map(|t| t.cond_branches).sum()
    }

    /// Total mispredictions across threads.
    pub fn mispredicts(&self) -> u64 {
        self.threads.iter().map(|t| t.mispredicts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_subtracts_cumulative_keeps_gauges() {
        let early = CounterSnapshot {
            cycle: 100,
            threads: vec![ThreadCounters {
                committed: 50,
                l1d_misses: 4,
                cond_branches: 10,
                front_end_occ: 2,
                recent_stalls: 8,
                ..Default::default()
            }],
        };
        let late = CounterSnapshot {
            cycle: 300,
            threads: vec![ThreadCounters {
                committed: 150,
                l1d_misses: 9,
                cond_branches: 25,
                front_end_occ: 6,
                recent_stalls: 3,
                ..Default::default()
            }],
        };
        let d = early.delta(&late);
        assert_eq!(d.cycle, 200);
        assert_eq!(d.committed(), 100);
        assert_eq!(d.l1_misses(), 5);
        assert_eq!(d.cond_branches(), 15);
        assert_eq!(d.threads[0].front_end_occ, 6, "gauges take the later value");
        assert_eq!(
            d.threads[0].recent_stalls, 3,
            "decayed counters take the later value"
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = CounterSnapshot {
            cycle: 42,
            threads: vec![ThreadCounters {
                committed: 7,
                iq_occ: 3,
                ..Default::default()
            }],
        };
        let text = serde::json::to_string(&s);
        let back: CounterSnapshot = serde::json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn decay_halves_recent_only() {
        let mut c = ThreadCounters {
            recent_l1d_misses: 9,
            committed: 100,
            ..Default::default()
        };
        c.decay();
        assert_eq!(c.recent_l1d_misses, 4);
        assert_eq!(c.committed, 100, "cumulative counters must not decay");
    }

    #[test]
    fn icount_key_sums_frontend_and_iq() {
        let c = ThreadCounters {
            front_end_occ: 3,
            iq_occ: 5,
            ..Default::default()
        };
        assert_eq!(c.icount_key(), 8);
    }

    #[test]
    fn acc_ipc_handles_zero_cycles() {
        let c = ThreadCounters {
            committed: 10,
            ..Default::default()
        };
        assert_eq!(c.acc_ipc_milli(0), 0);
        assert_eq!(c.acc_ipc_milli(10), 1000);
    }

    #[test]
    fn policy_view_copies_fields() {
        let c = ThreadCounters {
            front_end_occ: 2,
            iq_occ: 7,
            inflight_branches: 1,
            committed: 500,
            ..Default::default()
        };
        let v = PolicyView::of(Tid(3), &c, 1000);
        assert_eq!(v.tid, Tid(3));
        assert_eq!(v.front_end_occ, 2);
        assert_eq!(v.iq_occ, 7);
        assert_eq!(v.acc_ipc_milli, 500);
    }
}
