//! The ten fetch policies of Table 1.
//!
//! A fetch policy maps a thread's [`PolicyView`] to a priority key; the
//! thread selection unit fetches from the threads with the *smallest* keys.
//! The set reproduces Table 1 of the paper: BRCOUNT, L1DMISSCOUNT and RR
//! come from Tullsen et al. \[20\]; LDCOUNT, MEMCOUNT, ACCIPC and STALLCOUNT
//! are the paper's additions; L1MISSCOUNT and L1IMISSCOUNT "were added to
//! have a closer look at the effect of the caches"; ICOUNT is the paper's
//! baseline ("works best on the average").
//!
//! Interpretation notes (the paper gives one-line definitions only):
//!
//! - ICOUNT, BRCOUNT, LDCOUNT, MEMCOUNT use *instantaneous in-flight*
//!   counts, following the precise definitions in \[20\];
//! - the L1*MISSCOUNT family and STALLCOUNT use the machine's decaying
//!   recent-activity counters ("number of total misses for a thread" over
//!   a sliding window — a cumulative count would freeze the ordering);
//! - ACCIPC prioritizes the thread with the *lowest* accumulated IPC
//!   (the fairness reading; the one-line definition "Accumulated IPC for a
//!   thread" admits either direction, and prioritizing starved threads is
//!   the reading consistent with every other policy preferring "fewer").

use serde::{Deserialize, Serialize};
use smt_sim::PolicyView;

/// A fetch policy from Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum FetchPolicy {
    /// Priority to threads with fewer instructions in decode, rename and
    /// the instruction queues (the \[20\] baseline; best on average).
    Icount,
    /// Priority to threads with fewer unresolved conditional branches.
    BrCount,
    /// Priority to threads with fewer in-flight loads.
    LdCount,
    /// Priority to threads with fewer in-flight memory accesses.
    MemCount,
    /// Priority to threads with fewer recent L1 misses (I + D).
    L1MissCount,
    /// Priority to threads with fewer recent L1 I-cache misses.
    L1IMissCount,
    /// Priority to threads with fewer recent L1 D-cache misses.
    L1DMissCount,
    /// Priority to threads with lower accumulated IPC.
    AccIpc,
    /// Priority to threads with fewer recent fetch stalls.
    StallCount,
    /// Round-robin.
    RoundRobin,
}

impl FetchPolicy {
    /// All ten policies, in Table 1 order.
    pub const ALL: [FetchPolicy; 10] = [
        FetchPolicy::Icount,
        FetchPolicy::BrCount,
        FetchPolicy::LdCount,
        FetchPolicy::MemCount,
        FetchPolicy::L1MissCount,
        FetchPolicy::L1IMissCount,
        FetchPolicy::L1DMissCount,
        FetchPolicy::AccIpc,
        FetchPolicy::StallCount,
        FetchPolicy::RoundRobin,
    ];

    /// Canonical short name (as used in the paper's tables and our output).
    pub fn name(self) -> &'static str {
        match self {
            FetchPolicy::Icount => "ICOUNT",
            FetchPolicy::BrCount => "BRCOUNT",
            FetchPolicy::LdCount => "LDCOUNT",
            FetchPolicy::MemCount => "MEMCOUNT",
            FetchPolicy::L1MissCount => "L1MISSCOUNT",
            FetchPolicy::L1IMissCount => "L1IMISSCOUNT",
            FetchPolicy::L1DMissCount => "L1DMISSCOUNT",
            FetchPolicy::AccIpc => "ACCIPC",
            FetchPolicy::StallCount => "STALLCOUNT",
            FetchPolicy::RoundRobin => "RR",
        }
    }

    /// Stable numeric id: the policy's index in [`FetchPolicy::ALL`]
    /// (Table 1 order). Compact enough for trace events that cannot carry
    /// a string (`smt_sim::TraceEvent::PolicySwitch`).
    pub fn id(self) -> u8 {
        FetchPolicy::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every policy is in ALL") as u8
    }

    /// Parse a canonical name (case-insensitive).
    pub fn parse(s: &str) -> Option<FetchPolicy> {
        let up = s.to_ascii_uppercase();
        FetchPolicy::ALL.into_iter().find(|p| p.name() == up)
    }

    /// Priority key for one thread; smaller = fetched first. `cycle` feeds
    /// the round-robin rotation; `n_threads` scales it.
    #[inline]
    pub fn key(self, v: &PolicyView, cycle: u64, n_threads: usize) -> u64 {
        match self {
            FetchPolicy::Icount => v.front_end_occ as u64 + v.iq_occ as u64,
            FetchPolicy::BrCount => v.inflight_branches as u64,
            FetchPolicy::LdCount => v.inflight_loads as u64,
            FetchPolicy::MemCount => v.inflight_mem as u64,
            FetchPolicy::L1MissCount => v.recent_l1d_misses + v.recent_l1i_misses,
            FetchPolicy::L1IMissCount => v.recent_l1i_misses,
            FetchPolicy::L1DMissCount => v.recent_l1d_misses,
            FetchPolicy::AccIpc => v.acc_ipc_milli,
            FetchPolicy::StallCount => v.recent_stalls,
            FetchPolicy::RoundRobin => {
                let n = n_threads.max(1) as u64;
                (v.tid.0 as u64 + n - (cycle % n)) % n
            }
        }
    }
}

impl std::fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::Tid;

    fn view(tid: u8) -> PolicyView {
        PolicyView {
            tid: Tid(tid),
            front_end_occ: 0,
            iq_occ: 0,
            inflight_branches: 0,
            inflight_loads: 0,
            inflight_mem: 0,
            outstanding_dmiss: 0,
            recent_l1d_misses: 0,
            recent_l1i_misses: 0,
            recent_stalls: 0,
            committed: 0,
            acc_ipc_milli: 0,
        }
    }

    #[test]
    fn all_has_ten_distinct_policies() {
        let mut names: Vec<_> = FetchPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn id_is_the_table1_index() {
        for (i, p) in FetchPolicy::ALL.into_iter().enumerate() {
            assert_eq!(p.id() as usize, i);
            assert_eq!(FetchPolicy::ALL[p.id() as usize], p);
        }
    }

    #[test]
    fn parse_roundtrips() {
        for p in FetchPolicy::ALL {
            assert_eq!(FetchPolicy::parse(p.name()), Some(p));
            assert_eq!(FetchPolicy::parse(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(FetchPolicy::parse("NOPE"), None);
    }

    #[test]
    fn icount_prefers_emptier_frontend() {
        let mut a = view(0);
        a.front_end_occ = 5;
        a.iq_occ = 5;
        let mut b = view(1);
        b.front_end_occ = 1;
        b.iq_occ = 2;
        assert!(FetchPolicy::Icount.key(&b, 0, 2) < FetchPolicy::Icount.key(&a, 0, 2));
    }

    #[test]
    fn brcount_prefers_fewer_branches() {
        let mut a = view(0);
        a.inflight_branches = 4;
        let b = view(1);
        assert!(FetchPolicy::BrCount.key(&b, 0, 2) < FetchPolicy::BrCount.key(&a, 0, 2));
    }

    #[test]
    fn misscount_families_read_the_right_counters() {
        let mut v = view(0);
        v.recent_l1d_misses = 3;
        v.recent_l1i_misses = 7;
        assert_eq!(FetchPolicy::L1DMissCount.key(&v, 0, 8), 3);
        assert_eq!(FetchPolicy::L1IMissCount.key(&v, 0, 8), 7);
        assert_eq!(FetchPolicy::L1MissCount.key(&v, 0, 8), 10);
    }

    #[test]
    fn accipc_prefers_starved_thread() {
        let mut fast = view(0);
        fast.acc_ipc_milli = 900;
        let mut slow = view(1);
        slow.acc_ipc_milli = 100;
        assert!(FetchPolicy::AccIpc.key(&slow, 0, 2) < FetchPolicy::AccIpc.key(&fast, 0, 2));
    }

    #[test]
    fn rr_rotates_with_cycle() {
        let a = view(0);
        let b = view(1);
        // cycle 0: thread 0 leads; cycle 1: thread 1 leads.
        assert!(FetchPolicy::RoundRobin.key(&a, 0, 2) < FetchPolicy::RoundRobin.key(&b, 0, 2));
        assert!(FetchPolicy::RoundRobin.key(&b, 1, 2) < FetchPolicy::RoundRobin.key(&a, 1, 2));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(FetchPolicy::Icount.to_string(), "ICOUNT");
        assert_eq!(FetchPolicy::L1DMissCount.to_string(), "L1DMISSCOUNT");
    }
}
