//! The thread selection unit (TSU).
//!
//! "The thread selection unit simply issues instructions from threads in
//! their order of priority" (§3). [`Tsu`] is the [`FetchChooser`] the
//! machine consults each cycle: it sorts the fetchable threads by the
//! active policy's key (ties broken by a rotating offset so equal-key
//! threads share the bandwidth), and the machine fetches from the leading
//! two (ICOUNT2.8-style).
//!
//! The active policy is a plain field: the ADTS layer switches it between
//! scheduling quanta by assignment, mirroring the paper's `Policy_Switch()`.

use crate::policy::FetchPolicy;
use smt_isa::MAX_HW_CONTEXTS;
use smt_sim::{FetchChooser, PolicyView};

/// Policy-driven thread selection unit.
///
/// ```
/// use smt_policies::{FetchPolicy, Tsu};
/// use smt_sim::{SmtMachine, SimConfig};
/// use smt_workloads::mix;
///
/// let m = mix(1).take_threads(2, 7);
/// let mut machine = SmtMachine::new(SimConfig::with_threads(2), m.streams(42));
/// let mut tsu = Tsu::new(FetchPolicy::Icount, 2);
/// machine.run(5_000, &mut tsu);
/// assert!(machine.total_committed() > 0);
/// tsu.set_policy(FetchPolicy::BrCount); // a detector-thread switch
/// machine.run(5_000, &mut tsu);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tsu {
    /// The policy in force ("the incumbent policy").
    pub policy: FetchPolicy,
    n_threads: usize,
}

impl Tsu {
    pub fn new(policy: FetchPolicy, n_threads: usize) -> Self {
        assert!(n_threads >= 1);
        Tsu { policy, n_threads }
    }

    /// Switch the active fetch policy (takes effect next cycle).
    pub fn set_policy(&mut self, policy: FetchPolicy) {
        self.policy = policy;
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }
}

impl FetchChooser for Tsu {
    /// Sort `views` by `(policy key, tiebreak)`, ascending and stable.
    ///
    /// The tiebreak rotates: it is `(tid - cycle) mod n_threads`, so
    /// threads with equal keys alternate leading and a fixed tid order
    /// cannot starve the high-numbered threads. Each view's rank is
    /// computed once (not once per comparison), and for the tids below
    /// `n_threads` the tiebreak needs no division (nor does the rotation
    /// phase, for a power-of-two `n_threads`). A machine offers at
    /// most [`MAX_HW_CONTEXTS`] views, which are insertion-sorted on the
    /// stack; a longer list falls back to a slice sort.
    fn prioritize(&mut self, cycle: u64, views: &mut Vec<PolicyView>) {
        if views.len() < 2 {
            return;
        }
        let n = self.n_threads.max(1) as u64;
        let policy = self.policy;
        let phase = if n.is_power_of_two() {
            cycle & (n - 1)
        } else {
            cycle % n
        };
        let rank = |v: &PolicyView| {
            let key = policy.key(v, cycle, self.n_threads);
            let tid = v.tid.0 as u64;
            let tie = if tid >= n {
                (tid + n - phase) % n
            } else if tid >= phase {
                tid - phase
            } else {
                tid + n - phase
            };
            (key, tie)
        };
        if views.len() > MAX_HW_CONTEXTS {
            views.sort_by_key(rank);
            return;
        }
        let mut ranks = [(0u64, 0u64); MAX_HW_CONTEXTS];
        for (r, v) in ranks.iter_mut().zip(views.iter()) {
            *r = rank(v);
        }
        for i in 1..views.len() {
            let mut j = i;
            while j > 0 && ranks[j - 1] > ranks[j] {
                ranks.swap(j - 1, j);
                views.swap(j - 1, j);
                j -= 1;
            }
        }
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
    fn sorts_by_policy_key() {
        let mut tsu = Tsu::new(FetchPolicy::Icount, 3);
        let mut views = vec![view(0), view(1), view(2)];
        views[0].iq_occ = 9;
        views[1].iq_occ = 1;
        views[2].iq_occ = 5;
        tsu.prioritize(0, &mut views);
        let order: Vec<u8> = views.iter().map(|v| v.tid.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_keys_rotate_leadership() {
        let mut tsu = Tsu::new(FetchPolicy::BrCount, 4);
        let mut leaders = std::collections::HashSet::new();
        for cycle in 0..4 {
            let mut views = vec![view(0), view(1), view(2), view(3)];
            tsu.prioritize(cycle, &mut views);
            leaders.insert(views[0].tid.0);
        }
        assert_eq!(leaders.len(), 4, "equal-key threads must share leadership");
    }

    #[test]
    fn set_policy_changes_ordering() {
        let mut tsu = Tsu::new(FetchPolicy::Icount, 2);
        let mut views = vec![view(0), view(1)];
        views[0].iq_occ = 9; // bad for ICOUNT
        views[1].inflight_branches = 9; // bad for BRCOUNT
        tsu.prioritize(0, &mut views);
        assert_eq!(views[0].tid, Tid(1));
        tsu.set_policy(FetchPolicy::BrCount);
        tsu.prioritize(0, &mut views);
        assert_eq!(views[0].tid, Tid(0));
    }

    #[test]
    fn ranking_matches_a_stable_sort_by_key_and_rotating_tie() {
        // The reference: the stable sort on (key, (tid + n - cycle % n) % n)
        // every rank computation must reproduce, over every policy, random
        // counters, candidate subsets and tids at or above n_threads.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for case in 0..2_000u64 {
            let n_threads = 1 + (next() % 8) as usize;
            let policy = FetchPolicy::ALL[(next() % 10) as usize];
            let cycle = next() % 10_000;
            let n_views = (next() % 11) as usize;
            let mut views: Vec<PolicyView> = (0..n_views)
                .map(|_| {
                    let mut v = view((next() % 9) as u8);
                    v.iq_occ = (next() % 3) as u32;
                    v.inflight_branches = (next() % 3) as u32;
                    v.recent_stalls = next() % 3;
                    v
                })
                .collect();
            let mut want = views.clone();
            let n = n_threads as u64;
            want.sort_by_key(|v| {
                let key = policy.key(v, cycle, n_threads);
                (key, (v.tid.0 as u64 + n - (cycle % n)) % n)
            });
            Tsu::new(policy, n_threads).prioritize(cycle, &mut views);
            assert_eq!(
                views, want,
                "case {case}: {policy} n={n_threads} cycle {cycle}"
            );
        }
    }

    #[test]
    fn tsu_is_copy_for_oracle_cloning() {
        let tsu = Tsu::new(FetchPolicy::Icount, 8);
        let copy = tsu;
        assert_eq!(copy, tsu);
    }
}
