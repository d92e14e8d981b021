//! Sampled host-time profile of the stepped cycle, stage by stage.
//!
//! [`SmtMachine::enable_profile`](crate::SmtMachine::enable_profile)
//! switches stepping to the `PROFILE` monomorphization of
//! `SmtMachine::step_impl`, built the same way as the `TRACE` one. It
//! reads the clock in one cycle out of [`PROFILE_PERIOD`]: around each of
//! the five stages, and around each correct-path micro-op generation
//! inside fetch. Every other cycle only counts. A machine without a
//! profile steps the bare monomorphization, which reads no clock.
//! Profiling never changes what the machine simulates.
//!
//! A clock read costs tens of nanoseconds, a sizable part of a
//! low-occupancy cycle, and each reading holds about one read's cost.
//! [`StageProfile::calibrated`] measures that cost once, and every reading
//! is recorded net of it, so the scaled stage times estimate the
//! unprofiled cycle rather than the profiled one.

use serde::Serialize;
use std::time::Instant;

/// One cycle in this many is timed: those whose number is a multiple of
/// it.
pub const PROFILE_PERIOD: u64 = 64;

/// Host wall time of the sampled cycles, stage by stage, with the count of
/// cycles it samples from. [`export::jsonl`](crate::obs::export::jsonl)
/// writes it as one record.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StageProfile {
    /// The calibrated cost of one clock read, taken off every reading.
    pub clock_ns: u64,
    /// Cycles stepped with the profile on.
    pub cycles: u64,
    /// Of those, the cycles timed.
    pub sampled: u64,
    /// Nanoseconds the timed cycles spent in each stage, in step order.
    pub complete_ns: u64,
    pub commit_ns: u64,
    pub issue_ns: u64,
    pub dispatch_ns: u64,
    pub fetch_ns: u64,
    /// Nanoseconds of `fetch_ns` spent generating correct-path micro-ops.
    pub uop_gen_ns: u64,
    /// Correct-path micro-ops generated in the timed cycles.
    pub uops: u64,
}

impl StageProfile {
    /// An empty profile whose [`clock_ns`](Self::clock_ns) is the median
    /// gap between back-to-back clock reads on this host.
    pub fn calibrated() -> Self {
        let mut gaps = [0u64; 255];
        let mut last = Instant::now();
        for gap in &mut gaps {
            let now = Instant::now();
            *gap = now.duration_since(last).as_nanos() as u64;
            last = now;
        }
        gaps.sort_unstable();
        StageProfile {
            clock_ns: gaps[gaps.len() / 2],
            ..Default::default()
        }
    }

    /// Each stage's timed nanoseconds, in step order: complete, commit,
    /// issue, dispatch, fetch.
    pub fn stage_ns(&self) -> [u64; 5] {
        [
            self.complete_ns,
            self.commit_ns,
            self.issue_ns,
            self.dispatch_ns,
            self.fetch_ns,
        ]
    }

    /// Scale a timed reading up to every profiled cycle.
    fn scaled(&self, ns: u64) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            ns as f64 * self.cycles as f64 / self.sampled as f64
        }
    }

    /// Each stage's estimated share of `wall_ns`, the host time the
    /// profiled cycles took to step: its timed nanoseconds scaled by
    /// `cycles / sampled`. In step order, as [`Self::stage_ns`].
    pub fn shares(&self, wall_ns: u64) -> [f64; 5] {
        self.stage_ns()
            .map(|ns| self.scaled(ns) / wall_ns.max(1) as f64)
    }

    /// Correct-path micro-op generation's estimated share of `wall_ns`.
    pub fn uop_gen_share(&self, wall_ns: u64) -> f64 {
        self.scaled(self.uop_gen_ns) / wall_ns.max(1) as f64
    }

    /// Mean nanoseconds per generated micro-op (0 before the first).
    pub fn ns_per_uop(&self) -> f64 {
        if self.uops == 0 {
            0.0
        } else {
            self.uop_gen_ns as f64 / self.uops as f64
        }
    }

    /// Fold `other`'s readings into this profile. Both are net of their
    /// own clock cost; the merged `clock_ns` is the larger of the two.
    pub fn merge(&mut self, other: &StageProfile) {
        self.clock_ns = self.clock_ns.max(other.clock_ns);
        self.cycles += other.cycles;
        self.sampled += other.sampled;
        self.complete_ns += other.complete_ns;
        self.commit_ns += other.commit_ns;
        self.issue_ns += other.issue_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.fetch_ns += other.fetch_ns;
        self.uop_gen_ns += other.uop_gen_ns;
        self.uops += other.uops;
    }
}

/// One step's clock: a lap per stage and the micro-op generations timed
/// inside fetch, read only in a timed cycle. In an untimed cycle (and in
/// every cycle of the bare monomorphization, where `start(false)` is a
/// constant) each call is a no-op.
pub(crate) struct StageClock {
    last: Option<Instant>,
    laps: [u64; 5],
    next: usize,
    gen_ns: u64,
    gens: u64,
}

impl StageClock {
    #[inline(always)]
    pub(crate) fn start(timed: bool) -> Self {
        StageClock {
            last: timed.then(Instant::now),
            laps: [0; 5],
            next: 0,
            gen_ns: 0,
            gens: 0,
        }
    }

    #[inline(always)]
    pub(crate) fn timed(&self) -> bool {
        self.last.is_some()
    }

    /// Close the current stage's lap and open the next one.
    #[inline(always)]
    pub(crate) fn lap(&mut self) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.laps[self.next] = now.duration_since(last).as_nanos() as u64;
            self.next += 1;
            self.last = Some(now);
        }
    }

    /// Run one micro-op generation, timing it.
    #[inline(always)]
    pub(crate) fn time_gen<T>(&mut self, generate: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let op = generate();
        self.gen_ns += t.elapsed().as_nanos() as u64;
        self.gens += 1;
        op
    }

    /// Count the cycle in `profile` and, if it was timed, add its
    /// readings net of the clock's cost: one read per reading, plus the
    /// two reads around each timed generation inside the fetch lap.
    #[inline(always)]
    pub(crate) fn record(self, profile: &mut StageProfile) {
        profile.cycles += 1;
        if self.timed() {
            let c = profile.clock_ns;
            let [complete, commit, issue, dispatch, fetch] = self.laps;
            profile.sampled += 1;
            profile.complete_ns += complete.saturating_sub(c);
            profile.commit_ns += commit.saturating_sub(c);
            profile.issue_ns += issue.saturating_sub(c);
            profile.dispatch_ns += dispatch.saturating_sub(c);
            profile.fetch_ns += fetch.saturating_sub(c * (1 + 2 * self.gens));
            profile.uop_gen_ns += self.gen_ns.saturating_sub(c * self.gens);
            profile.uops += self.gens;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::export::jsonl;

    fn sample() -> StageProfile {
        StageProfile {
            clock_ns: 30,
            cycles: 640,
            sampled: 10,
            complete_ns: 100,
            commit_ns: 50,
            issue_ns: 100,
            dispatch_ns: 150,
            fetch_ns: 300,
            uop_gen_ns: 120,
            uops: 40,
        }
    }

    #[test]
    fn shares_scale_timed_cycles_to_the_run() {
        // 700 timed ns over 10 of 640 cycles: 44,800 ns estimated.
        let p = sample();
        let shares = p.shares(44_800);
        for (share, ns) in shares.iter().zip([100.0, 50.0, 100.0, 150.0, 300.0]) {
            assert!((share - ns / 700.0).abs() < 1e-12, "{shares:?}");
        }
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p.uop_gen_share(44_800) - 120.0 / 700.0).abs() < 1e-12);
        assert_eq!(p.ns_per_uop(), 3.0);
        assert_eq!(StageProfile::default().shares(1_000), [0.0; 5]);
        assert_eq!(StageProfile::default().ns_per_uop(), 0.0);
    }

    #[test]
    fn merge_adds_every_reading() {
        let mut p = sample();
        p.merge(&StageProfile {
            clock_ns: 40,
            ..sample()
        });
        assert_eq!((p.clock_ns, p.cycles), (40, 1_280));
        assert_eq!(p.stage_ns(), [200, 100, 200, 300, 600]);
        assert_eq!((p.uop_gen_ns, p.uops), (240, 80));
    }

    #[test]
    fn profile_jsonl_bytes_are_pinned() {
        assert_eq!(
            jsonl([sample()]),
            "{\"clock_ns\":30,\"cycles\":640,\"sampled\":10,\"complete_ns\":100,\"commit_ns\":50,\
             \"issue_ns\":100,\"dispatch_ns\":150,\"fetch_ns\":300,\"uop_gen_ns\":120,\
             \"uops\":40}\n"
        );
    }
}
