//! Periodic pipeline occupancy sampling.
//!
//! A [`PipelineSampler`] registers the canonical occupancy histograms
//! (shared IQ/LSQ depth, per-thread ROB depth) and fetch-slot utilization
//! counters in a [`MetricsRegistry`], then records one sample per call to
//! [`PipelineSampler::sample`] — typically once per scheduling quantum,
//! the granularity the paper's detector thread observes at. Sampling only
//! *reads* machine state, so it can never perturb simulation results (the
//! differential test in `tests/obs_differential.rs` pins this).

use crate::machine::SmtMachine;
use crate::multicore::MultiCoreMachine;
use crate::obs::metrics::{CounterId, HistId, MetricsRegistry};

/// Occupancy/utilization sampler over one machine.
#[derive(Clone, Debug)]
pub struct PipelineSampler {
    h_int_iq: HistId,
    h_fp_iq: HistId,
    h_lsq: HistId,
    h_rob: HistId,
    c_samples: CounterId,
    /// Machine-wide fetch slots actually filled since the last sample.
    c_fetch_slots: CounterId,
    /// Per-thread fetched micro-ops (correct + wrong path) since the last
    /// sample, i.e. each thread's share of the fetch bandwidth.
    c_thread_fetch: Vec<CounterId>,
    last_thread_fetch: Vec<u64>,
    last_fetch_slots: u64,
}

impl PipelineSampler {
    /// Register the sampler's instruments for `machine` in `reg`.
    /// Histogram ranges come from the machine's configured queue sizes, so
    /// a full queue lands in the top bin rather than clamping early.
    pub fn new(reg: &mut MetricsRegistry, machine: &SmtMachine) -> Self {
        let cfg = machine.config();
        let n = machine.n_threads();
        let depth_hist = |reg: &mut MetricsRegistry, name: &str, size: usize| {
            let bins = (size + 1).min(64);
            reg.hist(name, 0.0, (size + 1) as f64, bins)
        };
        PipelineSampler {
            h_int_iq: depth_hist(reg, "int_iq_depth", cfg.int_iq_size),
            h_fp_iq: depth_hist(reg, "fp_iq_depth", cfg.fp_iq_size),
            h_lsq: depth_hist(reg, "lsq_depth", cfg.lsq_size),
            h_rob: depth_hist(reg, "rob_depth_per_thread", cfg.rob_per_thread),
            c_samples: reg.counter("obs_samples"),
            c_fetch_slots: reg.counter("fetch_slots_used"),
            c_thread_fetch: (0..n)
                .map(|t| reg.counter(&format!("thread{t}_fetch_slots")))
                .collect(),
            last_thread_fetch: vec![0; n],
            last_fetch_slots: 0,
        }
    }

    /// Record one sample of `machine`'s occupancies into `reg`.
    /// Read-only with respect to the machine.
    pub fn sample(&mut self, machine: &SmtMachine, reg: &mut MetricsRegistry) {
        reg.inc(self.c_samples, 1);
        reg.observe(self.h_int_iq, machine.int_iq_len() as f64);
        reg.observe(self.h_fp_iq, machine.fp_iq_len() as f64);
        reg.observe(self.h_lsq, machine.lsq_len() as f64);
        for t in 0..machine.n_threads() {
            let tid = smt_isa::Tid(t as u8);
            reg.observe(self.h_rob, machine.window_len(tid) as f64);
            let c = machine.counters(tid);
            let now = c.fetched + c.wrongpath_fetched;
            let delta = now.saturating_sub(self.last_thread_fetch[t]);
            self.last_thread_fetch[t] = now;
            reg.inc(self.c_thread_fetch[t], delta);
        }
        let slots = machine.global().fetch_slots_used;
        reg.inc(
            self.c_fetch_slots,
            slots.saturating_sub(self.last_fetch_slots),
        );
        self.last_fetch_slots = slots;
    }
}

/// Occupancy/placement sampler over a [`MultiCoreMachine`].
///
/// The multi-core analogue of [`PipelineSampler`]: per-core IQ/LSQ/ROB
/// occupancy histograms (metric names prefixed `core{c}_`), per-core
/// fetch-slot and shared-L2 contention counters, and per-global-thread
/// placement over time (`thread{g}_core` histograms plus cumulative
/// migration counters). Like the single-core sampler it only *reads*
/// machine state, so it can never perturb simulation results
/// (`tests/obs_multicore_differential.rs` pins this).
#[derive(Clone, Debug)]
pub struct MultiCoreSampler {
    /// Per core: (int IQ, fp IQ, LSQ, per-thread ROB) depth histograms.
    h_core: Vec<(HistId, HistId, HistId, HistId)>,
    /// Per core: fetch slots filled since the last sample.
    c_core_fetch: Vec<CounterId>,
    /// Per core: shared-L2 misses charged to threads resident on the
    /// core at sampling time (inter-core contention attribution).
    c_core_l2_miss: Vec<CounterId>,
    /// Per global thread: which core it resided on at each sample.
    h_thread_core: Vec<HistId>,
    /// Per global thread: completed cross-core migrations.
    c_thread_migrations: Vec<CounterId>,
    c_samples: CounterId,
    c_l2_accesses: CounterId,
    c_l2_misses: CounterId,
    last_core_fetch: Vec<u64>,
    last_thread_l2_miss: Vec<u64>,
    last_thread_migrations: Vec<u64>,
    last_l2: (u64, u64),
}

impl MultiCoreSampler {
    /// Register the sampler's instruments for `machine` in `reg`.
    pub fn new(reg: &mut MetricsRegistry, machine: &MultiCoreMachine) -> Self {
        let n_cores = machine.n_cores();
        let n_threads = machine.n_threads();
        let depth_hist = |reg: &mut MetricsRegistry, name: &str, size: usize| {
            let bins = (size + 1).min(64);
            reg.hist(name, 0.0, (size + 1) as f64, bins)
        };
        let h_core = (0..n_cores)
            .map(|c| {
                let cfg = machine.core(c).config();
                (
                    depth_hist(reg, &format!("core{c}_int_iq_depth"), cfg.int_iq_size),
                    depth_hist(reg, &format!("core{c}_fp_iq_depth"), cfg.fp_iq_size),
                    depth_hist(reg, &format!("core{c}_lsq_depth"), cfg.lsq_size),
                    depth_hist(
                        reg,
                        &format!("core{c}_rob_depth_per_thread"),
                        cfg.rob_per_thread,
                    ),
                )
            })
            .collect();
        MultiCoreSampler {
            h_core,
            c_core_fetch: (0..n_cores)
                .map(|c| reg.counter(&format!("core{c}_fetch_slots")))
                .collect(),
            c_core_l2_miss: (0..n_cores)
                .map(|c| reg.counter(&format!("core{c}_l2_misses")))
                .collect(),
            h_thread_core: (0..n_threads)
                .map(|g| reg.hist(&format!("thread{g}_core"), 0.0, n_cores as f64, n_cores))
                .collect(),
            c_thread_migrations: (0..n_threads)
                .map(|g| reg.counter(&format!("thread{g}_migrations")))
                .collect(),
            c_samples: reg.counter("mc_samples"),
            c_l2_accesses: reg.counter("shared_l2_accesses"),
            c_l2_misses: reg.counter("shared_l2_misses"),
            last_core_fetch: vec![0; n_cores],
            last_thread_l2_miss: vec![0; n_threads],
            last_thread_migrations: vec![0; n_threads],
            last_l2: (0, 0),
        }
    }

    /// Record one sample of `machine` into `reg`. Read-only with respect
    /// to the machine.
    pub fn sample(&mut self, machine: &MultiCoreMachine, reg: &mut MetricsRegistry) {
        reg.inc(self.c_samples, 1);
        for (c, &(h_int, h_fp, h_lsq, h_rob)) in self.h_core.iter().enumerate() {
            let core = machine.core(c);
            reg.observe(h_int, core.int_iq_len() as f64);
            reg.observe(h_fp, core.fp_iq_len() as f64);
            reg.observe(h_lsq, core.lsq_len() as f64);
            for s in 0..core.n_threads() {
                reg.observe(h_rob, core.window_len(smt_isa::Tid(s as u8)) as f64);
            }
            let slots = core.global().fetch_slots_used;
            let delta = slots.saturating_sub(self.last_core_fetch[c]);
            self.last_core_fetch[c] = slots;
            reg.inc(self.c_core_fetch[c], delta);
        }
        for g in 0..machine.n_threads() {
            let (c, _) = machine.placement()[g];
            reg.observe(self.h_thread_core[g], c as f64);
            let misses = machine.thread_counters(g).l2_misses;
            let delta = misses.saturating_sub(self.last_thread_l2_miss[g]);
            self.last_thread_l2_miss[g] = misses;
            // Contention attribution: the interval's L2 misses land on
            // the core the thread resides on when sampled.
            reg.inc(self.c_core_l2_miss[c], delta);
            let migs = machine.migrations()[g];
            let mdelta = migs.saturating_sub(self.last_thread_migrations[g]);
            self.last_thread_migrations[g] = migs;
            reg.inc(self.c_thread_migrations[g], mdelta);
        }
        let (acc, miss) = machine.shared_l2_stats();
        reg.inc(self.c_l2_accesses, acc.saturating_sub(self.last_l2.0));
        reg.inc(self.c_l2_misses, miss.saturating_sub(self.last_l2.1));
        self.last_l2 = (acc, miss);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::RoundRobin;
    use crate::config::SimConfig;
    use smt_workloads::mix;

    fn machine() -> SmtMachine {
        let m = mix(1).take_threads(2, 1);
        SmtMachine::new(SimConfig::with_threads(2), m.streams(42))
    }

    #[test]
    fn sampler_accumulates_fetch_deltas() {
        let mut m = machine();
        let mut reg = MetricsRegistry::new();
        let mut s = PipelineSampler::new(&mut reg, &m);
        for _ in 0..4 {
            m.run(512, &mut RoundRobin);
            s.sample(&m, &mut reg);
        }
        let samples = reg.counter("obs_samples");
        assert_eq!(reg.counter_value(samples), 4);
        let slots = reg.counter("fetch_slots_used");
        assert_eq!(
            reg.counter_value(slots),
            m.global().fetch_slots_used,
            "summed deltas must equal the machine's cumulative count"
        );
        let per_thread: u64 = (0..2)
            .map(|t| {
                let c = reg.counter(&format!("thread{t}_fetch_slots"));
                reg.counter_value(c)
            })
            .sum();
        assert_eq!(per_thread, m.global().fetch_slots_used);
        let rob = reg.hist("rob_depth_per_thread", 0.0, 1.0, 1);
        assert_eq!(reg.hist_of(rob).count(), 8, "2 threads x 4 samples");
    }

    #[test]
    fn sampling_does_not_mutate_the_machine() {
        let mut a = machine();
        let mut b = machine();
        let mut reg = MetricsRegistry::new();
        let mut s = PipelineSampler::new(&mut reg, &a);
        for _ in 0..3 {
            a.run(256, &mut RoundRobin);
            s.sample(&a, &mut reg);
            b.run(256, &mut RoundRobin);
        }
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
        assert_eq!(a.debug_snapshot(), b.debug_snapshot());
    }

    fn two_core_machine() -> MultiCoreMachine {
        let placement = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        MultiCoreMachine::from_cores(vec![machine(), machine()], placement, 64)
    }

    #[test]
    fn multicore_sampler_accumulates_per_core_deltas() {
        let mut m = two_core_machine();
        let mut reg = MetricsRegistry::new();
        let mut s = MultiCoreSampler::new(&mut reg, &m);
        for _ in 0..4 {
            m.run(512, &mut [RoundRobin, RoundRobin]);
            s.sample(&m, &mut reg);
        }
        let samples = reg.counter("mc_samples");
        assert_eq!(reg.counter_value(samples), 4);
        for c in 0..2 {
            let id = reg.counter(&format!("core{c}_fetch_slots"));
            assert_eq!(
                reg.counter_value(id),
                m.core(c).global().fetch_slots_used,
                "core {c}: summed deltas must equal the cumulative count"
            );
        }
        let (acc, miss) = m.shared_l2_stats();
        let a = reg.counter("shared_l2_accesses");
        let mi = reg.counter("shared_l2_misses");
        assert_eq!(reg.counter_value(a), acc);
        assert_eq!(reg.counter_value(mi), miss);
        // Every thread's placement hist has one observation per sample,
        // all on its (static here) home core.
        for g in 0..m.n_threads() {
            let h = reg.hist(&format!("thread{g}_core"), 0.0, 1.0, 1);
            assert_eq!(reg.hist_of(h).count(), 4);
        }
    }

    #[test]
    fn multicore_sampling_does_not_mutate_the_machine() {
        let mut a = two_core_machine();
        let mut b = two_core_machine();
        let mut reg = MetricsRegistry::new();
        let mut s = MultiCoreSampler::new(&mut reg, &a);
        for _ in 0..3 {
            a.run(256, &mut [RoundRobin, RoundRobin]);
            s.sample(&a, &mut reg);
            b.run(256, &mut [RoundRobin, RoundRobin]);
        }
        assert_eq!(
            serde::json::to_string(&a.counter_snapshot()),
            serde::json::to_string(&b.counter_snapshot())
        );
    }
}
