//! The warm pool: memoized machine warmup backed by snapshots.
//!
//! Every experiment measures a *warmed* machine: fresh construction, then
//! `warmup_quanta` quanta of fixed ICOUNT that are excluded from
//! measurement. Before this module each of the 26 `threshold_type_sweep`
//! points per mix (and every obs/attr explain pass) paid that warmup
//! again, even though the warm state depends only on
//! `(mix, SimConfig, seed, warmup_quanta, quantum_cycles)`.
//!
//! [`warmed_machine`] now performs the warmup **exactly once** per such
//! point, captures a [`MachineSnapshot`], and hands every subsequent
//! caller a restored copy — bit-identical to a machine that was warmed
//! from scratch, so every downstream counter, golden fixture and exported
//! artifact is unchanged. Three layers, consulted in order:
//!
//! 1. an in-memory **pool** (`HashMap<key, snapshot>` behind per-key
//!    slots, so work-stealing sweep workers racing on one key block on
//!    that key only and the warmup still runs once);
//! 2. the on-disk **checkpoint store** ([`sweep::CkptStore`]), shared
//!    across processes and CI runs — a corrupt or version-bumped file
//!    falls back to a cold warmup with a telemetry note, never a panic;
//! 3. a cold warmup, whose snapshot is then published to both layers.
//!
//! Keys use [`sweep::point_key`] with kind `"warm"` over the full mix
//! content, the warmup-relevant [`ExpParams`] fields, and the complete
//! [`SimConfig`] — two seeds or configs can never alias.
//!
//! The experiment harness goes through the process-wide [`pool`]; the
//! free functions ([`warmed_machine`], [`set_enabled`],
//! [`configure_store`], ...) delegate to it. Tests construct private
//! [`WarmPool`]s so their counter assertions never race.

use crate::params::ExpParams;
use crate::sweep::{self, CkptStore};
use adts_core::{machine_for_mix_with, multicore_for_mix, run_alloc, run_fixed, AllocKind};
use smt_policies::FetchPolicy;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{MultiCoreMachine, MultiCoreSnapshot, SimConfig, SmtMachine};
use smt_stats::RunSeries;
use smt_workloads::Mix;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Counter snapshot of one [`WarmPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Restores served from the in-memory pool.
    pub pool_hits: u64,
    /// Restores served from the on-disk checkpoint store.
    pub ckpt_hits: u64,
    /// Cold warmups actually simulated.
    pub warmups: u64,
    /// Calls with the pool disabled (always cold).
    pub bypass: u64,
    /// Unusable checkpoint files fallen back from.
    pub errors: u64,
}

/// One key's lazily-filled snapshot cell. Workers racing on the same key
/// serialize on the cell's lock, so the warmup runs exactly once.
type WarmSlot = Arc<Mutex<Option<Arc<MachineSnapshot>>>>;

/// The multi-core counterpart: one warmed [`MultiCoreSnapshot`] per
/// (mix, cores, penalty) key.
type McWarmSlot = Arc<Mutex<Option<Arc<MultiCoreSnapshot>>>>;

/// A memoizing warmup cache: in-memory snapshots, optionally backed by an
/// on-disk [`CkptStore`]. Safe to share across sweep workers.
#[derive(Default)]
pub struct WarmPool {
    /// Per-key slots: the outer map lock is held only to find/insert a
    /// slot; the warmup itself runs under the slot's own lock, so two
    /// workers racing on one key serialize while other keys proceed.
    slots: Mutex<HashMap<u128, WarmSlot>>,
    /// Multi-core warm snapshots. In-memory only: the on-disk store
    /// speaks single-machine snapshots, and a multi-core warmup is one
    /// static-placement `run_alloc` away from its (pooled) ingredients.
    mc_slots: Mutex<HashMap<u128, McWarmSlot>>,
    store: Mutex<Option<Arc<CkptStore>>>,
    disabled: AtomicBool,
    pool_hits: AtomicU64,
    ckpt_hits: AtomicU64,
    warmups: AtomicU64,
    bypass: AtomicU64,
    errors: AtomicU64,
}

impl WarmPool {
    /// An empty, enabled pool with no disk store.
    pub fn new() -> Self {
        WarmPool::default()
    }

    /// Turn the pool on (the default) or off. Disabled, every call is a
    /// cold warmup — the bench harness uses this for its cold passes, and
    /// `--no-ckpt` maps here.
    pub fn set_enabled(&self, on: bool) {
        self.disabled.store(!on, Ordering::Relaxed);
    }

    /// Attach (or detach, with `None`) the on-disk checkpoint store. An
    /// unopenable directory disables the store with a warning rather than
    /// failing the run.
    pub fn configure_store(&self, dir: Option<PathBuf>) {
        let store = dir.and_then(|d| match CkptStore::new(&d) {
            Ok(s) => Some(Arc::new(s)),
            Err(e) => {
                eprintln!(
                    "warning: checkpoint store at {} unavailable: {e}",
                    d.display()
                );
                None
            }
        });
        *self.store.lock().expect("warm store poisoned") = store;
    }

    /// Stats of the attached checkpoint store, if any.
    pub fn store_stats(&self) -> Option<sweep::CkptStats> {
        self.store
            .lock()
            .expect("warm store poisoned")
            .as_ref()
            .map(|s| s.stats())
    }

    /// Current counters.
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            ckpt_hits: self.ckpt_hits.load(Ordering::Relaxed),
            warmups: self.warmups.load(Ordering::Relaxed),
            bypass: self.bypass.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Drop every pooled snapshot and zero the counters. The bench
    /// harness calls this between its cold and warm passes so each pass
    /// is measured from a known-empty pool. The disk store (and its
    /// stats) is left attached.
    pub fn reset(&self) {
        self.slots.lock().expect("warm pool poisoned").clear();
        self.mc_slots.lock().expect("warm pool poisoned").clear();
        for c in [
            &self.pool_hits,
            &self.ckpt_hits,
            &self.warmups,
            &self.bypass,
            &self.errors,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A machine warmed exactly like the experiment harness always
    /// warmed them — fresh construction with `cfg` plus `warmup_quanta`
    /// quanta of fixed ICOUNT — memoized through this pool.
    pub fn warmed_machine_with(&self, cfg: SimConfig, mix: &Mix, p: &ExpParams) -> SmtMachine {
        if self.disabled.load(Ordering::Relaxed) {
            self.bypass.fetch_add(1, Ordering::Relaxed);
            return cold_warmup(cfg, mix, p);
        }
        let key = warm_key(&cfg, mix, p);
        let slot = {
            let mut slots = self.slots.lock().expect("warm pool poisoned");
            slots.entry(key.0).or_default().clone()
        };
        let mut guard = slot.lock().expect("warm slot poisoned");
        if let Some(snap) = guard.as_ref() {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
            sweep::spans().bump("warm_pool_hits", 1);
            return snap.restore();
        }
        let store = self.store.lock().expect("warm store poisoned").clone();
        if let Some(store) = &store {
            match store.load(key) {
                Ok(Some(snap)) => {
                    self.ckpt_hits.fetch_add(1, Ordering::Relaxed);
                    sweep::spans().bump("warm_ckpt_hits", 1);
                    let snap = Arc::new(snap);
                    *guard = Some(Arc::clone(&snap));
                    return snap.restore();
                }
                Ok(None) => {}
                Err(why) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    sweep::spans().bump("ckpt_fallbacks", 1);
                    note_fallback(mix, key, &why);
                }
            }
        }
        self.warmups.fetch_add(1, Ordering::Relaxed);
        sweep::spans().bump("warm_warmups", 1);
        let m = {
            let sp = sweep::spans();
            let _sp = sp
                .enabled()
                .then(|| sp.begin(&format!("warmup:{}", mix.name), "warm"));
            cold_warmup(cfg, mix, p)
        };
        let snap = Arc::new(MachineSnapshot::capture(&m));
        if let Some(store) = &store {
            store.store(key, &snap);
        }
        *guard = Some(snap);
        m
    }

    /// A warmed [`MultiCoreMachine`] for the allocation sweeps: fresh
    /// [`multicore_for_mix`] construction plus `warmup_quanta` quanta of
    /// fixed ICOUNT on every core in lockstep, memoized per
    /// (mix, config, seed, warmup, cores, penalty) key. In-memory only —
    /// see [`WarmPool::mc_slots`].
    pub fn warmed_multicore(
        &self,
        mix: &Mix,
        p: &ExpParams,
        n_cores: usize,
        penalty: u64,
    ) -> MultiCoreMachine {
        if self.disabled.load(Ordering::Relaxed) {
            self.bypass.fetch_add(1, Ordering::Relaxed);
            return cold_multicore_warmup(mix, p, n_cores, penalty);
        }
        let key = mc_warm_key(mix, p, n_cores, penalty);
        let slot = {
            let mut slots = self.mc_slots.lock().expect("warm pool poisoned");
            slots.entry(key.0).or_default().clone()
        };
        let mut guard = slot.lock().expect("warm slot poisoned");
        if let Some(snap) = guard.as_ref() {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
            sweep::spans().bump("warm_pool_hits", 1);
            return snap.restore();
        }
        self.warmups.fetch_add(1, Ordering::Relaxed);
        sweep::spans().bump("warm_warmups", 1);
        let m = {
            let sp = sweep::spans();
            let _sp = sp
                .enabled()
                .then(|| sp.begin(&format!("warmup-mc:{}", mix.name), "warm"));
            cold_multicore_warmup(mix, p, n_cores, penalty)
        };
        *guard = Some(Arc::new(MultiCoreSnapshot::capture(&m, Vec::new())));
        m
    }
}

static POOL: OnceLock<WarmPool> = OnceLock::new();

/// The process-wide pool every experiment goes through.
pub fn pool() -> &'static WarmPool {
    POOL.get_or_init(WarmPool::new)
}

/// [`WarmPool::set_enabled`] on the process-wide pool.
pub fn set_enabled(on: bool) {
    pool().set_enabled(on);
}

/// [`WarmPool::configure_store`] on the process-wide pool.
pub fn configure_store(dir: Option<PathBuf>) {
    pool().configure_store(dir);
}

/// [`WarmPool::store_stats`] of the process-wide pool.
pub fn store_stats() -> Option<sweep::CkptStats> {
    pool().store_stats()
}

/// [`WarmPool::stats`] of the process-wide pool.
pub fn stats() -> WarmStats {
    pool().stats()
}

/// [`WarmPool::reset`] of the process-wide pool.
pub fn reset_pool() {
    pool().reset();
}

/// [`WarmPool::warmed_machine_with`] on the process-wide pool, with the
/// default per-mix configuration.
pub fn warmed_machine(mix: &Mix, p: &ExpParams) -> SmtMachine {
    pool().warmed_machine_with(SimConfig::with_threads(mix.apps.len()), mix, p)
}

/// [`WarmPool::warmed_machine_with`] on the process-wide pool (the
/// fetch-mechanism and prefetch ablations build non-default configs).
pub fn warmed_machine_with(cfg: SimConfig, mix: &Mix, p: &ExpParams) -> SmtMachine {
    pool().warmed_machine_with(cfg, mix, p)
}

/// [`WarmPool::warmed_multicore`] on the process-wide pool.
pub fn warmed_multicore(
    mix: &Mix,
    p: &ExpParams,
    n_cores: usize,
    penalty: u64,
) -> MultiCoreMachine {
    pool().warmed_multicore(mix, p, n_cores, penalty)
}

/// The content key of one warm point. Only the warmup-relevant
/// [`ExpParams`] fields participate (`quanta`/`mix_ids` don't change the
/// warm state); the machine seed and the full [`SimConfig`] always do.
pub fn warm_key(cfg: &SimConfig, mix: &Mix, p: &ExpParams) -> sweep::CacheKey {
    sweep::point_key(
        "warm",
        mix,
        &(p.seed, p.warmup_quanta, p.quantum_cycles),
        cfg,
    )
}

/// The content key of one multi-core warm point: the scalar warm-key
/// ingredients plus the core count and migration penalty (both shape the
/// warmed state — placement, shared L2, stall windows).
pub fn mc_warm_key(mix: &Mix, p: &ExpParams, n_cores: usize, penalty: u64) -> sweep::CacheKey {
    sweep::point_key(
        "warm-mc",
        mix,
        &(
            (p.seed, p.warmup_quanta, p.quantum_cycles),
            (n_cores as u64, penalty),
        ),
        &SimConfig::with_threads(mix.apps.len()),
    )
}

fn cold_multicore_warmup(
    mix: &Mix,
    p: &ExpParams,
    n_cores: usize,
    penalty: u64,
) -> MultiCoreMachine {
    let mut m = multicore_for_mix(mix, p.seed, n_cores, penalty);
    let _ = run_alloc(
        FetchPolicy::Icount,
        AllocKind::Static,
        &mut m,
        p.warmup_quanta,
        p.quantum_cycles,
    );
    m
}

fn cold_warmup(cfg: SimConfig, mix: &Mix, p: &ExpParams) -> SmtMachine {
    let mut m = machine_for_mix_with(cfg, mix, p.seed);
    let _ = run_fixed(
        FetchPolicy::Icount,
        &mut m,
        p.warmup_quanta,
        p.quantum_cycles,
    );
    m
}

/// Note a checkpoint-store fallback in the telemetry log (kind
/// `"ckpt_fallback"`, empty series) and on stderr.
fn note_fallback(mix: &Mix, key: sweep::CacheKey, why: &str) {
    sweep::spans().instant(&format!("ckpt-fallback:{}", mix.name), "ckpt");
    eprintln!(
        "warning: {why}; falling back to cold warmup for {}",
        mix.name
    );
    let empty = RunSeries {
        quanta: vec![],
        switches: vec![],
    };
    let rec = sweep::TelemetryRecord::from_series(
        "warm",
        "ckpt_fallback",
        &mix.name,
        key.hex(),
        sweep::CacheOutcome::Bypass,
        0.0,
        &empty,
    );
    sweep::engine().append_telemetry(&rec, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params(seed: u64) -> ExpParams {
        ExpParams {
            seed,
            warmup_quanta: 1,
            quanta: 2,
            quantum_cycles: 512,
            mix_ids: vec![1],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("smt-adts-warm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn pooled_restore_is_bit_identical_to_cold_warmup() {
        let pool = WarmPool::new();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let cfg = SimConfig::with_threads(2);
        let cold = cold_warmup(cfg.clone(), &mix, &p);
        let first = pool.warmed_machine_with(cfg.clone(), &mix, &p);
        let second = pool.warmed_machine_with(cfg, &mix, &p);
        for m in [&first, &second] {
            assert_eq!(m.cycle(), cold.cycle());
            assert_eq!(m.total_committed(), cold.total_committed());
            assert_eq!(m.global(), cold.global());
            assert_eq!(m.counter_snapshot(), cold.counter_snapshot());
        }
    }

    #[test]
    fn one_warmup_per_key_then_pool_hits() {
        let pool = WarmPool::new();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        for _ in 0..3 {
            let _ = pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p);
        }
        let s = pool.stats();
        assert_eq!(s.warmups, 1, "{s:?}");
        assert_eq!(s.pool_hits, 2, "{s:?}");
    }

    #[test]
    fn racing_workers_still_warm_up_exactly_once() {
        let pool = Arc::new(WarmPool::new());
        let mix = Arc::new(smt_workloads::mix(1).take_threads(2, 1));
        let p = tiny_params(42);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (pool, mix, p) = (Arc::clone(&pool), Arc::clone(&mix), p.clone());
                std::thread::spawn(move || {
                    pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p)
                        .counter_snapshot()
                })
            })
            .collect();
        let snaps: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(pool.stats().warmups, 1);
        assert_eq!(pool.stats().pool_hits, 3);
        for s in &snaps[1..] {
            assert_eq!(s, &snaps[0]);
        }
    }

    #[test]
    fn different_seeds_and_configs_never_alias() {
        // The cache-poisoning regression: every ingredient of the warm
        // state must flow into the key.
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let cfg = SimConfig::with_threads(2);
        let p = tiny_params(42);
        let base = warm_key(&cfg, &mix, &p);
        let other_seed = ExpParams {
            seed: 43,
            ..p.clone()
        };
        assert_ne!(base, warm_key(&cfg, &mix, &other_seed));
        let other_warmup = ExpParams {
            warmup_quanta: p.warmup_quanta + 1,
            ..p.clone()
        };
        assert_ne!(base, warm_key(&cfg, &mix, &other_warmup));
        let other_quantum = ExpParams {
            quantum_cycles: p.quantum_cycles * 2,
            ..p.clone()
        };
        assert_ne!(base, warm_key(&cfg, &mix, &other_quantum));
        let mut other_cfg = cfg.clone();
        other_cfg.next_line_prefetch = !cfg.next_line_prefetch;
        assert_ne!(base, warm_key(&other_cfg, &mix, &p));
        let other_mix = smt_workloads::mix(2).take_threads(2, 1);
        assert_ne!(base, warm_key(&cfg, &other_mix, &p));
        // And a pool really hands different machines to different seeds.
        let pool = WarmPool::new();
        let a = pool.warmed_machine_with(cfg.clone(), &mix, &p);
        let b = pool.warmed_machine_with(cfg, &mix, &other_seed);
        assert_eq!(pool.stats().warmups, 2);
        assert_ne!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn pooled_multicore_restore_is_bit_identical_to_cold_warmup() {
        let pool = WarmPool::new();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let cold = cold_multicore_warmup(&mix, &p, 2, 64);
        let first = pool.warmed_multicore(&mix, &p, 2, 64);
        let second = pool.warmed_multicore(&mix, &p, 2, 64);
        for m in [&first, &second] {
            assert_eq!(m.cycle(), cold.cycle());
            assert_eq!(m.counter_snapshot(), cold.counter_snapshot());
            assert_eq!(m.placement(), cold.placement());
        }
        let s = pool.stats();
        assert_eq!(s.warmups, 1, "{s:?}");
        assert_eq!(s.pool_hits, 1, "{s:?}");
    }

    #[test]
    fn multicore_keys_fold_in_cores_and_penalty() {
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let base = mc_warm_key(&mix, &p, 2, 64);
        assert_ne!(base, mc_warm_key(&mix, &p, 3, 64));
        assert_ne!(base, mc_warm_key(&mix, &p, 2, 65));
        assert_ne!(
            base,
            mc_warm_key(
                &mix,
                &ExpParams {
                    seed: 43,
                    ..p.clone()
                },
                2,
                64
            )
        );
        // Multi-core and scalar warm points never alias either.
        assert_ne!(base.0, warm_key(&SimConfig::with_threads(2), &mix, &p).0);
    }

    #[test]
    fn disabled_pool_bypasses_and_stays_cold() {
        let pool = WarmPool::new();
        pool.set_enabled(false);
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let a = pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p);
        let b = pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p);
        let s = pool.stats();
        assert_eq!(s.bypass, 2, "{s:?}");
        assert_eq!(s.warmups, 0, "{s:?}");
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_cold_warmup() {
        let dir = tmp_dir("fallback");
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let cfg = SimConfig::with_threads(2);
        let key = warm_key(&cfg, &mix, &p);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.ckpt", key.hex())), b"garbage").unwrap();
        let pool = WarmPool::new();
        pool.configure_store(Some(dir.clone()));
        let m = pool.warmed_machine_with(cfg.clone(), &mix, &p);
        let s = pool.stats();
        assert_eq!(s.errors, 1, "{s:?}");
        assert_eq!(s.warmups, 1, "{s:?}");
        let cold = cold_warmup(cfg, &mix, &p);
        assert_eq!(m.counter_snapshot(), cold.counter_snapshot());
        // The fresh warmup replaced the corrupt file with a valid one.
        let replaced = CkptStore::new(&dir).unwrap();
        assert!(replaced.load(key).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_store_round_trips_across_pool_resets() {
        let dir = tmp_dir("store");
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let p = tiny_params(42);
        let pool = WarmPool::new();
        pool.configure_store(Some(dir.clone()));
        let a = pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p);
        // Simulate a new process: empty pool, same store.
        pool.reset();
        let b = pool.warmed_machine_with(SimConfig::with_threads(2), &mix, &p);
        let s = pool.stats();
        assert_eq!(s.ckpt_hits, 1, "{s:?}");
        assert_eq!(s.warmups, 0, "{s:?}");
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
        assert_eq!(a.global(), b.global());
        assert_eq!(pool.store_stats().unwrap().stores, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
