//! The four workloads: what one rep sets up, what its timed region runs,
//! and the per-point fingerprints that check its outputs.
//!
//! Every workload is `repro` traffic: the threshold×heuristic sweep of
//! Fig 7/8, the X3 allocation sweep, and fixed-ICOUNT stepping at the
//! paper's 8 threads and at the low-occupancy end of E10. A rep warms its
//! machines the way `repro` does (fresh construction plus six ICOUNT
//! quanta, so the modelled caches are warm) and then runs the measured
//! quanta, reading the clock around each one.
//!
//! The sweeps' timed region steps each mix's cells as one lockstep
//! `MachineBatch` on one lane — the batch `threshold_type_sweep` and
//! `alloc_sweep` run per mix — so that every quantum is timed and the
//! machine-quanta actually simulated are counted. Traced reps also run
//! the public entry points and check that they give the same points.

use crate::probe::{self, Probed, Timed, TimedTsu};
use adts_core::{AdtsConfig, AllocCell, AllocKind, HeuristicKind, PointCell};
use smt_bench::{warm, AllocSweep, ExpParams, ThresholdTypeSweep, ALLOC_FETCHES};
use smt_isa::codec::fnv1a_64;
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{FetchChooser, LockstepCell, MachineBatch, MultiCoreSnapshot, SmtMachine};
use smt_stats::RunSeries;
use smt_workloads::{mix, Mix};
use std::path::Path;
use std::time::Instant;

/// Workload names, in the order a full run visits them.
pub const NAMES: [&str; 4] = ["sweep_fig8", "alloc_2core", "step_t8", "step_lowocc"];

/// Thread subsets are drawn with this fixed seed rather than the run
/// seed, so every seed keeps a workload in its occupancy regime: a
/// different pick could swap `step_lowocc`'s memory-bound thread for a
/// compute-bound one. The run seed still sets every instruction stream.
const THREAD_PICK: u64 = 7;

const ALLOC_CORES: usize = 2;
const ALLOC_PENALTY: u64 = 256;
const THRESHOLDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `threshold_type_sweep` (E2–E7).
    Sweep,
    /// `alloc_sweep` (X3) on a 2-core machine.
    Alloc,
    /// `SmtMachine::run` under a fixed ICOUNT TSU (E1/E8/E9/E10).
    Step,
}

/// A workload and its input size.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    kind: Kind,
    /// (mix id, threads) per mix.
    mixes: Vec<(usize, usize)>,
    quanta: u64,
    warmup_quanta: u64,
    quantum_cycles: u64,
}

/// One checked output: a sweep cell, an allocation cell or a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Point {
    pub label: String,
    pub fp: u64,
}

impl Point {
    fn of_words(label: String, words: &[u64]) -> Point {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Point {
            label,
            fp: fnv1a_64(&bytes),
        }
    }
}

/// What a rep's setup leaves for its timed region.
pub enum Warmed {
    /// The sweeps restore their machines from the process-wide warm pool.
    Pool,
    Machines(Vec<SmtMachine>),
}

/// The sweeps' worker lanes in the public entry points: the host has two
/// cores, and one workload process runs at a time.
pub const SWEEP_JOBS: usize = 2;

/// What a timed region or public entry point produced.
pub enum Outcome {
    /// One series per point, in [`Spec::point_labels`] order.
    Series(Vec<RunSeries>),
    Sweep(ThresholdTypeSweep),
    Alloc(AllocSweep),
    Machines(Vec<SmtMachine>),
}

/// A timed region's result: its outcome, the wall time of each quantum
/// (machine-quantum when stepping, batch quantum for the sweeps), and
/// the machine cycles it simulated.
pub struct TimedRun {
    pub outcome: Outcome,
    pub quantum_ns: Vec<u64>,
    pub machine_cycles: u64,
}

impl Spec {
    /// The benchmark's input size for `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        let (kind, mixes, quanta) = match name {
            "sweep_fig8" => (Kind::Sweep, vec![(1, 8), (5, 8), (9, 8), (13, 8)], 8),
            "alloc_2core" => (Kind::Alloc, vec![(1, 8), (13, 8)], 10),
            "step_t8" => (Kind::Step, vec![(1, 8), (9, 8), (13, 8)], 20),
            "step_lowocc" => (Kind::Step, vec![(13, 1), (1, 1), (9, 2), (13, 2)], 40),
            _ => return None,
        };
        Some(Spec {
            name: NAMES.into_iter().find(|n| *n == name)?,
            kind,
            mixes,
            quanta,
            warmup_quanta: 6,
            quantum_cycles: 8192,
        })
    }

    /// The same workload at a size the self-tests run in seconds.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Option<Spec> {
        Spec::by_name(name).map(|s| Spec {
            quanta: 2,
            warmup_quanta: 1,
            quantum_cycles: 1024,
            ..s
        })
    }

    /// Does the workload step its cells through a batch?
    pub fn batched(&self) -> bool {
        self.kind != Kind::Step
    }

    pub fn n_points(&self) -> usize {
        let per_mix = match self.kind {
            Kind::Sweep => 1 + THRESHOLDS.len() * HeuristicKind::ALL.len(),
            Kind::Alloc => ALLOC_FETCHES.len() * AllocKind::ALL.len(),
            Kind::Step => 1,
        };
        per_mix * self.mixes.len()
    }

    /// Simulated cycles the points of one rep cover: points × quanta ×
    /// quantum length. Sweep points that share a machine through batching
    /// each count, as they do for a user.
    pub fn logical_cycles(&self) -> u64 {
        self.n_points() as u64 * self.quanta * self.quantum_cycles
    }

    /// Point labels, in the order every outcome lists its points.
    pub fn point_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for m in self.mix_list() {
            match self.kind {
                Kind::Sweep => {
                    labels.push(format!("{}/ICOUNT", m.name));
                    for t in THRESHOLDS {
                        labels.extend(HeuristicKind::ALL.map(|k| sweep_label(&m, t, k)));
                    }
                }
                Kind::Alloc => {
                    for f in ALLOC_FETCHES {
                        labels.extend(AllocKind::ALL.map(|a| alloc_label(&m, f, a)));
                    }
                }
                Kind::Step => labels.push(m.name.clone()),
            }
        }
        labels
    }

    fn params(&self, seed: u64) -> ExpParams {
        ExpParams {
            seed,
            warmup_quanta: self.warmup_quanta,
            quanta: self.quanta,
            quantum_cycles: self.quantum_cycles,
            mix_ids: self.mixes.iter().map(|&(id, _)| id).collect(),
        }
    }

    fn mix_list(&self) -> Vec<Mix> {
        self.mixes
            .iter()
            .map(|&(id, threads)| {
                let m = mix(id);
                if threads == m.apps.len() {
                    m
                } else {
                    m.take_threads(threads, THREAD_PICK)
                }
            })
            .collect()
    }

    /// Build and warm the rep's machines. Returns them with the number of
    /// warm-ups performed. `ckpt_dir` is emptied and becomes the sweep's
    /// checkpoint store, as in `repro`.
    pub fn setup(&self, seed: u64, ckpt_dir: &Path) -> (Warmed, u64) {
        let p = self.params(seed);
        match self.kind {
            Kind::Sweep => {
                warm::reset_pool();
                let _ = std::fs::remove_dir_all(ckpt_dir);
                warm::configure_store(Some(ckpt_dir.to_path_buf()));
                for m in self.mix_list() {
                    drop(warm::warmed_machine(&m, &p));
                }
                (Warmed::Pool, warm::stats().warmups)
            }
            Kind::Alloc => {
                warm::reset_pool();
                warm::configure_store(None);
                for m in self.mix_list() {
                    drop(warm::warmed_multicore(&m, &p, ALLOC_CORES, ALLOC_PENALTY));
                }
                (Warmed::Pool, warm::stats().warmups)
            }
            Kind::Step => {
                let machines: Vec<SmtMachine> = self
                    .mix_list()
                    .iter()
                    .map(|m| {
                        let mut machine = adts_core::machine_for_mix(m, seed);
                        adts_core::run_fixed(
                            FetchPolicy::Icount,
                            &mut machine,
                            p.warmup_quanta,
                            p.quantum_cycles,
                        );
                        machine
                    })
                    .collect();
                let n = machines.len() as u64;
                (Warmed::Machines(machines), n)
            }
        }
    }

    /// The timed region: step every machine (or every mix's batch) one
    /// quantum at a time. Traced, the probes wrap the fetch policy, the
    /// cells and every quantum.
    pub fn run(&self, seed: u64, warmed: Warmed, traced: bool) -> TimedRun {
        let p = self.params(seed);
        let t0 = Instant::now();
        let mut quantum_ns = Vec::new();
        let mut machine_quanta = 0;
        let outcome = match warmed {
            Warmed::Machines(mut machines) => {
                for (m, mx) in machines.iter_mut().zip(self.mix_list()) {
                    let tsu = Tsu::new(FetchPolicy::Icount, m.n_threads());
                    let ns = if traced {
                        self.step(m, &mut TimedTsu::new(tsu), Some(&mx))
                    } else {
                        self.step(m, &mut { tsu }, None)
                    };
                    quantum_ns.extend(ns);
                }
                machine_quanta = machines.len() as u64 * self.quanta;
                Outcome::Machines(machines)
            }
            Warmed::Pool => {
                let mut series = Vec::new();
                for mx in self.mix_list() {
                    let (s, ns, mq) = match self.kind {
                        Kind::Sweep => {
                            let machine = warm::warmed_machine(&mx, &p);
                            let cells = sweep_cells(&p, machine.n_threads());
                            drive(&mx, machine, cells, PointCell::into_series, &p, traced)
                        }
                        _ => {
                            let machine =
                                warm::warmed_multicore(&mx, &p, ALLOC_CORES, ALLOC_PENALTY);
                            let cells = ALLOC_FETCHES
                                .into_iter()
                                .flat_map(|f| AllocKind::ALL.map(|a| (f, a)))
                                .map(|(f, a)| AllocCell::new(f, a, p.quantum_cycles, &machine))
                                .collect();
                            drive(&mx, machine, cells, AllocCell::into_series, &p, traced)
                        }
                    };
                    series.extend(s);
                    quantum_ns.extend(ns);
                    machine_quanta += mq;
                }
                Outcome::Series(series)
            }
        };
        if traced {
            probe::record_busy(probe::elapsed_ns(t0));
        }
        TimedRun {
            outcome,
            quantum_ns,
            machine_cycles: machine_quanta * self.quantum_cycles,
        }
    }

    /// Step one machine through the measured quanta; `traced` names the
    /// mix for the quantum spans and turns on the counter reads.
    fn step<C: FetchChooser>(
        &self,
        m: &mut SmtMachine,
        tsu: &mut C,
        traced: Option<&Mix>,
    ) -> Vec<u64> {
        (0..self.quanta)
            .map(|q| {
                let _sp = traced.map(|mx| {
                    probe::recorder().begin(&format!("quantum {} q{q}", mx.name), "quantum")
                });
                let before = traced.map(|_| m.marks());
                let t = Instant::now();
                m.run(self.quantum_cycles, tsu);
                let ns = probe::elapsed_ns(t);
                if let Some(before) = before {
                    probe::record_quantum(before, m, ns);
                }
                ns
            })
            .collect()
    }

    /// The sweeps' public entry points, as `repro` calls them: through
    /// the sweep engine on [`SWEEP_JOBS`] lanes, restoring every point's
    /// machine from the warm pool.
    pub fn run_public(&self, seed: u64) -> Outcome {
        let p = self.params(seed);
        match self.kind {
            Kind::Sweep => Outcome::Sweep(smt_bench::threshold_type_sweep(&p)),
            Kind::Alloc => Outcome::Alloc(smt_bench::alloc_sweep(
                &p,
                ALLOC_CORES,
                &AllocKind::ALL,
                ALLOC_PENALTY,
            )),
            Kind::Step => unreachable!("stepping workloads have no public sweep"),
        }
    }

    /// One fingerprint per point of `out`, in [`Spec::point_labels`] order.
    pub fn fingerprints(&self, out: &Outcome) -> Vec<Point> {
        let labels = self.point_labels();
        let words: Vec<Vec<u64>> = match out {
            Outcome::Series(series) => series
                .iter()
                .zip(&labels)
                .map(|(s, label)| {
                    let ipc = s.aggregate_ipc().to_bits();
                    match self.kind {
                        _ if label.ends_with("/ICOUNT") => vec![ipc],
                        Kind::Sweep => {
                            let benign = s.switches.iter().filter(|e| e.benign == Some(true));
                            let judged = s.judged_switches() as u64;
                            vec![ipc, s.switches.len() as u64, judged, benign.count() as u64]
                        }
                        // An allocation cell records one switch per migration.
                        _ => vec![ipc, s.switches.len() as u64],
                    }
                })
                .collect(),
            Outcome::Sweep(sw) => (0..sw.mix_names.len())
                .flat_map(|mi| {
                    let cells = sw.cells.iter().flat_map(move |by_kind| {
                        by_kind.iter().map(move |by_mix| {
                            let c = &by_mix[mi];
                            let (s, j, b) = (c.switches as u64, c.judged as u64, c.benign as u64);
                            vec![c.ipc.to_bits(), s, j, b]
                        })
                    });
                    std::iter::once(vec![sw.icount[mi].to_bits()]).chain(cells)
                })
                .collect(),
            Outcome::Alloc(al) => (0..al.mix_names.len())
                .flat_map(|mi| {
                    al.cells.iter().flat_map(move |by_alloc| {
                        by_alloc.iter().map(move |by_mix| {
                            let c = &by_mix[mi];
                            vec![c.ipc.to_bits(), c.migrations as u64]
                        })
                    })
                })
                .collect(),
            Outcome::Machines(machines) => {
                return machines
                    .iter()
                    .zip(labels)
                    .map(|(machine, label)| {
                        let mut bytes = MachineSnapshot::capture(machine).to_bytes();
                        let counters = serde::json::to_string(&machine.counter_snapshot());
                        bytes.extend(counters.bytes());
                        Point {
                            label,
                            fp: fnv1a_64(&bytes),
                        }
                    })
                    .collect()
            }
        };
        labels
            .into_iter()
            .zip(words)
            .map(|(label, w)| Point::of_words(label, &w))
            .collect()
    }

    /// Mean policy switches per adaptive sweep cell and migrations per
    /// allocation cell (0 where the workload has no such cells).
    pub fn decisions_per_cell(&self, out: &Outcome) -> (f64, f64) {
        let Outcome::Series(series) = out else {
            return (0.0, 0.0);
        };
        let counts: Vec<usize> = series
            .iter()
            .zip(self.point_labels())
            .filter(|(_, label)| !label.ends_with("/ICOUNT"))
            .map(|(s, _)| s.switches.len())
            .collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        match self.kind {
            Kind::Sweep => (mean, 0.0),
            _ => (0.0, mean),
        }
    }

    /// Time encoding each of the rep's machines as a checkpoint and
    /// writing it to `dir`: the stepped machines, or the sweeps' warmed
    /// ones from the pool. Returns (snapshots, bytes, nanoseconds) summed.
    pub fn snapshot_probe(&self, seed: u64, out: &Outcome, dir: &Path) -> (u64, u64, u64) {
        let p = self.params(seed);
        std::fs::create_dir_all(dir).expect("snapshot probe directory is writable");
        let (mut n, mut bytes, mut ns) = (0, 0, 0);
        let mut store = |encode: &dyn Fn() -> Vec<u8>| {
            let t = Instant::now();
            let b = encode();
            std::fs::write(dir.join(format!("{n}.ckpt")), &b).expect("snapshot probe write");
            ns += probe::elapsed_ns(t);
            bytes += b.len() as u64;
            n += 1;
        };
        match (self.kind, out) {
            (_, Outcome::Machines(machines)) => {
                for m in machines {
                    store(&|| MachineSnapshot::capture(m).to_bytes());
                }
            }
            (Kind::Sweep, _) => {
                for mx in self.mix_list() {
                    let m = warm::warmed_machine(&mx, &p);
                    store(&|| MachineSnapshot::capture(&m).to_bytes());
                }
            }
            _ => {
                for mx in self.mix_list() {
                    let m = warm::warmed_multicore(&mx, &p, ALLOC_CORES, ALLOC_PENALTY);
                    store(&|| MultiCoreSnapshot::capture(&m, Vec::new()).to_bytes());
                }
            }
        }
        (n, bytes, ns)
    }

    /// Mean host nanoseconds per `UopStream::next_uop` on fresh streams
    /// of the workload's mixes.
    pub fn uop_probe(&self, seed: u64) -> f64 {
        const PER_STREAM: u32 = 20_000;
        let (mut n, mut ns) = (0u64, 0u64);
        for m in self.mix_list() {
            for mut s in m.streams(seed) {
                let t = Instant::now();
                for _ in 0..PER_STREAM {
                    std::hint::black_box(s.next_uop());
                }
                ns += probe::elapsed_ns(t);
                n += u64::from(PER_STREAM);
            }
        }
        ns as f64 / n as f64
    }
}

/// The threshold×heuristic sweep's cells for one machine, in
/// [`Spec::point_labels`] order: the fixed-ICOUNT baseline, then every
/// (threshold, heuristic) ADTS point.
fn sweep_cells(p: &ExpParams, n_threads: usize) -> Vec<PointCell> {
    let mut cells = vec![PointCell::fixed(FetchPolicy::Icount, p.quantum_cycles)];
    for ipc_threshold in THRESHOLDS {
        for heuristic in HeuristicKind::ALL {
            let cfg = AdtsConfig {
                quantum_cycles: p.quantum_cycles,
                ipc_threshold,
                heuristic,
                ..Default::default()
            };
            cells.push(PointCell::adaptive(cfg, n_threads));
        }
    }
    cells
}

/// Step `cells` from `machine` as one lockstep batch, one quantum at a
/// time — traced, with every cell phase timed. Returns each cell's
/// series, the quantum times and the machine-quanta simulated.
fn drive<M, C>(
    mix: &Mix,
    machine: M,
    cells: Vec<C>,
    into_series: fn(C) -> RunSeries,
    p: &ExpParams,
    traced: bool,
) -> (Vec<RunSeries>, Vec<u64>, u64)
where
    M: smt_sim::LockstepMachine + Probed,
    C: probe::TimedExecute<M>,
    Timed<C>: LockstepCell<M>,
{
    fn quanta<M: smt_sim::LockstepMachine, K: LockstepCell<M>>(
        batch: &mut MachineBatch<K, M>,
        mix: &Mix,
        p: &ExpParams,
        traced: bool,
    ) -> Vec<u64> {
        let n = batch.n_cells();
        (0..p.quanta)
            .map(|q| {
                let _sp = traced
                    .then(|| probe::recorder().begin(&format!("batch {} q{q}", mix.name), "batch"));
                let t = Instant::now();
                let forks = batch.run_quantum();
                let ns = probe::elapsed_ns(t);
                if traced {
                    probe::record_batch_quantum(ns, n, &forks);
                }
                ns
            })
            .collect()
    }
    if traced {
        let mut batch = MachineBatch::new(machine, cells.into_iter().map(Timed).collect());
        let ns = quanta(&mut batch, mix, p, traced);
        let mq = batch.stats().machine_quanta;
        let series = batch.into_cells().into_iter().map(|c| into_series(c.0));
        (series.collect(), ns, mq)
    } else {
        let mut batch = MachineBatch::new(machine, cells);
        let ns = quanta(&mut batch, mix, p, traced);
        let mq = batch.stats().machine_quanta;
        let series = batch.into_cells().into_iter().map(into_series);
        (series.collect(), ns, mq)
    }
}

fn sweep_label(m: &Mix, threshold: f64, k: HeuristicKind) -> String {
    format!("{}/m{threshold}/{}", m.name, k.name().replace(' ', ""))
}

fn alloc_label(m: &Mix, f: FetchPolicy, a: AllocKind) -> String {
    format!("{}/{}/{}", m.name, f.name(), a.name())
}
