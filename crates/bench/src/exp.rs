//! Experiment implementations, one per table/figure (DESIGN.md §4).
//!
//! Each function simulates the necessary (mix × configuration) points and
//! returns plain-text [`Table`]s whose rows are exactly the series the
//! paper plots. All randomness derives from [`ExpParams::seed`], so every
//! table is reproducible bit-for-bit.

use crate::parallel::par_map;
use crate::params::ExpParams;
use crate::sweep;
use crate::warm::{warmed_machine, warmed_machine_with};
use adts_core::{
    adaptive::SelfTuning, machine_for_mix, run_oracle, AdaptiveScheduler, AdtsConfig, AllocCell,
    AllocKind, CondThresholds, DtModel, EvictionPolicy, HeuristicKind, JobSchedConfig,
    JobScheduler, OracleConfig, PointCell,
};
use serde::{Deserialize, Serialize};
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{run_scalar_quantum, SimConfig, SmtMachine};
use smt_stats::{mean, QuantumRecord, RunSeries, Table};
use smt_workloads::{app, app_names, thread_addr_base, Mix, UopStream, MIX_COUNT};
use std::sync::{Arc, OnceLock};

/// The adaptive policy triple (what the heuristics switch among).
pub const TRIPLE: [FetchPolicy; 3] = [
    FetchPolicy::Icount,
    FetchPolicy::L1MissCount,
    FetchPolicy::BrCount,
];

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

/// The (implicit) machine configuration of a default experiment point —
/// part of every cache and checkpoint key so results computed under one
/// config can never be replayed under another.
fn default_cfg(mix: &Mix) -> SimConfig {
    SimConfig::with_threads(mix.apps.len())
}

/// What a cached single-core point steps: a fixed policy, or ADTS with an
/// optional Type 2 rotation override.
pub(crate) enum Spec {
    Fixed(FetchPolicy),
    Adaptive(AdtsConfig, Option<Vec<FetchPolicy>>),
}

impl Spec {
    /// The lockstep cell that steps this point on an `n_threads` machine.
    fn cell(&self, n_threads: usize, p: &ExpParams) -> PointCell {
        match self {
            Spec::Fixed(policy) => PointCell::fixed(*policy, p.quantum_cycles),
            Spec::Adaptive(acfg, rotation) => {
                let mut sched = AdaptiveScheduler::new(*acfg, n_threads);
                if let Some(r) = rotation {
                    sched.set_rotation(r.clone());
                }
                PointCell::Adaptive(Box::new(sched))
            }
        }
    }
}

/// Recall a single-core point from the result cache, or compute it with
/// `run`. The key is (kind, mix, params, `cfg`, spec); `label` names the
/// point after its mix in telemetry and spans.
fn cached_point(
    mix: &Mix,
    p: &ExpParams,
    cfg: &SimConfig,
    spec: &Spec,
    label: &str,
    run: impl FnOnce() -> RunSeries,
) -> RunSeries {
    let (kind, key) = match spec {
        Spec::Fixed(pol) => ("fixed", sweep::point_key("fixed", mix, p, &(cfg, pol))),
        Spec::Adaptive(a, rot) => (
            "adaptive",
            sweep::point_key("adaptive", mix, p, &(cfg, a, rot)),
        ),
    };
    sweep::engine().run_series(kind, &format!("{}/{label}", mix.name), key, run)
}

/// Simulate one single-core point: a machine built with `cfg` and warmed
/// through the pool steps `spec`'s cell for `p.quanta` quanta.
fn step_point(mix: &Mix, p: &ExpParams, cfg: SimConfig, spec: &Spec) -> RunSeries {
    let mut m = warmed_machine_with(cfg, mix, p);
    let mut cell = spec.cell(m.n_threads(), p);
    for _ in 0..p.quanta {
        run_scalar_quantum(&mut cell, &mut m);
    }
    cell.into_series()
}

/// One cached single-core point, simulated by [`step_point`] on a miss.
fn point_series(mix: &Mix, p: &ExpParams, cfg: SimConfig, spec: Spec, label: &str) -> RunSeries {
    cached_point(mix, p, &cfg, &spec, label, || {
        step_point(mix, p, cfg.clone(), &spec)
    })
}

/// Fixed-policy run on a warmed machine.
pub fn fixed_series(mix: &Mix, policy: FetchPolicy, p: &ExpParams) -> RunSeries {
    point_series(mix, p, default_cfg(mix), Spec::Fixed(policy), policy.name())
}

/// Adaptive run on a warmed machine.
pub fn adaptive_series(mix: &Mix, cfg: AdtsConfig, p: &ExpParams) -> RunSeries {
    adaptive_series_with(mix, cfg, p, None)
}

/// Adaptive run with an optional Type 2 rotation override.
pub fn adaptive_series_with(
    mix: &Mix,
    cfg: AdtsConfig,
    p: &ExpParams,
    rotation: Option<Vec<FetchPolicy>>,
) -> RunSeries {
    let spec = Spec::Adaptive(cfg, rotation);
    point_series(mix, p, default_cfg(mix), spec, cfg.heuristic.name())
}

fn adts(heuristic: HeuristicKind, m: f64, p: &ExpParams) -> AdtsConfig {
    AdtsConfig {
        quantum_cycles: p.quantum_cycles,
        ipc_threshold: m,
        heuristic,
        ..Default::default()
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

// ---------------------------------------------------------------------
// E1 — Table 1 context: every fixed policy on every mix
// ---------------------------------------------------------------------

/// Aggregate IPC of each of the ten fixed fetch policies per mix
/// (the baseline context for Table 1; \[20\]'s ranking should reappear:
/// ICOUNT best on average, RR near the bottom).
pub fn table1(p: &ExpParams) -> Table {
    let mixes = p.mixes();
    let points: Vec<(usize, FetchPolicy)> = (0..mixes.len())
        .flat_map(|mi| FetchPolicy::ALL.into_iter().map(move |pol| (mi, pol)))
        .collect();
    let ipcs = par_map(points.clone(), |&(mi, pol)| {
        fixed_series(&mixes[mi], pol, p).aggregate_ipc()
    });

    let mut headers = vec!["mix"];
    let names: Vec<&str> = FetchPolicy::ALL.iter().map(|pl| pl.name()).collect();
    headers.extend(names.iter());
    let mut t = Table::new(
        "E1 / Table 1 context — aggregate IPC of fixed fetch policies (8 threads)",
        &headers,
    );
    let npol = FetchPolicy::ALL.len();
    for (mi, mix) in mixes.iter().enumerate() {
        let mut row = vec![mix.name.clone()];
        row.extend((0..npol).map(|pi| f3(ipcs[mi * npol + pi])));
        t.row(row);
    }
    // Mean row.
    let mut row = vec!["MEAN".to_string()];
    for pi in 0..npol {
        let col: Vec<f64> = (0..mixes.len()).map(|mi| ipcs[mi * npol + pi]).collect();
        row.push(f3(mean(&col)));
    }
    t.row(row);
    t
}

// ---------------------------------------------------------------------
// E2–E7 — the threshold × heuristic sweep behind Fig 7 and Fig 8
// ---------------------------------------------------------------------

/// One (threshold, heuristic, mix) outcome.
#[derive(Clone, Debug)]
pub struct SweepCell {
    pub ipc: f64,
    pub switches: usize,
    pub judged: usize,
    pub benign: usize,
}

impl SweepCell {
    fn of(s: &RunSeries) -> SweepCell {
        SweepCell {
            ipc: s.aggregate_ipc(),
            switches: s.switches.len(),
            judged: s.judged_switches(),
            benign: s.switches.iter().filter(|e| e.benign == Some(true)).count(),
        }
    }
}

/// The full sweep: thresholds m ∈ 1..=5 × the five heuristics × mixes,
/// plus the fixed-ICOUNT baseline per mix.
pub struct ThresholdTypeSweep {
    pub thresholds: Vec<f64>,
    pub kinds: Vec<HeuristicKind>,
    pub mix_names: Vec<String>,
    /// `cells[t][k][m]`.
    pub cells: Vec<Vec<Vec<SweepCell>>>,
    /// Fixed ICOUNT IPC per mix.
    pub icount: Vec<f64>,
    pub quanta: u64,
}

/// Run the sweep (the expensive part; everything in Fig 7/Fig 8 and the
/// headline is a view over this).
///
/// The sweep steps as *lockstep batches*: all 26 points of a mix (fixed
/// ICOUNT + 5 thresholds × 5 heuristics) share one machine until their
/// policy decisions diverge (`smt_sim::batch`).
pub fn threshold_type_sweep(p: &ExpParams) -> ThresholdTypeSweep {
    threshold_type_sweep_with(p, true)
}

/// [`threshold_type_sweep`] with the stepping mode chosen explicitly.
/// `batched = false` simulates every point on its own warmed machine:
/// the scalar reference the batch tests compare against, bit-identical
/// per point and sharing its cache keys. Batched, a mix's lockstep batch
/// runs on the first cache miss among its points and serves all of them.
pub fn threshold_type_sweep_with(p: &ExpParams, batched: bool) -> ThresholdTypeSweep {
    let thresholds = SWEEP_THRESHOLDS.to_vec();
    let kinds = HeuristicKind::ALL.to_vec();
    let mixes = p.mixes();
    let specs = sweep_specs(&thresholds, &kinds, p);
    let batches: Vec<OnceLock<Vec<RunSeries>>> = mixes.iter().map(|_| OnceLock::new()).collect();
    // Spec `cell` on mix `mi`, from the cache or simulated on a miss.
    let point = |&(cell, mi): &(usize, usize)| -> RunSeries {
        let (mix, spec) = (&mixes[mi], &specs[cell]);
        let label = match spec {
            Spec::Fixed(policy) => policy.name(),
            Spec::Adaptive(cfg, _) => cfg.heuristic.name(),
        };
        let run = || {
            if !batched {
                return step_point(mix, p, default_cfg(mix), spec);
            }
            let batch =
                batches[mi].get_or_init(|| run_sweep_batch(warmed_machine(mix, p), &specs, p).0);
            batch[cell].clone()
        };
        cached_point(mix, p, &default_cfg(mix), spec, label, run)
    };

    // The baselines first, one point per mix, so each mix's first miss
    // (and batch) comes from its baseline; then every ADTS point, mixes
    // innermost.
    let icount = par_map((0..mixes.len()).map(|mi| (0, mi)).collect(), |pt| {
        point(pt).aggregate_ipc()
    });
    let points: Vec<(usize, usize)> = (1..specs.len())
        .flat_map(|cell| (0..mixes.len()).map(move |mi| (cell, mi)))
        .collect();
    let mut results = par_map(points, |pt| SweepCell::of(&point(pt))).into_iter();
    let cells = thresholds
        .iter()
        .map(|_| {
            kinds
                .iter()
                .map(|_| results.by_ref().take(mixes.len()).collect())
                .collect()
        })
        .collect();
    ThresholdTypeSweep {
        thresholds,
        kinds,
        mix_names: mixes.iter().map(|m| m.name.clone()).collect(),
        cells,
        icount,
        quanta: p.quanta,
    }
}

/// The IPC thresholds *m* the threshold × heuristic sweep visits.
pub(crate) const SWEEP_THRESHOLDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// The sweep's points for one machine: the fixed-ICOUNT baseline
/// followed by every (threshold, heuristic) ADTS point. Point 0 is the
/// baseline; point `1 + ti*kinds.len() + ki` is (threshold `ti`,
/// heuristic `ki`).
pub(crate) fn sweep_specs(thresholds: &[f64], kinds: &[HeuristicKind], p: &ExpParams) -> Vec<Spec> {
    let mut specs = vec![Spec::Fixed(FetchPolicy::Icount)];
    for &m in thresholds {
        specs.extend(kinds.iter().map(|&k| Spec::Adaptive(adts(k, m, p), None)));
    }
    specs
}

/// Step `specs` on one warmed machine (a mix's, or a trace replay's) as
/// one lockstep batch for `p.quanta` quanta, cells forking only where
/// policy decisions diverge. Returns one series per spec, in order.
pub(crate) fn run_sweep_batch(
    machine: SmtMachine,
    specs: &[Spec],
    p: &ExpParams,
) -> (Vec<RunSeries>, smt_sim::BatchStats) {
    let cells = specs
        .iter()
        .map(|s| s.cell(machine.n_threads(), p))
        .collect();
    let mut batch = smt_sim::MachineBatch::new(machine, cells);
    for q in 0..p.quanta {
        let forks = batch.run_quantum();
        sweep::span::note_batch_forks(q, &forks);
    }
    let stats = batch.stats();
    let series = batch
        .into_cells()
        .into_iter()
        .map(PointCell::into_series)
        .collect();
    (series, stats)
}

/// What a Fig 7/8 table shows per (threshold, heuristic type): mean
/// switches per run (Fig 7(a,b)), the probability that a switch was benign
/// (Fig 7(c,d)) or mean aggregate IPC (Fig 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMetric {
    Switches,
    BenignProb,
    Ipc,
}

impl ThresholdTypeSweep {
    fn mean_over_mixes(&self, ti: usize, ki: usize, f: impl Fn(&SweepCell) -> f64) -> f64 {
        let vals: Vec<f64> = self.cells[ti][ki].iter().map(f).collect();
        mean(&vals)
    }

    fn benign_prob(&self, ti: usize, ki: usize) -> Option<f64> {
        let judged: usize = self.cells[ti][ki].iter().map(|c| c.judged).sum();
        let benign: usize = self.cells[ti][ki].iter().map(|c| c.benign).sum();
        (judged > 0).then(|| benign as f64 / judged as f64)
    }

    /// One (threshold, type) entry of a Fig 7/8 table, formatted.
    fn entry(&self, metric: SweepMetric, ti: usize, ki: usize) -> String {
        match metric {
            SweepMetric::Switches => {
                format!("{:.1}", self.mean_over_mixes(ti, ki, |c| c.switches as f64))
            }
            SweepMetric::BenignProb => match self.benign_prob(ti, ki) {
                Some(p) => format!("{p:.3}"),
                None => "-".to_string(),
            },
            SweepMetric::Ipc => f3(self.mean_over_mixes(ti, ki, |c| c.ipc)),
        }
    }

    fn title(&self, metric: SweepMetric, by_type: bool) -> String {
        let (id, tail) = match (metric, by_type) {
            (SweepMetric::Switches, false) => ("E2 / Fig 7(a)", ""),
            (SweepMetric::Switches, true) => ("E3 / Fig 7(b)", ""),
            (SweepMetric::BenignProb, false) => ("E4 / Fig 7(c)", ""),
            (SweepMetric::BenignProb, true) => ("E5 / Fig 7(d)", ""),
            (SweepMetric::Ipc, false) => ("E6 / Fig 8(a,c)", " (mean over mixes)"),
            (SweepMetric::Ipc, true) => ("E7 / Fig 8(b,d)", " (mean over mixes)"),
        };
        let measure = match metric {
            SweepMetric::Switches => format!("switchings per {} quanta", self.quanta),
            SweepMetric::BenignProb => "probability of benign switches".to_string(),
            SweepMetric::Ipc => "aggregate IPC".to_string(),
        };
        let axis = if by_type {
            "heuristic type"
        } else {
            "threshold"
        };
        format!("{id} — {measure} vs {axis}{tail}")
    }

    /// The fixed-ICOUNT baseline entry the IPC tables carry (Fig 8).
    fn baseline(&self, metric: SweepMetric) -> Option<String> {
        (metric == SweepMetric::Ipc).then(|| f3(mean(&self.icount)))
    }

    /// Fig 7(a), 7(c), 8(a,c): one row per threshold, one column per
    /// heuristic type; the IPC table adds a fixed-ICOUNT column.
    pub fn by_threshold(&self, metric: SweepMetric) -> Table {
        let base = self.baseline(metric);
        let mut headers = vec!["threshold"];
        headers.extend(self.kinds.iter().map(|k| k.name()));
        headers.extend(base.as_ref().map(|_| "fixed ICOUNT"));
        let mut t = Table::new(&self.title(metric, false), &headers);
        for (ti, m) in self.thresholds.iter().enumerate() {
            let mut row = vec![format!("m={m}")];
            row.extend((0..self.kinds.len()).map(|ki| self.entry(metric, ti, ki)));
            row.extend(base.clone());
            t.row(row);
        }
        t
    }

    /// Fig 7(b), 7(d), 8(b,d): one row per heuristic type, one column per
    /// threshold; the IPC table adds a fixed-ICOUNT row.
    pub fn by_type(&self, metric: SweepMetric) -> Table {
        let mut headers = vec!["type".to_string()];
        headers.extend(self.thresholds.iter().map(|m| format!("m={m}")));
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&self.title(metric, true), &hrefs);
        for (ki, k) in self.kinds.iter().enumerate() {
            let mut row = vec![k.name().to_string()];
            row.extend((0..self.thresholds.len()).map(|ti| self.entry(metric, ti, ki)));
            t.row(row);
        }
        if let Some(base) = self.baseline(metric) {
            let mut row = vec!["fixed ICOUNT".to_string()];
            row.extend(self.thresholds.iter().map(|_| base.clone()));
            t.row(row);
        }
        t
    }

    /// The best (threshold, type) cell by mean IPC.
    pub fn best(&self) -> (f64, HeuristicKind, f64) {
        let mut best = (self.thresholds[0], self.kinds[0], f64::MIN);
        for ti in 0..self.thresholds.len() {
            for ki in 0..self.kinds.len() {
                let ipc = self.mean_over_mixes(ti, ki, |c| c.ipc);
                if ipc > best.2 {
                    best = (self.thresholds[ti], self.kinds[ki], ipc);
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------
// E8 — headline: ADTS vs fixed scheduling, per mix
// ---------------------------------------------------------------------

/// Per-mix comparison of fixed ICOUNT, fixed RR, the best fixed policy of
/// the adaptive triple, and ADTS at the paper's best operating point
/// (Type 3, m = 2). The paper's §6 observation to check: improvement is
/// larger for similar mixes (MIX13) than diverse well-balanced ones (MIX12).
pub fn headline(p: &ExpParams) -> Table {
    let mixes = p.mixes();
    let rows = par_map(mixes, |mix| {
        let ic = fixed_series(mix, FetchPolicy::Icount, p).aggregate_ipc();
        let rr = fixed_series(mix, FetchPolicy::RoundRobin, p).aggregate_ipc();
        let best_fixed = TRIPLE
            .into_iter()
            .map(|pol| fixed_series(mix, pol, p).aggregate_ipc())
            .fold(f64::MIN, f64::max);
        let ad = adaptive_series(mix, adts(HeuristicKind::Type3, 2.0, p), p).aggregate_ipc();
        (mix.name.clone(), ic, rr, best_fixed, ad)
    });
    let mut t = Table::new(
        "E8 — ADTS (Type 3, m=2) vs fixed scheduling",
        &[
            "mix",
            "ICOUNT",
            "RR",
            "best-fixed",
            "ADTS",
            "vs ICOUNT",
            "vs best-fixed",
        ],
    );
    let (mut ics, mut ads) = (Vec::new(), Vec::new());
    for (name, ic, rr, bf, ad) in rows {
        t.row(vec![
            name,
            f3(ic),
            f3(rr),
            f3(bf),
            f3(ad),
            pct(ad / ic - 1.0),
            pct(ad / bf - 1.0),
        ]);
        ics.push(ic);
        ads.push(ad);
    }
    let (mi, ma) = (mean(&ics), mean(&ads));
    t.row(vec![
        "MEAN".into(),
        f3(mi),
        String::new(),
        String::new(),
        f3(ma),
        pct(ma / mi - 1.0),
        String::new(),
    ]);
    t
}

// ---------------------------------------------------------------------
// E9 — oracle upper bound
// ---------------------------------------------------------------------

/// Per-quantum oracle bound over (a) the adaptive triple and (b) all ten
/// policies, vs fixed ICOUNT — the realizable headroom ADTS chases.
pub fn oracle(p: &ExpParams, include_all_policies: bool) -> Table {
    let mixes = p.mixes();
    let oracle_series = |mix: &Mix, candidates: Vec<FetchPolicy>| -> RunSeries {
        let cfg = OracleConfig {
            quantum_cycles: p.quantum_cycles,
            candidates,
        };
        let key = sweep::point_key("oracle", mix, p, &(default_cfg(mix), cfg.clone()));
        let point = format!("{}/oracle{}", mix.name, cfg.candidates.len());
        sweep::engine().run_series("oracle", &point, key, || {
            let mut m = warmed_machine(mix, p);
            run_oracle(&cfg, &mut m, p.quanta)
        })
    };
    let rows = par_map(mixes, |mix| {
        let ic = fixed_series(mix, FetchPolicy::Icount, p).aggregate_ipc();
        let o3 = oracle_series(mix, TRIPLE.to_vec()).aggregate_ipc();
        let oall = include_all_policies
            .then(|| oracle_series(mix, FetchPolicy::ALL.to_vec()).aggregate_ipc());
        (mix.name.clone(), ic, o3, oall)
    });
    let mut t = Table::new(
        "E9 — per-quantum oracle bound vs fixed ICOUNT",
        &[
            "mix",
            "ICOUNT",
            "oracle(triple)",
            "headroom",
            "oracle(all 10)",
            "headroom(all)",
        ],
    );
    for (name, ic, o3, oall) in rows {
        t.row(vec![
            name,
            f3(ic),
            f3(o3),
            pct(o3 / ic - 1.0),
            oall.map(f3).unwrap_or_else(|| "-".into()),
            oall.map(|o| pct(o / ic - 1.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10 — thread-count scaling
// ---------------------------------------------------------------------

/// Aggregate IPC vs thread count {1, 2, 4, 6, 8} under fixed ICOUNT, RR,
/// and ADTS — the saturation claim of §1/§7.
pub fn scaling(p: &ExpParams) -> Table {
    let counts = [1usize, 2, 4, 6, 8];
    let mixes = p.mixes();
    let points: Vec<usize> = counts.to_vec();
    let rows = par_map(points, |&n| {
        let (mut ic, mut rr, mut ad) = (Vec::new(), Vec::new(), Vec::new());
        for mix in &mixes {
            let sub = mix.take_threads(n, p.seed);
            ic.push(fixed_series(&sub, FetchPolicy::Icount, p).aggregate_ipc());
            rr.push(fixed_series(&sub, FetchPolicy::RoundRobin, p).aggregate_ipc());
            ad.push(adaptive_series(&sub, adts(HeuristicKind::Type3, 2.0, p), p).aggregate_ipc());
        }
        (n, mean(&ic), mean(&rr), mean(&ad))
    });
    let mut t = Table::new(
        "E10 — aggregate IPC vs thread count (mean over mixes)",
        &["threads", "ICOUNT", "RR", "ADTS(T3,m2)", "ADTS vs ICOUNT"],
    );
    for (n, ic, rr, ad) in rows {
        t.row(vec![
            n.to_string(),
            f3(ic),
            f3(rr),
            f3(ad),
            pct(ad / ic - 1.0),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// A1–A4 — ablations
// ---------------------------------------------------------------------

/// A1: quantum-size sensitivity of ADTS (Type 3, m = 2).
pub fn ablate_quantum(p: &ExpParams) -> Table {
    let sizes = [1024u64, 2048, 4096, 8192, 16384, 32768, 65536];
    let mixes = p.mixes();
    let rows = par_map(sizes.to_vec(), |&q| {
        let mut ipcs = Vec::new();
        let mut benign = Vec::new();
        for mix in &mixes {
            // Hold total simulated cycles constant across quantum sizes.
            let quanta = (p.quanta * p.quantum_cycles / q).max(4);
            let pp = ExpParams {
                quantum_cycles: q,
                quanta,
                ..p.clone()
            };
            let cfg = AdtsConfig {
                quantum_cycles: q,
                ipc_threshold: 2.0,
                heuristic: HeuristicKind::Type3,
                ..Default::default()
            };
            let s = adaptive_series(mix, cfg, &pp);
            ipcs.push(s.aggregate_ipc());
            if let Some(b) = s.benign_fraction() {
                benign.push(b);
            }
        }
        (q, mean(&ipcs), mean(&benign))
    });
    let mut t = Table::new(
        "A1 — quantum-size ablation, ADTS (Type 3, m=2)",
        &["quantum cycles", "mean IPC", "P(benign)"],
    );
    for (q, ipc, b) in rows {
        t.row(vec![q.to_string(), f3(ipc), f3(b)]);
    }
    t
}

/// A2: detector-thread cost-model ablation.
pub fn ablate_dt(p: &ExpParams) -> Table {
    let models: [(&str, DtModel); 4] = [
        ("free", DtModel::Free),
        (
            "budgeted x1.0",
            DtModel::Budgeted {
                throughput_factor: 1.0,
            },
        ),
        (
            "budgeted x0.25",
            DtModel::Budgeted {
                throughput_factor: 0.25,
            },
        ),
        ("starved", DtModel::Starved),
    ];
    let kinds = [
        HeuristicKind::Type1,
        HeuristicKind::Type3,
        HeuristicKind::Type4,
    ];
    let mixes = p.mixes();
    let mut points = Vec::new();
    for &(name, dt) in &models {
        for &k in &kinds {
            points.push((name, dt, k));
        }
    }
    let rows = par_map(points, |&(name, dt, k)| {
        let mut ipcs = Vec::new();
        let mut switches = 0usize;
        for mix in &mixes {
            let cfg = AdtsConfig {
                dt,
                ..adts(k, 2.0, p)
            };
            let s = adaptive_series(mix, cfg, p);
            ipcs.push(s.aggregate_ipc());
            switches += s.switches.len();
        }
        (name, k, mean(&ipcs), switches)
    });
    let mut t = Table::new(
        "A2 — detector-thread cost model ablation (m=2)",
        &["DT model", "heuristic", "mean IPC", "applied switches"],
    );
    for (name, k, ipc, sw) in rows {
        t.row(vec![
            name.to_string(),
            k.name().to_string(),
            f3(ipc),
            sw.to_string(),
        ]);
    }
    t
}

/// A3: COND_MEM/COND_BR threshold-scale ablation for Type 3.
pub fn ablate_cond(p: &ExpParams) -> Table {
    let scales = [0.5, 1.0, 2.0];
    let mixes = p.mixes();
    let rows = par_map(scales.to_vec(), |&f| {
        let mut ipcs = Vec::new();
        let mut benign = Vec::new();
        let mut switches = 0usize;
        for mix in &mixes {
            let cfg = AdtsConfig {
                thresholds: CondThresholds::default().scaled(f),
                ..adts(HeuristicKind::Type3, 2.0, p)
            };
            let s = adaptive_series(mix, cfg, p);
            ipcs.push(s.aggregate_ipc());
            switches += s.switches.len();
            if let Some(b) = s.benign_fraction() {
                benign.push(b);
            }
        }
        (f, mean(&ipcs), switches, mean(&benign))
    });
    let mut t = Table::new(
        "A3 — COND_* threshold scale ablation, Type 3 (m=2)",
        &["scale", "mean IPC", "switches", "P(benign)"],
    );
    for (f, ipc, sw, b) in rows {
        t.row(vec![format!("x{f}"), f3(ipc), sw.to_string(), f3(b)]);
    }
    t
}

/// A4: Type 2 rotation-order ablation ("variants based on this scheme can
/// be made by changing the sequence of the transitions ... or adding more
/// fetch policies").
pub fn ablate_rotation(p: &ExpParams) -> Table {
    use FetchPolicy::*;
    let rotations: [(&str, Vec<FetchPolicy>); 4] = [
        ("paper (IC,L1,BR)", vec![Icount, L1MissCount, BrCount]),
        ("reversed (IC,BR,L1)", vec![Icount, BrCount, L1MissCount]),
        ("+MEMCOUNT", vec![Icount, L1MissCount, BrCount, MemCount]),
        (
            "+STALLCOUNT",
            vec![Icount, L1MissCount, BrCount, StallCount],
        ),
    ];
    let mixes = p.mixes();
    let rows = par_map(rotations.to_vec(), |(name, rot)| {
        let mut ipcs = Vec::new();
        let mut benign = Vec::new();
        for mix in &mixes {
            let s = adaptive_series_with(
                mix,
                adts(HeuristicKind::Type2, 2.0, p),
                p,
                Some(rot.clone()),
            );
            ipcs.push(s.aggregate_ipc());
            if let Some(b) = s.benign_fraction() {
                benign.push(b);
            }
        }
        (name.to_string(), mean(&ipcs), mean(&benign))
    });
    let mut t = Table::new(
        "A4 — Type 2 rotation-order ablation (m=2)",
        &["rotation", "mean IPC", "P(benign)"],
    );
    for (name, ipc, b) in rows {
        t.row(vec![name, f3(ipc), f3(b)]);
    }
    t
}

/// X1: self-tuning threshold (§4.2 extension) vs the fixed values of Fig 8.
pub fn ablate_threshold(p: &ExpParams) -> Table {
    let mixes = p.mixes();
    #[derive(Clone)]
    enum Mode {
        Fixed(f64),
        Tuned(f64, usize),
    }
    let modes: Vec<(String, Mode)> = vec![
        ("m=1".into(), Mode::Fixed(1.0)),
        ("m=2".into(), Mode::Fixed(2.0)),
        ("m=3".into(), Mode::Fixed(3.0)),
        ("m=4".into(), Mode::Fixed(4.0)),
        ("m=5".into(), Mode::Fixed(5.0)),
        ("self-tuning p50/w16".into(), Mode::Tuned(0.5, 16)),
        ("self-tuning p70/w16".into(), Mode::Tuned(0.7, 16)),
    ];
    let rows = par_map(modes, |(name, mode)| {
        let mut ipcs = Vec::new();
        let mut benign = Vec::new();
        let mut switches = 0usize;
        for mix in &mixes {
            let cfg = match mode {
                Mode::Fixed(m) => adts(HeuristicKind::Type3, *m, p),
                Mode::Tuned(pc, w) => AdtsConfig {
                    self_tuning: Some(SelfTuning {
                        percentile: *pc,
                        window: *w,
                    }),
                    ..adts(HeuristicKind::Type3, 2.0, p)
                },
            };
            let s = adaptive_series(mix, cfg, p);
            ipcs.push(s.aggregate_ipc());
            switches += s.switches.len();
            if let Some(b) = s.benign_fraction() {
                benign.push(b);
            }
        }
        (name.clone(), mean(&ipcs), switches, mean(&benign))
    });
    let mut t = Table::new(
        "X1 — fixed vs self-tuning IPC threshold, Type 3",
        &["threshold", "mean IPC", "switches", "P(benign)"],
    );
    for (name, ipc, sw, b) in rows {
        t.row(vec![name, f3(ipc), sw.to_string(), f3(b)]);
    }
    t
}

/// X2: job-scheduler integration (§3/§7 extension): DT clog-mark-assisted
/// eviction vs oblivious round-robin eviction, with more jobs than
/// hardware contexts.
pub fn jobsched(p: &ExpParams) -> Table {
    use smt_workloads::app;
    let mixes = p.mixes();
    let points: Vec<(usize, EvictionPolicy)> = (0..mixes.len())
        .flat_map(|mi| {
            [EvictionPolicy::ClogMarks, EvictionPolicy::RoundRobin]
                .into_iter()
                .map(move |e| (mi, e))
        })
        .collect();
    let timeslice = 8u64;
    let timeslices = (p.quanta / timeslice).max(2);
    let results = par_map(points.clone(), |&(mi, eviction)| {
        let mix = &mixes[mi];
        let cfg = JobSchedConfig {
            adts: adts(HeuristicKind::Type3, 2.0, p),
            timeslice_quanta: timeslice,
            eviction,
            ..Default::default()
        };
        // The waiting pool: three extra jobs beyond the eight contexts.
        let pool = vec![app("gap"), app("apsi"), app("vortex")];
        let key = sweep::point_key("jobsched", mix, p, &(cfg.clone(), pool.clone(), timeslices));
        sweep::engine().run_value::<(f64, usize)>(key, || {
            let mut machine = machine_for_mix(mix, p.seed);
            let mut js = JobScheduler::new(cfg, pool);
            let running = mix.apps.iter().map(|a| a.name.clone()).collect();
            let out = js.run(&mut machine, running, timeslices);
            (out.series.aggregate_ipc(), out.swaps.len())
        })
    });
    let mut t = Table::new(
        "X2 — job scheduler with DT clog-mark-assisted eviction vs oblivious RR",
        &["mix", "assisted IPC", "oblivious IPC", "delta", "swaps"],
    );
    let (mut asst, mut obli) = (Vec::new(), Vec::new());
    for (mi, mix) in mixes.iter().enumerate() {
        let (a_ipc, a_swaps) = results[mi * 2];
        let (o_ipc, _) = results[mi * 2 + 1];
        asst.push(a_ipc);
        obli.push(o_ipc);
        t.row(vec![
            mix.name.clone(),
            f3(a_ipc),
            f3(o_ipc),
            pct(a_ipc / o_ipc - 1.0),
            a_swaps.to_string(),
        ]);
    }
    t.row(vec![
        "MEAN".into(),
        f3(mean(&asst)),
        f3(mean(&obli)),
        pct(mean(&asst) / mean(&obli) - 1.0),
        String::new(),
    ]);
    t
}

/// A5: fetch-mechanism ablation — the ICOUNT a.b partitioning study of
/// \[20\] rebuilt on this substrate: a = threads fetched per cycle,
/// b = total fetch width.
pub fn ablate_fetchmech(p: &ExpParams) -> Table {
    let mechs: [(&str, usize, usize); 5] = [
        ("ICOUNT1.8", 1, 8),
        ("ICOUNT2.4", 2, 4),
        ("ICOUNT2.8", 2, 8),
        ("ICOUNT4.8", 4, 8),
        ("ICOUNT8.8", 8, 8),
    ];
    let mixes = p.mixes();
    let rows = par_map(mechs.to_vec(), |&(name, threads_per_cycle, width)| {
        let mut ipcs = Vec::new();
        for mix in &mixes {
            let mut cfg = default_cfg(mix);
            cfg.max_fetch_threads = threads_per_cycle.min(mix.apps.len());
            cfg.fetch_width = width;
            let s = point_series(mix, p, cfg, Spec::Fixed(FetchPolicy::Icount), name);
            ipcs.push(s.aggregate_ipc());
        }
        (name, mean(&ipcs))
    });
    let mut t = Table::new(
        "A5 — fetch-mechanism (ICOUNT a.b) ablation, fixed ICOUNT priority",
        &["mechanism", "mean IPC"],
    );
    for (name, ipc) in rows {
        t.row(vec![name.to_string(), f3(ipc)]);
    }
    t
}

/// A6: next-line L2 prefetcher ablation — does a simple sequential
/// prefetcher change the fixed-policy ranking or the adaptive gain?
pub fn ablate_prefetch(p: &ExpParams) -> Table {
    let mixes = p.mixes();
    let points: Vec<bool> = vec![false, true];
    let rows = par_map(points, |&prefetch| {
        let (mut ic, mut ad) = (Vec::new(), Vec::new());
        for mix in &mixes {
            let mut cfg = default_cfg(mix);
            cfg.next_line_prefetch = prefetch;
            let label = format!("prefetch={prefetch}");
            let fixed = Spec::Fixed(FetchPolicy::Icount);
            ic.push(point_series(mix, p, cfg.clone(), fixed, &label).aggregate_ipc());
            let adaptive = Spec::Adaptive(adts(HeuristicKind::Type1, 4.0, p), None);
            ad.push(point_series(mix, p, cfg, adaptive, &label).aggregate_ipc());
        }
        (prefetch, mean(&ic), mean(&ad))
    });
    let mut t = Table::new(
        "A6 — next-line L2 prefetch ablation",
        &["prefetch", "ICOUNT IPC", "ADTS(T1,m4) IPC"],
    );
    for (pf, ic, ad) in rows {
        t.row(vec![if pf { "on" } else { "off" }.into(), f3(ic), f3(ad)]);
    }
    t
}

/// E8b — robustness: the E8 comparison on randomly generated mixes (same
/// taxonomy constraints as the paper's hand-built thirteen), so the
/// conclusion is not an artifact of mix selection.
pub fn headline_random(p: &ExpParams, n_mixes: usize) -> Table {
    use smt_workloads::{generate_mixes, MixConstraints};
    let constraints = MixConstraints {
        int_members: Some(4),
        ..Default::default()
    };
    let mixes = generate_mixes(&constraints, p.seed, n_mixes);
    let rows = par_map(mixes, |mix| {
        let ic = fixed_series(mix, FetchPolicy::Icount, p).aggregate_ipc();
        let ad = adaptive_series(mix, adts(HeuristicKind::Type1, 4.0, p), p).aggregate_ipc();
        let members: Vec<&str> = mix.apps.iter().map(|a| a.name.as_str()).collect();
        (mix.name.clone(), members.join(" "), ic, ad)
    });
    let mut t = Table::new(
        "E8b — ADTS vs fixed ICOUNT on random constrained mixes",
        &["mix", "members", "ICOUNT", "ADTS(T1,m4)", "delta"],
    );
    let (mut ics, mut ads) = (Vec::new(), Vec::new());
    for (name, members, ic, ad) in rows {
        ics.push(ic);
        ads.push(ad);
        t.row(vec![name, members, f3(ic), f3(ad), pct(ad / ic - 1.0)]);
    }
    t.row(vec![
        "MEAN".into(),
        String::new(),
        f3(mean(&ics)),
        f3(mean(&ads)),
        pct(mean(&ads) / mean(&ics) - 1.0),
    ]);
    t
}

// ---------------------------------------------------------------------
// X3 — thread-to-core allocation sweep (multi-core)
// ---------------------------------------------------------------------

/// The per-core fetch policies the allocation sweep crosses with the
/// allocation policies: the paper's best fixed policy and the baseline.
pub const ALLOC_FETCHES: [FetchPolicy; 2] = [FetchPolicy::Icount, FetchPolicy::RoundRobin];

/// One (fetch, allocation, mix) outcome.
#[derive(Clone, Debug)]
pub struct AllocCellResult {
    pub ipc: f64,
    /// Cross-core migrations over the measured quanta.
    pub migrations: usize,
}

/// The allocation sweep: per-core fetch policy × allocation policy ×
/// mix on an `cores`-core machine sharing one L2.
pub struct AllocSweep {
    pub cores: usize,
    pub penalty: u64,
    pub fetches: Vec<FetchPolicy>,
    pub allocs: Vec<AllocKind>,
    pub mix_names: Vec<String>,
    /// `cells[f][a][m]`.
    pub cells: Vec<Vec<Vec<AllocCellResult>>>,
    pub quanta: u64,
}

/// Run the allocation sweep. Like [`threshold_type_sweep`] it steps as
/// lockstep batches: all fetch × allocation points of one mix share one
/// warmed [`smt_sim::MultiCoreMachine`] (from the warm pool's multi-core
/// layer) until their placements diverge.
pub fn alloc_sweep(p: &ExpParams, cores: usize, allocs: &[AllocKind], penalty: u64) -> AllocSweep {
    alloc_sweep_with(p, cores, allocs, penalty, true)
}

/// Cache key of one allocation point; shared by both stepping modes.
fn alloc_point_key(
    mix: &Mix,
    p: &ExpParams,
    cores: usize,
    penalty: u64,
    fetch: FetchPolicy,
    alloc: AllocKind,
) -> sweep::CacheKey {
    sweep::point_key(
        "alloc",
        mix,
        p,
        &(
            default_cfg(mix),
            (cores as u64, penalty),
            fetch,
            alloc.name(),
        ),
    )
}

/// Step every (fetch, alloc) point of one mix as one lockstep batch on a
/// single warmed multi-core machine. Cell `f * allocs.len() + a` is
/// (fetch `f`, alloc `a`) — the order [`alloc_sweep_with`] indexes by.
fn run_alloc_mix_batch(
    mix: &Mix,
    fetches: &[FetchPolicy],
    allocs: &[AllocKind],
    p: &ExpParams,
    cores: usize,
    penalty: u64,
) -> Vec<RunSeries> {
    let machine = crate::warm::warmed_multicore(mix, p, cores, penalty);
    let mut cells = Vec::with_capacity(fetches.len() * allocs.len());
    for &f in fetches {
        for &a in allocs {
            cells.push(AllocCell::new(f, a, p.quantum_cycles, &machine));
        }
    }
    let mut batch = smt_sim::MachineBatch::new(machine, cells);
    for q in 0..p.quanta {
        let forks = batch.run_quantum();
        sweep::span::note_batch_forks(q, &forks);
    }
    batch
        .into_cells()
        .into_iter()
        .map(AllocCell::into_series)
        .collect()
}

/// [`alloc_sweep`] with the stepping mode chosen explicitly.
/// `batched = false` runs every point on its own warmed machine: the
/// scalar reference the batch tests compare against, bit-identical per
/// point and sharing its cache keys.
pub fn alloc_sweep_with(
    p: &ExpParams,
    cores: usize,
    allocs: &[AllocKind],
    penalty: u64,
    batched: bool,
) -> AllocSweep {
    assert!(cores >= 1, "need at least one core");
    assert!(!allocs.is_empty(), "need at least one allocation policy");
    let fetches = ALLOC_FETCHES.to_vec();
    let allocs = allocs.to_vec();
    let mixes = p.mixes();

    let batches: Vec<OnceLock<Vec<RunSeries>>> = mixes.iter().map(|_| OnceLock::new()).collect();
    let series_for = |mi: usize, cell: usize| -> RunSeries {
        batches[mi]
            .get_or_init(|| run_alloc_mix_batch(&mixes[mi], &fetches, &allocs, p, cores, penalty))
            [cell]
            .clone()
    };

    let mut points = Vec::new();
    for (fi, &f) in fetches.iter().enumerate() {
        for (ai, &a) in allocs.iter().enumerate() {
            for mi in 0..mixes.len() {
                points.push((fi, ai, mi, f, a));
            }
        }
    }
    let results = par_map(points.clone(), |&(fi, ai, mi, f, a)| {
        let mix = &mixes[mi];
        let key = alloc_point_key(mix, p, cores, penalty, f, a);
        let point = format!("{}/c{}/{}/{}", mix.name, cores, f.name(), a.name());
        let s = sweep::engine().run_series("alloc", &point, key, || {
            if batched {
                series_for(mi, fi * allocs.len() + ai)
            } else {
                let mut m = crate::warm::warmed_multicore(mix, p, cores, penalty);
                adts_core::run_alloc(f, a, &mut m, p.quanta, p.quantum_cycles)
            }
        });
        AllocCellResult {
            ipc: s.aggregate_ipc(),
            // AllocCell records one switch event per migration.
            migrations: s.switches.len(),
        }
    });

    let mut cells = vec![vec![Vec::with_capacity(mixes.len()); allocs.len()]; fetches.len()];
    for ((fi, ai, _, _, _), cell) in points.into_iter().zip(results) {
        cells[fi][ai].push(cell);
    }
    AllocSweep {
        cores,
        penalty,
        fetches,
        allocs,
        mix_names: mixes.iter().map(|m| m.name.clone()).collect(),
        cells,
        quanta: p.quanta,
    }
}

impl AllocSweep {
    fn col_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for f in &self.fetches {
            for a in &self.allocs {
                names.push(format!("{}/{}", f.name(), a.name()));
            }
        }
        names
    }

    fn col(&self, fi: usize, ai: usize) -> &[AllocCellResult] {
        &self.cells[fi][ai]
    }

    /// Aggregate IPC per mix and (fetch, allocation) pair, with a MEAN row.
    pub fn ipc_table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.col_names());
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!(
                "X3 — aggregate IPC by thread-to-core allocation ({} cores, penalty {})",
                self.cores, self.penalty
            ),
            &hrefs,
        );
        for (mi, name) in self.mix_names.iter().enumerate() {
            let mut row = vec![name.clone()];
            for fi in 0..self.fetches.len() {
                for ai in 0..self.allocs.len() {
                    row.push(f3(self.col(fi, ai)[mi].ipc));
                }
            }
            t.row(row);
        }
        let mut row = vec!["MEAN".to_string()];
        for fi in 0..self.fetches.len() {
            for ai in 0..self.allocs.len() {
                let vals: Vec<f64> = self.col(fi, ai).iter().map(|c| c.ipc).collect();
                row.push(f3(mean(&vals)));
            }
        }
        t.row(row);
        t
    }

    /// Cross-core migrations per run of `quanta` quanta, same shape as
    /// [`ipc_table`](AllocSweep::ipc_table).
    pub fn migration_table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.col_names());
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!(
                "X3 — cross-core migrations per {} quanta ({} cores, penalty {})",
                self.quanta, self.cores, self.penalty
            ),
            &hrefs,
        );
        for (mi, name) in self.mix_names.iter().enumerate() {
            let mut row = vec![name.clone()];
            for fi in 0..self.fetches.len() {
                for ai in 0..self.allocs.len() {
                    row.push(self.col(fi, ai)[mi].migrations.to_string());
                }
            }
            t.row(row);
        }
        t
    }

    /// The best (fetch, allocation) pair by mean IPC.
    pub fn best(&self) -> (FetchPolicy, AllocKind, f64) {
        let mut best = (self.fetches[0], self.allocs[0], f64::MIN);
        for (fi, &f) in self.fetches.iter().enumerate() {
            for (ai, &a) in self.allocs.iter().enumerate() {
                let vals: Vec<f64> = self.col(fi, ai).iter().map(|c| c.ipc).collect();
                let ipc = mean(&vals);
                if ipc > best.2 {
                    best = (f, a, ipc);
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------
// Threshold calibration (§4.3.2) and W1 — workload characterization
// ---------------------------------------------------------------------

/// Recompute the COND_MEM / COND_BR threshold constants the way the paper
/// did (§4.3.2): "We ran eight-thread simulation in our SMT simulator with
/// our 13 different mixes of applications and ended up with an average
/// value for each metric." Runs the paper's protocol (seed 42, 6 + 30
/// quanta of 8,192 cycles, all 13 mixes under ICOUNT) whatever the run's
/// scale, and returns the report: that protocol, then each metric's mean
/// beside the current [`CondThresholds::default`] and the paper's value.
/// Run it after any change to the machine model or workloads, and update
/// the defaults if the means moved materially.
pub fn calibrate() -> String {
    let p = ExpParams {
        seed: 42,
        warmup_quanta: 6,
        quanta: 30,
        quantum_cycles: 8192,
        mix_ids: (1..=MIX_COUNT).collect(),
    };
    let per_mix = par_map(p.mixes(), |mix| fixed_series(mix, FetchPolicy::Icount, &p));
    let quanta: Vec<&QuantumRecord> = per_mix.iter().flat_map(|s| &s.quanta).collect();
    let mean_of =
        |f: fn(&QuantumRecord) -> f64| mean(&quanta.iter().map(|q| f(q)).collect::<Vec<_>>());
    let (current, paper) = (CondThresholds::default(), CondThresholds::paper());
    type Metric = (
        &'static str,
        fn(&QuantumRecord) -> f64,
        fn(&CondThresholds) -> f64,
    );
    let metrics: [Metric; 4] = [
        ("L1 miss / cycle", |q| q.l1_miss_rate, |c| c.l1_miss_rate),
        ("LSQ full / cycle", |q| q.lsq_full_rate, |c| c.lsq_full_rate),
        (
            "mispredict / cycle",
            |q| q.mispredict_rate,
            |c| c.mispredict_rate,
        ),
        ("cond br / cycle", |q| q.branch_rate, |c| c.branch_rate),
    ];
    let mut out = format!(
        "COND_* threshold calibration (section 4.3.2): fixed ICOUNT, seed {}, \
         {} + {} quanta of {} cycles, all {} mixes\n\n\
         metric             mean (13 mixes)   current default   paper\n",
        p.seed,
        p.warmup_quanta,
        p.quanta,
        p.quantum_cycles,
        p.mix_ids.len()
    );
    for (name, rate, threshold) in metrics {
        out.push_str(&format!(
            "{name:<18} {:>14.3}   {:>15.3}   {:.3}\n",
            mean_of(rate),
            threshold(&current),
            threshold(&paper)
        ));
    }
    out.push_str(&format!(
        "aggregate IPC      {:>14.3}\n",
        mean_of(|q| q.ipc)
    ));
    out.push_str(
        "\nPer the paper's method, CondThresholds::default should carry the\n\
         measured means; the COND_* conditions then fire exactly when a\n\
         quantum is above-average in that pathology.\n",
    );
    out
}

/// One app's measured single-thread character (the cacheable W1 unit).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CharRow {
    ipc: f64,
    mispred_per_branch: f64,
    l1d_miss_per_mem: f64,
    l1i_per_kcycle: f64,
    l2_per_kcycle: f64,
    wrongpath_frac: f64,
    branch_pct: f64,
    mem_pct: f64,
}

fn measure_app(name: &str, cfg: &SimConfig, warm: u64, run: u64, seed: u64) -> CharRow {
    let stream = UopStream::new(Arc::new(app(name)), seed, thread_addr_base(0));
    let mut m = SmtMachine::new(cfg.clone(), vec![stream]);
    let mut tsu = Tsu::new(FetchPolicy::Icount, 1);
    m.run(warm, &mut tsu);
    let warmed = m.counter_snapshot();
    m.run(run, &mut tsu);
    let delta = warmed.delta(&m.counter_snapshot());
    let c = &delta.threads[0];
    let dc = delta.cycle as f64;
    let committed = c.committed as f64;
    let branches = (c.branches_resolved as f64).max(1.0);
    let mem = (c.loads + c.stores) as f64;
    let fetched = c.fetched as f64;
    let wp = c.wrongpath_fetched as f64;
    CharRow {
        ipc: committed / dc,
        mispred_per_branch: c.mispredicts as f64 / branches,
        l1d_miss_per_mem: c.l1d_misses as f64 / mem.max(1.0),
        l1i_per_kcycle: c.l1i_misses as f64 / dc * 1000.0,
        l2_per_kcycle: c.l2_misses as f64 / dc * 1000.0,
        wrongpath_frac: wp / (fetched + wp).max(1.0),
        branch_pct: 100.0 * c.cond_branches as f64 / fetched.max(1.0),
        mem_pct: 100.0 * mem / committed.max(1.0),
    }
}

/// W1 — single-thread characterization of every synthetic application
/// model: the table that backs DESIGN.md's claim that the workload
/// substitution lands each app in the counter-rate regime of its SPEC
/// CPU2000 namesake. Runs its own protocol (seed 42, 700k cycles after a
/// 100k warmup per app, long enough to span several full storm + quiet
/// phase cycles, so each row is the app's *average* character) whatever
/// the run's scale. Each app's row is cached on its full profile, the
/// machine config and the window.
pub fn characterize() -> Table {
    let (warm, run, seed) = (100_000u64, 700_000u64, 42u64);
    let cfg = SimConfig::with_threads(1);
    let mut t = Table::new(
        &format!("W1 — single-thread app characterization ({run} cycles after {warm} warmup)"),
        &[
            "app",
            "class",
            "IPC",
            "mispred/br",
            "L1D miss",
            "L1I/kcyc",
            "L2/kcyc",
            "wrong-path",
            "branch%",
            "mem%",
        ],
    );
    for name in app_names() {
        let profile = app(name);
        let key = sweep::point_key("characterize", &profile, &(warm, run, seed), &cfg);
        let row =
            sweep::engine().run_value::<CharRow>(key, || measure_app(name, &cfg, warm, run, seed));
        t.row(vec![
            name.to_string(),
            format!("{:?}", profile.class),
            format!("{:.2}", row.ipc),
            format!("{:.3}", row.mispred_per_branch),
            format!("{:.3}", row.l1d_miss_per_mem),
            format!("{:.2}", row.l1i_per_kcycle),
            format!("{:.2}", row.l2_per_kcycle),
            format!("{:.2}", row.wrongpath_frac),
            format!("{:.1}", row.branch_pct),
            format!("{:.1}", row.mem_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpParams {
        ExpParams::smoke()
    }

    #[test]
    fn table1_has_all_rows_and_policies() {
        let t = table1(&smoke());
        // 3 mixes + MEAN row.
        assert_eq!(t.n_rows(), 4);
        let s = t.render();
        for pol in FetchPolicy::ALL {
            assert!(s.contains(pol.name()), "missing {}", pol.name());
        }
    }

    #[test]
    fn sweep_views_are_complete() {
        let p = ExpParams {
            mix_ids: vec![9],
            ..smoke()
        };
        let sw = threshold_type_sweep(&p);
        for metric in [SweepMetric::Switches, SweepMetric::BenignProb] {
            assert_eq!(sw.by_threshold(metric).n_rows(), 5);
            assert_eq!(sw.by_type(metric).n_rows(), 5);
        }
        assert_eq!(sw.by_threshold(SweepMetric::Ipc).n_rows(), 5);
        assert_eq!(sw.by_type(SweepMetric::Ipc).n_rows(), 6); // 5 types + baseline row
        let (m, _, ipc) = sw.best();
        assert!(m >= 1.0 && ipc > 0.0);
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let p = ExpParams {
            mix_ids: vec![9],
            ..smoke()
        };
        // No persistent cache in unit tests, so both calls simulate. The
        // public entry point batches; the scalar reference is explicit.
        let scalar = threshold_type_sweep_with(&p, false);
        let batched = threshold_type_sweep(&p);
        assert_eq!(batched.icount, scalar.icount, "fixed baseline diverged");
        for ti in 0..scalar.thresholds.len() {
            for ki in 0..scalar.kinds.len() {
                for mi in 0..scalar.mix_names.len() {
                    let s = &scalar.cells[ti][ki][mi];
                    let b = &batched.cells[ti][ki][mi];
                    assert_eq!(
                        (b.ipc, b.switches, b.judged, b.benign),
                        (s.ipc, s.switches, s.judged, s.benign),
                        "cell (t={ti}, k={ki}, mix={mi}) diverged"
                    );
                }
            }
        }
        // The identity above is not vacuous: the batch really shares
        // machines among its cells.
        let machine = warmed_machine(&p.mixes()[0], &p);
        let specs = sweep_specs(&batched.thresholds, &batched.kinds, &p);
        let (_, stats) = run_sweep_batch(machine, &specs, &p);
        assert_eq!(stats.cell_quanta, 26 * p.quanta);
        assert!(
            stats.machine_quanta < stats.cell_quanta,
            "no machine sharing happened: {stats:?}"
        );
    }

    #[test]
    fn headline_has_mean_row() {
        let t = headline(&smoke());
        assert_eq!(t.n_rows(), 4);
        assert!(t.render().contains("MEAN"));
    }

    #[test]
    fn scaling_covers_thread_counts() {
        let p = ExpParams {
            mix_ids: vec![1],
            ..smoke()
        };
        let t = scaling(&p);
        assert_eq!(t.n_rows(), 5);
    }

    #[test]
    fn ablations_render() {
        let p = ExpParams {
            mix_ids: vec![9],
            ..smoke()
        };
        assert_eq!(ablate_cond(&p).n_rows(), 3);
        assert_eq!(ablate_rotation(&p).n_rows(), 4);
        assert_eq!(ablate_dt(&p).n_rows(), 12);
    }

    #[test]
    fn headline_random_renders() {
        let p = smoke();
        let t = headline_random(&p, 2);
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn prefetch_ablation_renders() {
        let p = ExpParams {
            mix_ids: vec![6],
            ..smoke()
        };
        assert_eq!(ablate_prefetch(&p).n_rows(), 2);
    }

    /// A5's ICOUNT2.8 is the default fetch mechanism and A6's prefetch-off
    /// point the default memory system, so each must show what the main
    /// tables report for the same default-config point.
    #[test]
    fn ablation_default_points_reproduce_the_baselines() {
        let p = ExpParams {
            mix_ids: vec![1, 9],
            ..smoke()
        };
        let icount = table1(&p).cell("MEAN", "ICOUNT").map(str::to_string);
        let a5 = ablate_fetchmech(&p);
        let a6 = ablate_prefetch(&p);
        assert!(icount.is_some());
        assert_eq!(a5.cell("ICOUNT2.8", "mean IPC"), icount.as_deref());
        assert_eq!(a6.cell("off", "ICOUNT IPC"), icount.as_deref());
        let fig8 = threshold_type_sweep(&p).by_threshold(SweepMetric::Ipc);
        let adts = fig8.cell("m=4", "Type 1");
        assert!(adts.is_some());
        assert_eq!(a6.cell("off", "ADTS(T1,m4) IPC"), adts);
    }

    #[test]
    fn fetchmech_ablation_renders() {
        let p = ExpParams {
            mix_ids: vec![3],
            ..smoke()
        };
        let t = ablate_fetchmech(&p);
        assert_eq!(t.n_rows(), 5);
    }

    #[test]
    fn threshold_ablation_renders() {
        let p = ExpParams {
            mix_ids: vec![6],
            ..smoke()
        };
        assert_eq!(ablate_threshold(&p).n_rows(), 7);
    }

    #[test]
    fn alloc_sweep_views_are_complete() {
        let p = ExpParams {
            mix_ids: vec![1],
            ..smoke()
        };
        let sw = alloc_sweep_with(&p, 2, &AllocKind::ALL, 256, true);
        // 1 mix + MEAN row; one column per fetch × alloc pair.
        let t = sw.ipc_table();
        assert_eq!(t.n_rows(), 2);
        assert!(t.render().contains("ICOUNT/ipc-greedy"));
        assert_eq!(sw.migration_table().n_rows(), 1);
        let (_, _, ipc) = sw.best();
        assert!(ipc > 0.0);
        // rotate migrates every resident thread every quantum; static never.
        let rot = sw
            .allocs
            .iter()
            .position(|&a| a == AllocKind::Rotate)
            .unwrap();
        let sta = sw
            .allocs
            .iter()
            .position(|&a| a == AllocKind::Static)
            .unwrap();
        assert!(sw.cells[0][rot][0].migrations > 0);
        assert_eq!(sw.cells[0][sta][0].migrations, 0);
    }

    #[test]
    fn batched_alloc_sweep_is_bit_identical_to_scalar() {
        let p = ExpParams {
            mix_ids: vec![9],
            ..smoke()
        };
        let allocs = [AllocKind::Static, AllocKind::Rotate, AllocKind::IpcGreedy];
        let scalar = alloc_sweep_with(&p, 2, &allocs, 128, false);
        let batched = alloc_sweep_with(&p, 2, &allocs, 128, true);
        for fi in 0..scalar.fetches.len() {
            for ai in 0..scalar.allocs.len() {
                for mi in 0..scalar.mix_names.len() {
                    let s = &scalar.cells[fi][ai][mi];
                    let b = &batched.cells[fi][ai][mi];
                    assert_eq!(
                        (b.ipc, b.migrations),
                        (s.ipc, s.migrations),
                        "cell (f={fi}, a={ai}, mix={mi}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn jobsched_has_mean_row() {
        let p = ExpParams {
            mix_ids: vec![6, 9],
            ..smoke()
        };
        let t = jobsched(&p);
        assert_eq!(t.n_rows(), 3);
        assert!(t.render().contains("MEAN"));
    }
}
