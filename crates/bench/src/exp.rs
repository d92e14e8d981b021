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
    adaptive::SelfTuning, machine_for_mix, run_fixed, run_oracle, AdaptiveScheduler, AdtsConfig,
    AllocCell, AllocKind, CondThresholds, DtModel, EvictionPolicy, HeuristicKind, JobSchedConfig,
    JobScheduler, OracleConfig,
};
use smt_policies::FetchPolicy;
use smt_sim::SimConfig;
use smt_stats::{mean, RunSeries, Table};
use smt_workloads::Mix;

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

/// Fixed-policy run on a warmed machine (cached by content key).
pub fn fixed_series(mix: &Mix, policy: FetchPolicy, p: &ExpParams) -> RunSeries {
    let key = sweep::point_key("fixed", mix, p, &(default_cfg(mix), policy));
    sweep::engine().run_series(
        "fixed",
        &format!("{}/{}", mix.name, policy.name()),
        key,
        || {
            let mut m = warmed_machine(mix, p);
            run_fixed(policy, &mut m, p.quanta, p.quantum_cycles)
        },
    )
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
    let key = sweep::point_key(
        "adaptive",
        mix,
        p,
        &(default_cfg(mix), cfg, rotation.clone()),
    );
    let point = format!("{}/{}", mix.name, cfg.heuristic.name());
    sweep::engine().run_series("adaptive", &point, key, || {
        let mut m = warmed_machine(mix, p);
        let mut sched = AdaptiveScheduler::new(cfg, m.n_threads());
        if let Some(r) = rotation {
            sched.set_rotation(r);
        }
        for _ in 0..p.quanta {
            sched.run_quantum(&mut m);
        }
        sched.into_series()
    })
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
/// (the baseline context for Table 1; [20]'s ranking should reappear:
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
/// per point and sharing its cache keys.
pub fn threshold_type_sweep_with(p: &ExpParams, batched: bool) -> ThresholdTypeSweep {
    let thresholds: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0];
    let kinds = HeuristicKind::ALL.to_vec();
    let mixes = p.mixes();

    if batched {
        return threshold_type_sweep_batched(thresholds, kinds, mixes, p);
    }

    let icount = par_map(mixes.clone(), |mix| {
        fixed_series(mix, FetchPolicy::Icount, p).aggregate_ipc()
    });

    let mut points = Vec::new();
    for (ti, &m) in thresholds.iter().enumerate() {
        for (ki, &k) in kinds.iter().enumerate() {
            for mi in 0..mixes.len() {
                points.push((ti, ki, mi, m, k));
            }
        }
    }
    let results = par_map(points.clone(), |&(_, _, mi, m, k)| {
        let s = adaptive_series(&mixes[mi], adts(k, m, p), p);
        SweepCell {
            ipc: s.aggregate_ipc(),
            switches: s.switches.len(),
            judged: s.judged_switches(),
            benign: s.switches.iter().filter(|e| e.benign == Some(true)).count(),
        }
    });

    let mut cells = vec![vec![Vec::with_capacity(mixes.len()); kinds.len()]; thresholds.len()];
    for ((ti, ki, _, _, _), cell) in points.into_iter().zip(results) {
        cells[ti][ki].push(cell);
    }
    ThresholdTypeSweep {
        thresholds,
        kinds,
        mix_names: mixes.iter().map(|m| m.name.clone()).collect(),
        cells,
        icount,
        quanta: p.quanta,
    }
}

/// The canonical sweep's lockstep cells for one machine: the fixed-ICOUNT
/// baseline followed by every (threshold, heuristic) ADTS point. Cell 0 is
/// the baseline; cell `1 + ti*kinds.len() + ki` is (threshold `ti`,
/// heuristic `ki`) — the same order [`threshold_type_sweep_batched`]
/// indexes by.
pub(crate) fn sweep_point_cells(
    n_threads: usize,
    thresholds: &[f64],
    kinds: &[HeuristicKind],
    p: &ExpParams,
) -> Vec<adts_core::PointCell> {
    use adts_core::PointCell;
    let mut cells = vec![PointCell::fixed(FetchPolicy::Icount, p.quantum_cycles)];
    for &m in thresholds {
        for &k in kinds {
            cells.push(PointCell::adaptive(adts(k, m, p), n_threads));
        }
    }
    cells
}

/// Step all 26 points of one mix as one lockstep batch: one warm-pool
/// snapshot restored into a single machine, cells forking only where
/// policy decisions diverge (cell order per [`sweep_point_cells`]).
pub(crate) fn run_mix_batch(
    mix: &Mix,
    thresholds: &[f64],
    kinds: &[HeuristicKind],
    p: &ExpParams,
) -> (Vec<RunSeries>, smt_sim::BatchStats) {
    use adts_core::PointCell;
    let machine = warmed_machine(mix, p);
    let cells = sweep_point_cells(machine.n_threads(), thresholds, kinds, p);
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

/// The lockstep implementation behind [`threshold_type_sweep`].
///
/// Cache keys are exactly the scalar path's; the per-mix batch runs
/// lazily on the first cache miss of that mix and is shared by all its
/// missing points.
fn threshold_type_sweep_batched(
    thresholds: Vec<f64>,
    kinds: Vec<HeuristicKind>,
    mixes: Vec<Mix>,
    p: &ExpParams,
) -> ThresholdTypeSweep {
    use std::sync::OnceLock;
    let batches: Vec<OnceLock<Vec<RunSeries>>> = mixes.iter().map(|_| OnceLock::new()).collect();
    let series_for = |mi: usize, cell: usize| -> RunSeries {
        batches[mi].get_or_init(|| run_mix_batch(&mixes[mi], &thresholds, &kinds, p).0)[cell]
            .clone()
    };

    let icount: Vec<f64> = par_map((0..mixes.len()).collect(), |&mi| {
        let mix = &mixes[mi];
        let key = sweep::point_key("fixed", mix, p, &(default_cfg(mix), FetchPolicy::Icount));
        let point = format!("{}/{}", mix.name, FetchPolicy::Icount.name());
        sweep::engine()
            .run_series("fixed", &point, key, || series_for(mi, 0))
            .aggregate_ipc()
    });

    let mut points = Vec::new();
    for (ti, &m) in thresholds.iter().enumerate() {
        for (ki, &k) in kinds.iter().enumerate() {
            for mi in 0..mixes.len() {
                points.push((ti, ki, mi, m, k));
            }
        }
    }
    let results = par_map(points.clone(), |&(ti, ki, mi, m, k)| {
        let mix = &mixes[mi];
        let cfg = adts(k, m, p);
        let key = sweep::point_key(
            "adaptive",
            mix,
            p,
            &(default_cfg(mix), cfg, None::<Vec<FetchPolicy>>),
        );
        let point = format!("{}/{}", mix.name, cfg.heuristic.name());
        let cell = 1 + ti * kinds.len() + ki;
        let s = sweep::engine().run_series("adaptive", &point, key, || series_for(mi, cell));
        SweepCell {
            ipc: s.aggregate_ipc(),
            switches: s.switches.len(),
            judged: s.judged_switches(),
            benign: s.switches.iter().filter(|e| e.benign == Some(true)).count(),
        }
    });

    let mut cells = vec![vec![Vec::with_capacity(mixes.len()); kinds.len()]; thresholds.len()];
    for ((ti, ki, _, _, _), cell) in points.into_iter().zip(results) {
        cells[ti][ki].push(cell);
    }
    ThresholdTypeSweep {
        thresholds,
        kinds,
        mix_names: mixes.iter().map(|m| m.name.clone()).collect(),
        cells,
        icount,
        quanta: p.quanta,
    }
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

    fn header_kinds(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name().to_string()).collect()
    }

    /// Fig 7(a): number of switchings vs threshold value (one column per
    /// heuristic; mean switches per run of `quanta` quanta).
    pub fn fig7a(&self) -> Table {
        let hk = self.header_kinds();
        let mut headers = vec!["threshold".to_string()];
        headers.extend(hk);
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!(
                "E2 / Fig 7(a) — switchings per {} quanta vs threshold",
                self.quanta
            ),
            &hrefs,
        );
        for (ti, m) in self.thresholds.iter().enumerate() {
            let mut row = vec![format!("m={m}")];
            for ki in 0..self.kinds.len() {
                row.push(format!(
                    "{:.1}",
                    self.mean_over_mixes(ti, ki, |c| c.switches as f64)
                ));
            }
            t.row(row);
        }
        t
    }

    /// Fig 7(b): number of switchings vs heuristic type (one column per m).
    pub fn fig7b(&self) -> Table {
        let mut headers = vec!["type".to_string()];
        headers.extend(self.thresholds.iter().map(|m| format!("m={m}")));
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!(
                "E3 / Fig 7(b) — switchings per {} quanta vs heuristic type",
                self.quanta
            ),
            &hrefs,
        );
        for (ki, k) in self.kinds.iter().enumerate() {
            let mut row = vec![k.name().to_string()];
            for ti in 0..self.thresholds.len() {
                row.push(format!(
                    "{:.1}",
                    self.mean_over_mixes(ti, ki, |c| c.switches as f64)
                ));
            }
            t.row(row);
        }
        t
    }

    /// Fig 7(c): probability of benign switches vs threshold value.
    pub fn fig7c(&self) -> Table {
        let hk = self.header_kinds();
        let mut headers = vec!["threshold".to_string()];
        headers.extend(hk);
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "E4 / Fig 7(c) — probability of benign switches vs threshold",
            &hrefs,
        );
        for (ti, m) in self.thresholds.iter().enumerate() {
            let mut row = vec![format!("m={m}")];
            for ki in 0..self.kinds.len() {
                row.push(match self.benign_prob(ti, ki) {
                    Some(p) => format!("{p:.3}"),
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
        t
    }

    /// Fig 7(d): probability of benign switches vs heuristic type.
    pub fn fig7d(&self) -> Table {
        let mut headers = vec!["type".to_string()];
        headers.extend(self.thresholds.iter().map(|m| format!("m={m}")));
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "E5 / Fig 7(d) — probability of benign switches vs heuristic type",
            &hrefs,
        );
        for (ki, k) in self.kinds.iter().enumerate() {
            let mut row = vec![k.name().to_string()];
            for ti in 0..self.thresholds.len() {
                row.push(match self.benign_prob(ti, ki) {
                    Some(p) => format!("{p:.3}"),
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
        t
    }

    /// Fig 8(a)/(c): aggregate IPC vs threshold value (column per type,
    /// plus the fixed-ICOUNT baseline).
    pub fn fig8a(&self) -> Table {
        let hk = self.header_kinds();
        let mut headers = vec!["threshold".to_string()];
        headers.extend(hk);
        headers.push("fixed ICOUNT".to_string());
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "E6 / Fig 8(a,c) — aggregate IPC vs threshold (mean over mixes)",
            &hrefs,
        );
        let base = mean(&self.icount);
        for (ti, m) in self.thresholds.iter().enumerate() {
            let mut row = vec![format!("m={m}")];
            for ki in 0..self.kinds.len() {
                row.push(f3(self.mean_over_mixes(ti, ki, |c| c.ipc)));
            }
            row.push(f3(base));
            t.row(row);
        }
        t
    }

    /// Fig 8(b)/(d): aggregate IPC vs heuristic type (column per m).
    pub fn fig8b(&self) -> Table {
        let mut headers = vec!["type".to_string()];
        headers.extend(self.thresholds.iter().map(|m| format!("m={m}")));
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "E7 / Fig 8(b,d) — aggregate IPC vs heuristic type (mean over mixes)",
            &hrefs,
        );
        for (ki, k) in self.kinds.iter().enumerate() {
            let mut row = vec![k.name().to_string()];
            for ti in 0..self.thresholds.len() {
                row.push(f3(self.mean_over_mixes(ti, ki, |c| c.ipc)));
            }
            t.row(row);
        }
        let mut row = vec!["fixed ICOUNT".to_string()];
        let base = mean(&self.icount);
        for _ in 0..self.thresholds.len() {
            row.push(f3(base));
        }
        t.row(row);
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
/// [20] rebuilt on this substrate: a = threads fetched per cycle,
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
            let mut cfg = smt_sim::SimConfig::with_threads(mix.apps.len());
            cfg.max_fetch_threads = threads_per_cycle.min(mix.apps.len());
            cfg.fetch_width = width;
            let key = sweep::point_key("fetchmech", mix, p, &(cfg.clone(), FetchPolicy::Icount));
            let point = format!("{}/{name}", mix.name);
            let s = sweep::engine().run_series("fetchmech", &point, key, || {
                let mut m = warmed_machine_with(cfg.clone(), mix, p);
                run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
            });
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
            let mut cfg = smt_sim::SimConfig::with_threads(mix.apps.len());
            cfg.next_line_prefetch = prefetch;
            let fixed_key = sweep::point_key(
                "prefetch-fixed",
                mix,
                p,
                &(cfg.clone(), FetchPolicy::Icount),
            );
            let point = format!("{}/prefetch={prefetch}", mix.name);
            let cfg_fixed = cfg.clone();
            let s = sweep::engine().run_series("fixed", &point, fixed_key, || {
                let mut m = warmed_machine_with(cfg_fixed, mix, p);
                run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
            });
            ic.push(s.aggregate_ipc());
            let acfg = adts(HeuristicKind::Type1, 4.0, p);
            let ad_key = sweep::point_key("prefetch-adaptive", mix, p, &(cfg.clone(), acfg));
            let s = sweep::engine().run_series("adaptive", &point, ad_key, || {
                let mut m = warmed_machine_with(cfg, mix, p);
                let mut sched = AdaptiveScheduler::new(acfg, m.n_threads());
                for _ in 0..p.quanta {
                    sched.run_quantum(&mut m);
                }
                sched.into_series()
            });
            ad.push(s.aggregate_ipc());
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

    use std::sync::OnceLock;
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
        assert_eq!(sw.fig7a().n_rows(), 5);
        assert_eq!(sw.fig7b().n_rows(), 5);
        assert_eq!(sw.fig7c().n_rows(), 5);
        assert_eq!(sw.fig7d().n_rows(), 5);
        assert_eq!(sw.fig8a().n_rows(), 5);
        assert_eq!(sw.fig8b().n_rows(), 6); // 5 types + baseline row
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
        let (_, stats) = run_mix_batch(&p.mixes()[0], &batched.thresholds, &batched.kinds, &p);
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
