//! The measurement protocol: reps in a closed loop for the run's time
//! budget, the fingerprint check of every rep, and the metrics.
//!
//! Every rep does bit-identical work (the fingerprints prove it), so each
//! quantum of the timed region is the same work in every rep. The timed
//! region's best time is the sum over its quanta of each quantum's
//! fastest time across the reps: slow phases of co-tenants on a shared
//! host only ever add time, and they rarely cover the same quantum in
//! every rep. Set-up time is the median rep's.
//!
//! Slow phases that last minutes slow a whole run, though. Every rep
//! therefore also times a fixed reference loop
//! ([`host::reference_ns_per_iter`]), and the end-to-end times are
//! scaled to a host that runs it at [`REF_NS_PER_ITER`]: the same phase
//! slows the loop and the simulator alike, so the scaled times keep the
//! simulator's own cost and drop most of the host's.

use crate::host;
use crate::probe::{self, LayerAcc};
use crate::workload::{Point, Spec, SWEEP_JOBS};
use smt_bench::sweep;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// The reference loop's speed on the 2-vCPU Xeon host the bounds were
/// set on, in a quiet phase. End-to-end times are scaled to a host
/// running the loop at this speed, so on that host they read as raw
/// seconds when it is quiet.
const REF_NS_PER_ITER: f64 = 1.8;

/// Expected fingerprint per point label.
pub type Expected = BTreeMap<String, u64>;

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How to run one workload.
pub struct Options<'a> {
    pub seed: u64,
    /// Time budget: reps continue until the next one would overrun it.
    pub seconds: f64,
    pub trace: bool,
    /// Fingerprints every point must match; `None` checks that reps agree.
    pub expected: Option<&'a Expected>,
    /// Directory for the checkpoint stores and snapshot probes.
    pub out: &'a Path,
}

/// What a run measured.
pub struct Report {
    /// End-to-end metrics (the untraced run's result).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (the traced run's result; empty untraced).
    pub layer: Vec<Metric>,
    /// Printed beside the others, never compared.
    pub info: Vec<Metric>,
    /// Point checks made and failed, over every rep.
    pub attempted: u64,
    pub failed: u64,
    /// The first successful rep's points.
    pub points: Vec<Point>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.e2e.is_empty()
    }
}

/// Timings and outputs of one successful rep.
pub(crate) struct RepOut {
    pub traced: bool,
    pub setup_s: f64,
    pub quantum_ns: Vec<u64>,
    pub machine_cycles: u64,
    pub warmups: u64,
    /// The reference loop's speed right after the timed region.
    pub ref_ns_per_iter: f64,
    pub points: Vec<Point>,
    /// A traced rep's public-entry-point points, checked like `points`.
    pub public_points: Vec<Point>,
    pub layer: Option<Layer>,
}

/// Per-layer measurements of one traced rep.
pub(crate) struct Layer {
    acc: LayerAcc,
    snapshots: u64,
    snapshot_bytes: u64,
    snapshot_ns: u64,
    ns_per_uop: f64,
    switches_per_cell: f64,
    migrations_per_cell: f64,
    cpu_util: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One rep: set up, run the timed region, fingerprint. Traced reps then
/// run the public sweep entry point and the standalone probes. A panic
/// fails the rep, not the run.
pub(crate) fn one_rep(spec: &Spec, opts: &Options, traced: bool) -> Result<RepOut, String> {
    let rec = probe::recorder();
    let _rep = rec.begin(if traced { "rep (traced)" } else { "rep" }, "rep");
    sweep::span::set_enabled(traced);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let (warmed, warmups) = {
            let _sp = rec.begin("setup", "setup");
            spec.setup(opts.seed, &opts.out.join("ckpt").join(spec.name))
        };
        let setup_s = secs(t0);
        let cpu0 = host::cpu_seconds();
        let t1 = Instant::now();
        let (run, acc) = {
            let _sp = rec.begin("timed", "timed");
            if traced {
                probe::collect(|| spec.run(opts.seed, warmed, true))
            } else {
                (spec.run(opts.seed, warmed, false), LayerAcc::default())
            }
        };
        let mut cpu_util = (host::cpu_seconds() - cpu0) / secs(t1);
        let ref_ns_per_iter = host::reference_ns_per_iter();
        let points = spec.fingerprints(&run.outcome);
        let mut public_points = Vec::new();
        let layer = traced.then(|| {
            if spec.batched() {
                let _sp = rec.begin("public entry point", "public");
                let cpu0 = host::cpu_seconds();
                let t = Instant::now();
                public_points = spec.fingerprints(&spec.run_public(opts.seed));
                cpu_util = (host::cpu_seconds() - cpu0) / (SWEEP_JOBS as f64 * secs(t));
            }
            let snap_dir = opts.out.join("snap").join(spec.name);
            let (snapshots, snapshot_bytes, snapshot_ns) =
                spec.snapshot_probe(opts.seed, &run.outcome, &snap_dir);
            let _ = std::fs::remove_dir_all(&snap_dir);
            let (switches_per_cell, migrations_per_cell) = spec.decisions_per_cell(&run.outcome);
            Layer {
                acc,
                snapshots,
                snapshot_bytes,
                snapshot_ns,
                ns_per_uop: spec.uop_probe(opts.seed),
                switches_per_cell,
                migrations_per_cell,
                cpu_util,
            }
        });
        RepOut {
            traced,
            setup_s,
            quantum_ns: run.quantum_ns,
            machine_cycles: run.machine_cycles,
            warmups,
            ref_ns_per_iter,
            points,
            public_points,
            layer,
        }
    }));
    sweep::span::set_enabled(false);
    out.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// Run `spec` for the time budget and measure it.
pub fn run(spec: &Spec, opts: &Options) -> Report {
    let rec = probe::recorder();
    rec.set_enabled(opts.trace);
    let _wl = rec.begin(spec.name, "workload");
    // Untraced reps give the end-to-end metrics; a traced run alternates
    // them with traced reps so `trace.overhead` compares like with like.
    let (min_untraced, min_traced) = if opts.trace { (2, 1) } else { (3, 0) };
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut reps: Vec<(bool, Result<RepOut, String>)> = Vec::new();
    loop {
        let traced = opts.trace && reps.len() % 2 == 1;
        let rep = one_rep(spec, opts, traced);
        if let Err(why) = &rep {
            eprintln!("{}: rep {} failed: {why}", spec.name, reps.len());
        }
        reps.push((traced, rep));
        let n_traced = reps.iter().filter(|(t, _)| *t).count();
        let enough = reps.len() - n_traced >= min_untraced && n_traced >= min_traced;
        let elapsed = start.elapsed();
        if enough && elapsed + elapsed / reps.len() as u32 > budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(opts.out.join("ckpt").join(spec.name));

    let ok: Vec<&RepOut> = reps.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    let (attempted, failed) = check(spec, &reps, opts.expected);
    let untraced: Vec<&RepOut> = ok.iter().copied().filter(|r| !r.traced).collect();
    let traced: Vec<&RepOut> = ok.iter().copied().filter(|r| r.traced).collect();
    let mut e2e = Vec::new();
    let mut info = vec![metric("reps", reps.len() as f64, "count")];
    if let Some(best_s) = best_timed_s(&untraced) {
        let scale = REF_NS_PER_ITER / median(ok.iter().map(|r| r.ref_ns_per_iter).collect());
        let cycles = untraced[0].machine_cycles as f64;
        let setup_s = median(untraced.iter().map(|r| r.setup_s).collect());
        e2e = vec![
            metric("sim_cycles_per_s", cycles / (best_s * scale), "cycles/s"),
            metric("wall_s", (setup_s + best_s) * scale, "s"),
            metric("setup_s", setup_s * scale, "s"),
            metric("peak_heap_mb", host::peak_heap_mib(), "MiB"),
        ];
        let rep_s: Vec<f64> = untraced.iter().map(|r| timed_s(r)).collect();
        info.extend([
            metric("host_slowdown", 1.0 / scale, "ratio"),
            metric("raw_sim_cycles_per_s", cycles / best_s, "cycles/s"),
            metric(
                "median_rep_cycles_per_s",
                cycles / median(rep_s),
                "cycles/s",
            ),
            metric(
                "point_cycles_per_s",
                spec.logical_cycles() as f64 / (best_s * scale),
                "cycles/s",
            ),
            metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        ]);
    }
    let layer = match (best_timed_s(&untraced), best_timed_s(&traced)) {
        (Some(u), Some(t)) => layer_metrics(spec, 1.0 - u / t, &traced),
        _ => Vec::new(),
    };
    Report {
        e2e,
        layer,
        info,
        attempted,
        failed,
        points: ok.first().map(|r| r.points.clone()).unwrap_or_default(),
    }
}

fn timed_s(r: &RepOut) -> f64 {
    r.quantum_ns.iter().sum::<u64>() as f64 / 1e9
}

/// The timed region on a quiet host: the sum over quanta of each
/// quantum's fastest time across `reps`.
fn best_timed_s(reps: &[&RepOut]) -> Option<f64> {
    let (first, rest) = reps.split_first()?;
    let mut best = first.quantum_ns.clone();
    for r in rest {
        for (b, &ns) in best.iter_mut().zip(&r.quantum_ns) {
            *b = (*b).min(ns);
        }
    }
    Some(best.iter().sum::<u64>() as f64 / 1e9)
}

/// Check every rep's points against `expected`, or against the first
/// successful rep when there is none. Returns (attempted, failed) point
/// checks; a rep that panicked fails all of its points.
fn check(
    spec: &Spec,
    reps: &[(bool, Result<RepOut, String>)],
    expected: Option<&Expected>,
) -> (u64, u64) {
    let first_ok = reps.iter().find_map(|(_, r)| r.as_ref().ok());
    let reference: Expected = match expected {
        Some(e) => e.clone(),
        None => first_ok
            .map(|r| r.points.iter().map(|p| (p.label.clone(), p.fp)).collect())
            .unwrap_or_default(),
    };
    let (mut attempted, mut failed) = (0, 0);
    for (_, rep) in reps {
        match rep {
            Err(_) => {
                attempted += spec.n_points() as u64;
                failed += spec.n_points() as u64;
            }
            Ok(r) => {
                for p in r.points.iter().chain(&r.public_points) {
                    attempted += 1;
                    if reference.get(&p.label) != Some(&p.fp) {
                        failed += 1;
                    }
                }
            }
        }
    }
    (attempted, failed)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of the traced reps; `overhead` is the share of
/// the traced timed region's best time that tracing added.
fn layer_metrics(spec: &Spec, overhead: f64, traced: &[&RepOut]) -> Vec<Metric> {
    let mut a = LayerAcc::default();
    let (mut snaps, mut snap_bytes, mut snap_ns) = (0, 0, 0);
    for l in traced.iter().filter_map(|r| r.layer.as_ref()) {
        a.merge(l.acc.clone());
        snaps += l.snapshots;
        snap_bytes += l.snapshot_bytes;
        snap_ns += l.snapshot_ns;
    }
    let first = traced[0].layer.as_ref().expect("traced reps carry layers");
    let n_reps = traced.len() as f64;
    let w = a.work;
    let busy = a.busy_ns as f64;
    let call_ns = a.chooser.ns_per_call();
    let chooser_ns = call_ns * a.chooser_calls as f64;
    let sim_ns = (a.exec_ns as f64 - chooser_ns).max(0.0);
    let core_ns = (a.plan_ns + a.observe_ns + a.boundary_ns) as f64;
    let batch_overhead_ns = (a.batch_ns as f64 - a.exec_ns as f64 - core_ns).max(0.0);
    let mut quantum_ms: Vec<f64> = a.quantum_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    quantum_ms.sort_by(f64::total_cmp);
    let cycles = w.cycles as f64;
    let core_cycles = w.core_cycles as f64;
    let setup_s = median(traced.iter().map(|r| r.setup_s).collect());
    vec![
        metric("sim.ns_per_cycle", ratio(sim_ns, core_cycles), "ns"),
        metric(
            "sim.ns_per_stepped_cycle",
            ratio(sim_ns, (w.core_cycles - w.skipped) as f64),
            "ns",
        ),
        metric("sim.quantum_ms_p50", percentile(&quantum_ms, 0.5), "ms"),
        metric("sim.quantum_ms_p90", percentile(&quantum_ms, 0.9), "ms"),
        metric("sim.quantum_samples", quantum_ms.len() as f64, "count"),
        metric(
            "sim.skipped_frac",
            ratio(w.skipped as f64, core_cycles),
            "ratio",
        ),
        metric("sim.ipc", ratio(w.committed as f64, cycles), "uops/cycle"),
        metric(
            "sim.iq_occupancy",
            ratio(a.iq_sum, a.iq_samples as f64),
            "entries",
        ),
        metric(
            "sim.l2_misses_per_kcycle",
            ratio(w.l2_misses as f64 * 1e3, cycles),
            "1/kcycle",
        ),
        metric(
            "sim.fetched_per_cycle",
            ratio(w.fetched as f64, cycles),
            "uops/cycle",
        ),
        metric(
            "policies.calls_per_cycle",
            ratio(a.chooser_calls as f64, core_cycles),
            "1/cycle",
        ),
        metric("policies.ns_per_call", call_ns, "ns"),
        metric("policies.share", ratio(chooser_ns, busy), "ratio"),
        metric("workloads.ns_per_uop", first.ns_per_uop, "ns"),
        metric(
            "workloads.est_share",
            ratio(first.ns_per_uop * w.fetched as f64, busy),
            "ratio",
        ),
        metric("core.plan_share", ratio(a.plan_ns as f64, busy), "ratio"),
        metric(
            "core.observe_share",
            ratio(a.observe_ns as f64, busy),
            "ratio",
        ),
        metric("core.switches_per_cell", first.switches_per_cell, "count"),
        metric(
            "core.migrations_per_cell",
            first.migrations_per_cell,
            "count",
        ),
        metric(
            "batch.sharing",
            ratio(
                a.cell_quanta as f64,
                if spec.batched() {
                    quantum_ms.len() as f64
                } else {
                    0.0
                },
            ),
            "ratio",
        ),
        metric("batch.forks", a.forks as f64 / n_reps, "count"),
        metric(
            "batch.execute_share",
            ratio(a.exec_ns as f64, a.batch_ns as f64),
            "ratio",
        ),
        metric(
            "batch.overhead_share",
            ratio(batch_overhead_ns, a.batch_ns as f64),
            "ratio",
        ),
        metric("sweep.cpu_util", first.cpu_util, "ratio"),
        metric("warm.warmups", traced[0].warmups as f64, "count"),
        metric(
            "warm.warmup_ms_per_machine",
            ratio(setup_s * 1e3, traced[0].warmups as f64),
            "ms",
        ),
        metric(
            "ckpt.snapshot_kib",
            ratio(snap_bytes as f64 / 1024.0, snaps as f64),
            "KiB",
        ),
        metric(
            "ckpt.store_ms",
            ratio(snap_ns as f64 / 1e6, snaps as f64),
            "ms",
        ),
        metric("trace.overhead", overhead, "ratio"),
        metric(
            "trace.covered_share",
            ratio(sim_ns + chooser_ns + core_ns + batch_overhead_ns, busy),
            "ratio",
        ),
    ]
}
