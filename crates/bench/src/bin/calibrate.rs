//! `calibrate` — recompute the COND_MEM / COND_BR threshold constants the
//! way the paper did (§4.3.2): "We ran eight-thread simulation in our SMT
//! simulator with our 13 different mixes of applications and ended up with
//! an average value for each metric." Run this after any change to the
//! machine model or workloads, and update `CondThresholds::default` if the
//! averages moved materially.
//!
//! Runs go through the sweep engine, so repeated calibrations are served
//! from `results/cache/` (pass `--no-cache` to force fresh simulation) and
//! logged to `results/telemetry.jsonl`.
//!
//! ```sh
//! cargo run --release -p smt-bench --bin calibrate \
//!     [-- --no-cache --jobs N --obs [--obs-out DIR] [--obs-events N] \
//!      --attr [--attr-out DIR]]
//! ```

use adts_core::CondThresholds;
use smt_bench::{
    alloc_sweep, fixed_series, parallel::par_map, sweep, tracebench, AllocCli, CkptCli, ExpParams,
    InstrumentCli, SpanCli, TraceCli, ALLOC_USAGE, CKPT_USAGE, INSTRUMENT_USAGE, SPANS_USAGE,
    TRACE_USAGE,
};
use smt_policies::FetchPolicy;
use smt_stats::mean;
use smt_workloads::MIX_COUNT;
use std::path::PathBuf;

fn main() {
    let mut no_cache = false;
    let mut jobs = None;
    let mut instrument = InstrumentCli::default();
    let mut ckpt = CkptCli::default();
    let mut trace = TraceCli::default();
    let mut alloc = AllocCli::default();
    let mut spans = SpanCli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-cache" => no_cache = true,
            "--jobs" => {
                // Strict like repro: a missing or malformed value is an
                // error, not a silent fall-through to the default.
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("error: --jobs needs a value");
                    std::process::exit(2);
                });
                jobs = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("error: bad jobs: {e}");
                    std::process::exit(2);
                }));
            }
            flag => match instrument
                .accept(flag, &mut args)
                .and_then(|hit| {
                    if hit {
                        Ok(true)
                    } else {
                        ckpt.accept(flag, &mut args)
                    }
                })
                .and_then(|hit| {
                    if hit {
                        Ok(true)
                    } else {
                        trace.accept(flag, &mut args)
                    }
                })
                .and_then(|hit| {
                    if hit {
                        Ok(true)
                    } else {
                        alloc.accept(flag, &mut args)
                    }
                })
                .and_then(|hit| {
                    if hit {
                        Ok(true)
                    } else {
                        spans.accept(flag, &mut args)
                    }
                }) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!(
                        "error: unknown option {flag} (known: --no-cache, --jobs N, \
                         {INSTRUMENT_USAGE}, {CKPT_USAGE}, {TRACE_USAGE}, \
                         {ALLOC_USAGE}, {SPANS_USAGE})"
                    );
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
        }
    }
    sweep::configure(sweep::SweepConfig {
        jobs,
        cache_dir: (!no_cache).then(|| PathBuf::from("results/cache")),
        telemetry_path: Some(PathBuf::from("results/telemetry.jsonl")),
    });
    ckpt.apply();
    spans.apply();
    // The paper's measurement protocol as ExpParams: the standard seed and
    // quantum, a short warmed window, all thirteen mixes.
    let p = ExpParams {
        seed: 42,
        warmup_quanta: 6,
        quanta: 30,
        quantum_cycles: 8192,
        mix_ids: (1..=MIX_COUNT).collect(),
    };
    // Standalone trace pass (capture/replay the calibration mixes) — the
    // shared plumbing every binary routes these flags through.
    match tracebench::run_cli(&trace, &p, &instrument.attr) {
        Ok(false) => {}
        Ok(true) => return,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    sweep::engine().begin_scope("calibrate");
    let per_mix = par_map(p.mixes(), |mix| fixed_series(mix, FetchPolicy::Icount, &p));
    let (mut l1, mut lsq, mut mis, mut br, mut ipc) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &per_mix {
        for q in &s.quanta {
            l1.push(q.l1_miss_rate);
            lsq.push(q.lsq_full_rate);
            mis.push(q.mispredict_rate);
            br.push(q.branch_rate);
            ipc.push(q.ipc);
        }
    }
    let d = CondThresholds::default();
    println!("metric             mean (13 mixes)   current default   paper");
    println!(
        "L1 miss / cycle    {:>14.3}   {:>15.3}   0.190",
        mean(&l1),
        d.l1_miss_rate
    );
    println!(
        "LSQ full / cycle   {:>14.3}   {:>15.3}   0.450",
        mean(&lsq),
        d.lsq_full_rate
    );
    println!(
        "mispredict / cycle {:>14.3}   {:>15.3}   0.020",
        mean(&mis),
        d.mispredict_rate
    );
    println!(
        "cond br / cycle    {:>14.3}   {:>15.3}   0.380",
        mean(&br),
        d.branch_rate
    );
    println!("aggregate IPC      {:>14.3}", mean(&ipc));
    println!("\n{}", sweep::engine().scope_summary());
    if alloc.requested {
        // Multi-core context for the thresholds: the same calibration
        // protocol swept over thread-to-core allocation policies.
        sweep::engine().begin_scope("calibrate-alloc");
        let sw = alloc_sweep(&p, alloc.cores, &alloc.allocs(), alloc.penalty);
        println!("\n{}", sw.ipc_table().render());
        println!("{}", sweep::engine().scope_summary());
    }
    if instrument.any_enabled() {
        // Calibration reads eight-thread ICOUNT behavior, so instrument
        // the first selected mix under the same protocol.
        let obs_p = ExpParams {
            mix_ids: p.mix_ids[..1].to_vec(),
            ..p.clone()
        };
        instrument.run(&obs_p, &alloc);
    }
    spans.finish();
    println!(
        "\nPer the paper's method, CondThresholds::default should carry the\n\
         measured means; the COND_* conditions then fire exactly when a\n\
         quantum is above-average in that pathology."
    );
}
