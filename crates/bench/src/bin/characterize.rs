//! `characterize` — single-thread characterization of every synthetic
//! application model: the table that backs DESIGN.md's claim that the
//! workload substitution lands each app in the counter-rate regime of its
//! SPEC CPU2000 namesake.
//!
//! Each app's measurement runs through the sweep engine's value cache
//! (keyed on the full profile, the machine config and the measurement
//! window), so re-running after an unrelated change is instant; pass
//! `--no-cache` to force fresh simulation. Counter math uses the
//! [`smt_sim::CounterSnapshot`] delta export rather than hand-subtracted
//! fields.
//!
//! ```sh
//! cargo run --release -p smt-bench --bin characterize \
//!     [-- --no-cache --obs [--obs-out DIR] [--obs-events N] \
//!      --attr [--attr-out DIR]]
//! ```

use serde::{Deserialize, Serialize};
use smt_bench::{
    alloc_sweep, sweep, tracebench, AllocCli, CkptCli, ExpParams, InstrumentCli, SpanCli, TraceCli,
    ALLOC_USAGE, CKPT_USAGE, INSTRUMENT_USAGE, SPANS_USAGE, TRACE_USAGE,
};
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{SimConfig, SmtMachine};
use smt_stats::Table;
use smt_workloads::{app, app_names, thread_addr_base, UopStream};
use std::path::PathBuf;
use std::sync::Arc;

/// One app's measured single-thread character (the cacheable unit).
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

fn measure(name: &str, cfg: &SimConfig, warm: u64, run: u64, seed: u64) -> CharRow {
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

fn main() {
    let mut no_cache = false;
    let mut instrument = InstrumentCli::default();
    let mut ckpt = CkptCli::default();
    let mut trace = TraceCli::default();
    let mut alloc = AllocCli::default();
    let mut spans = SpanCli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-cache" => no_cache = true,
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
                        "error: unknown option {flag} (known: --no-cache, \
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
        jobs: None,
        cache_dir: (!no_cache).then(|| PathBuf::from("results/cache")),
        telemetry_path: Some(PathBuf::from("results/telemetry.jsonl")),
    });
    // The instrumented passes (not the per-app measurements) go through
    // the warm pool, so the checkpoint flags apply here too.
    ckpt.apply();
    spans.apply();
    // Standalone trace pass — characterize has no mix protocol of its
    // own, so trace capture/replay runs at the standard experiment scale.
    match tracebench::run_cli(&trace, &ExpParams::standard(), &instrument.attr) {
        Ok(false) => {}
        Ok(true) => return,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    // Long enough to span several full phase cycles (storm + quiet), so
    // the row is the app's *average* character, not one phase's.
    let warm = 100_000u64;
    let run = 700_000u64;
    let seed = 42u64;
    let cfg = SimConfig::with_threads(1);
    sweep::engine().begin_scope("characterize");
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
            sweep::engine().run_value::<CharRow>(key, || measure(name, &cfg, warm, run, seed));
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
    println!("{}", t.render());
    println!("{}", sweep::engine().scope_summary());
    let _ = std::fs::create_dir_all("results");
    if t.to_csv(std::path::Path::new("results/w1_characterize.csv"))
        .is_ok()
    {
        println!("[csv] results/w1_characterize.csv");
    }
    if instrument.any_enabled() {
        // Characterization is single-thread per app; the instrumented
        // passes instead cover the canonical MIX01 point for context.
        let obs_p = ExpParams {
            mix_ids: vec![1],
            ..ExpParams::smoke()
        };
        instrument.run(&obs_p, &alloc);
    }
    if alloc.requested {
        // Multi-core context pass, same spirit: how the characterized
        // apps co-schedule across cores on the canonical MIX01 point.
        let mc_p = ExpParams {
            mix_ids: vec![1],
            ..ExpParams::smoke()
        };
        sweep::engine().begin_scope("characterize-alloc");
        let sw = alloc_sweep(&mc_p, alloc.cores, &alloc.allocs(), alloc.penalty);
        println!("\n{}", sw.ipc_table().render());
        println!("{}", sweep::engine().scope_summary());
    }
    spans.finish();
}
