//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//!
//! Experiments:
//!   table1     E1  fixed-policy baseline (Table 1 context)
//!   fig7       E2–E5  Fig 7(a)–(d): switch counts and benign-switch
//!              probability vs threshold and heuristic type
//!   fig8       E6–E7  Fig 8(a)–(d): aggregate IPC vs threshold and type
//!   headline   E8  ADTS (Type 3, m=2) vs fixed scheduling, per mix
//!   oracle     E9  per-quantum oracle bound (add --oracle-all for all ten)
//!   scaling    E10 IPC vs thread count {1,2,4,6,8}
//!   ablate-quantum | ablate-dt | ablate-cond | ablate-rotation
//!   ablate-threshold   X1 fixed vs self-tuning IPC threshold
//!   jobsched           X2 clog-mark-assisted job scheduling
//!   alloc              X3 thread-to-core allocation policies on a
//!                      multi-core machine (see --cores/--alloc below)
//!   all        everything above
//!
//! Options:
//!   --full            paper-scale runs (~1 M cycles per point)
//!   --smoke           tiny runs (CI)
//!   --seed N          root seed (default 42)
//!   --quanta N        measured quanta per point
//!   --mixes 1,9,13    restrict to selected mixes
//!   --out DIR         also write CSVs into DIR (default results/)
//!   --no-csv          skip CSV output
//!   --oracle-all      oracle over all ten policies too (slow)
//!   --jobs N          sweep worker threads (default: SMT_BENCH_JOBS, then
//!                     available parallelism)
//!   --no-cache        simulate every point even if cached
//!   --cache-dir DIR   result cache location (default results/cache)
//!   --no-telemetry    skip the results/telemetry.jsonl run log
//!   --obs             after the experiments, re-run each selected mix with
//!                     event tracing + metrics sampling and export JSONL /
//!                     Chrome-trace / Prometheus artifacts
//!   --obs-out DIR     artifact directory (default results/obs)
//!   --obs-events N    trace ring capacity (default 65536)
//!   --attr            explain mode: re-run each selected mix with slot
//!                     attribution (plus the ADTS decision audit) and render
//!                     per-mix CPI-stack tables, CSV/JSON artifacts, a
//!                     decision JSONL and the switch timeline
//!   --attr-out DIR    explain artifact directory (default results/attr)
//!                     (--obs/--attr combined with `alloc --cores N` re-run
//!                     the passes on the N-core machine: per-core event
//!                     rings, merged Chrome trace with migration arrows,
//!                     per-core CPI stacks and the allocation decision log)
//!   --spans           record a hierarchical span trace of the sweep engine
//!                     itself (points, warmups, checkpoint I/O, batch forks,
//!                     worker lanes) and export JSONL / Chrome-trace /
//!                     Prometheus artifacts at exit
//!   --spans-out DIR   span artifact directory (default results/spans)
//!   --no-ckpt         disable the warm pool and on-disk checkpoint store
//!                     (every experiment point pays its own warmup)
//!   --ckpt-dir DIR    checkpoint store location (default results/cache/ckpt)
//!   --capture-trace FILE  record the configured mixes' synthetic runs to
//!                     SMTTRACE files (standalone: skips the experiments)
//!   --trace FILE      replay a captured trace through the trace-backed
//!                     threshold×type sweep (with --attr: plus a replayed
//!                     CPI-stack explain pass)
//!   --cores N         cores sharing the L2 in the alloc experiment
//!                     (default 2)
//!   --alloc NAME      restrict the alloc sweep to this allocation policy
//!                     (repeatable; default: all four)
//!   --mig-penalty N   cold-frontend cycles charged per migration
//!                     (default 256)
//!   --all             shorthand for the `all` experiment selector
//! ```

use smt_bench::{
    ablate_cond, ablate_dt, ablate_fetchmech, ablate_prefetch, ablate_quantum, ablate_rotation,
    ablate_threshold, alloc_sweep, headline, headline_random, jobsched, oracle, scaling, sweep,
    table1, threshold_type_sweep, tracebench, AllocCli, CkptCli, ExpParams, InstrumentCli, SpanCli,
    TraceCli, ALLOC_USAGE, CKPT_USAGE, INSTRUMENT_USAGE, SPANS_USAGE, TRACE_USAGE,
};
use smt_stats::Table;
use std::path::PathBuf;
use std::time::Instant;

struct Cli {
    params: ExpParams,
    experiments: Vec<String>,
    out: Option<PathBuf>,
    oracle_all: bool,
    jobs: Option<usize>,
    no_cache: bool,
    cache_dir: PathBuf,
    no_telemetry: bool,
    instrument: InstrumentCli,
    ckpt: CkptCli,
    trace: TraceCli,
    alloc: AllocCli,
    spans: SpanCli,
}

fn parse_args() -> Result<Cli, String> {
    let mut params = ExpParams::standard();
    let mut experiments = Vec::new();
    let mut out = Some(PathBuf::from("results"));
    let mut oracle_all = false;
    let mut jobs = None;
    let mut no_cache = false;
    let mut cache_dir = PathBuf::from("results/cache");
    let mut no_telemetry = false;
    let mut instrument = InstrumentCli::default();
    let mut ckpt = CkptCli::default();
    let mut trace = TraceCli::default();
    let mut alloc = AllocCli::default();
    let mut spans = SpanCli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => params = ExpParams::full(),
            "--smoke" => params = ExpParams::smoke(),
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .ok_or("--jobs needs a value")?
                        .parse()
                        .map_err(|e| format!("bad jobs: {e}"))?,
                );
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                cache_dir = PathBuf::from(args.next().ok_or("--cache-dir needs a value")?);
            }
            "--no-telemetry" => no_telemetry = true,
            flag if instrument.accept(flag, &mut args)? => {}
            flag if ckpt.accept(flag, &mut args)? => {}
            flag if trace.accept(flag, &mut args)? => {}
            flag if alloc.accept(flag, &mut args)? => {}
            flag if spans.accept(flag, &mut args)? => {}
            "--all" => experiments.push("all".to_string()),
            "--seed" => {
                params.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--quanta" => {
                params.quanta = args
                    .next()
                    .ok_or("--quanta needs a value")?
                    .parse()
                    .map_err(|e| format!("bad quanta: {e}"))?;
            }
            "--mixes" => {
                let v = args.next().ok_or("--mixes needs a value")?;
                params.mix_ids = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad mix id: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?)),
            "--no-csv" => out = None,
            "--oracle-all" => oracle_all = true,
            "--help" | "-h" => {
                experiments.clear();
                experiments.push("help".to_string());
                break;
            }
            exp if !exp.starts_with('-') => experiments.push(exp.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if experiments.is_empty() && !trace.active() {
        experiments.push("help".to_string());
    }
    Ok(Cli {
        params,
        experiments,
        out,
        oracle_all,
        jobs,
        no_cache,
        cache_dir,
        no_telemetry,
        instrument,
        ckpt,
        trace,
        alloc,
        spans,
    })
}

fn emit(table: &Table, slug: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{slug}.csv"));
        match table.to_csv(&path) {
            Ok(()) => println!("[csv] {}\n", path.display()),
            Err(e) => eprintln!("warning: csv write failed: {e}"),
        }
    }
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\nrun `repro --help` for usage");
            std::process::exit(2);
        }
    };
    let p = &cli.params;
    let known = [
        "table1",
        "fig7",
        "fig8",
        "headline",
        "oracle",
        "scaling",
        "ablate-quantum",
        "ablate-dt",
        "ablate-cond",
        "ablate-rotation",
        "ablate-threshold",
        "ablate-fetchmech",
        "ablate-prefetch",
        "jobsched",
        "alloc",
        "headline-random",
        "all",
        "help",
    ];
    for e in &cli.experiments {
        if !known.contains(&e.as_str()) {
            eprintln!("error: unknown experiment {e:?}; known: {known:?}");
            std::process::exit(2);
        }
    }
    if cli.experiments.iter().any(|e| e == "help") {
        println!("usage: repro [--full|--smoke] [--seed N] [--quanta N] [--mixes a,b,c]");
        println!("             [--out DIR|--no-csv] [--oracle-all] [--jobs N] [--no-cache]");
        println!("             [--cache-dir DIR] [--no-telemetry] <experiment>...");
        println!("             {INSTRUMENT_USAGE}");
        println!("             {CKPT_USAGE}");
        println!("             {TRACE_USAGE}");
        println!("             {ALLOC_USAGE}");
        println!("             {SPANS_USAGE}");
        println!("experiments: {}", known[..known.len() - 1].join(" "));
        return;
    }
    sweep::configure(sweep::SweepConfig {
        jobs: cli.jobs,
        cache_dir: (!cli.no_cache).then(|| cli.cache_dir.clone()),
        telemetry_path: (!cli.no_telemetry).then(|| {
            cli.out
                .clone()
                .unwrap_or_else(|| PathBuf::from("results"))
                .join("telemetry.jsonl")
        }),
    });
    cli.ckpt.apply();
    cli.spans.apply();
    let t0 = Instant::now();
    match tracebench::run_cli(&cli.trace, p, &cli.instrument.attr) {
        Ok(false) => {}
        Ok(true) => {
            eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "# repro: seed={} quanta={} quantum={} mixes={:?} jobs={} cache={}\n",
        p.seed,
        p.quanta,
        p.quantum_cycles,
        p.mix_ids,
        sweep::engine().jobs(),
        if sweep::engine().cache_enabled() {
            "on"
        } else {
            "off"
        },
    );
    let want = |name: &str| {
        cli.experiments.iter().any(|e| e == name) || cli.experiments.iter().any(|e| e == "all")
    };
    // Compute a table inside a named engine scope and print the scope's
    // cache/wall accounting line right after the table itself.
    let run = |slug: &str, table: &dyn Fn() -> Table| {
        sweep::engine().begin_scope(slug);
        let t = table();
        emit(&t, slug, &cli.out);
        println!("{}\n", sweep::engine().scope_summary());
    };

    if want("table1") {
        run("e1_table1", &|| table1(p));
    }
    if want("fig7") || want("fig8") {
        sweep::engine().begin_scope("e2_e7_threshold_type_sweep");
        let sw = threshold_type_sweep(p);
        println!("{}\n", sweep::engine().scope_summary());
        if want("fig7") {
            emit(&sw.fig7a(), "e2_fig7a", &cli.out);
            emit(&sw.fig7b(), "e3_fig7b", &cli.out);
            emit(&sw.fig7c(), "e4_fig7c", &cli.out);
            emit(&sw.fig7d(), "e5_fig7d", &cli.out);
        }
        if want("fig8") {
            emit(&sw.fig8a(), "e6_fig8a", &cli.out);
            emit(&sw.fig8b(), "e7_fig8b", &cli.out);
            let (m, k, ipc) = sw.best();
            println!(
                "best operating point: {} at m={} (mean IPC {:.3})\n",
                k.name(),
                m,
                ipc
            );
        }
    }
    if want("headline") {
        run("e8_headline", &|| headline(p));
    }
    if want("headline-random") {
        run("e8b_headline_random", &|| headline_random(p, 8));
    }
    if want("oracle") {
        run("e9_oracle", &|| oracle(p, cli.oracle_all));
    }
    if want("scaling") {
        run("e10_scaling", &|| scaling(p));
    }
    if want("ablate-quantum") {
        run("a1_quantum", &|| ablate_quantum(p));
    }
    if want("ablate-dt") {
        run("a2_dt", &|| ablate_dt(p));
    }
    if want("ablate-cond") {
        run("a3_cond", &|| ablate_cond(p));
    }
    if want("ablate-rotation") {
        run("a4_rotation", &|| ablate_rotation(p));
    }
    if want("ablate-fetchmech") {
        run("a5_fetchmech", &|| ablate_fetchmech(p));
    }
    if want("ablate-prefetch") {
        run("a6_prefetch", &|| ablate_prefetch(p));
    }
    if want("ablate-threshold") {
        run("x1_threshold", &|| ablate_threshold(p));
    }
    if want("jobsched") {
        run("x2_jobsched", &|| jobsched(p));
    }
    if want("alloc") {
        sweep::engine().begin_scope("x3_alloc_sweep");
        let sw = alloc_sweep(p, cli.alloc.cores, &cli.alloc.allocs(), cli.alloc.penalty);
        println!("{}\n", sweep::engine().scope_summary());
        emit(&sw.ipc_table(), "x3_alloc_ipc", &cli.out);
        emit(&sw.migration_table(), "x3_alloc_migrations", &cli.out);
        let (f, a, ipc) = sw.best();
        println!(
            "best allocation point: {}/{} on {} cores (mean IPC {:.3})\n",
            f.name(),
            a.name(),
            sw.cores,
            ipc
        );
    }
    if cli.instrument.any_enabled() {
        cli.instrument.run(p, &cli.alloc);
    }
    cli.spans.finish();
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
