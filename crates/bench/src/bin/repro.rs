//! `repro` — regenerate every table and figure of the paper's evaluation,
//! the §4.3.2 threshold calibration and the W1 workload characterization.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//! ```
//!
//! `repro --help` lists the experiments and options; [`smt_bench::cli`]
//! parses and validates them into one [`RunOptions`].

use smt_bench::SweepMetric::{BenignProb, Ipc, Switches};
use smt_bench::{
    ablate_cond, ablate_dt, ablate_fetchmech, ablate_prefetch, ablate_quantum, ablate_rotation,
    ablate_threshold, alloc_sweep, calibrate, characterize, cli, headline, headline_random,
    instrument, jobsched, oracle, scaling, sweep, table1, threshold_type_sweep, tracebench, warm,
    ExpParams, RunOptions,
};
use smt_stats::Table;
use std::path::PathBuf;
use std::time::Instant;

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
    let opts = match cli::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\nrun `repro --help` for usage");
            std::process::exit(2);
        }
    };
    if opts.help {
        print!("{}", RunOptions::usage());
        return;
    }
    sweep::configure(sweep::SweepConfig {
        jobs: opts.jobs,
        cache_dir: (!opts.no_cache).then(|| opts.cache_dir.clone()),
        telemetry_path: (!opts.no_telemetry).then(|| {
            opts.out
                .clone()
                .unwrap_or_else(|| PathBuf::from("results"))
                .join("telemetry.jsonl")
        }),
    });
    warm::set_enabled(!opts.no_ckpt);
    warm::configure_store((!opts.no_ckpt).then(|| opts.ckpt_dir.clone()));
    if opts.spans {
        sweep::span::set_enabled(true);
    }
    let t0 = Instant::now();
    let replay = if opts.capture_trace.is_some() || opts.trace.is_some() {
        tracebench::run_cli(&opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    } else {
        run_experiments(&opts);
        None
    };
    if opts.obs || opts.attr {
        instrument::run(&opts, replay);
    }
    if opts.spans {
        // Runs that borrowed a thread to generate their µops, beside the
        // quanta's `batch_helpers`.
        sweep::spans().bump("run_helpers", smt_sim::batch::run_helpers());
        match sweep::spans().write_artifacts(&opts.spans_out) {
            Ok(art) => println!("[spans] {}", art.trace.display()),
            Err(e) => eprintln!(
                "warning: engine span artifacts at {} failed: {e}",
                opts.spans_out.display()
            ),
        }
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn run_experiments(opts: &RunOptions) {
    let p = &opts.params;
    if opts.runs_at_scale() {
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
    } else if *p != ExpParams::standard() {
        eprintln!(
            "note: calibrate and characterize run their own fixed protocols; \
             --full, --smoke, --seed, --quanta and --mixes do not apply to them"
        );
    }
    // Compute a table inside a named engine scope and print the scope's
    // cache/wall accounting line right after the table itself.
    let run = |slug: &str, table: &dyn Fn() -> Table| {
        sweep::engine().begin_scope(slug);
        let t = table();
        emit(&t, slug, &opts.out);
        println!("{}\n", sweep::engine().scope_summary());
    };

    if opts.wants("table1") {
        run("e1_table1", &|| table1(p));
    }
    if opts.wants("fig7") || opts.wants("fig8") {
        sweep::engine().begin_scope("e2_e7_threshold_type_sweep");
        let sw = threshold_type_sweep(p);
        println!("{}\n", sweep::engine().scope_summary());
        if opts.wants("fig7") {
            emit(&sw.by_threshold(Switches), "e2_fig7a", &opts.out);
            emit(&sw.by_type(Switches), "e3_fig7b", &opts.out);
            emit(&sw.by_threshold(BenignProb), "e4_fig7c", &opts.out);
            emit(&sw.by_type(BenignProb), "e5_fig7d", &opts.out);
        }
        if opts.wants("fig8") {
            emit(&sw.by_threshold(Ipc), "e6_fig8a", &opts.out);
            emit(&sw.by_type(Ipc), "e7_fig8b", &opts.out);
            let (m, k, ipc) = sw.best();
            println!(
                "best operating point: {} at m={} (mean IPC {:.3})\n",
                k.name(),
                m,
                ipc
            );
        }
    }
    if opts.wants("headline") {
        run("e8_headline", &|| headline(p));
    }
    if opts.wants("headline-random") {
        run("e8b_headline_random", &|| headline_random(p, 8));
    }
    if opts.wants("oracle") {
        run("e9_oracle", &|| oracle(p, opts.oracle_all));
    }
    if opts.wants("scaling") {
        run("e10_scaling", &|| scaling(p));
    }
    if opts.wants("ablate-quantum") {
        run("a1_quantum", &|| ablate_quantum(p));
    }
    if opts.wants("ablate-dt") {
        run("a2_dt", &|| ablate_dt(p));
    }
    if opts.wants("ablate-cond") {
        run("a3_cond", &|| ablate_cond(p));
    }
    if opts.wants("ablate-rotation") {
        run("a4_rotation", &|| ablate_rotation(p));
    }
    if opts.wants("ablate-fetchmech") {
        run("a5_fetchmech", &|| ablate_fetchmech(p));
    }
    if opts.wants("ablate-prefetch") {
        run("a6_prefetch", &|| ablate_prefetch(p));
    }
    if opts.wants("ablate-threshold") {
        run("x1_threshold", &|| ablate_threshold(p));
    }
    if opts.wants("jobsched") {
        run("x2_jobsched", &|| jobsched(p));
    }
    if opts.wants("alloc") {
        sweep::engine().begin_scope("x3_alloc_sweep");
        let sw = alloc_sweep(p, opts.cores, &opts.allocs(), opts.mig_penalty);
        println!("{}\n", sweep::engine().scope_summary());
        emit(&sw.ipc_table(), "x3_alloc_ipc", &opts.out);
        emit(&sw.migration_table(), "x3_alloc_migrations", &opts.out);
        let (f, a, ipc) = sw.best();
        println!(
            "best allocation point: {}/{} on {} cores (mean IPC {:.3})\n",
            f.name(),
            a.name(),
            sw.cores,
            ipc
        );
    }
    if opts.wants("calibrate") {
        sweep::engine().begin_scope("calibrate");
        println!("{}", calibrate());
        println!("{}\n", sweep::engine().scope_summary());
    }
    if opts.wants("characterize") {
        run("w1_characterize", &characterize);
    }
}
