//! Stage profile: where a stepped cycle's host time goes, stage by stage.
//!
//! Builds the benchmark's stepping points (fixed ICOUNT on MIX01, MIX09
//! and MIX13 at 8 threads; MIX13 and MIX01 at 1 thread and MIX09 and
//! MIX13 at 2), warms each for six 8,192-cycle quanta, then steps it with
//! the machine's sampled stage profile on. Each point prints as one JSONL
//! record on stdout: the raw [`StageProfile`], the run's wall time, each
//! stage's estimated share of it and the share sum (the profile's
//! coverage of the stepping time), correct-path micro-op generation's
//! share, and its cost per op. A last record, `"point":"all"`, folds
//! every point together. A table of the same numbers goes to stderr.
//!
//! ```sh
//! cargo run --release --example stage_profile              # every point, 20 quanta
//! cargo run --release --example stage_profile -- 4 MIX09x2 # 4 quanta of one point
//! ```

use serde::Serialize;
use smt_adts::prelude::*;
use smt_adts::sim::obs::export::jsonl;
use smt_adts::sim::StageProfile;
use std::time::Instant;

const QUANTUM_CYCLES: u64 = 8192;
const WARMUP_QUANTA: u64 = 6;
const SEED: u64 = 42;
/// The seed the benchmark draws its thread subsets with.
const THREAD_PICK: u64 = 7;
/// (mix, threads) of the benchmark's `step_t8` and `step_lowocc` points.
const POINTS: [(usize, usize); 7] = [(1, 8), (9, 8), (13, 8), (13, 1), (1, 1), (9, 2), (13, 2)];

/// Each stage's estimated share of the run's wall time.
#[derive(Serialize)]
struct Shares {
    complete: f64,
    commit: f64,
    issue: f64,
    dispatch: f64,
    fetch: f64,
}

#[derive(Serialize)]
struct PointProfile {
    point: String,
    wall_ns: u64,
    profile: StageProfile,
    shares: Shares,
    share_sum: f64,
    uop_gen_share: f64,
    ns_per_uop: f64,
}

impl PointProfile {
    fn new(point: String, wall_ns: u64, profile: StageProfile) -> Self {
        let [complete, commit, issue, dispatch, fetch] = profile.shares(wall_ns);
        PointProfile {
            point,
            wall_ns,
            share_sum: complete + commit + issue + dispatch + fetch,
            shares: Shares {
                complete,
                commit,
                issue,
                dispatch,
                fetch,
            },
            uop_gen_share: profile.uop_gen_share(wall_ns),
            ns_per_uop: profile.ns_per_uop(),
            profile,
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let quanta: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let only: Vec<String> = args.collect();

    let mut records = Vec::new();
    let (mut all, mut all_wall) = (StageProfile::default(), 0u64);
    for (id, threads) in POINTS {
        let full = workloads::mix(id);
        let mix = if threads == full.apps.len() {
            full
        } else {
            full.take_threads(threads, THREAD_PICK)
        };
        let point = format!("{}x{threads}", workloads::mix(id).name);
        if !only.is_empty() && !only.contains(&point) {
            continue;
        }
        let mut machine = adts::machine_for_mix(&mix, SEED);
        adts::run_fixed(
            FetchPolicy::Icount,
            &mut machine,
            WARMUP_QUANTA,
            QUANTUM_CYCLES,
        );
        let mut tsu = Tsu::new(FetchPolicy::Icount, machine.n_threads());
        machine.enable_profile();
        let t = Instant::now();
        for _ in 0..quanta {
            machine.run(QUANTUM_CYCLES, &mut tsu);
        }
        let wall_ns = t.elapsed().as_nanos() as u64;
        let profile = machine.disable_profile().expect("profile was on");
        all.merge(&profile);
        all_wall += wall_ns;
        records.push(PointProfile::new(point, wall_ns, profile));
    }
    if records.is_empty() {
        eprintln!("error: no point matches {only:?}");
        std::process::exit(2);
    }
    records.push(PointProfile::new("all".into(), all_wall, all));

    print!("{}", jsonl(&records));
    eprintln!(
        "{:<10} {:>8} {:>9} {:>7} {:>6} {:>9} {:>6} {:>6} {:>8} {:>7}",
        "point",
        "Mcyc/s",
        "complete",
        "commit",
        "issue",
        "dispatch",
        "fetch",
        "sum",
        "uop gen",
        "ns/uop"
    );
    for r in &records {
        let s = &r.shares;
        eprintln!(
            "{:<10} {:>8.3} {:>8.1}% {:>6.1}% {:>5.1}% {:>8.1}% {:>5.1}% {:>5.1}% {:>7.1}% {:>7.1}",
            r.point,
            r.profile.cycles as f64 * 1e3 / r.wall_ns.max(1) as f64,
            100.0 * s.complete,
            100.0 * s.commit,
            100.0 * s.issue,
            100.0 * s.dispatch,
            100.0 * s.fetch,
            100.0 * r.share_sum,
            100.0 * r.uop_gen_share,
            r.ns_per_uop,
        );
    }
}
