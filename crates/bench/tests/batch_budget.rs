//! `--jobs` caps the threads stepping batch groups as well as the
//! executor lanes, and no sweep table may depend on it: the
//! threshold×type and allocation sweeps give the same bits whether each
//! batch steps serially or borrows a helper thread. This file configures
//! the process-wide engine and span recorder, so it is its own test
//! binary with one test.

use adts_core::AllocKind;
use smt_bench::sweep::{self, SweepConfig};
use smt_bench::{alloc_sweep, threshold_type_sweep, ExpParams};
use smt_sim::batch::{set_step_budget, step_budget};

fn helpers_borrowed() -> u64 {
    let counters = sweep::spans().counters();
    let helpers = counters.iter().find(|(name, _)| *name == "batch_helpers");
    helpers.map_or(0, |&(_, n)| n)
}

/// Every cell of both sweeps, as exact bits (`Debug` prints each `f64`
/// so that it parses back to the same value).
fn tables(p: &ExpParams) -> String {
    let sw = threshold_type_sweep(p);
    let alloc = alloc_sweep(p, 2, &AllocKind::ALL, 256);
    format!("{:?}\n{:?}\n{:?}", sw.icount, sw.cells, alloc.cells)
}

#[test]
fn sweeps_are_identical_at_jobs_1_and_2() {
    sweep::configure(SweepConfig {
        jobs: Some(1),
        ..SweepConfig::default()
    });
    assert_eq!(step_budget(), 1, "--jobs 1 must step batches serially");
    sweep::span::set_enabled(true);
    let p = ExpParams {
        seed: 42,
        warmup_quanta: 1,
        quanta: 3,
        quantum_cycles: 1024,
        mix_ids: vec![1],
    };
    let serial = tables(&p);
    assert_eq!(helpers_borrowed(), 0, "a budget of 1 borrowed a helper");

    // One lane and a budget of two: the lane's batches borrow the idle
    // core, as they do when a `--jobs 2` sweep has one lane left.
    set_step_budget(2);
    let parallel = tables(&p);
    assert!(helpers_borrowed() > 0, "no batch borrowed a helper");
    assert_eq!(parallel, serial, "a table depends on the step budget");
}
