//! `repro` must reject a malformed flag from every option group —
//! strictly, with a nonzero exit and an error message, never by silently
//! swallowing the bad value and running with a default (the `--jobs` trap
//! the former `calibrate` binary fell into) or by panicking mid-run (the
//! out-of-range `--mixes` id did).
//!
//! One table drives the checks: each case is a malformed invocation of
//! one option group. The binary is invoked for real (via the
//! `CARGO_BIN_EXE_repro` path cargo provides to integration tests), so
//! this pins the actual argv plumbing, not a reimplementation of it.

use std::process::Command;

/// (group, malformed argv) — one representative per option group, plus
/// the flags of removed groups.
const CASES: &[(&str, &[&str])] = &[
    ("instrument", &["--obs-events", "many"]),
    ("instrument", &["--obs-out"]),
    ("ckpt", &["--ckpt-dir"]),
    ("trace", &["--trace"]),
    ("alloc", &["--cores", "zero"]),
    ("alloc", &["--alloc", "bogus-policy"]),
    // A penalty past the longest latency a machine allows would wrap the
    // fetch-hold deadline; it must be refused, not run as no penalty.
    ("alloc", &["--mig-penalty", "65537"]),
    ("alloc", &["--mig-penalty", "18446744073709551615"]),
    ("spans", &["--spans-out"]),
    ("unknown", &["--frobnicate"]),
    // Mix ids outside the suite must be refused before any simulation.
    ("mixes", &["--smoke", "--mixes", "0", "table1"]),
    ("mixes", &["--smoke", "--mixes", "14", "table1"]),
    // Options that no longer exist must be refused, not ignored.
    ("removed", &["--no-batch"]),
    ("removed", &["--no-skip"]),
    ("removed", &["--bench"]),
    ("removed", &["--quick"]),
    ("removed", &["--all"]),
];

fn assert_refused(group: &str, argv: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(argv)
        .output()
        .expect("cannot spawn repro");
    assert!(
        !out.status.success(),
        "repro accepted malformed {group} flags {argv:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error"),
        "repro rejected {argv:?} without an error message; stderr: {stderr}"
    );
}

#[test]
fn malformed_flags_from_every_cli_group_are_rejected() {
    for (group, argv) in CASES {
        assert_refused(group, argv);
    }
}

#[test]
fn jobs_value_is_parsed_strictly() {
    // `--jobs` must be exactly as strict as every other option: the
    // former `calibrate` binary swallowed a malformed value and silently
    // ran with the default.
    for argv in [&["--jobs"][..], &["--jobs", "many"][..]] {
        assert_refused("jobs", argv);
    }
}
