//! Every experiment binary must reject a malformed flag from every
//! shared CLI family — strictly, with a nonzero exit and an error
//! message, never by silently swallowing the bad value and running with
//! a default (the `--jobs` trap `calibrate` used to fall into).
//!
//! One table drives all three binaries: each case is a malformed
//! invocation of one flag family, and each binary must refuse it. The
//! binaries are invoked for real (via the `CARGO_BIN_EXE_*` paths cargo
//! provides to integration tests), so this pins the actual argv
//! plumbing, not a reimplementation of it.

use std::process::Command;

const BINS: &[(&str, &str)] = &[
    ("repro", env!("CARGO_BIN_EXE_repro")),
    ("calibrate", env!("CARGO_BIN_EXE_calibrate")),
    ("characterize", env!("CARGO_BIN_EXE_characterize")),
];

/// (family, malformed argv) — one representative per shared CLI group,
/// plus the flags of removed families.
const CASES: &[(&str, &[&str])] = &[
    ("instrument", &["--obs-events", "many"]),
    ("instrument", &["--obs-out"]),
    ("ckpt", &["--ckpt-dir"]),
    ("trace", &["--trace"]),
    ("alloc", &["--cores", "zero"]),
    ("alloc", &["--alloc", "bogus-policy"]),
    ("spans", &["--spans-out"]),
    ("unknown", &["--frobnicate"]),
    // Options that no longer exist must be refused, not ignored.
    ("removed", &["--no-batch"]),
    ("removed", &["--no-skip"]),
    ("removed", &["--bench"]),
    ("removed", &["--quick"]),
];

#[test]
fn every_binary_rejects_malformed_flags_from_every_cli_group() {
    for (bin_name, bin_path) in BINS {
        for (family, argv) in CASES {
            let out = Command::new(bin_path)
                .args(*argv)
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {bin_name}: {e}"));
            assert!(
                !out.status.success(),
                "{bin_name} accepted malformed {family} flags {argv:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("error"),
                "{bin_name} rejected {argv:?} without an error message; stderr: {stderr}"
            );
        }
    }
}

#[test]
fn jobs_value_is_parsed_strictly_where_supported() {
    // `--jobs` is bin-local (repro, calibrate), not a shared family; it
    // must be exactly as strict as the shared ones. `calibrate` used to
    // swallow a malformed value and silently run with the default.
    for (bin_name, bin_path) in BINS.iter().filter(|(n, _)| *n != "characterize") {
        for argv in [&["--jobs"][..], &["--jobs", "many"][..]] {
            let out = Command::new(bin_path)
                .args(argv)
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {bin_name}: {e}"));
            assert!(
                !out.status.success(),
                "{bin_name} accepted malformed {argv:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("error"),
                "{bin_name} rejected {argv:?} without an error message; stderr: {stderr}"
            );
        }
    }
}
