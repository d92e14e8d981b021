//! The trace passes honour the instrumented-pass flags. `repro --trace
//! FILE` runs one pass on fixed ICOUNT over the replay with whichever
//! sinks are on; `--capture-trace FILE` is followed by the usual passes
//! over the captured mixes. Both used to exit 0 with `--obs` and write
//! nothing.
//!
//! The binary is invoked for real, from a temporary working directory so
//! nothing lands in the repository's `results/`.

use std::path::{Path, PathBuf};
use std::process::Command;

const SLUG: &str = "trace-mix01x2_seed_42_icount";

fn committed_trace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces/mix01_t2.smttrace")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smt-bench-trace-passes-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(cwd: &Path, argv: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(cwd)
        .args(argv)
        .output()
        .expect("cannot spawn repro");
    assert!(
        out.status.success(),
        "repro {argv:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_nonempty(dir: &Path, suffixes: &[&str]) {
    for suffix in suffixes {
        let path = dir.join(format!("{SLUG}.{suffix}"));
        let len = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()))
            .len();
        assert!(len > 0, "{} is empty", path.display());
    }
}

#[test]
fn trace_replay_writes_the_obs_artifacts() {
    let cwd = scratch_dir("obs");
    let trace = committed_trace();
    repro(
        &cwd,
        &[
            "--smoke",
            "--trace",
            trace.to_str().unwrap(),
            "--obs",
            "--obs-out",
            "D",
        ],
    );
    assert_nonempty(&cwd.join("D"), &["events.jsonl", "trace.json", "prom"]);
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn capture_is_followed_by_the_passes_over_its_mixes() {
    let cwd = scratch_dir("capture");
    repro(
        &cwd,
        &[
            "--smoke",
            "--mixes",
            "1",
            "--capture-trace",
            "cap.smttrace",
            "--obs",
            "--obs-out",
            "D",
        ],
    );
    assert!(std::fs::metadata(cwd.join("cap.smttrace")).unwrap().len() > 0);
    for point in ["mix01_icount", "mix01_adts"] {
        let path = cwd.join("D").join(format!("{point}.trace.json"));
        assert!(path.exists(), "{} missing", path.display());
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
