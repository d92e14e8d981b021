//! The simulator's benchmark: four `repro`-shaped workloads, end-to-end
//! host throughput from the best of several identical reps, and per-layer
//! numbers from probes that time calls into public functions. See
//! `README.md` beside this package for the protocol, metrics and
//! workloads.
//!
//! ```text
//! smt-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! smt-benchmark bless
//! ```
//!
//! With one `--workload` it runs that workload in this process, prints
//! every metric as `workload metric value unit`, and ends with one JSON
//! line: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer ones (`--trace 1`). With none or
//! several it runs each named workload (default: all) in a child process
//! of its own, one at a time. `bless` rewrites `expected/seed42.json`.

mod host;
mod probe;
mod report;
mod workload;

use report::{Expected, Metric, Options, Report};
use serde::Value;
use smt_bench::sweep::{self, SweepConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Spec, NAMES};

const USAGE: &str =
    "usage: smt-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
       smt-benchmark bless";

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The seed whose fingerprints `expected/seed42.json` records.
const EXPECTED_SEED: u64 = 42;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    Run(Args),
    Bless,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("bless") {
        return match args.len() {
            1 => Ok(Cmd::Bless),
            _ => Err("bless takes no arguments".into()),
        };
    }
    let mut a = Args {
        workloads: Vec::new(),
        seed: EXPECTED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if Spec::by_name(&name).is_none() {
                    return Err(format!("unknown workload `{name}` (one of {NAMES:?})"));
                }
                a.workloads.push(name);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cmd::Run(a))
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn expected_path() -> PathBuf {
    package_dir().join("expected").join("seed42.json")
}

/// Parse the expected-fingerprint file: workload → label → hex digest.
fn load_expected(path: &Path) -> Result<BTreeMap<String, Expected>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let Value::Map(workloads) = serde::json::parse(&text).map_err(|e| bad(&e.to_string()))? else {
        return Err(bad("not a JSON object"));
    };
    let mut out = BTreeMap::new();
    for (name, points) in workloads {
        let Value::Map(points) = points else {
            return Err(bad(&format!("`{name}` is not an object")));
        };
        let mut expected = Expected::new();
        for (label, fp) in points {
            let fp = match &fp {
                Value::Str(hex) => u64::from_str_radix(hex, 16).ok(),
                _ => None,
            };
            let fp = fp.ok_or_else(|| bad(&format!("`{name}/{label}` is not a hex digest")))?;
            expected.insert(label, fp);
        }
        out.insert(name, expected);
    }
    Ok(out)
}

/// The expected-fingerprint file: one line per point, so a re-bless
/// diffs point by point.
fn render_expected(all: &BTreeMap<&str, Vec<workload::Point>>) -> String {
    let mut s = String::from("{\n");
    for (wi, (name, points)) in all.iter().enumerate() {
        s.push_str(&format!("  \"{name}\": {{\n"));
        for (pi, p) in points.iter().enumerate() {
            let comma = if pi + 1 < points.len() { "," } else { "" };
            s.push_str(&format!("    \"{}\": \"{:016x}\"{comma}\n", p.label, p.fp));
        }
        let comma = if wi + 1 < all.len() { "," } else { "" };
        s.push_str(&format!("  }}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

fn bless() -> ExitCode {
    let mut all = BTreeMap::new();
    let opts = Options {
        seed: EXPECTED_SEED,
        seconds: 0.0,
        trace: false,
        expected: None,
        out: &out_dir(),
    };
    for name in NAMES {
        let spec = Spec::by_name(name).expect("NAMES are known workloads");
        match report::one_rep(&spec, &opts, false) {
            Ok(rep) => {
                eprintln!("{name}: {} points", rep.points.len());
                all.insert(name, rep.points);
            }
            Err(why) => {
                eprintln!("error: {name} failed: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir_all(out_dir().join("ckpt"));
    let path = expected_path();
    let written = std::fs::create_dir_all(path.parent().expect("file in a directory"))
        .and_then(|()| std::fs::write(&path, render_expected(&all)));
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// The text lines and the final JSON line of one workload's run.
fn render(name: &str, r: &Report, trace: bool) -> Vec<String> {
    let shown: &[Metric] = if trace { &r.layer } else { &r.e2e };
    let mut lines: Vec<String> = r
        .e2e
        .iter()
        .chain(&r.info)
        .chain(&r.layer)
        .map(|m| format!("{name} {} {} {}", m.name, m.value, m.unit))
        .collect();
    let metrics = shown
        .iter()
        .map(|m| {
            let v = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    lines.push(serde::json::to_string(&Value::Map(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])));
    lines
}

/// Write the run's fingerprints, and in a traced run both span traces,
/// under `out/`.
fn write_artifacts(spec: &Spec, a: &Args, r: &Report) -> std::io::Result<()> {
    let fp_dir = out_dir().join("fingerprints");
    std::fs::create_dir_all(&fp_dir)?;
    let text: String = r
        .points
        .iter()
        .map(|p| format!("{} {:016x}\n", p.label, p.fp))
        .collect();
    std::fs::write(
        fp_dir.join(format!("{}-seed{}.txt", spec.name, a.seed)),
        text,
    )?;
    if a.trace {
        let dir = out_dir().join("trace");
        std::fs::create_dir_all(&dir)?;
        let rec = probe::recorder();
        std::fs::write(
            dir.join(format!("{}.spans.jsonl", spec.name)),
            rec.spans_jsonl(),
        )?;
        std::fs::write(
            dir.join(format!("{}.trace.json", spec.name)),
            rec.chrome_trace(),
        )?;
        sweep::spans().write_artifacts(&dir.join(format!("{}-engine", spec.name)))?;
    }
    Ok(())
}

fn run_one(spec: &Spec, a: &Args) -> ExitCode {
    let all_expected;
    let expected = if a.seed == EXPECTED_SEED {
        all_expected = match load_expected(&expected_path()) {
            Ok(e) => e,
            Err(why) => {
                eprintln!("error: {why}");
                return ExitCode::FAILURE;
            }
        };
        Some(all_expected.get(spec.name).cloned().unwrap_or_default())
    } else {
        None
    };
    let out = out_dir();
    let report = report::run(
        spec,
        &Options {
            seed: a.seed,
            seconds: a.seconds,
            trace: a.trace,
            expected: expected.as_ref(),
            out: &out,
        },
    );
    if let Err(e) = write_artifacts(spec, a, &report) {
        eprintln!("warning: artifacts under {}: {e}", out.display());
    }
    for line in render(spec.name, &report, a.trace) {
        println!("{line}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run each workload in a child process of its own, one at a time.
fn run_children(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = if a.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for name in names {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    sweep::configure(SweepConfig {
        jobs: Some(workload::SWEEP_JOBS),
        cache_dir: None,
        telemetry_path: None,
    });
    match cmd {
        Cmd::Bless => bless(),
        Cmd::Run(a) if a.workloads.len() == 1 => {
            run_one(&Spec::by_name(&a.workloads[0]).expect("parsed"), &a)
        }
        Cmd::Run(a) => run_children(&a),
    }
}

#[cfg(test)]
mod tests;
