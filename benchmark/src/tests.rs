//! Self-tests of the benchmark at tiny scale.
//!
//! The warm pool, the sweep engine and the span recorders are
//! process-wide, so every test holds [`LOCK`] while it runs workloads.

use super::*;
use std::sync::Mutex;
use workload::Point;

static LOCK: Mutex<()> = Mutex::new(());

fn tiny(name: &str) -> Spec {
    Spec::tiny(name).expect("known workload")
}

fn test_out() -> PathBuf {
    out_dir().join("selftest")
}

fn opts<'a>(seed: u64, trace: bool, expected: Option<&'a Expected>, out: &'a Path) -> Options<'a> {
    Options {
        seed,
        seconds: 0.0,
        trace,
        expected,
        out,
    }
}

fn points(spec: &Spec, seed: u64, traced: bool) -> (Vec<Point>, Vec<Point>) {
    let out = test_out();
    let rep = report::one_rep(spec, &opts(seed, traced, None, &out), traced).expect("rep runs");
    (rep.points, rep.public_points)
}

#[test]
fn traced_and_untraced_paths_give_identical_fingerprints() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for name in NAMES {
        let spec = tiny(name);
        let (plain, none) = points(&spec, 42, false);
        assert!(none.is_empty());
        assert_eq!(plain.len(), spec.n_points(), "{name}");
        let (traced, public) = points(&spec, 42, true);
        assert_eq!(traced, plain, "{name}: traced timed region diverged");
        if spec.batched() {
            assert_eq!(public, plain, "{name}: public entry point diverged");
        }
    }
}

#[test]
fn another_seed_changes_every_fingerprint() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for name in NAMES {
        let spec = tiny(name);
        let (a, _) = points(&spec, 42, false);
        let (b, _) = points(&spec, 7, false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_ne!(x.fp, y.fp, "{name}: {} ignores the seed", x.label);
        }
    }
}

#[test]
fn one_corrupted_expectation_fails_exactly_that_point() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = tiny("step_lowocc");
    let (good, _) = points(&spec, 42, false);
    let mut expected: Expected = good.iter().map(|p| (p.label.clone(), p.fp)).collect();
    let out = test_out();
    let clean = report::run(&spec, &opts(42, false, Some(&expected), &out));
    assert!(clean.correct(), "uncorrupted expectations must pass");
    *expected.get_mut(&good[1].label).expect("label present") ^= 1;
    let r = report::run(&spec, &opts(42, false, Some(&expected), &out));
    let reps = r.attempted / spec.n_points() as u64;
    assert_eq!(r.attempted % spec.n_points() as u64, 0);
    assert_eq!(
        r.failed, reps,
        "one failure per rep, each on the corrupted point"
    );
    assert!(!r.correct());
}

fn names_in(benchmark: &Value, key: &str) -> Vec<String> {
    match benchmark.get(key) {
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(|m| match m.get("name") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        other => panic!("BENCHMARK.json `{key}`: {other:?}"),
    }
}

#[test]
fn every_metric_line_parses_and_carries_a_unit() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark package");
    let benchmark = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let out = test_out();
    for name in NAMES {
        let spec = tiny(name);
        for trace in [false, true] {
            let r = report::run(&spec, &opts(42, trace, None, &out));
            let lines = render(name, &r, trace);
            let (json, text) = lines.split_last().expect("at least the JSON line");
            for line in text {
                let f: Vec<&str> = line.split(' ').collect();
                assert_eq!(f.len(), 4, "{line}");
                assert_eq!(f[0], name);
                assert!(
                    f[1].chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{line}"
                );
                let v: f64 = f[2].parse().unwrap_or_else(|_| panic!("{line}"));
                assert!(v.is_finite(), "{line}");
                assert!(!f[3].is_empty(), "{line}");
            }
            let v = serde::json::parse(json).expect("last line is JSON");
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{name}");
            let Some(Value::Map(metrics)) = v.get("metrics") else {
                panic!("{json}");
            };
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(got, names_in(&benchmark, key), "{name} trace={trace}");
            for (k, m) in metrics {
                assert!(
                    matches!(m.get("unit"), Some(Value::Str(u)) if !u.is_empty()),
                    "{k}"
                );
                assert!(matches!(m.get("value"), Some(Value::Float(_))), "{k}");
            }
        }
    }
}

#[test]
fn expected_file_round_trips() {
    let pts = vec![
        Point {
            label: "MIX01/ICOUNT".into(),
            fp: 0x0123_4567_89ab_cdef,
        },
        Point {
            label: "MIX01/m1/Type3'".into(),
            fp: 7,
        },
    ];
    let all = BTreeMap::from([("sweep_fig8", pts)]);
    let path = out_dir().join("selftest-expected.json");
    std::fs::create_dir_all(out_dir()).expect("out dir");
    std::fs::write(&path, render_expected(&all)).expect("write");
    let back = load_expected(&path).expect("parses");
    let _ = std::fs::remove_file(&path);
    assert_eq!(back["sweep_fig8"]["MIX01/ICOUNT"], 0x0123_4567_89ab_cdef);
    assert_eq!(back["sweep_fig8"]["MIX01/m1/Type3'"], 7);
}
