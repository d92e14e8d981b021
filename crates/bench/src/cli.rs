//! The command line of `repro`: one options struct, parsed and validated
//! in one place.
//!
//! [`parse`] turns argv into a [`RunOptions`], or into a message naming
//! the first bad flag or value (`repro` prints it and exits 2). Every
//! value is checked here, so nothing downstream re-parses a flag or meets
//! a value it cannot run: an unknown experiment, a mix id outside
//! `1..=MIX_COUNT`, zero measured quanta, a zero core count or an
//! experiment named beside a trace pass (which runs instead of the
//! experiments) is refused here.

use crate::params::ExpParams;
use adts_core::AllocKind;
use smt_sim::config::MAX_LATENCY;
use smt_workloads::MIX_COUNT;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig7",
    "fig8",
    "headline",
    "headline-random",
    "oracle",
    "scaling",
    "ablate-quantum",
    "ablate-dt",
    "ablate-cond",
    "ablate-rotation",
    "ablate-fetchmech",
    "ablate-prefetch",
    "ablate-threshold",
    "jobsched",
    "alloc",
    "calibrate",
    "characterize",
    "all",
];

/// Experiments that run a fixed protocol of their own instead of the
/// run's scale; `all` leaves them out.
const OWN_PROTOCOL: &[&str] = &["calibrate", "characterize"];

/// Default `--obs-events` ring capacity: enough to retain several quanta
/// of full pipeline activity on an 8-wide machine without unbounded
/// memory.
const DEFAULT_EVENTS_CAP: usize = 65_536;

const USAGE: &str = "\
usage: repro [OPTIONS] <EXPERIMENT>...

Experiments:
  table1            E1  fixed-policy baseline (Table 1 context)
  fig7              E2-E5  Fig 7(a)-(d): switch counts and benign-switch
                    probability vs threshold and heuristic type
  fig8              E6-E7  Fig 8(a)-(d): aggregate IPC vs threshold and type
  headline          E8  ADTS (Type 3, m=2) vs fixed scheduling, per mix
  headline-random   E8b the headline on random mixes
  oracle            E9  per-quantum oracle bound (add --oracle-all for all ten)
  scaling           E10 IPC vs thread count {1,2,4,6,8}
  ablate-quantum | ablate-dt | ablate-cond | ablate-rotation |
  ablate-fetchmech | ablate-prefetch
                    A1-A6 ablations
  ablate-threshold  X1  fixed vs self-tuning IPC threshold
  jobsched          X2  clog-mark-assisted job scheduling
  alloc             X3  thread-to-core allocation policies on a multi-core
                    machine (see --cores/--alloc/--mig-penalty)
  all               every experiment above
  calibrate         the paper's COND_* threshold calibration (section 4.3.2):
                    seed 42, 6 + 30 quanta of 8192 cycles, all 13 mixes
  characterize      W1  single-thread character of every application model:
                    seed 42, 700k cycles after a 100k warmup per app

Options:
  --full            paper-scale runs (~1 M cycles per point)
  --smoke           tiny runs (CI)
  --seed N          root seed (default 42)
  --quanta N        measured quanta per point
  --mixes 1,9,13    restrict to selected mixes (ids 1..=13)
  --out DIR         also write CSVs into DIR (default results)
  --no-csv          skip CSV output
  --oracle-all      oracle over all ten policies too (slow)
  --jobs N          sweep worker threads (default: SMT_BENCH_JOBS, then
                    available parallelism)
  --no-cache        simulate every point even if cached
  --cache-dir DIR   result cache location (default results/cache)
  --no-telemetry    skip the <out>/telemetry.jsonl run log
  --no-ckpt         disable the warm pool and on-disk checkpoint store
  --ckpt-dir DIR    checkpoint store location (default results/cache/ckpt)
  --obs             after the experiments, re-run each selected mix with
                    the event trace and occupancy sampler on and export
                    JSONL / Chrome-trace / Prometheus artifacts
  --obs-out DIR     --obs artifact directory (default results/obs)
  --obs-events N    trace ring capacity (default 65536)
  --attr            after the experiments, re-run each selected mix with
                    slot attribution and the decision audit on and write
                    CPI-stack tables, CSV/JSON, decision JSONL and timelines
  --attr-out DIR    --attr artifact directory (default results/attr)
                    (--obs and --attr together simulate each point once;
                    with --cores/--alloc/--mig-penalty and more than one
                    core, the passes run on the multi-core machine)
  --spans           record a span trace of the sweep engine itself and
                    export JSONL / Chrome-trace / Prometheus at exit
  --spans-out DIR   span artifact directory (default results/spans)
  --capture-trace FILE  record the selected mixes' synthetic runs to
                    SMTTRACE files (instead of the experiments; --obs and
                    --attr still follow)
  --trace FILE      replay a captured trace through the threshold x type
                    sweep (instead of the experiments), plus the --obs /
                    --attr pass on fixed ICOUNT when asked
  --cores N         cores sharing the L2 in the alloc experiment (default 2)
  --alloc NAME      restrict alloc to this allocation policy (repeatable;
                    default: all four)
  --mig-penalty N   cold-frontend cycles charged per migration (default 256,
                    at most 65536, the longest latency a machine allows)
  --help            this text
";

/// Everything one `repro` invocation asked for.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// `--full`/`--smoke` scale with `--seed`, `--quanta` and `--mixes`
    /// applied on top.
    pub params: ExpParams,
    /// Experiment names, in command-line order.
    pub experiments: Vec<String>,
    /// `--help`, or nothing to run.
    pub help: bool,
    /// `--out DIR`; `None` after `--no-csv`.
    pub out: Option<PathBuf>,
    pub oracle_all: bool,
    pub jobs: Option<usize>,
    pub no_cache: bool,
    pub cache_dir: PathBuf,
    pub no_telemetry: bool,
    pub no_ckpt: bool,
    pub ckpt_dir: PathBuf,
    pub obs: bool,
    pub obs_out: PathBuf,
    pub obs_events: usize,
    pub attr: bool,
    pub attr_out: PathBuf,
    pub spans: bool,
    pub spans_out: PathBuf,
    pub capture_trace: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    pub cores: usize,
    /// `--alloc` selections, without duplicates; empty means all four.
    pub alloc: Vec<AllocKind>,
    pub mig_penalty: u64,
    /// Any of `--cores`, `--alloc`, `--mig-penalty` given.
    pub alloc_flags: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            params: ExpParams::standard(),
            experiments: Vec::new(),
            help: false,
            out: Some(PathBuf::from("results")),
            oracle_all: false,
            jobs: None,
            no_cache: false,
            cache_dir: PathBuf::from("results/cache"),
            no_telemetry: false,
            no_ckpt: false,
            ckpt_dir: PathBuf::from("results/cache/ckpt"),
            obs: false,
            obs_out: PathBuf::from("results/obs"),
            obs_events: DEFAULT_EVENTS_CAP,
            attr: false,
            attr_out: PathBuf::from("results/attr"),
            spans: false,
            spans_out: PathBuf::from("results/spans"),
            capture_trace: None,
            trace: None,
            cores: 2,
            alloc: Vec::new(),
            mig_penalty: 256,
            alloc_flags: false,
        }
    }
}

impl RunOptions {
    /// The `--help` text.
    pub fn usage() -> &'static str {
        USAGE
    }

    /// Was experiment `name` selected, by name or through `all`?
    pub fn wants(&self, name: &str) -> bool {
        self.experiments
            .iter()
            .any(|e| e == name || (e == "all" && !OWN_PROTOCOL.contains(&name)))
    }

    /// The allocation policies to sweep: the `--alloc` selection, or all
    /// four.
    pub fn allocs(&self) -> Vec<AllocKind> {
        if self.alloc.is_empty() {
            AllocKind::ALL.to_vec()
        } else {
            self.alloc.clone()
        }
    }

    /// Does anything selected run at the run's scale (`params`)? Every
    /// experiment but `calibrate` and `characterize` does, and so do the
    /// `--obs`/`--attr` passes.
    pub fn runs_at_scale(&self) -> bool {
        self.obs
            || self.attr
            || self
                .experiments
                .iter()
                .any(|e| !OWN_PROTOCOL.contains(&e.as_str()))
    }

    /// Do the `--obs`/`--attr` passes run on the multi-core machine? Only
    /// when the multi-core flags were given and name more than one core.
    pub fn multicore_passes(&self) -> bool {
        self.alloc_flags && self.cores > 1
    }
}

/// Parse `repro`'s arguments (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunOptions, String> {
    let mut o = RunOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        o.alloc_flags |= matches!(arg.as_str(), "--cores" | "--alloc" | "--mig-penalty");
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                o.help = true;
                return Ok(o);
            }
            "--full" => o.params = ExpParams::full(),
            "--smoke" => o.params = ExpParams::smoke(),
            "--seed" => o.params.seed = number(&arg, value()?)?,
            "--quanta" => o.params.quanta = positive(&arg, value()?)?,
            "--mixes" => o.params.mix_ids = mix_ids(&value()?)?,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--no-csv" => o.out = None,
            "--oracle-all" => o.oracle_all = true,
            "--jobs" => o.jobs = Some(number(&arg, value()?)?),
            "--no-cache" => o.no_cache = true,
            "--cache-dir" => o.cache_dir = PathBuf::from(value()?),
            "--no-telemetry" => o.no_telemetry = true,
            "--no-ckpt" => o.no_ckpt = true,
            "--ckpt-dir" => o.ckpt_dir = PathBuf::from(value()?),
            "--obs" => o.obs = true,
            "--obs-out" => o.obs_out = PathBuf::from(value()?),
            "--obs-events" => o.obs_events = positive(&arg, value()?)?,
            "--attr" => o.attr = true,
            "--attr-out" => o.attr_out = PathBuf::from(value()?),
            "--spans" => o.spans = true,
            "--spans-out" => o.spans_out = PathBuf::from(value()?),
            "--capture-trace" => o.capture_trace = Some(PathBuf::from(value()?)),
            "--trace" => o.trace = Some(PathBuf::from(value()?)),
            "--cores" => o.cores = positive(&arg, value()?)?,
            "--alloc" => {
                let kind = alloc_kind(&value()?)?;
                if !o.alloc.contains(&kind) {
                    o.alloc.push(kind);
                }
            }
            "--mig-penalty" => {
                o.mig_penalty = number(&arg, value()?)?;
                if o.mig_penalty > MAX_LATENCY {
                    return Err(format!(
                        "--mig-penalty {} exceeds the {MAX_LATENCY}-cycle maximum",
                        o.mig_penalty
                    ));
                }
            }
            exp if !exp.starts_with('-') => {
                if !EXPERIMENTS.contains(&exp) {
                    return Err(format!(
                        "unknown experiment {exp:?} (known: {})",
                        EXPERIMENTS.join(" ")
                    ));
                }
                o.experiments.push(arg);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let trace_pass = o.capture_trace.is_some() || o.trace.is_some();
    if trace_pass && !o.experiments.is_empty() {
        return Err(format!(
            "--capture-trace and --trace run instead of experiments; drop {}",
            o.experiments.join(" ")
        ));
    }
    o.help = o.experiments.is_empty() && !trace_pass;
    Ok(o)
}

fn number<T: FromStr>(flag: &str, v: String) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse()
        .map_err(|e| format!("bad {flag} value {v:?}: {e}"))
}

fn positive<T: FromStr + Default + PartialEq>(flag: &str, v: String) -> Result<T, String>
where
    T::Err: Display,
{
    let n = number(flag, v)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn mix_ids(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| {
            let id: usize = number("--mixes", s.trim().to_string())?;
            if (1..=MIX_COUNT).contains(&id) {
                Ok(id)
            } else {
                Err(format!("mix id {id} is outside 1..={MIX_COUNT}"))
            }
        })
        .collect()
}

fn alloc_kind(name: &str) -> Result<AllocKind, String> {
    AllocKind::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = AllocKind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown allocation policy {name:?} (known: {})",
            known.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(tokens: &[&str]) -> Result<RunOptions, String> {
        parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_run_standard_scale_with_every_sink_off() {
        let o = p(&["table1"]).unwrap();
        assert!(!o.help);
        assert_eq!(o.params, ExpParams::standard());
        assert_eq!(o.out, Some(PathBuf::from("results")));
        assert_eq!(o.cache_dir, PathBuf::from("results/cache"));
        assert_eq!(o.ckpt_dir, PathBuf::from("results/cache/ckpt"));
        assert!(!o.no_cache && !o.no_telemetry && !o.no_ckpt);
        assert!(!o.obs && !o.attr);
        assert_eq!(o.obs_out, PathBuf::from("results/obs"));
        assert_eq!(o.attr_out, PathBuf::from("results/attr"));
        assert_eq!(o.obs_events, DEFAULT_EVENTS_CAP);
        assert!(!o.spans && !o.multicore_passes());
        assert_eq!(o.spans_out, PathBuf::from("results/spans"));
        assert!(o.capture_trace.is_none() && o.trace.is_none());
        assert_eq!((o.cores, o.mig_penalty), (2, 256));
        assert_eq!(o.allocs(), AllocKind::ALL.to_vec());
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let o = p(&[
            "--smoke",
            "--seed",
            "7",
            "--quanta",
            "3",
            "--mixes",
            "1, 9",
            "--no-csv",
            "--oracle-all",
            "--jobs",
            "4",
            "--no-cache",
            "--cache-dir",
            "c",
            "--no-telemetry",
            "--no-ckpt",
            "--ckpt-dir",
            "k",
            "--obs",
            "--obs-out",
            "o",
            "--obs-events",
            "128",
            "--attr",
            "--attr-out",
            "a",
            "--spans",
            "--spans-out",
            "s",
            "--cores",
            "4",
            "--alloc",
            "rotate",
            "--alloc",
            "ipc-greedy",
            "--alloc",
            "rotate",
            "--mig-penalty",
            "64",
            "alloc",
        ])
        .unwrap();
        assert_eq!(o.params.seed, 7);
        assert_eq!(o.params.quanta, 3);
        assert_eq!(o.params.quantum_cycles, ExpParams::smoke().quantum_cycles);
        assert_eq!(o.params.mix_ids, vec![1, 9]);
        assert_eq!(o.out, None);
        assert!(o.oracle_all && o.no_cache && o.no_telemetry && o.no_ckpt && o.spans);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.cache_dir, PathBuf::from("c"));
        assert_eq!(o.ckpt_dir, PathBuf::from("k"));
        assert_eq!(o.spans_out, PathBuf::from("s"));
        assert!(o.obs && o.attr);
        assert_eq!(o.obs_out, PathBuf::from("o"));
        assert_eq!(o.obs_events, 128);
        assert_eq!(o.attr_out, PathBuf::from("a"));
        assert_eq!((o.cores, o.mig_penalty), (4, 64));
        assert_eq!(o.allocs(), vec![AllocKind::Rotate, AllocKind::IpcGreedy]);
        assert!(o.multicore_passes());
        assert!(o.wants("alloc") && !o.wants("table1"));
    }

    #[test]
    fn trace_paths_land_in_their_fields() {
        let o = p(&["--capture-trace", "out.smttrace", "--trace", "in.smttrace"]).unwrap();
        assert_eq!(o.capture_trace, Some(PathBuf::from("out.smttrace")));
        assert_eq!(o.trace, Some(PathBuf::from("in.smttrace")));
    }

    #[test]
    fn malformed_values_are_errors() {
        for argv in [
            &["--seed"][..],
            &["--jobs", "many"],
            &["--quanta", "-1"],
            &["--quanta", "0"],
            &["--obs-events", "0"],
            &["--obs-events", "many"],
            &["--obs-out"],
            &["--attr-out"],
            &["--ckpt-dir"],
            &["--spans-out"],
            &["--capture-trace"],
            &["--trace"],
            &["--cores", "0"],
            &["--cores", "many"],
            &["--alloc"],
            &["--mig-penalty", "-1"],
            &["--mig-penalty", "65537"],
            &["--mixes", ""],
            &["--frobnicate"],
            &["--all"],
            &["fig7a"],
            &["--trace", "t.smttrace", "table1"],
            &["table1", "--capture-trace", "t.smttrace"],
        ] {
            assert!(p(argv).is_err(), "{argv:?} must be refused");
        }
        let err = p(&["--alloc", "lru"]).unwrap_err();
        assert!(err.contains("ipc-greedy"), "{err}");
    }

    #[test]
    fn mix_ids_outside_the_suite_name_the_range() {
        for bad in ["0", "14", "1,0"] {
            let err = p(&["--mixes", bad, "table1"]).unwrap_err();
            assert!(err.contains(&format!("1..={MIX_COUNT}")), "{err}");
        }
        let o = p(&["--mixes", &MIX_COUNT.to_string(), "table1"]).unwrap();
        assert_eq!(o.params.mix_ids, vec![MIX_COUNT]);
    }

    #[test]
    fn all_selects_every_experiment_but_the_fixed_protocols() {
        let o = p(&["all"]).unwrap();
        for &e in EXPERIMENTS {
            assert_eq!(o.wants(e), !OWN_PROTOCOL.contains(&e), "{e}");
        }
        assert!(p(&["calibrate"]).unwrap().wants("calibrate"));
    }

    #[test]
    fn only_the_fixed_protocols_ignore_the_run_scale() {
        assert!(!p(&["calibrate", "characterize"]).unwrap().runs_at_scale());
        assert!(p(&["calibrate", "table1"]).unwrap().runs_at_scale());
        assert!(p(&["all"]).unwrap().runs_at_scale());
        assert!(p(&["--obs", "calibrate"]).unwrap().runs_at_scale());
        assert!(p(&["--attr", "characterize"]).unwrap().runs_at_scale());
    }

    #[test]
    fn help_when_asked_or_when_nothing_would_run() {
        assert!(p(&[]).unwrap().help);
        assert!(p(&["--smoke"]).unwrap().help);
        assert!(p(&["table1", "--help", "--frobnicate"]).unwrap().help);
        assert!(!p(&["--trace", "t.smttrace"]).unwrap().help);
        assert!(!p(&["--capture-trace", "t.smttrace"]).unwrap().help);
        for &e in EXPERIMENTS {
            assert!(USAGE.contains(e), "usage text misses {e}");
        }
    }

    #[test]
    fn mig_penalty_is_bounded_by_the_longest_latency() {
        let o = p(&["--mig-penalty", &MAX_LATENCY.to_string(), "alloc"]).unwrap();
        assert_eq!(o.mig_penalty, MAX_LATENCY);
        for v in ["65537", "18446744073709551615"] {
            let err = p(&["--mig-penalty", v, "alloc"]).unwrap_err();
            assert!(err.contains("65536-cycle maximum"), "{err}");
        }
    }

    #[test]
    fn multicore_passes_need_a_multicore_flag_and_two_cores() {
        assert!(!p(&["--cores", "1", "alloc"]).unwrap().multicore_passes());
        assert!(p(&["--mig-penalty", "8", "alloc"])
            .unwrap()
            .multicore_passes());
        assert!(p(&["--alloc", "static", "alloc"])
            .unwrap()
            .multicore_passes());
    }
}
