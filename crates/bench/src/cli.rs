//! Shared instrumentation-flag plumbing for the experiment binaries.
//!
//! `repro`, `calibrate` and `characterize` all accept the observability
//! (`--obs`, `--obs-out`, `--obs-events`) and attribution (`--attr`,
//! `--attr-out`) flag families. Before this module each binary parsed
//! them by hand — with drifting strictness (repro rejected a zero ring
//! cap, the others silently kept the default). Now one [`InstrumentCli`]
//! owns parsing, validation, the usage string, and the post-experiment
//! dispatch into [`crate::obs`] / [`crate::attr`].

use crate::attr::{self, AttrOptions};
use crate::obs::{self, ObsOptions};
use crate::params::ExpParams;
use adts_core::AllocKind;
use std::path::PathBuf;

/// The instrumented-pass flags shared by every experiment binary.
#[derive(Clone, Debug, Default)]
pub struct InstrumentCli {
    pub obs: ObsOptions,
    pub attr: AttrOptions,
}

/// One line for each binary's usage text.
pub const INSTRUMENT_USAGE: &str =
    "[--obs] [--obs-out DIR] [--obs-events N] [--attr] [--attr-out DIR]";

/// Usage fragment for the checkpoint flags shared by every binary.
pub const CKPT_USAGE: &str = "[--no-ckpt] [--ckpt-dir DIR]";

/// Usage fragment for the trace capture/replay flags shared by every
/// binary.
pub const TRACE_USAGE: &str = "[--capture-trace FILE] [--trace FILE]";

/// Usage fragment for the multi-core allocation flags shared by every
/// binary.
pub const ALLOC_USAGE: &str = "[--cores N] [--alloc NAME]... [--mig-penalty N]";

/// Usage fragment for the engine span-trace flags shared by every
/// binary.
pub const SPANS_USAGE: &str = "[--spans] [--spans-out DIR]";

/// The engine span-trace flags (`--spans`, `--spans-out`) shared by
/// every experiment binary. `--spans` turns on the process-wide
/// [`crate::sweep::span::SpanRecorder`] for the whole run — per-point
/// spans, warm-pool and checkpoint events, batch forks, worker lanes —
/// and the binary writes the three artifacts (`spans.jsonl`,
/// `spans.trace.json`, `engine.prom`) on exit.
#[derive(Clone, Debug)]
pub struct SpanCli {
    /// `--spans`: record the engine trace at all.
    pub enabled: bool,
    /// `--spans-out DIR`: artifact directory.
    pub out_dir: PathBuf,
}

impl Default for SpanCli {
    fn default() -> Self {
        SpanCli {
            enabled: false,
            out_dir: PathBuf::from("results/spans"),
        }
    }
}

impl SpanCli {
    /// Same contract as [`InstrumentCli::accept`].
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--spans" => self.enabled = true,
            "--spans-out" => {
                self.out_dir = PathBuf::from(args.next().ok_or("--spans-out needs a value")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Enable the process-wide recorder if requested. Call once, after
    /// argument parsing and before any experiment runs.
    pub fn apply(&self) {
        if self.enabled {
            crate::sweep::span::set_enabled(true);
        }
    }

    /// Write the engine-trace artifacts (no-op unless `--spans`); call
    /// at binary exit, after every experiment ran.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        match crate::sweep::spans().write_artifacts(&self.out_dir) {
            Ok(art) => println!("[spans] {}", art.trace.display()),
            Err(e) => eprintln!(
                "warning: engine span artifacts at {} failed: {e}",
                self.out_dir.display()
            ),
        }
    }
}

/// The multi-core allocation flags (`--cores`, `--alloc`,
/// `--mig-penalty`) shared by every experiment binary. They parameterize
/// the `alloc_sweep` experiment: core count, the allocation policies to
/// sweep (default: all four), and the cold-frontend migration penalty in
/// cycles.
#[derive(Clone, Debug)]
pub struct AllocCli {
    /// `--cores N`: number of cores sharing the L2.
    pub cores: usize,
    /// `--alloc NAME` (repeatable): restrict the sweep to these
    /// policies; empty means all of [`AllocKind::ALL`].
    pub allocs: Vec<AllocKind>,
    /// `--mig-penalty N`: cold-frontend cycles charged per migration.
    pub penalty: u64,
    /// Any of the family's flags seen at all (calibrate/characterize run
    /// their multi-core context pass only when asked).
    pub requested: bool,
}

impl Default for AllocCli {
    fn default() -> Self {
        AllocCli {
            cores: 2,
            allocs: Vec::new(),
            penalty: 256,
            requested: false,
        }
    }
}

impl AllocCli {
    /// Same contract as [`InstrumentCli::accept`].
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--cores" => {
                self.cores = args
                    .next()
                    .ok_or("--cores needs a value")?
                    .parse()
                    .map_err(|e| format!("bad core count: {e}"))?;
                if self.cores == 0 {
                    return Err("--cores must be at least 1".to_string());
                }
            }
            "--alloc" => {
                let name = args.next().ok_or("--alloc needs a value")?;
                let kind = AllocKind::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = AllocKind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown allocation policy {name:?} (known: {})",
                        known.join(", ")
                    )
                })?;
                if !self.allocs.contains(&kind) {
                    self.allocs.push(kind);
                }
            }
            "--mig-penalty" => {
                self.penalty = args
                    .next()
                    .ok_or("--mig-penalty needs a value")?
                    .parse()
                    .map_err(|e| format!("bad migration penalty: {e}"))?;
            }
            _ => return Ok(false),
        }
        self.requested = true;
        Ok(true)
    }

    /// The policies to sweep: the `--alloc` selection, or all four.
    pub fn allocs(&self) -> Vec<AllocKind> {
        if self.allocs.is_empty() {
            AllocKind::ALL.to_vec()
        } else {
            self.allocs.clone()
        }
    }
}

/// The trace-frontend flags (`--capture-trace`, `--trace`) shared by
/// every experiment binary. Either flag switches the binary into a
/// standalone trace pass (run by [`crate::tracebench::run_cli`]) instead
/// of its normal experiments: `--capture-trace` records the configured
/// synthetic runs to `SMTTRACE` files, `--trace` replays a recorded file
/// through the trace-backed sweep (and `--attr` explain, if requested).
#[derive(Clone, Debug, Default)]
pub struct TraceCli {
    /// `--capture-trace FILE`: capture destination.
    pub capture: Option<PathBuf>,
    /// `--trace FILE`: trace to replay.
    pub replay: Option<PathBuf>,
}

impl TraceCli {
    /// Same contract as [`InstrumentCli::accept`].
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--capture-trace" => {
                self.capture = Some(PathBuf::from(
                    args.next().ok_or("--capture-trace needs a value")?,
                ));
            }
            "--trace" => {
                self.replay = Some(PathBuf::from(args.next().ok_or("--trace needs a value")?));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Was a trace pass requested at all?
    pub fn active(&self) -> bool {
        self.capture.is_some() || self.replay.is_some()
    }
}

/// The warm-state checkpoint flags (`--no-ckpt`, `--ckpt-dir`) shared by
/// every experiment binary. By default warmed machines are pooled in
/// memory and persisted as checkpoints beside the result cache; `apply`
/// pushes the parsed settings into [`crate::warm`].
#[derive(Clone, Debug)]
pub struct CkptCli {
    /// `--no-ckpt` clears this: disables both the in-memory warm pool and
    /// the on-disk checkpoint store.
    pub enabled: bool,
    /// `--ckpt-dir DIR`: where checkpoints live.
    pub dir: PathBuf,
}

impl Default for CkptCli {
    fn default() -> Self {
        CkptCli {
            enabled: true,
            dir: PathBuf::from("results/cache/ckpt"),
        }
    }
}

impl CkptCli {
    /// Same contract as [`InstrumentCli::accept`].
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--no-ckpt" => self.enabled = false,
            "--ckpt-dir" => {
                self.dir = PathBuf::from(args.next().ok_or("--ckpt-dir needs a value")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Push the parsed settings into the process-wide warm pool. Call once,
    /// after argument parsing and before any experiment runs.
    pub fn apply(&self) {
        crate::warm::set_enabled(self.enabled);
        crate::warm::configure_store(self.enabled.then(|| self.dir.clone()));
    }
}

impl InstrumentCli {
    /// Try to consume `arg` (pulling its value from `args` where the flag
    /// takes one). Returns `Ok(true)` when the flag belonged to this
    /// family, `Ok(false)` when the caller should keep matching, and
    /// `Err` on a malformed value — uniformly strict across binaries.
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--obs" => self.obs.enabled = true,
            "--obs-out" => {
                self.obs.out_dir = PathBuf::from(args.next().ok_or("--obs-out needs a value")?);
            }
            "--obs-events" => {
                self.obs.events_cap = args
                    .next()
                    .ok_or("--obs-events needs a value")?
                    .parse()
                    .map_err(|e| format!("bad events cap: {e}"))?;
                if self.obs.events_cap == 0 {
                    return Err("--obs-events must be positive".to_string());
                }
            }
            "--attr" => self.attr.enabled = true,
            "--attr-out" => {
                self.attr.out_dir = PathBuf::from(args.next().ok_or("--attr-out needs a value")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Any instrumented pass requested?
    pub fn any_enabled(&self) -> bool {
        self.obs.enabled || self.attr.enabled
    }

    /// Run whichever instrumented passes were requested, in the canonical
    /// order (observe, then explain). When the user also asked for the
    /// multi-core context (`--cores`/`--alloc`/`--mig-penalty` with more
    /// than one core), the passes instrument that context instead of the
    /// single-core one — previously `--obs --cores 2` silently observed
    /// a single-core run.
    pub fn run(&self, p: &ExpParams, alloc: &AllocCli) {
        let multicore = alloc.requested && alloc.cores > 1;
        if self.obs.enabled {
            if multicore {
                obs::run_observations_multicore(
                    p,
                    &self.obs,
                    alloc.cores,
                    alloc.penalty,
                    &alloc.allocs(),
                );
            } else {
                obs::run_observations(p, &self.obs);
            }
        }
        if self.attr.enabled {
            if multicore {
                attr::run_explain_multicore(
                    p,
                    &self.attr,
                    alloc.cores,
                    alloc.penalty,
                    &alloc.allocs(),
                );
            } else {
                attr::run_explain(p, &self.attr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<InstrumentCli, String> {
        let mut cli = InstrumentCli::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(a) = args.next() {
            if !cli.accept(&a, &mut args)? {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(cli)
    }

    #[test]
    fn parses_both_flag_families() {
        let cli = parse(&[
            "--obs",
            "--obs-out",
            "obs_dir",
            "--obs-events",
            "128",
            "--attr",
            "--attr-out",
            "attr_dir",
        ])
        .unwrap();
        assert!(cli.obs.enabled && cli.attr.enabled);
        assert!(cli.any_enabled());
        assert_eq!(cli.obs.out_dir, PathBuf::from("obs_dir"));
        assert_eq!(cli.obs.events_cap, 128);
        assert_eq!(cli.attr.out_dir, PathBuf::from("attr_dir"));
    }

    #[test]
    fn defaults_leave_everything_disabled() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.any_enabled());
        assert_eq!(cli.obs.out_dir, PathBuf::from("results/obs"));
        assert_eq!(cli.attr.out_dir, PathBuf::from("results/attr"));
    }

    #[test]
    fn rejects_malformed_values_strictly() {
        assert!(parse(&["--obs-events", "0"]).is_err());
        assert!(parse(&["--obs-events", "many"]).is_err());
        assert!(parse(&["--obs-out"]).is_err());
        assert!(parse(&["--attr-out"]).is_err());
    }

    fn parse_ckpt(tokens: &[&str]) -> Result<CkptCli, String> {
        let mut cli = CkptCli::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(a) = args.next() {
            if !cli.accept(&a, &mut args)? {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(cli)
    }

    #[test]
    fn ckpt_defaults_to_enabled_beside_the_result_cache() {
        let cli = parse_ckpt(&[]).unwrap();
        assert!(cli.enabled);
        assert_eq!(cli.dir, PathBuf::from("results/cache/ckpt"));
    }

    #[test]
    fn ckpt_flags_parse_and_validate() {
        let cli = parse_ckpt(&["--no-ckpt", "--ckpt-dir", "elsewhere"]).unwrap();
        assert!(!cli.enabled);
        assert_eq!(cli.dir, PathBuf::from("elsewhere"));
        assert!(parse_ckpt(&["--ckpt-dir"]).is_err());
        assert!(parse_ckpt(&["--frobnicate"]).is_err());
    }

    fn parse_trace(tokens: &[&str]) -> Result<TraceCli, String> {
        let mut cli = TraceCli::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(a) = args.next() {
            if !cli.accept(&a, &mut args)? {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(cli)
    }

    #[test]
    fn trace_flags_parse_and_validate() {
        assert!(!parse_trace(&[]).unwrap().active());
        let cli =
            parse_trace(&["--capture-trace", "out.smttrace", "--trace", "in.smttrace"]).unwrap();
        assert!(cli.active());
        assert_eq!(cli.capture, Some(PathBuf::from("out.smttrace")));
        assert_eq!(cli.replay, Some(PathBuf::from("in.smttrace")));
        assert!(parse_trace(&["--capture-trace"]).is_err());
        assert!(parse_trace(&["--trace"]).is_err());
        assert!(parse_trace(&["--frobnicate"]).is_err());
    }

    fn parse_alloc(tokens: &[&str]) -> Result<AllocCli, String> {
        let mut cli = AllocCli::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(a) = args.next() {
            if !cli.accept(&a, &mut args)? {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(cli)
    }

    #[test]
    fn alloc_defaults_to_two_cores_all_policies() {
        let cli = parse_alloc(&[]).unwrap();
        assert!(!cli.requested);
        assert_eq!(cli.cores, 2);
        assert_eq!(cli.penalty, 256);
        assert_eq!(cli.allocs(), AllocKind::ALL.to_vec());
    }

    #[test]
    fn alloc_flags_parse_and_validate() {
        let cli = parse_alloc(&[
            "--cores",
            "4",
            "--alloc",
            "rotate",
            "--alloc",
            "ipc-greedy",
            "--alloc",
            "rotate", // duplicates collapse
            "--mig-penalty",
            "64",
        ])
        .unwrap();
        assert!(cli.requested);
        assert_eq!(cli.cores, 4);
        assert_eq!(cli.penalty, 64);
        assert_eq!(cli.allocs(), vec![AllocKind::Rotate, AllocKind::IpcGreedy]);
        assert!(parse_alloc(&["--cores", "0"]).is_err());
        assert!(parse_alloc(&["--cores", "many"]).is_err());
        assert!(parse_alloc(&["--alloc"]).is_err());
        let err = parse_alloc(&["--alloc", "lru"]).unwrap_err();
        assert!(err.contains("ipc-greedy"), "{err}");
        assert!(parse_alloc(&["--mig-penalty", "-1"]).is_err());
        assert!(parse_alloc(&["--frobnicate"]).is_err());
    }

    fn parse_spans(tokens: &[&str]) -> Result<SpanCli, String> {
        let mut cli = SpanCli::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(a) = args.next() {
            if !cli.accept(&a, &mut args)? {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(cli)
    }

    #[test]
    fn spans_default_off_under_results() {
        let cli = parse_spans(&[]).unwrap();
        assert!(!cli.enabled);
        assert_eq!(cli.out_dir, PathBuf::from("results/spans"));
    }

    #[test]
    fn spans_flags_parse_and_validate() {
        let cli = parse_spans(&["--spans", "--spans-out", "elsewhere"]).unwrap();
        assert!(cli.enabled);
        assert_eq!(cli.out_dir, PathBuf::from("elsewhere"));
        assert!(parse_spans(&["--spans-out"]).is_err());
        assert!(parse_spans(&["--frobnicate"]).is_err());
    }

    #[test]
    fn foreign_flags_are_left_to_the_caller() {
        assert!(parse(&["--frobnicate"]).is_err());
        let mut cli = InstrumentCli::default();
        let mut args = std::iter::empty::<String>();
        assert_eq!(cli.accept("--seed", &mut args), Ok(false));
    }
}
