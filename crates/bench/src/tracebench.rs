//! Trace capture and replay passes for `repro`.
//!
//! Capture records the synthetic run of a mix to an `SMTTRACE` container
//! (`smt_isa::tracefile`); replay rebuilds a machine over
//! [`TraceStream`](smt_workloads::TraceStream)s and runs the same
//! experiment machinery unchanged. The replay contract the conformance
//! suite pins: a fixed-policy run over a captured trace is **bit-identical**
//! to the synthetic run it was captured from — same per-quantum counters,
//! same golden-trace bytes — because the machine observes nothing about a
//! stream beyond its ops, profile and address base.
//!
//! Capture does not hook the machine. Synthetic streams are pure
//! deterministic generators, so the recorder first *runs* the full fixed
//! policy matrix to learn how many ops each policy consumes per thread,
//! then pulls `max × margin` ops from fresh clones of the streams. The
//! margin keeps adaptive (ADTS) replays — which interleave the fixed
//! policies and can consume slightly more than any one of them — inside
//! the recorded span; if a replay ever does run past the end, the trace
//! wraps cyclically and stays deterministic rather than failing.

use crate::cli::RunOptions;
use crate::exp::{run_sweep_batch, sweep_specs, SWEEP_THRESHOLDS};
use crate::params::ExpParams;
use adts_core::{machine_for_mix_with, run_fixed, run_fixed_sampled, HeuristicKind};
use smt_isa::codec::CodecError;
use smt_isa::tracefile::{TraceFile, TraceWriter};
use smt_isa::Tid;
use smt_policies::FetchPolicy;
use smt_sim::{SimConfig, SmtMachine};
use smt_stats::Table;
use smt_workloads::{streams_from_trace, Mix};
use std::path::Path;

/// Extra ops recorded beyond the learned fixed-policy maximum:
/// `need * CAPTURE_MARGIN_NUM / CAPTURE_MARGIN_DEN + CAPTURE_MARGIN_FLAT`.
const CAPTURE_MARGIN_NUM: u64 = 5;
const CAPTURE_MARGIN_DEN: u64 = 4;
const CAPTURE_MARGIN_FLAT: u64 = 256;

/// Capture `mix`'s synthetic run under `p` to trace-container bytes.
///
/// The recorded span covers the experiment protocol exactly: for every
/// fixed policy, an ICOUNT warmup of `p.warmup_quanta` followed by
/// `p.quanta` measured quanta. Per-quantum consumption marks from the
/// all-ICOUNT run are stored in the header (`quantum_marks`), mapping
/// quantum boundaries onto per-thread op indices for fast-forward.
pub fn capture_mix_trace(mix: &Mix, p: &ExpParams) -> Vec<u8> {
    let n = mix.apps.len();
    let total = p.warmup_quanta + p.quanta;
    let mut need = vec![0u64; n];
    let mut marks: Vec<Vec<u64>> = Vec::with_capacity(total as usize);
    for policy in FetchPolicy::ALL {
        let mut m = machine_for_mix_with(SimConfig::with_threads(n), mix, p.seed);
        if policy == FetchPolicy::Icount {
            // Warmup is ICOUNT, so warmup + ICOUNT measurement is one
            // continuous ICOUNT run — sample it for the quantum marks.
            run_fixed_sampled(policy, &mut m, total, p.quantum_cycles, |_, mach, _| {
                marks.push(Tid::all(n).map(|t| mach.stream_generated(t)).collect());
            });
        } else {
            run_fixed(
                FetchPolicy::Icount,
                &mut m,
                p.warmup_quanta,
                p.quantum_cycles,
            );
            run_fixed(policy, &mut m, p.quanta, p.quantum_cycles);
        }
        for (t, need_t) in need.iter_mut().enumerate() {
            *need_t = (*need_t).max(m.stream_generated(Tid(t as u8)));
        }
    }

    let mut w = TraceWriter::new(
        &format!("{} seed {}", mix.name, p.seed),
        p.seed,
        p.quantum_cycles,
    );
    for (t, mut stream) in mix.streams(p.seed).into_iter().enumerate() {
        // +1: the fetch stage peeks `current_pc()` one op past the last
        // consumed one, so the replay needs that op recorded too.
        let want = need[t] * CAPTURE_MARGIN_NUM / CAPTURE_MARGIN_DEN + CAPTURE_MARGIN_FLAT + 1;
        let ops: Vec<_> = (0..want).map(|_| stream.next_uop()).collect();
        w.add_thread(stream.profile(), stream.addr_base(), &ops);
    }
    w.set_quantum_marks(marks);
    w.finish()
}

/// Read and parse a trace container from disk.
pub fn load_trace(path: &Path) -> Result<TraceFile, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    TraceFile::parse(bytes).map_err(|e| format!("invalid trace {}: {e}", path.display()))
}

/// A cold machine replaying `file` — the trace-backed mirror of
/// `machine_for_mix`, with the same default per-thread-count config.
pub fn trace_machine(file: &TraceFile) -> Result<SmtMachine, CodecError> {
    let streams = streams_from_trace(file)?;
    let cfg = SimConfig::with_threads(streams.len());
    Ok(SmtMachine::new(cfg, streams))
}

/// A machine replaying `file`, warmed exactly like the experiment
/// harness warms synthetic machines: `p.warmup_quanta` quanta of fixed
/// ICOUNT excluded from measurement.
pub fn warmed_trace_machine(file: &TraceFile, p: &ExpParams) -> Result<SmtMachine, CodecError> {
    let mut m = trace_machine(file)?;
    run_fixed(
        FetchPolicy::Icount,
        &mut m,
        p.warmup_quanta,
        p.quantum_cycles,
    );
    Ok(m)
}

/// Results of the trace-backed threshold × heuristic sweep: the same 26
/// points per trace that `threshold_type_sweep` runs per mix, stepped as
/// one lockstep batch over the replayed machine.
pub struct TraceSweep {
    pub thresholds: Vec<f64>,
    pub kinds: Vec<HeuristicKind>,
    /// `ipc[ti][ki]`.
    pub ipc: Vec<Vec<f64>>,
    /// Fixed-ICOUNT baseline IPC.
    pub icount: f64,
    pub source: String,
}

/// Run the threshold × heuristic sweep from `machine`, a replay of the
/// trace named `source` warmed by [`warmed_trace_machine`].
pub fn trace_threshold_type_sweep(machine: SmtMachine, source: &str, p: &ExpParams) -> TraceSweep {
    let thresholds = SWEEP_THRESHOLDS.to_vec();
    let kinds = HeuristicKind::ALL.to_vec();
    let (series, _) = run_sweep_batch(machine, &sweep_specs(&thresholds, &kinds, p), p);
    let ipc = (0..thresholds.len())
        .map(|ti| {
            (0..kinds.len())
                .map(|ki| series[1 + ti * kinds.len() + ki].aggregate_ipc())
                .collect()
        })
        .collect();
    TraceSweep {
        thresholds,
        kinds,
        ipc,
        icount: series[0].aggregate_ipc(),
        source: source.to_string(),
    }
}

impl TraceSweep {
    /// Render as the usual text table.
    pub fn table(&self) -> Table {
        let mut headers = vec!["threshold".to_string()];
        headers.extend(self.kinds.iter().map(|k| k.name().to_string()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!(
                "Trace-backed threshold x type sweep — {} (fixed ICOUNT {:.3})",
                self.source, self.icount
            ),
            &header_refs,
        );
        for (ti, &m) in self.thresholds.iter().enumerate() {
            let mut row = vec![format!("{m:.1}")];
            row.extend(self.ipc[ti].iter().map(|v| format!("{v:.3}")));
            t.row(row);
        }
        t
    }
}

/// Run the `--capture-trace` / `--trace` pass, which stands in for the
/// experiments.
///
/// Capture records every mix configured in `opts.params`: a single mix
/// goes to the given path verbatim; multiple mixes get `-<mixname>`
/// inserted before the extension. Replay warms the replayed machine once,
/// runs the trace-backed sweep on a clone of it and returns it with its
/// point name, for the instrumented pass.
pub fn run_cli(opts: &RunOptions) -> Result<Option<(SmtMachine, String)>, String> {
    let p = &opts.params;
    if let Some(path) = &opts.capture_trace {
        let mixes = p.mixes();
        for mix in &mixes {
            let out = if mixes.len() == 1 {
                path.clone()
            } else {
                let stem = path.file_stem().unwrap_or_default().to_string_lossy();
                let ext = path
                    .extension()
                    .map(|e| format!(".{}", e.to_string_lossy()))
                    .unwrap_or_default();
                path.with_file_name(format!("{stem}-{}{ext}", mix.name.to_ascii_lowercase()))
            };
            let bytes = capture_mix_trace(mix, p);
            if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(&out, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            println!(
                "captured {} -> {} ({} bytes, {} threads)",
                mix.name,
                out.display(),
                bytes.len(),
                mix.apps.len()
            );
        }
    }
    let Some(path) = &opts.trace else {
        return Ok(None);
    };
    let file = load_trace(path)?;
    let meta = file.meta();
    println!(
        "replaying {} — source '{}', {} threads, {} quanta of marks",
        path.display(),
        meta.source,
        meta.threads.len(),
        meta.quantum_marks.len()
    );
    let machine = warmed_trace_machine(&file, p).map_err(|e| e.to_string())?;
    let sweep = trace_threshold_type_sweep(machine.clone(), &meta.source, p);
    println!("{}", sweep.table().render());
    Ok(Some((machine, format!("trace-{}", slugify(&meta.source)))))
}

fn slugify(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::CounterSnapshot;
    use smt_workloads::mix;

    fn tiny_params() -> ExpParams {
        ExpParams {
            seed: 42,
            warmup_quanta: 1,
            quanta: 3,
            quantum_cycles: 512,
            mix_ids: vec![1],
        }
    }

    /// The core replay guarantee: a fixed-policy run over the captured
    /// trace produces the same per-quantum counter deltas as the
    /// synthetic run it was captured from.
    #[test]
    fn capture_then_replay_is_bit_identical() {
        let p = tiny_params();
        let m2 = mix(1).take_threads(2, p.seed);
        let bytes = capture_mix_trace(&m2, &p);
        let file = TraceFile::parse(bytes).expect("parse");

        for policy in [FetchPolicy::Icount, FetchPolicy::BrCount] {
            let mut synth =
                machine_for_mix_with(SimConfig::with_threads(m2.apps.len()), &m2, p.seed);
            let mut replay = trace_machine(&file).expect("machine");
            for m in [&mut synth, &mut replay] {
                run_fixed(FetchPolicy::Icount, m, p.warmup_quanta, p.quantum_cycles);
            }
            let mut deltas_a: Vec<CounterSnapshot> = Vec::new();
            let mut deltas_b: Vec<CounterSnapshot> = Vec::new();
            run_fixed_sampled(policy, &mut synth, p.quanta, p.quantum_cycles, |_, _, d| {
                deltas_a.push(d.clone())
            });
            run_fixed_sampled(
                policy,
                &mut replay,
                p.quanta,
                p.quantum_cycles,
                |_, _, d| deltas_b.push(d.clone()),
            );
            assert_eq!(deltas_a, deltas_b, "policy {}", policy.name());
        }
    }

    #[test]
    fn quantum_marks_match_replay_consumption() {
        let p = tiny_params();
        let m2 = mix(1).take_threads(2, p.seed);
        let bytes = capture_mix_trace(&m2, &p);
        let file = TraceFile::parse(bytes).expect("parse");
        let marks = file.meta().quantum_marks.clone();
        assert_eq!(marks.len() as u64, p.warmup_quanta + p.quanta);

        let mut m = trace_machine(&file).expect("machine");
        run_fixed_sampled(
            FetchPolicy::Icount,
            &mut m,
            p.warmup_quanta + p.quanta,
            p.quantum_cycles,
            |q, mach, _| {
                for t in Tid::all(mach.n_threads()) {
                    assert_eq!(
                        mach.stream_generated(t),
                        marks[q as usize][t.idx()],
                        "quantum {q} thread {t}"
                    );
                }
            },
        );
    }

    #[test]
    fn trace_sweep_runs_over_captured_trace() {
        let p = tiny_params();
        let m2 = mix(1).take_threads(2, p.seed);
        let file = TraceFile::parse(capture_mix_trace(&m2, &p)).expect("parse");
        let machine = warmed_trace_machine(&file, &p).expect("machine");
        let sweep = trace_threshold_type_sweep(machine, &file.meta().source, &p);
        assert_eq!(sweep.ipc.len(), 5);
        assert!(sweep.icount > 0.0);
        assert!(sweep.ipc.iter().flatten().all(|&v| v > 0.0));
        let rendered = sweep.table().render();
        assert!(rendered.contains("Trace-backed"));
    }
}
