//! `--obs` and `--attr`: instrumented passes for `repro`.
//!
//! A pass re-runs one point with the requested sinks on and writes their
//! artifacts. The point is simulated once, whichever sinks are on.
//!
//! `--obs` turns on the event-trace ring and the occupancy sampler, and
//! writes into the `--obs-out` directory:
//!
//! - `<point>.events.jsonl` — the retained event ring, one JSON event per
//!   line (multi-core: `<point>.core<c>.events.jsonl`, one per core);
//! - `<point>.trace.json` — Chrome `trace_event` timeline (open in
//!   `chrome://tracing` or Perfetto; multi-core: one track group per core,
//!   migration arrows between them);
//! - `<point>.prom` — Prometheus text dump of the metrics registry
//!   (occupancy histograms, fetch-slot shares, per-policy quantum IPC,
//!   switch counters).
//!
//! `--attr` turns on slot attribution and the decision audit, and writes
//! into the `--attr-out` directory where every fetch/issue/commit slot of
//! every cycle went:
//!
//! - `<point>.cpi.csv` / `<point>.cpi.json` — the per-thread CPI stack,
//!   also printed as a text table (multi-core: `<point>.core<c>.cpi.csv`
//!   per core and the merged machine-wide JSON);
//! - `<point>.slots.trace.json` / `<point>.attr.prom` (single-core) —
//!   per-quantum stack deltas as Chrome counter tracks, and the stacks as
//!   Prometheus counters;
//! - `<point>.decisions.jsonl` — one decision record per quantum, and a
//!   timeline: `<point>.timeline.txt` for ADTS (each quantum's policy, IPC
//!   vs threshold, reason and dominant fetch-loss cause) or
//!   `<point>.migration_timeline.txt` for an allocation policy.
//!
//! Passes bypass the sweep result cache (a hit would skip simulation) but
//! each appends one telemetry record. They must not change simulated
//! behavior: `tests/obs_differential.rs`, `tests/obs_multicore_differential.rs`
//! and the golden suite pin that.

use crate::cli::RunOptions;
use crate::sweep;
use crate::warm::{warmed_machine, warmed_multicore};
use adts_core::{
    register_series_metrics, AdtsConfig, AllocCell, AllocDecisionRecord, AllocKind, DecisionRecord,
    PointCell,
};
use smt_policies::FetchPolicy;
use smt_sim::obs::{
    export, merge_attr_snapshots, register_attr_metrics, AttrSnapshot, FetchCause, MetricsRegistry,
    MigrationArrow, MultiCoreSampler, PipelineSampler, SlotStack,
};
use smt_sim::{run_scalar_quantum, SmtMachine};
use smt_stats::{percent_cell, shares, RunSeries, Table};
use smt_workloads::Mix;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `--obs`/`--attr` entry point. After a `--trace` replay, one pass
/// on fixed ICOUNT over the warmed `replay` machine, named by its point
/// name. Otherwise one pass per selected mix and point: single-core runs
/// pass a fixed-ICOUNT point and an ADTS point; with
/// [`RunOptions::multicore_passes`], one ICOUNT point per allocation
/// policy on the `--cores` machine.
pub fn run(opts: &RunOptions, replay: Option<(SmtMachine, String)>) {
    let p = &opts.params;
    sweep::engine().begin_scope("instrument");
    let report = |name: &str, pass: io::Result<Vec<PathBuf>>| match pass {
        Ok(files) => files
            .iter()
            .for_each(|f| println!("[pass] {}", f.display())),
        Err(e) => eprintln!("warning: instrumented pass for {name} failed: {e}"),
    };
    let icount = || PointCell::fixed(FetchPolicy::Icount, p.quantum_cycles);
    if let Some((machine, name)) = replay {
        let pass = instrument_point(machine, icount(), &name, FetchPolicy::Icount.name(), opts);
        report(&name, pass);
    } else {
        for mix in p.mixes() {
            if opts.multicore_passes() {
                for alloc in opts.allocs() {
                    report(&mix.name, instrument_alloc(&mix, alloc, opts));
                }
            } else {
                let adts = AdtsConfig {
                    quantum_cycles: p.quantum_cycles,
                    ..AdtsConfig::default()
                };
                let adaptive = PointCell::adaptive(adts, mix.apps.len());
                for (cell, label) in [(icount(), FetchPolicy::Icount.name()), (adaptive, "ADTS")] {
                    let machine = warmed_machine(&mix, p);
                    report(
                        &mix.name,
                        instrument_point(machine, cell, &mix.name, label, opts),
                    );
                }
            }
        }
    }
    println!("{}\n", sweep::engine().scope_summary());
}

/// One pass over a warmed single-core machine: step `cell` for
/// `opts.params.quanta` quanta with every requested sink on, then write
/// each sink's artifacts under `<name>_<label>` (lowercased). `label`
/// names the schedule: the fixed policy, or `ADTS`. Returns the files
/// written.
fn instrument_point(
    mut machine: SmtMachine,
    mut cell: PointCell,
    name: &str,
    label: &str,
    opts: &RunOptions,
) -> io::Result<Vec<PathBuf>> {
    let t0 = Instant::now();
    let p = &opts.params;
    let mut reg = MetricsRegistry::new();
    let mut sampler = None;
    if opts.obs {
        machine.enable_trace(opts.obs_events);
        sampler = Some(PipelineSampler::new(&mut reg, &machine));
    }
    if opts.attr {
        machine.enable_attr();
    }
    let mut snaps: Vec<AttrSnapshot> = Vec::new();
    for _ in 0..p.quanta {
        run_scalar_quantum(&mut cell, &mut machine);
        if let Some(s) = &mut sampler {
            s.sample(&machine, &mut reg);
        }
        if let Some(attr) = machine.attr() {
            snaps.push(attr.snapshot());
        }
    }
    let (series, audit) = match cell {
        PointCell::Adaptive(s) => {
            let (series, ring) = s.into_recordings();
            (series, Some(ring))
        }
        fixed => (fixed.into_series(), None),
    };

    let slug = slug(name, label);
    let mut files = Vec::new();
    let mut events = None;
    if opts.obs {
        register_series_metrics(&mut reg, &series);
        let buf = machine.disable_trace().expect("trace enabled above");
        events = Some((buf.recorded, buf.len() as u64));
        let mut out = Artifacts::new(&opts.obs_out, &slug, &mut files)?;
        out.write("events.jsonl", export::jsonl(buf.events()))?;
        out.write("trace.json", export::chrome_trace(buf.events()))?;
        out.write("prom", export::prometheus(&reg))?;
    }
    if opts.attr {
        let last = machine
            .disable_attr()
            .expect("attr enabled above")
            .snapshot();
        let title = format!(
            "CPI stack — {name} under {label} ({} quanta x {} cycles)",
            p.quanta, p.quantum_cycles
        );
        let mut out = Artifacts::new(&opts.attr_out, &slug, &mut files)?;
        out.table("cpi.csv", &cpi_table(&title, &last))?;
        out.write("cpi.json", serde::json::to_string(&last))?;
        out.write("slots.trace.json", slot_tracks(&snaps))?;
        let mut attr_reg = MetricsRegistry::new();
        register_attr_metrics(&mut attr_reg, &last);
        out.write("attr.prom", export::prometheus(&attr_reg))?;
        if let Some(audit) = &audit {
            out.write("decisions.jsonl", export::jsonl(audit.iter()))?;
            out.write("timeline.txt", render_timeline(audit.iter(), &snaps))?;
        }
    }
    log_pass(&format!("{name}/{label}"), &series, events, opts, t0);
    Ok(files)
}

/// One pass over `mix` on a warmed `opts.cores`-core machine: ICOUNT
/// within each core and `alloc` across them, with every requested sink
/// on. The trace sink keeps one event ring per core and derives migration
/// arrows from the placement diff at each quantum boundary; the
/// attribution sink keeps one CPI stack per core (each conserving
/// `cycles x width` on its own core, migration stalls in the `migration`
/// fetch category) and the allocation decision audit. Returns the files
/// written.
fn instrument_alloc(mix: &Mix, alloc: AllocKind, opts: &RunOptions) -> io::Result<Vec<PathBuf>> {
    let t0 = Instant::now();
    let (p, cores, fetch) = (&opts.params, opts.cores, FetchPolicy::Icount);
    let mut machine = warmed_multicore(mix, p, cores, opts.mig_penalty);
    let mut reg = MetricsRegistry::new();
    let mut sampler = None;
    if opts.obs {
        machine.enable_trace(opts.obs_events);
        sampler = Some(MultiCoreSampler::new(&mut reg, &machine));
    }
    if opts.attr {
        machine.enable_attr();
    }
    let mut cell = AllocCell::new(fetch, alloc, p.quantum_cycles, &machine);
    if opts.attr {
        cell.enable_audit(p.quanta as usize + 1);
    }
    let mut migrations: Vec<MigrationArrow> = Vec::new();
    for _ in 0..p.quanta {
        let before = machine.placement().to_vec();
        run_scalar_quantum(&mut cell, &mut machine);
        let cycle = machine.cycle();
        for (g, (prev, now)) in before.iter().zip(machine.placement()).enumerate() {
            if prev.0 != now.0 {
                migrations.push(MigrationArrow {
                    cycle,
                    thread: g,
                    from_core: prev.0,
                    to_core: now.0,
                });
            }
        }
        if let Some(s) = &mut sampler {
            s.sample(&machine, &mut reg);
        }
    }
    let audit = cell.take_audit();
    let series = cell.into_series();

    let label = format!("{}_{}_c{cores}", fetch.name(), alloc.name());
    let slug = slug(&mix.name, &label);
    let mut files = Vec::new();
    let mut events = None;
    if opts.obs {
        register_series_metrics(&mut reg, &series);
        let mut out = Artifacts::new(&opts.obs_out, &slug, &mut files)?;
        let (mut recorded, mut retained) = (0, 0);
        let mut per_core = Vec::with_capacity(cores);
        for (c, buf) in machine.disable_trace().into_iter().enumerate() {
            let buf = buf.expect("trace enabled above");
            recorded += buf.recorded;
            retained += buf.len() as u64;
            out.write(
                &format!("core{c}.events.jsonl"),
                export::jsonl(buf.events()),
            )?;
            per_core.push(buf.events().copied().collect::<Vec<_>>());
        }
        events = Some((recorded, retained));
        out.write(
            "trace.json",
            export::chrome_multicore_trace(&per_core, &migrations),
        )?;
        out.write("prom", export::prometheus(&reg))?;
    }
    if opts.attr {
        let snaps: Vec<AttrSnapshot> = machine
            .disable_attr()
            .into_iter()
            .map(|a| a.expect("attr enabled above").snapshot())
            .collect();
        let mut out = Artifacts::new(&opts.attr_out, &slug, &mut files)?;
        for (c, snap) in snaps.iter().enumerate() {
            let title = format!(
                "CPI stack — {} core {c} under {}+{} ({} quanta x {} cycles)",
                mix.name,
                fetch.name(),
                alloc.name(),
                p.quanta,
                p.quantum_cycles
            );
            out.table(&format!("core{c}.cpi.csv"), &cpi_table(&title, snap))?;
        }
        let merged = merge_attr_snapshots(&snaps);
        out.write("cpi.json", serde::json::to_string(&merged))?;
        let audit = audit.expect("audit enabled above");
        out.write("decisions.jsonl", export::jsonl(audit.iter()))?;
        let timeline = render_migration_timeline(audit.iter());
        out.write("migration_timeline.txt", timeline)?;
    }
    let point = format!("{}/{}+{}x{cores}", mix.name, fetch.name(), alloc.name());
    log_pass(&point, &series, events, opts, t0);
    Ok(files)
}

fn slug(name: &str, label: &str) -> String {
    format!(
        "{}_{}",
        name.to_ascii_lowercase(),
        label.to_ascii_lowercase()
    )
}

/// Writes one sink's artifacts as `<dir>/<slug>.<suffix>`, recording
/// every path.
struct Artifacts<'a> {
    dir: &'a Path,
    slug: &'a str,
    files: &'a mut Vec<PathBuf>,
}

impl<'a> Artifacts<'a> {
    fn new(dir: &'a Path, slug: &'a str, files: &'a mut Vec<PathBuf>) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Artifacts { dir, slug, files })
    }

    fn path(&mut self, suffix: &str) -> PathBuf {
        let path = self.dir.join(format!("{}.{suffix}", self.slug));
        self.files.push(path.clone());
        path
    }

    fn write(&mut self, suffix: &str, body: String) -> io::Result<()> {
        std::fs::write(self.path(suffix), body)
    }

    /// Print `table` and write it as CSV.
    fn table(&mut self, suffix: &str, table: &Table) -> io::Result<()> {
        println!("{}", table.render());
        table.to_csv(&self.path(suffix))
    }
}

/// One telemetry record per pass: kind `observed`, `explained` or both,
/// with the trace ring's accounting when `--obs` was on.
fn log_pass(
    point: &str,
    series: &RunSeries,
    events: Option<(u64, u64)>,
    opts: &RunOptions,
    t0: Instant,
) {
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let kind = match (opts.obs, opts.attr) {
        (true, true) => "observed+explained",
        (true, false) => "observed",
        _ => "explained",
    };
    let mut rec = sweep::TelemetryRecord::from_series(
        "instrument",
        kind,
        point,
        "-".into(),
        sweep::CacheOutcome::Bypass,
        wall_ms,
        series,
    );
    rec.obs = events.map(|(recorded, retained)| sweep::ObsSummary {
        events_recorded: recorded,
        events_retained: retained,
        out_dir: opts.obs_out.display().to_string(),
    });
    sweep::engine().append_telemetry(&rec, wall_ms);
}

/// The compact CPI-stack table: one row per (stage, category) with
/// per-thread slot counts and the category's share of the stage total.
pub fn cpi_table(title: &str, snap: &AttrSnapshot) -> Table {
    let n = snap.threads.len();
    let mut header: Vec<String> = vec!["stage".into(), "category".into()];
    header.extend((0..n).map(|t| format!("t{t}")));
    header.push("total".into());
    header.push("share".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    // Names from any stack, counts from every thread's.
    let threads: Vec<_> = snap.threads.iter().map(SlotStack::stages).collect();
    for (s, (stage, names, _)) in SlotStack::default().stages().into_iter().enumerate() {
        let per_thread: Vec<&[u64]> = threads.iter().map(|t| t[s].2).collect();
        let totals: Vec<u64> = (0..names.len())
            .map(|c| per_thread.iter().map(|counts| counts[c]).sum())
            .collect();
        let stage_shares = shares(&totals);
        for (c, name) in names.iter().enumerate() {
            let mut row = vec![stage.to_string(), (*name).to_string()];
            row.extend(per_thread.iter().map(|counts| counts[c].to_string()));
            row.push(totals[c].to_string());
            row.push(percent_cell(stage_shares[c]));
            table.row(row);
        }
    }
    table
}

/// Per-quantum deltas of the cumulative snapshots.
fn deltas(snaps: &[AttrSnapshot]) -> impl Iterator<Item = AttrSnapshot> + '_ {
    snaps.iter().enumerate().map(|(i, snap)| match i {
        0 => snap.clone(),
        _ => snap.delta(&snaps[i - 1]),
    })
}

/// Per-quantum per-thread stack deltas as Chrome counter tracks, ts =
/// cycles since the pass began.
fn slot_tracks(snaps: &[AttrSnapshot]) -> String {
    let mut samples: Vec<(u64, u8, SlotStack)> = Vec::new();
    for (snap, delta) in snaps.iter().zip(deltas(snaps)) {
        for (t, stack) in delta.threads.into_iter().enumerate() {
            samples.push((snap.cycles, t as u8, stack));
        }
    }
    export::chrome_slot_tracks(samples.iter().map(|(ts, t, s)| (*ts, *t, s)))
}

/// Dominant *loss* cause of a fetch stack (index 0 is the used-slot
/// category), as `(name, share-of-losses)`.
fn dominant_fetch_loss(stack: &SlotStack) -> Option<(&'static str, f64)> {
    let losses = &stack.fetch[1..];
    let idx = smt_stats::dominant(losses)?;
    let total: u64 = losses.iter().sum();
    Some((
        FetchCause::ALL[idx + 1].name(),
        losses[idx] as f64 / total as f64,
    ))
}

/// Sum a snapshot's per-thread stacks into one machine-wide stack.
fn machine_stack(snap: &AttrSnapshot) -> SlotStack {
    let mut total = SlotStack::default();
    for s in &snap.threads {
        for (acc, x) in total.fetch.iter_mut().zip(&s.fetch) {
            *acc += x;
        }
        for (acc, x) in total.issue.iter_mut().zip(&s.issue) {
            *acc += x;
        }
        for (acc, x) in total.commit.iter_mut().zip(&s.commit) {
            *acc += x;
        }
    }
    total
}

/// The switch timeline: one line per quantum correlating the ADTS decision
/// with that quantum's dominant fetch-loss cause.
fn render_timeline<'a>(
    audit: impl Iterator<Item = &'a DecisionRecord>,
    snaps: &[AttrSnapshot],
) -> String {
    let mut out = String::from(
        "# q  policy(incumbent->chosen)  ipc/threshold  reason  fired  dominant-fetch-loss\n",
    );
    for (rec, delta) in audit.zip(deltas(snaps)) {
        let policy = if rec.chosen == rec.incumbent {
            rec.incumbent.name().to_string()
        } else {
            format!("{}->{}", rec.incumbent.name(), rec.chosen.name())
        };
        let fired = match &rec.trace {
            Some(t) => {
                let f = t.fired();
                if f.is_empty() {
                    "-".to_string()
                } else {
                    f.join(",")
                }
            }
            None => "-".to_string(),
        };
        let loss = match dominant_fetch_loss(&machine_stack(&delta)) {
            Some((name, share)) => format!("{name} {}", percent_cell(share)),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "q={:<4} {:24} ipc={:.3}/{:.3} {:18} fired=[{}] loss={}{}\n",
            rec.quantum,
            policy,
            rec.ipc,
            rec.threshold,
            rec.reason.name(),
            fired,
            loss,
            if rec.switched { "  [SWITCH]" } else { "" },
        ));
    }
    out
}

/// The migration timeline: one line per quantum boundary naming the
/// allocation decision and every hop it caused.
fn render_migration_timeline<'a>(records: impl Iterator<Item = &'a AllocDecisionRecord>) -> String {
    let mut out = String::from("# q  policy  reason  migrations  moves\n");
    for rec in records {
        let moves: Vec<String> = rec
            .threads
            .iter()
            .filter(|r| r.migrated)
            .map(|r| format!("t{}:c{}->c{}", r.thread, r.from_core, r.to_core))
            .collect();
        out.push_str(&format!(
            "q={:<4} {:12} {:14} {:<3} {}\n",
            rec.quantum,
            rec.policy,
            rec.reason.name(),
            rec.migrations,
            if moves.is_empty() {
                "-".to_string()
            } else {
                moves.join(" ")
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExpParams;
    use serde::Value;
    use smt_sim::SimConfig;

    fn tiny_params() -> ExpParams {
        ExpParams {
            seed: 42,
            warmup_quanta: 1,
            quanta: 3,
            quantum_cycles: 1024,
            mix_ids: vec![1],
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smt-bench-instrument-{}-{tag}", std::process::id()))
    }

    /// Tiny-scale options with the given sinks on, 2 cores and a short
    /// migration penalty for the multi-core pass.
    fn opts(tag: &str, obs: bool, attr: bool) -> RunOptions {
        RunOptions {
            params: tiny_params(),
            obs,
            obs_out: tmp(&format!("{tag}-obs")),
            obs_events: 4096,
            attr,
            attr_out: tmp(&format!("{tag}-attr")),
            cores: 2,
            mig_penalty: 64,
            ..RunOptions::default()
        }
    }

    fn cleanup(o: &RunOptions) {
        for dir in [&o.obs_out, &o.attr_out] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The contents of the one written file whose name ends in `suffix`.
    fn read(files: &[PathBuf], suffix: &str) -> String {
        let hits: Vec<_> = files
            .iter()
            .filter(|f| f.to_string_lossy().ends_with(suffix))
            .collect();
        assert_eq!(hits.len(), 1, "{suffix}: {files:?}");
        let text = std::fs::read_to_string(hits[0]).unwrap();
        assert!(!text.is_empty(), "{} must not be empty", hits[0].display());
        text
    }

    fn two_thread_pass(cell: PointCell, label: &str, o: &RunOptions) -> Vec<PathBuf> {
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let machine = warmed_machine(&mix, &o.params);
        instrument_point(machine, cell, &mix.name, label, o).unwrap()
    }

    fn alloc_pass(o: &RunOptions) -> Vec<PathBuf> {
        let mix = smt_workloads::mix(1).take_threads(4, 7);
        instrument_alloc(&mix, AllocKind::Rotate, o).unwrap()
    }

    /// An ADTS cell whose threshold (m = 8) forces a decision every
    /// quantum.
    fn adts_cell() -> PointCell {
        let cfg = AdtsConfig {
            quantum_cycles: tiny_params().quantum_cycles,
            ipc_threshold: 8.0,
            ..AdtsConfig::default()
        };
        PointCell::adaptive(cfg, 2)
    }

    fn uint(v: Option<&Value>) -> u64 {
        match v {
            Some(Value::UInt(u)) => *u,
            other => panic!("expected an unsigned integer, got {other:?}"),
        }
    }

    #[test]
    fn fixed_pass_writes_both_artifact_sets() {
        let s = opts("fixed", true, true);
        let p = tiny_params();
        let files = two_thread_pass(PointCell::fixed(FetchPolicy::Icount, 1024), "ICOUNT", &s);
        assert_eq!(files.len(), 7, "{files:?}");
        for line in read(&files, ".events.jsonl").lines() {
            let _: smt_sim::TraceEvent = serde::json::from_str(line).unwrap();
        }
        read(&files, "icount.trace.json");
        read(&files, "icount.prom");
        assert!(read(&files, ".cpi.csv").contains("policy_starved"));
        // Every stage stack accounts for cycles x width slots.
        let v: Value = serde::json::from_str(&read(&files, ".cpi.json")).unwrap();
        let cycles = uint(v.get("cycles"));
        assert_eq!(cycles, p.quanta * p.quantum_cycles);
        let Some(Value::Seq(threads)) = v.get("threads") else {
            panic!("threads must be a list");
        };
        assert_eq!(threads.len(), 2);
        let sum_stage = |stage: &str| -> u64 {
            threads
                .iter()
                .map(|t| {
                    let Some(Value::Map(stacks)) = t.get(stage) else {
                        panic!("{stage} must be a map");
                    };
                    stacks.iter().map(|(_, v)| uint(Some(v))).sum::<u64>()
                })
                .sum()
        };
        let cfg = SimConfig::with_threads(2);
        assert_eq!(sum_stage("fetch"), cycles * cfg.fetch_width as u64);
        assert_eq!(sum_stage("issue"), cycles * cfg.issue_width as u64);
        assert_eq!(sum_stage("commit"), cycles * cfg.commit_width as u64);
        read(&files, ".slots.trace.json");
        read(&files, ".attr.prom");
        cleanup(&s);
    }

    #[test]
    fn adaptive_pass_writes_switch_counters_decisions_and_timeline() {
        let s = opts("adaptive", true, true);
        let quanta = tiny_params().quanta as usize;
        let files = two_thread_pass(adts_cell(), "ADTS", &s);
        let prom = read(&files, "adts.prom");
        assert!(prom.contains("smt_policy_switches"));
        assert!(prom.contains("smt_int_iq_depth_bucket"));
        let decisions = read(&files, ".decisions.jsonl");
        assert_eq!(decisions.lines().count(), quanta);
        for line in decisions.lines() {
            let v: Value = serde::json::from_str(line).unwrap();
            let Some(Value::Str(reason)) = v.get("reason") else {
                panic!("reason must be a string");
            };
            assert!(!reason.is_empty());
        }
        // Header plus one line per quantum.
        let timeline = read(&files, ".timeline.txt");
        assert_eq!(timeline.lines().count(), 1 + quanta);
        assert!(timeline.contains("loss="));
        cleanup(&s);
    }

    #[test]
    fn multicore_pass_writes_per_core_and_merged_artifacts() {
        let s = opts("mc", true, true);
        let p = tiny_params();
        let files = alloc_pass(&s);
        for c in 0..2 {
            for line in read(&files, &format!("core{c}.events.jsonl")).lines() {
                let _: smt_sim::TraceEvent = serde::json::from_str(line).unwrap();
            }
        }
        // Rotate cyclic-shifts the placement every boundary, so the merged
        // trace must carry migration arrows between core track groups.
        assert!(read(&files, ".trace.json").contains("migrate"));
        let prom = read(&files, "c2.prom");
        assert!(prom.contains("shared_l2_accesses"), "{prom}");
        assert!(prom.contains("core1_fetch_slots"), "{prom}");
        // Each per-core CSV accounts for exactly cycles x width fetch
        // slots on its own core.
        let window = p.quanta * p.quantum_cycles;
        let width = SimConfig::with_threads(2).fetch_width as u64;
        for c in 0..2 {
            let csv = read(&files, &format!("core{c}.cpi.csv"));
            let fetch_total: u64 = csv
                .lines()
                .skip(1)
                .map(|line| line.split(',').collect::<Vec<_>>())
                .filter(|cols| cols[0] == "fetch")
                .map(|cols| cols[cols.len() - 2].parse::<u64>().unwrap())
                .sum();
            assert_eq!(fetch_total, window * width, "core {c}");
        }
        // The merged snapshot spans the same window with one context slot
        // per mix thread on every core (2 x 4).
        let v: Value = serde::json::from_str(&read(&files, ".cpi.json")).unwrap();
        assert_eq!(uint(v.get("cycles")), window);
        let Some(Value::Seq(threads)) = v.get("threads") else {
            panic!("threads must be a list");
        };
        assert_eq!(threads.len(), 8);
        let decisions = read(&files, ".decisions.jsonl");
        assert_eq!(decisions.lines().count(), p.quanta as usize);
        for line in decisions.lines() {
            let v: Value = serde::json::from_str(line).unwrap();
            assert_eq!(v.get("policy"), Some(&Value::Str("rotate".into())));
            assert_eq!(v.get("reason"), Some(&Value::Str("cyclic_shift".into())));
        }
        let timeline = read(&files, ".migration_timeline.txt");
        assert_eq!(timeline.lines().count(), 1 + p.quanta as usize);
        assert!(timeline.contains("->c"), "rotate must migrate:\n{timeline}");
        cleanup(&s);
    }

    /// Turning both sinks on in one pass writes the same bytes as one
    /// pass per sink.
    #[test]
    fn one_pass_with_both_sinks_matches_one_pass_per_sink() {
        let pass = |tag: &str, s: &RunOptions| match tag {
            "fixed" => two_thread_pass(PointCell::fixed(FetchPolicy::Icount, 1024), "ICOUNT", s),
            "adts" => two_thread_pass(adts_cell(), "ADTS", s),
            _ => alloc_pass(s),
        };
        for tag in ["fixed", "adts", "alloc"] {
            let pass = |s: &RunOptions| pass(tag, s);
            let both = opts(&format!("{tag}-both"), true, true);
            let obs = opts(&format!("{tag}-obs-only"), true, false);
            let attr = opts(&format!("{tag}-attr-only"), false, true);
            let combined = pass(&both);
            let separate: Vec<PathBuf> = pass(&obs).into_iter().chain(pass(&attr)).collect();
            assert_eq!(combined.len(), separate.len(), "{tag}");
            for (a, b) in combined.iter().zip(&separate) {
                assert_eq!(a.file_name(), b.file_name());
                assert_eq!(
                    std::fs::read(a).unwrap(),
                    std::fs::read(b).unwrap(),
                    "{}",
                    a.display()
                );
            }
            for s in [both, obs, attr] {
                cleanup(&s);
            }
        }
    }
}
