//! Trace capture→replay conformance: the contracts the trace frontend
//! guarantees, exercised over the *committed* capture fixtures so the
//! suite also gates the on-disk format.
//!
//! Three contracts are pinned here (the golden observables themselves
//! live in `golden_trace_replay.rs`):
//!
//! 1. **Counter bit-identity** — a fixed-policy run over a replayed trace
//!    produces, quantum by quantum, the exact `CounterSnapshot` deltas of
//!    the synthetic run it was captured from.
//! 2. **Snapshot bit-identity** — trace-backed machines checkpoint and
//!    restore through the `SMTCKPT` container byte-identically: restoring
//!    a snapshot and re-capturing yields the same bytes, and a restored
//!    machine's future is the original's future.
//! 3. **Fast-forward equivalence** — skipping a `TraceStream` to any
//!    recorded quantum boundary (via the header's consumption marks) is
//!    indistinguishable from stepping there op by op, and the chunk-index
//!    fast path `read_thread_from` is a pure suffix of the full decode.

#[path = "golden_common/mod.rs"]
mod golden_common;

use golden_common::{
    mix_for, trace_capture_path, trace_points, SEED, TRACE_QUANTA, TRACE_QUANTUM_CYCLES,
    TRACE_WARMUP_QUANTA,
};
use smt_adts::prelude::*;
use smt_bench::tracebench::trace_machine;
use smt_isa::codec::ByteWriter;
use smt_isa::tracefile::TraceFile;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::CounterSnapshot;
use smt_workloads::TraceStream;

fn load_capture(mix_id: usize, threads: usize) -> TraceFile {
    let path = trace_capture_path(mix_id, threads);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing trace capture {} ({e}); bless via \
             SMT_GOLDEN_BLESS=1 cargo test --test golden_trace_replay",
            path.display()
        )
    });
    TraceFile::parse(bytes).expect("committed capture parses")
}

fn warm(m: &mut SmtMachine) {
    adts::run_fixed(
        FetchPolicy::Icount,
        m,
        TRACE_WARMUP_QUANTA,
        TRACE_QUANTUM_CYCLES,
    );
}

fn observed_deltas(policy: FetchPolicy, m: &mut SmtMachine, quanta: u64) -> Vec<CounterSnapshot> {
    let mut deltas = Vec::new();
    adts::run_fixed_sampled(policy, m, quanta, TRACE_QUANTUM_CYCLES, |_, _, d| {
        deltas.push(d.clone())
    });
    deltas
}

/// Contract 1: per-quantum counter deltas of the replay equal the
/// synthetic run's, for every committed capture point and a policy from
/// each family (round-robin static, ICOUNT feedback, BRCOUNT speculation).
#[test]
fn replay_matches_synthetic_quantum_by_quantum() {
    for (mix_id, threads) in trace_points() {
        let file = load_capture(mix_id, threads);
        let mix = mix_for(mix_id, threads);
        for policy in [
            FetchPolicy::RoundRobin,
            FetchPolicy::Icount,
            FetchPolicy::BrCount,
        ] {
            let mut synth = adts::machine_for_mix(&mix, SEED);
            let mut replay = trace_machine(&file).expect("replay machine");
            warm(&mut synth);
            warm(&mut replay);
            assert_eq!(
                observed_deltas(policy, &mut synth, TRACE_QUANTA),
                observed_deltas(policy, &mut replay, TRACE_QUANTA),
                "mix{mix_id:02} t{threads} {}",
                policy.name()
            );
        }
    }
}

/// Contract 2: checkpoint/restore of a trace-backed machine is exact.
/// Restoring mid-trace and re-capturing reproduces the snapshot bytes;
/// the restored machine's subsequent quanta and final snapshot equal the
/// uninterrupted machine's.
#[test]
fn mid_trace_checkpoint_restore_is_bit_exact() {
    let file = load_capture(1, 2);
    let mut m = trace_machine(&file).expect("replay machine");
    warm(&mut m);
    adts::run_fixed(FetchPolicy::Icount, &mut m, 2, TRACE_QUANTUM_CYCLES);

    let snap = MachineSnapshot::capture(&m);
    let bytes = snap.to_bytes();
    let mut restored = MachineSnapshot::from_bytes(&bytes)
        .expect("snapshot decodes")
        .restore();
    assert_eq!(
        MachineSnapshot::capture(&restored).to_bytes(),
        bytes,
        "capture∘restore must be the identity on snapshot bytes"
    );

    let rest = TRACE_QUANTA - 2;
    assert_eq!(
        observed_deltas(FetchPolicy::Icount, &mut m, rest),
        observed_deltas(FetchPolicy::Icount, &mut restored, rest),
        "restored machine diverged from the uninterrupted one"
    );
    assert_eq!(
        MachineSnapshot::capture(&m).to_bytes(),
        MachineSnapshot::capture(&restored).to_bytes(),
        "futures agree but final snapshots differ"
    );
}

/// Contract 2, across the capture→replay boundary: a synthetic machine
/// and its trace replay snapshot to *different* bytes (the stream leaves
/// differ by design) but both decode, and each continues identically to
/// its own uninterrupted twin under every heuristic-relevant policy.
#[test]
fn trace_snapshots_are_self_contained() {
    let file = load_capture(5, 4);
    let mut m = trace_machine(&file).expect("replay machine");
    warm(&mut m);
    let bytes = MachineSnapshot::capture(&m).to_bytes();
    // The snapshot embeds the replay ops: a machine restored from bytes
    // alone (no TraceFile in sight) must keep replaying correctly.
    drop(file);
    let mut restored = MachineSnapshot::from_bytes(&bytes)
        .expect("decodes")
        .restore();
    assert_eq!(
        observed_deltas(FetchPolicy::Icount, &mut m, TRACE_QUANTA),
        observed_deltas(FetchPolicy::Icount, &mut restored, TRACE_QUANTA),
    );
}

/// Contract 3 at the stream level: fast-forwarding to every recorded
/// quantum mark equals stepping there, in consumed count, state bytes and
/// every subsequent op.
#[test]
fn fast_forward_to_quantum_equals_stepping_there() {
    let file = load_capture(1, 2);
    let marks = &file.meta().quantum_marks;
    assert!(!marks.is_empty(), "capture must carry quantum marks");
    for (q, mark) in marks.iter().enumerate() {
        for (t, &k) in mark.iter().enumerate() {
            let mut skipped = TraceStream::from_file(&file, t).expect("stream");
            skipped.fast_forward_to(k);
            let mut stepped = TraceStream::from_file(&file, t).expect("stream");
            for _ in 0..k {
                stepped.next_uop();
            }
            assert_eq!(skipped.generated(), stepped.generated(), "q{q} t{t}");
            let (mut wa, mut wb) = (ByteWriter::new(), ByteWriter::new());
            skipped.encode_state(&mut wa);
            stepped.encode_state(&mut wb);
            assert_eq!(
                wa.into_bytes(),
                wb.into_bytes(),
                "skip-to-quantum-{q} state differs from replay-through (t{t})"
            );
            for i in 0..64 {
                assert_eq!(skipped.next_uop(), stepped.next_uop(), "q{q} t{t} op {i}");
            }
        }
    }
}

/// Contract 3 at the container level: the index-driven partial decode is
/// a pure suffix of the full decode at every quantum mark (the tracefile
/// unit tests pin arbitrary offsets; this pins the offsets replay uses).
#[test]
fn partial_decode_is_a_suffix_of_full_decode_at_every_mark() {
    let file = load_capture(1, 2);
    for t in 0..file.n_threads() {
        let full = file.read_thread(t).expect("full decode");
        assert_eq!(full.len() as u64, file.thread_ops(t));
        for mark in &file.meta().quantum_marks {
            let k = mark[t].min(file.thread_ops(t));
            assert_eq!(
                file.read_thread_from(t, k).expect("partial decode"),
                full[k as usize..],
                "thread {t} from op {k}"
            );
        }
    }
}
