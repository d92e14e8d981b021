//! Property tests for the trace codec and the replay backend.
//!
//! Three layers, matching the format's own layering:
//!
//! - **Record codec**: arbitrary well-formed micro-op sequences round-trip
//!   through the delta encoding, at any chunk granularity.
//! - **Container**: arbitrary multi-thread traces round-trip through
//!   [`TraceWriter`]/[`TraceFile`], and the index-driven partial decode is
//!   always a suffix of the full decode.
//! - **Replay**: for arbitrary mixes, seeds and thread counts, a machine
//!   over the captured trace is counter-for-counter indistinguishable from
//!   the synthetic machine it was captured from — including through a
//!   mid-run checkpoint/restore of the replay machine.

use proptest::prelude::*;
use smt_adts::prelude::*;
use smt_bench::tracebench::{capture_mix_trace, trace_machine};
use smt_bench::ExpParams;
use smt_isa::codec::ByteWriter;
use smt_isa::tracefile::{decode_chunk_body, encode_chunk_body, TraceFile, TraceWriter};
use smt_isa::uop::{BranchInfo, BranchKind, MemInfo, MicroOp, OpKind};
use smt_isa::{ArchReg, NUM_ARCH_REGS_PER_CLASS};
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::CounterSnapshot;
use smt_workloads::TraceStream;
use std::sync::Arc;

fn arb_reg() -> impl Strategy<Value = ArchReg> {
    (any::<bool>(), 0u8..NUM_ARCH_REGS_PER_CLASS).prop_map(|(fp, idx)| {
        if fp {
            ArchReg::fp(idx)
        } else {
            ArchReg::int(idx)
        }
    })
}

/// Any well-formed micro-op: every kind, presence-flag combination and
/// operand value the encoder's field packing has to carry, with mem and
/// branch info present exactly when the kind implies them.
fn arb_op() -> impl Strategy<Value = MicroOp> {
    (
        prop::sample::select(vec![
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::IntDiv,
            OpKind::FpAlu,
            OpKind::FpMul,
            OpKind::FpDiv,
            OpKind::Load,
            OpKind::Store,
            OpKind::Branch,
            OpKind::Syscall,
            OpKind::Nop,
        ]),
        any::<u64>(), // pc (the delta codec must survive arbitrary jumps)
        prop::option::of(arb_reg()),
        prop::option::of(arb_reg()),
        prop::option::of(arb_reg()),
        any::<u64>(), // data address
        any::<u8>(),  // access size
        prop::sample::select(vec![
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
        ]),
        any::<bool>(), // taken
        any::<u64>(),  // branch target
    )
        .prop_map(
            |(kind, pc, dst, src1, src2, addr, size, bkind, taken, target)| MicroOp {
                kind,
                pc,
                dst,
                src1,
                src2,
                mem: matches!(kind, OpKind::Load | OpKind::Store).then_some(MemInfo { addr, size }),
                branch: matches!(kind, OpKind::Branch).then_some(BranchInfo {
                    kind: bkind,
                    taken,
                    target,
                }),
            },
        )
}

fn stream_state(s: &TraceStream) -> Vec<u8> {
    let mut w = ByteWriter::new();
    s.encode_state(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn chunk_bodies_roundtrip_any_ops(ops in prop::collection::vec(arb_op(), 1..300)) {
        let body = encode_chunk_body(&ops);
        prop_assert_eq!(decode_chunk_body(&body, ops.len()).unwrap(), ops);
    }

    #[test]
    fn containers_roundtrip_any_chunking(
        a in prop::collection::vec(arb_op(), 1..400),
        b in prop::collection::vec(arb_op(), 1..150),
        chunk_ops in 1usize..80,
        start_frac in 0.0..1.0f64,
    ) {
        let profile = workloads::app("gzip");
        let mut w = TraceWriter::new("prop", 1, 64).with_chunk_ops(chunk_ops);
        w.add_thread(&profile, 0x1_0000_0000, &a);
        w.add_thread(&profile, 0x2_0000_0000, &b);
        w.set_quantum_marks(vec![vec![a.len() as u64 / 2, b.len() as u64 / 2]]);
        let f = TraceFile::parse(w.finish()).unwrap();
        prop_assert_eq!(f.read_thread(0).unwrap(), a.clone());
        prop_assert_eq!(f.read_thread(1).unwrap(), b.clone());
        // The fast-forward path must agree with the full decode at an
        // arbitrary cut, chunk-aligned or not.
        let start = (start_frac * a.len() as f64) as u64;
        prop_assert_eq!(
            f.read_thread_from(0, start).unwrap(),
            a[start as usize..].to_vec()
        );
    }

    #[test]
    fn fast_forward_is_stepping_even_past_the_end(
        ops in prop::collection::vec(arb_op(), 1..120),
        k in 0u64..400,
    ) {
        let profile = Arc::new(workloads::app("gzip"));
        let ops = Arc::new(ops);
        let mut skipped = TraceStream::replay(profile.clone(), 0x1_0000_0000, ops.clone());
        skipped.fast_forward_to(k);
        let mut stepped = TraceStream::replay(profile, 0x1_0000_0000, ops);
        for _ in 0..k {
            stepped.next_uop();
        }
        // Past-the-end fast-forwards land inside the cyclic wrap, exactly
        // where stepping lands.
        prop_assert_eq!(stream_state(&skipped), stream_state(&stepped));
        for _ in 0..32 {
            prop_assert_eq!(skipped.next_uop(), stepped.next_uop());
        }
    }
}

proptest! {
    // Each case simulates the full policy matrix three times over (capture
    // sizing, synthetic reference, replay), so keep the count modest.
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn replay_is_indistinguishable_from_synthetic(
        mix_id in 1usize..14,
        threads in 2usize..4,
        seed in 0u64..50,
    ) {
        let p = ExpParams {
            seed,
            warmup_quanta: 1,
            quanta: 2,
            quantum_cycles: 256,
            mix_ids: vec![mix_id],
        };
        let mix = workloads::mix(mix_id).take_threads(threads, seed);
        let file = TraceFile::parse(capture_mix_trace(&mix, &p)).unwrap();

        let mut synth = adts::machine_for_mix(&mix, seed);
        let mut replay = trace_machine(&file).unwrap();
        for m in [&mut synth, &mut replay] {
            adts::run_fixed(FetchPolicy::Icount, m, p.warmup_quanta, p.quantum_cycles);
        }

        // Quantum 1 under ICOUNT, compared delta-by-delta…
        let mut da: Vec<CounterSnapshot> = Vec::new();
        let mut db: Vec<CounterSnapshot> = Vec::new();
        adts::run_fixed_sampled(FetchPolicy::Icount, &mut synth, 1, p.quantum_cycles,
            |_, _, d| da.push(d.clone()));
        adts::run_fixed_sampled(FetchPolicy::Icount, &mut replay, 1, p.quantum_cycles,
            |_, _, d| db.push(d.clone()));
        prop_assert_eq!(&da, &db, "first measured quantum diverged");

        // …then a checkpoint/restore of the replay machine mid-trace: the
        // restored machine and both originals must agree on quantum 2.
        let bytes = MachineSnapshot::capture(&replay).to_bytes();
        let mut restored = MachineSnapshot::from_bytes(&bytes).unwrap().restore();
        let (mut d2s, mut d2r, mut d2x) = (Vec::new(), Vec::new(), Vec::new());
        adts::run_fixed_sampled(FetchPolicy::Icount, &mut synth, 1, p.quantum_cycles,
            |_, _, d| d2s.push(d.clone()));
        adts::run_fixed_sampled(FetchPolicy::Icount, &mut replay, 1, p.quantum_cycles,
            |_, _, d| d2r.push(d.clone()));
        adts::run_fixed_sampled(FetchPolicy::Icount, &mut restored, 1, p.quantum_cycles,
            |_, _, d| d2x.push(d.clone()));
        prop_assert_eq!(&d2s, &d2r, "second measured quantum diverged");
        prop_assert_eq!(&d2r, &d2x, "restored replay diverged from uninterrupted replay");
        prop_assert_eq!(
            MachineSnapshot::capture(&replay).to_bytes(),
            MachineSnapshot::capture(&restored).to_bytes(),
            "final snapshots differ after identical futures"
        );
    }
}
