//! Differential property tests for the shared-queue rewrite.
//!
//! The hot-path overhaul replaced the machine's `Vec`+`retain` shared
//! queues with the per-thread-indexed [`IndexedQueue`]. The original
//! implementation survives as [`reference::RetainQueue`] — these tests
//! drive both through random operation scripts and demand *identical*
//! contents, order, and per-thread lengths after every step, so any
//! divergence in the replacement's semantics is caught at the structure
//! level (the golden-trace suite catches it at the machine level).
//!
//! A second group steps whole machines through random quanta interleaved
//! with `flush_thread`/`replace_thread` and runs the machine's full
//! invariant check (gauges, per-thread queue index, link validation)
//! after every single step.

use proptest::prelude::*;
use smt_isa::Tid;
use smt_sim::iqueue::reference::RetainQueue;
use smt_sim::{IndexedQueue, RoundRobin, SimConfig, SmtMachine};
use smt_workloads::UopStream;
use std::sync::Arc;

const N_THREADS: usize = 4;

/// One scripted queue operation; fields are interpreted modulo the live
/// state when applied (so every generated script is valid by construction).
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push the next seq for thread `t`.
    Push(usize),
    /// Squash thread `t` at a min_gone cut derived from `pick`.
    Squash(usize, u64),
    /// Flush thread `t`.
    Flush(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..6, 0u64..64, 0u64..1_000).prop_map(|(code, t, pick)| {
            let t = (t % N_THREADS as u64) as usize;
            match code {
                // Bias toward pushes so the queues actually fill.
                0..=3 => Op::Push(t),
                4 => Op::Squash(t, pick),
                _ => Op::Flush(t),
            }
        }),
        1..120,
    )
}

/// Apply one op to both implementations, keeping them in lock-step.
fn apply(
    op: Op,
    a: &mut IndexedQueue<u64>,
    b: &mut RetainQueue<u64>,
    next_seq: &mut [u64; N_THREADS],
) {
    match op {
        Op::Push(t) => {
            let seq = next_seq[t];
            next_seq[t] += 1;
            // Payload encodes (thread, seq) so content comparisons are
            // meaningful, not just key comparisons.
            let payload = (t as u64) << 32 | seq;
            a.push_back(Tid(t as u8), seq, payload);
            b.push_back(Tid(t as u8), seq, payload);
        }
        Op::Squash(t, pick) => {
            let min_gone = if next_seq[t] == 0 {
                0
            } else {
                pick % (next_seq[t] + 1)
            };
            let ra = a.squash_tail(Tid(t as u8), min_gone);
            let rb = b.squash_tail(Tid(t as u8), min_gone);
            assert_eq!(ra, rb, "squash removal counts diverge");
        }
        Op::Flush(t) => {
            let ra = a.remove_thread(Tid(t as u8));
            let rb = b.remove_thread(Tid(t as u8));
            assert_eq!(ra, rb, "flush removal counts diverge");
        }
    }
}

fn assert_equivalent(a: &IndexedQueue<u64>, b: &RetainQueue<u64>) {
    a.validate();
    assert_eq!(a.len(), b.len(), "lengths diverge");
    let av: Vec<_> = a.iter().map(|(t, s, p)| (t, s, *p)).collect();
    let bv: Vec<_> = b.iter().map(|(t, s, p)| (t, s, *p)).collect();
    assert_eq!(av, bv, "global age order diverges");
    for t in 0..N_THREADS {
        let tid = Tid(t as u8);
        assert_eq!(a.thread_len(tid), b.thread_len(tid), "thread_len diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The indexed queue and the pre-optimization retain queue agree on
    /// contents, order, and per-thread lengths after every operation of a
    /// random script.
    #[test]
    fn indexed_queue_matches_retain_reference(ops in arb_ops()) {
        let mut a: IndexedQueue<u64> = IndexedQueue::new(N_THREADS, 32);
        let mut b: RetainQueue<u64> = RetainQueue::new();
        let mut next_seq = [0u64; N_THREADS];
        for op in ops {
            apply(op, &mut a, &mut b, &mut next_seq);
            assert_equivalent(&a, &b);
        }
    }

    /// Interleaved squashes never disturb other threads' entries.
    #[test]
    fn squash_is_thread_local(
        pushes in prop::collection::vec((0u64..4, 0u64..1_000), 4..64),
        victim in 0u64..4,
        cut in 0u64..32,
    ) {
        let victim = Tid(victim as u8);
        let mut q: IndexedQueue<u64> = IndexedQueue::new(N_THREADS, 32);
        let mut next_seq = [0u64; N_THREADS];
        for (t, payload) in pushes {
            let t = t as usize;
            q.push_back(Tid(t as u8), next_seq[t], payload);
            next_seq[t] += 1;
        }
        let thread = |q: &IndexedQueue<u64>, tid: Tid| -> Vec<(u64, u64)> {
            q.iter().filter(|e| e.0 == tid).map(|(_, s, p)| (s, *p)).collect()
        };
        let others_before: Vec<Vec<(u64, u64)>> =
            (0..N_THREADS).map(|t| thread(&q, Tid(t as u8))).collect();
        q.squash_tail(victim, cut);
        q.validate();
        for (t, before) in others_before.iter().enumerate() {
            let tid = Tid(t as u8);
            let after = thread(&q, tid);
            if tid == victim {
                for (s, _) in &after {
                    prop_assert!(*s < cut, "survivor younger than the cut");
                }
            } else {
                prop_assert_eq!(&after, before, "bystander thread disturbed");
            }
        }
    }
}

// ---------------------------------------------------------------------
// machine-level: invariants under random flush/replace interleavings
// ---------------------------------------------------------------------

fn test_stream(seed: u64, tid: usize) -> UopStream {
    UopStream::new(
        Arc::new(smt_isa::AppProfile::builder("t").build()),
        seed,
        smt_workloads::thread_addr_base(tid),
    )
}

fn test_machine(n: usize, seed: u64) -> SmtMachine {
    let cfg = SimConfig::with_threads(n);
    let streams = (0..n).map(|i| test_stream(seed + i as u64, i)).collect();
    SmtMachine::new(cfg, streams)
}

// ---------------------------------------------------------------------
// readiness counters vs the window-search oracle over random dep graphs
// ---------------------------------------------------------------------

use smt_isa::{AppProfile, ArchReg, MemInfo, MicroOp, OpKind};

const DEP_BASE: u64 = 1 << 41;
/// Registers the random programs fight over — few, so chains are dense.
const DEP_REGS: u8 = 4;

/// One op of a random looping dep-graph program. `dst` is the *effective*
/// destination (already `None` for stores), so the test-side dep
/// computation and the machine's rename table see the same writer set.
#[derive(Clone, Debug)]
struct DepOp {
    kind: OpKind,
    dst: Option<u8>,
    src1: Option<u8>,
    src2: Option<u8>,
    addr: u64,
}

fn arb_dep_program() -> impl Strategy<Value = Vec<DepOp>> {
    let op = (
        0u8..5,
        0u8..DEP_REGS,
        prop::option::of(0u8..DEP_REGS),
        prop::option::of(0u8..DEP_REGS),
        0u64..512,
    )
        .prop_map(|(kind, dst, src1, src2, addr)| {
            let kind = match kind {
                0 => OpKind::IntAlu,
                1 => OpKind::IntMul,
                2 => OpKind::IntDiv,
                3 => OpKind::Load,
                _ => OpKind::Store,
            };
            DepOp {
                kind,
                dst: (kind != OpKind::Store).then_some(10 + dst),
                src1: src1.map(|r| 10 + r),
                src2: src2.map(|r| 10 + r),
                addr: addr * 8,
            }
        });
    // Anchor every program with a divide → consumer pair: an all-ALU
    // program can drain its queue every cycle, leaving nothing queued
    // between steps for the property to observe.
    prop::collection::vec(op, 2..12).prop_map(|mut prog| {
        prog.push(DepOp {
            kind: OpKind::IntDiv,
            dst: Some(10),
            src1: None,
            src2: None,
            addr: 0,
        });
        prog.push(DepOp {
            kind: OpKind::IntAlu,
            dst: Some(11),
            src1: Some(10),
            src2: None,
            addr: 0,
        });
        prog
    })
}

fn build_script(prog: &[DepOp]) -> Vec<MicroOp> {
    prog.iter()
        .enumerate()
        .map(|(i, d)| MicroOp {
            kind: d.kind,
            pc: DEP_BASE | (4 * i as u64),
            dst: d.dst.map(ArchReg::int),
            src1: d.src1.map(ArchReg::int),
            src2: d.src2.map(ArchReg::int),
            mem: matches!(d.kind, OpKind::Load | OpKind::Store).then_some(MemInfo {
                addr: DEP_BASE | d.addr,
                size: 8,
            }),
            branch: None,
        })
        .collect()
}

/// The producer seq of global op `g`'s source `src`, replayed from the
/// program alone: the youngest older op writing that register. With
/// in-order rename and no wrong path this is exactly what the machine's
/// rename table resolved at dispatch, so feeding it to the search oracle
/// cross-checks dep capture as well as the counters.
fn dep_for(prog: &[DepOp], g: u64, src: Option<u8>) -> Option<u64> {
    let r = src?;
    let l = prog.len() as u64;
    let newest = g.checked_sub(1)?;
    // A writer, if any exists, lies within the previous full loop.
    (g.saturating_sub(l)..=newest)
        .rev()
        .find(|&g2| prog[(g2 % l) as usize].dst == Some(r))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Differential readiness-vs-search: over random looping dep graphs
    /// (random kinds, random src/dst wiring), every queued op's pending
    /// counter must agree with the retained window-binary-search oracle —
    /// judged against deps recomputed independently from the program —
    /// after every single cycle.
    #[test]
    fn readiness_counters_match_search_oracle_on_random_dep_graphs(
        prog in arb_dep_program(),
        // Floor clears the cold-start icache miss (~mem_latency + L2 hit
        // ≈ 90 cycles) so at least one dep-blocked op is always observed.
        cycles in 200u64..600,
    ) {
        let stream = UopStream::scripted(
            Arc::new(AppProfile::builder("dep").build()),
            DEP_BASE,
            build_script(&prog),
        );
        let mut m = SmtMachine::new(SimConfig::with_threads(1), vec![stream]);
        let mut checked = 0u64;
        for _ in 0..cycles {
            m.step(&mut RoundRobin);
            m.check_invariants();
            let lo = m.total_committed();
            for g in lo..lo + 96 {
                let d = prog[(g % prog.len() as u64) as usize].clone();
                if let Some(pending) = m.queued_pending(Tid(0), g) {
                    let deps = [dep_for(&prog, g, d.src1), dep_for(&prog, g, d.src2)];
                    prop_assert_eq!(
                        pending == 0,
                        m.deps_ready_search(Tid(0), &deps),
                        "pending {} vs search oracle for op {} (deps {:?}) at cycle {}",
                        pending, g, deps, m.cycle()
                    );
                    checked += 1;
                }
            }
        }
        prop_assert!(checked > 0, "no queued op was ever observed");
        prop_assert!(m.total_committed() > 0, "random dep graph wedged the machine");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Step a machine through random bursts interleaved with random
    /// flush/replace/fetch-toggle events, checking the full machine
    /// invariants (gauges, queue indices, link structure) after EVERY
    /// cycle — not just at quantum boundaries.
    #[test]
    fn invariants_hold_under_random_flush_replace(
        seed in 0u64..1_000,
        events in prop::collection::vec((0u64..4, 0u8..3, 1u64..80), 1..12),
    ) {
        let mut m = test_machine(4, seed);
        let mut replaced = 0u64;
        for (t, kind, burst) in events {
            let tid = Tid(t as u8);
            match kind {
                0 => m.flush_thread(tid),
                1 => {
                    replaced += 1;
                    let s = test_stream(seed ^ (0xF00D + replaced), t as usize);
                    m.replace_thread(tid, s, replaced % 7);
                }
                _ => {
                    let on = m.fetch_enabled(tid);
                    m.set_fetch_enabled(tid, !on);
                }
            }
            m.check_invariants();
            for _ in 0..burst {
                m.step(&mut RoundRobin);
                m.check_invariants();
            }
        }
        // The machine must still be able to make forward progress.
        for t in 0..4 {
            m.set_fetch_enabled(Tid(t), true);
        }
        let committed = m.total_committed();
        m.run(3_000, &mut RoundRobin);
        prop_assert!(m.total_committed() > committed, "machine wedged after flush/replace storm");
        m.check_invariants();
    }
}
