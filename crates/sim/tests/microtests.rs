//! Machine microtests: scripted op sequences pinning down the exact
//! behaviour of individual mechanisms (forwarding, unpipelined dividers,
//! register exhaustion, fetch breaks, the syscall drain).

use smt_isa::{AppProfile, ArchReg, BranchInfo, BranchKind, MemInfo, MicroOp, OpKind, Tid};
use smt_sim::{FetchCause, MultiCoreMachine, RoundRobin, SimConfig, SmtMachine};
use smt_workloads::UopStream;
use std::sync::Arc;

const BASE: u64 = 1 << 40;

fn profile() -> Arc<AppProfile> {
    Arc::new(AppProfile::builder("micro").build())
}

fn machine_with(script: Vec<MicroOp>, cfg: SimConfig) -> SmtMachine {
    let stream = UopStream::scripted(profile(), BASE, script);
    SmtMachine::new(cfg, vec![stream])
}

fn alu(pc: u64, dst: u8, src: Option<u8>) -> MicroOp {
    MicroOp {
        kind: OpKind::IntAlu,
        pc: BASE | pc,
        dst: Some(ArchReg::int(dst)),
        src1: src.map(ArchReg::int),
        src2: None,
        mem: None,
        branch: None,
    }
}

fn load(pc: u64, dst: u8, addr: u64) -> MicroOp {
    MicroOp {
        kind: OpKind::Load,
        pc: BASE | pc,
        dst: Some(ArchReg::int(dst)),
        src1: None,
        src2: None,
        mem: Some(MemInfo {
            addr: BASE | addr,
            size: 8,
        }),
        branch: None,
    }
}

fn store(pc: u64, addr: u64) -> MicroOp {
    MicroOp {
        kind: OpKind::Store,
        pc: BASE | pc,
        dst: None,
        src1: None,
        src2: None,
        mem: Some(MemInfo {
            addr: BASE | addr,
            size: 8,
        }),
        branch: None,
    }
}

#[test]
fn store_to_load_forwarding_skips_the_cache() {
    // A store and a dependent-address load to the same word, far from any
    // cached line: with forwarding, the load never touches the D-cache.
    let script = vec![store(0x0, 0x9000), load(0x4, 3, 0x9000)];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(2_000, &mut RoundRobin);
    let c = m.counters(Tid(0));
    assert!(c.committed > 100, "no progress");
    // Every load pairs with an immediately older same-address store, so
    // nearly every load forwards and never accesses the D-cache: the
    // stores (write-allocate) account for almost every access. A miss
    // count cannot tell, since the stores keep the word's line resident.
    let load_accesses = m.mem.l1d.accesses - c.stores;
    assert!(
        load_accesses <= c.loads / 10,
        "forwarding not effective: {load_accesses} of {} loads accessed the D-cache",
        c.loads
    );
}

#[test]
fn unpipelined_divider_serializes() {
    // Back-to-back independent divides vs back-to-back independent ALUs:
    // the single divider must make the div script far slower.
    let divs: Vec<MicroOp> = (0..4u8)
        .map(|i| MicroOp {
            kind: OpKind::IntDiv,
            ..alu(4 * i as u64, 10 + i, None)
        })
        .collect();
    let alus: Vec<MicroOp> = (0..4u8).map(|i| alu(4 * i as u64, 10 + i, None)).collect();
    let mut md = machine_with(divs, SimConfig::with_threads(1));
    let mut ma = machine_with(alus, SimConfig::with_threads(1));
    md.run(4_000, &mut RoundRobin);
    ma.run(4_000, &mut RoundRobin);
    let div_ipc = md.aggregate_ipc();
    let alu_ipc = ma.aggregate_ipc();
    assert!(
        alu_ipc > 5.0 * div_ipc,
        "divider not serializing: div {div_ipc:.2} vs alu {alu_ipc:.2}"
    );
    // The divider bounds throughput at ~1 per lat_int_div cycles.
    let max_div_ipc = 1.0 / md.config().lat_int_div as f64;
    assert!(
        div_ipc <= max_div_ipc * 1.2,
        "div ipc {div_ipc} above divider bound"
    );
}

#[test]
fn register_exhaustion_throttles_but_never_deadlocks() {
    let mut cfg = SimConfig::with_threads(1);
    cfg.extra_phys_int = 4; // brutally small rename pool
    let script: Vec<MicroOp> = (0..8u8).map(|i| alu(4 * i as u64, 10 + i, None)).collect();
    let mut m = machine_with(script, cfg);
    m.run(3_000, &mut RoundRobin);
    assert!(
        m.counters(Tid(0)).committed > 500,
        "deadlocked on tiny register file"
    );
    m.check_invariants();
}

#[test]
fn tiny_lsq_throttles_but_never_deadlocks() {
    let mut cfg = SimConfig::with_threads(1);
    cfg.lsq_size = 2;
    let script = vec![load(0x0, 3, 0x100), store(0x4, 0x200), load(0x8, 4, 0x300)];
    let mut m = machine_with(script, cfg);
    m.run(3_000, &mut RoundRobin);
    assert!(m.counters(Tid(0)).committed > 300, "deadlocked on tiny LSQ");
    m.check_invariants();
}

#[test]
fn dependent_chain_runs_at_one_ipc() {
    // Each op reads the previous op's destination: a pure serial chain.
    // With single-cycle ALUs the machine must settle at ~1 IPC, proving
    // that rename reconstructs the chain (no false independence).
    let script: Vec<MicroOp> = (0..8u8)
        .map(|i| alu(4 * i as u64, 10 + (i + 1) % 8, Some(10 + i)))
        .collect();
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(500, &mut RoundRobin); // warm
    let c0 = m.total_committed();
    let cy0 = m.cycle();
    m.run(2_000, &mut RoundRobin);
    let ipc = (m.total_committed() - c0) as f64 / (m.cycle() - cy0) as f64;
    assert!((0.8..=1.1).contains(&ipc), "serial chain ran at {ipc} IPC");
}

#[test]
fn independent_ops_exceed_serial_throughput() {
    let script: Vec<MicroOp> = (0..8u8).map(|i| alu(4 * i as u64, 10 + i, None)).collect();
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(500, &mut RoundRobin);
    let c0 = m.total_committed();
    let cy0 = m.cycle();
    m.run(2_000, &mut RoundRobin);
    let ipc = (m.total_committed() - c0) as f64 / (m.cycle() - cy0) as f64;
    assert!(ipc > 2.0, "independent ALUs only reached {ipc} IPC");
}

#[test]
fn taken_branch_ends_the_fetch_group() {
    // An always-taken self-loop branch: fetch can take at most one branch
    // per cycle per thread, so fetched-per-cycle stays near 1.
    let br = MicroOp {
        kind: OpKind::Branch,
        pc: BASE,
        dst: None,
        src1: None,
        src2: None,
        mem: None,
        branch: Some(BranchInfo {
            kind: BranchKind::Unconditional,
            taken: true,
            target: BASE,
        }),
    };
    let mut m = machine_with(vec![br], SimConfig::with_threads(1));
    m.run(1_000, &mut RoundRobin);
    let c = m.counters(Tid(0));
    let per_cycle = (c.fetched + c.wrongpath_fetched) as f64 / m.cycle() as f64;
    assert!(
        per_cycle <= 1.05,
        "fetched {per_cycle} branches/cycle past a taken branch"
    );
}

#[test]
fn syscall_drains_and_costs_its_latency() {
    let script = vec![
        alu(0x0, 10, None),
        MicroOp {
            kind: OpKind::Syscall,
            ..MicroOp::nop(BASE | 0x4)
        },
        alu(0x8, 11, None),
    ];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(5_000, &mut RoundRobin);
    let c = m.counters(Tid(0));
    assert!(c.syscalls >= 1, "no syscall retired");
    // Each script cycle (3 ops) costs at least syscall_latency cycles, so
    // IPC is bounded by 3 / syscall_latency.
    let bound = 3.0 / m.config().syscall_latency as f64;
    assert!(
        m.aggregate_ipc() < bound * 2.0,
        "syscalls too cheap: {} vs bound {bound}",
        m.aggregate_ipc()
    );
    assert!(m.global().syscall_drain_cycles > m.cycle() / 2);
}

#[test]
fn completions_land_on_their_deadlines() {
    // Every op completes at the `done_at` its Issue event published, and
    // an op due the cycle it issues (a zero latency) at the next cycle's
    // completion pass, which comes after this cycle's. Checked on the
    // default latencies, zero unit latencies, a 600-cycle memory and a
    // 5,000-cycle syscall (the longest latency sizes the completion wheel
    // at 256, 256, 1,024 and 8,192 buckets). The syscall drain emits no
    // Issue event; `syscall_drains_and_costs_its_latency` pins its timing.
    use smt_sim::TraceEvent;
    use std::collections::HashMap;
    let zero_units = SimConfig {
        lat_int_mul: 0,
        lat_int_div: 0,
        lat_fp_alu: 0,
        lat_fp_mul: 0,
        lat_fp_div: 0,
        ..SimConfig::default()
    };
    let long_memory = SimConfig {
        mem_latency: 600,
        ..SimConfig::default()
    };
    let long_syscall = SimConfig {
        syscall_latency: 5_000,
        ..SimConfig::default()
    };
    let configs = [
        ("default", SimConfig::default()),
        ("zero unit latencies", zero_units),
        ("600-cycle memory", long_memory),
        ("5,000-cycle syscall", long_syscall),
    ];
    for (name, base) in configs {
        for (mix_id, threads) in [(1, 8), (9, 8), (13, 2)] {
            let cfg = SimConfig {
                threads,
                max_fetch_threads: base.max_fetch_threads.min(threads),
                ..base.clone()
            };
            let streams = smt_workloads::mix(mix_id)
                .take_threads(threads, 7)
                .streams(42);
            let mut m = SmtMachine::new(cfg, streams);
            let mut issued = HashMap::new();
            let (mut completed, mut zero_latency) = (0usize, 0usize);
            for _ in 0..4 {
                m.enable_trace(1 << 17);
                m.run(1_500, &mut RoundRobin);
                let events = m.disable_trace().expect("enabled");
                assert_eq!(events.dropped(), 0, "trace ring too small");
                for e in events.events() {
                    match *e {
                        TraceEvent::Issue {
                            cycle,
                            tid,
                            seq,
                            done_at,
                        } => {
                            issued.insert((tid, seq), (cycle, done_at));
                        }
                        TraceEvent::Complete { cycle, tid, seq } => {
                            let Some((at, done_at)) = issued.remove(&(tid, seq)) else {
                                continue; // a drained syscall
                            };
                            assert_eq!(
                                cycle,
                                done_at.max(at + 1),
                                "{name}, MIX{mix_id:02}: {tid} seq {seq} issued at {at} \
                                 due at {done_at}"
                            );
                            completed += 1;
                            zero_latency += usize::from(done_at == at);
                        }
                        _ => {}
                    }
                }
            }
            m.check_invariants();
            assert!(
                completed > 100,
                "{name}, MIX{mix_id:02}: {completed} completions"
            );
            if name == "zero unit latencies" && threads == 8 {
                assert!(
                    zero_latency > 0,
                    "{name}, MIX{mix_id:02}: no zero-latency op"
                );
            }
        }
    }
}

#[test]
fn flush_thread_releases_everything() {
    let script = vec![
        load(0x0, 3, 0x5000),
        alu(0x4, 4, Some(3)),
        store(0x8, 0x6000),
    ];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(100, &mut RoundRobin);
    assert!(m.total_inflight() > 0);
    m.flush_thread(Tid(0));
    assert_eq!(m.total_inflight(), 0);
    m.check_invariants();
    // And the machine keeps running afterwards.
    m.run(500, &mut RoundRobin);
    assert!(m.total_committed() > 0);
}

#[test]
fn replace_thread_swaps_the_job() {
    let script = vec![alu(0x0, 10, None)];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(500, &mut RoundRobin);
    let committed_before = m.counters(Tid(0)).committed;
    assert!(committed_before > 0);
    let new_stream = UopStream::scripted(profile(), BASE, vec![load(0x100, 5, 0x7000)]);
    m.replace_thread(Tid(0), new_stream, 100);
    assert_eq!(m.counters(Tid(0)).committed, 0, "new job starts fresh");
    m.run(1_000, &mut RoundRobin);
    let c = m.counters(Tid(0));
    assert!(c.loads > 0, "new job's loads must run");
    m.check_invariants();
}

#[test]
fn trace_records_full_op_lifecycles() {
    use smt_sim::TraceEvent;
    let script = vec![alu(0x0, 10, None), load(0x4, 11, 0x2000)];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.enable_trace(4096);
    m.run(200, &mut RoundRobin);
    let trace = m.trace().expect("enabled");
    assert!(!trace.is_empty());
    // Some op must appear with all four lifecycle stages in order.
    let mut stages_of_seq0 = Vec::new();
    for e in trace.events() {
        match *e {
            TraceEvent::Fetch { seq: 0, .. } => stages_of_seq0.push("F"),
            TraceEvent::Dispatch { seq: 0, .. } => stages_of_seq0.push("D"),
            TraceEvent::Issue { seq: 0, .. } => stages_of_seq0.push("I"),
            TraceEvent::Complete { seq: 0, .. } => stages_of_seq0.push("X"),
            TraceEvent::Commit { seq: 0, .. } => stages_of_seq0.push("C"),
            _ => {}
        }
    }
    assert_eq!(stages_of_seq0, vec!["F", "D", "I", "X", "C"]);
    // Event cycles are non-decreasing.
    let cycles: Vec<u64> = trace.events().map(|e| e.cycle()).collect();
    assert!(
        cycles.windows(2).all(|w| w[0] <= w[1]),
        "trace out of order"
    );
}

#[test]
fn trace_is_off_by_default_and_removable() {
    let script = vec![alu(0x0, 10, None)];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    assert!(m.trace().is_none());
    m.run(50, &mut RoundRobin);
    m.enable_trace(16);
    m.run(50, &mut RoundRobin);
    let buf = m.disable_trace().expect("was enabled");
    assert!(buf.recorded > 0);
    assert!(m.trace().is_none());
    m.run(50, &mut RoundRobin); // still healthy
    m.check_invariants();
}

#[test]
fn chooser_tolerates_empty_candidate_set() {
    use smt_sim::FetchChooser as _;
    // Direct contract: prioritizing zero candidates must not panic (the
    // cycle-modulo rotation in RoundRobin divides by the candidate count)
    // and must leave the vector empty.
    let mut rr = RoundRobin;
    let mut none: Vec<smt_sim::PolicyView> = Vec::new();
    for cycle in [0, 1, 17, u64::MAX] {
        rr.prioritize(cycle, &mut none);
        assert!(none.is_empty());
    }
    let mut seen_empty = false;
    let mut fc = smt_sim::FnChooser(|_cycle: u64, v: &mut Vec<smt_sim::PolicyView>| {
        seen_empty |= v.is_empty();
    });
    fc.prioritize(3, &mut Vec::new());
    assert!(seen_empty, "closure chooser must still be consulted");

    // Machine contract: with every thread's fetch disabled the per-cycle
    // candidate set is empty; the machine must keep cycling, drain its
    // in-flight work, and resume cleanly when fetch is re-enabled.
    let script = vec![alu(0x0, 10, None), load(0x4, 11, 0x3000)];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    m.run(100, &mut RoundRobin);
    m.set_fetch_enabled(Tid(0), false);
    let fetched_at_disable = m.counters(Tid(0)).fetched;
    m.run(500, &mut RoundRobin);
    m.check_invariants();
    assert_eq!(
        m.counters(Tid(0)).fetched,
        fetched_at_disable,
        "nothing may be fetched while the candidate set is empty"
    );
    assert_eq!(m.total_inflight(), 0, "in-flight work must drain");
    let committed_stalled = m.total_committed();
    m.set_fetch_enabled(Tid(0), true);
    m.run(500, &mut RoundRobin);
    m.check_invariants();
    assert!(
        m.total_committed() > committed_stalled,
        "fetch re-enable must restore progress"
    );
}

// ---------------------------------------------------------------------
// readiness tracking: the per-op pending counters vs the search oracle
// ---------------------------------------------------------------------

fn div_op(pc: u64, dst: u8) -> MicroOp {
    MicroOp {
        kind: OpKind::IntDiv,
        ..alu(pc, dst, None)
    }
}

#[test]
fn wake_fires_the_cycle_the_producer_completes() {
    // An unpipelined divide and its dependent consumer, looping. The
    // consumer dispatches long before the divide completes, so it sits
    // dep-blocked in the int queue with a non-zero pending counter. The
    // wake must land in the *same cycle* the producer completes: stepping
    // one cycle at a time, there may never be a cycle where the search
    // oracle says ready while the counter still reads pending > 0 (a late
    // wake), nor the reverse (an early or lost wake).
    let script = vec![div_op(0x0, 10), alu(0x4, 11, Some(10))];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    let mut blocked_seen = 0u64;
    for _ in 0..1_500 {
        m.step(&mut RoundRobin);
        // Consumers are the odd seqs; each depends on exactly seq - 1
        // (in-order fetch, no branches, so seqs follow the script).
        let lo = m.total_committed();
        for seq in lo..lo + 160 {
            if seq % 2 != 1 {
                continue;
            }
            if let Some(pending) = m.queued_pending(Tid(0), seq) {
                assert_eq!(
                    pending == 0,
                    m.deps_ready_search(Tid(0), &[Some(seq - 1), None]),
                    "pending {pending} disagrees with the search oracle \
                     for seq {seq} at cycle {}",
                    m.cycle()
                );
                if pending > 0 {
                    blocked_seen += 1;
                }
            }
        }
    }
    assert!(blocked_seen > 10, "consumer was never observed dep-blocked");
    assert!(m.counters(Tid(0)).committed > 50, "divide chain wedged");
    m.check_invariants();
}

#[test]
fn squash_during_producer_flight_keeps_readiness_coherent() {
    // A mispredicting conditional loop branch rides with an unpipelined
    // divide: wrong-path ops fetched past the branch rename their sources
    // onto the still-executing divider (the wrong-path generator sources
    // int regs 2..26, which covers r10) and register wake nodes on its
    // chain; the squash then removes those waiters while the producer
    // survives. When the divide finally completes it must revalidate each
    // waiter's queue slot instead of decrementing a squashed (possibly
    // reused) entry. check_invariants() recounts every pending counter
    // against the search oracle and audits the wake arena every cycle.
    // Both branch entries share one PC but alternate direction, so the
    // weakly-taken-initialized predictor keeps mispredicting for a while.
    let branch = |taken| MicroOp {
        kind: OpKind::Branch,
        pc: BASE | 0x8,
        dst: None,
        src1: None,
        src2: None,
        mem: None,
        branch: Some(BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target: BASE,
        }),
    };
    let script = vec![
        div_op(0x0, 10),
        alu(0x4, 11, Some(10)),
        branch(true),
        div_op(0x10, 10),
        alu(0x14, 11, Some(10)),
        branch(false),
    ];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    for _ in 0..2_000 {
        m.step(&mut RoundRobin);
        m.check_invariants();
    }
    let c = m.counters(Tid(0));
    assert!(c.mispredicts > 0, "loop branch never mispredicted");
    assert!(c.squashes > 0, "mispredicts must squash");
    assert!(c.wrongpath_fetched > 0, "wrong-path fetch must engage");
    assert!(
        c.committed > 100,
        "no progress after squash churn: {} committed",
        c.committed
    );
}

#[test]
fn syscall_drain_waits_out_dep_blocked_ops() {
    // Divide producer, dep-blocked consumer, syscall, trailing op. The
    // fetched syscall puts the machine in drain mode while the consumer is
    // still waiting on the divide (the front end runs ~20 cycles ahead of
    // the unpipelined divider), but the drain may only execute once
    // nothing else is in flight — so every retired syscall proves the
    // dep-blocked consumer was woken and completed *during* the drain. A
    // lost wake would deadlock the drain forever.
    let script = vec![
        div_op(0x0, 10),
        alu(0x4, 11, Some(10)),
        MicroOp {
            kind: OpKind::Syscall,
            ..MicroOp::nop(BASE | 0x8)
        },
        alu(0xC, 12, None),
    ];
    let mut m = machine_with(script, SimConfig::with_threads(1));
    let mut blocked_seen = 0u64;
    for _ in 0..4_000 {
        m.step(&mut RoundRobin);
        m.check_invariants();
        // Consumers are the seqs ≡ 1 (mod 4), each depending on seq - 1.
        let lo = m.total_committed();
        for seq in lo..lo + 64 {
            if seq % 4 != 1 {
                continue;
            }
            if let Some(pending) = m.queued_pending(Tid(0), seq) {
                assert_eq!(
                    pending == 0,
                    m.deps_ready_search(Tid(0), &[Some(seq - 1), None]),
                    "pending {pending} disagrees with the search oracle \
                     for seq {seq} during drain"
                );
                if pending > 0 {
                    blocked_seen += 1;
                }
            }
        }
    }
    let c = m.counters(Tid(0));
    assert!(blocked_seen > 0, "consumer never dep-blocked");
    assert!(c.syscalls >= 2, "drain never retired a syscall");
    assert!(
        c.committed >= 8,
        "drain deadlocked on the dep-blocked consumer: {} committed",
        c.committed
    );
    assert!(m.global().syscall_drain_cycles > 0);
}

#[test]
fn wrongpath_squash_survives_quantum_boundary_flush() {
    use smt_sim::FetchChooser as _;
    // A mispredict-heavy random stream (50/50 branch bias defeats the
    // predictor) keeps wrong-path fetch and squash recovery continuously
    // active; chopping the run into odd-sized "quanta" with a full flush
    // at every boundary must never catch the machine in an inconsistent
    // squash state.
    let profile = Arc::new(
        AppProfile::builder("wrongpath-heavy")
            .branch_frac(0.25)
            .branch_bias(0.5)
            .build(),
    );
    let stream = UopStream::new(profile, 7, smt_workloads::thread_addr_base(0));
    let mut m = SmtMachine::new(SimConfig::with_threads(1), vec![stream]);
    let mut rr = RoundRobin;
    for quantum in 0..8u64 {
        // Odd lengths so boundaries land at arbitrary pipeline phases.
        m.run(997 + quantum, &mut rr);
        m.flush_thread(Tid(0));
        m.check_invariants();
        assert_eq!(m.total_inflight(), 0, "boundary flush must empty the pipe");
        // The chooser still sees a consistent view right after the flush.
        let mut views = Vec::new();
        m.views_into(&mut views);
        rr.prioritize(m.cycle(), &mut views);
        assert_eq!(views.len(), 1);
    }
    let c = m.counters(Tid(0));
    assert!(c.committed > 100, "no progress: {} committed", c.committed);
    assert!(c.mispredicts > 0, "stream must mispredict");
    assert!(c.squashes > 0, "mispredicts must squash");
    assert!(c.wrongpath_fetched > 0, "wrong-path fetch must engage");
    // Wrong-path ops are never committed: committed ops all came from the
    // right path, so totals stay coherent after eight boundary flushes.
    assert!(c.fetched >= c.committed);
    m.run(1_000, &mut rr);
    m.check_invariants();
}

// ---------------------------------------------------------------------------
// Cross-core migration edge cases (MultiCoreMachine).
// ---------------------------------------------------------------------------

fn synth(seed: u64, t: usize) -> UopStream {
    UopStream::new(profile(), seed, smt_workloads::thread_addr_base(t))
}

/// Two single-context cores hosting one global thread on core 0; the spare
/// slot on core 1 starts parked and is the migration target.
fn two_cores_one_thread(script: Vec<MicroOp>, penalty: u64) -> MultiCoreMachine {
    let cfg = SimConfig::with_threads(1);
    let core0 = SmtMachine::new(
        cfg.clone(),
        vec![UopStream::scripted(profile(), BASE, script)],
    );
    let core1 = SmtMachine::new(cfg, vec![synth(99, 1)]);
    MultiCoreMachine::from_cores(vec![core0, core1], vec![(0, 0)], penalty)
}

#[test]
fn migration_mid_syscall_drain_releases_the_drain() {
    // The script fetches a syscall behind a far-miss load, so the machine
    // sits in drain mode for the load's whole miss latency. Migrating the
    // thread away mid-drain must purge the pending syscall from the old
    // core — an empty core must not keep draining — while the thread
    // resumes (and still retires syscalls) on its new core.
    let script = vec![
        load(0x0, 3, 0x9000),
        MicroOp {
            kind: OpKind::Syscall,
            ..MicroOp::nop(BASE | 0x4)
        },
        alu(0x8, 10, None),
    ];
    let mut m = two_cores_one_thread(script, 0);
    let mut ch = [RoundRobin, RoundRobin];
    while m.core(0).global().syscall_drain_cycles == 0 {
        m.step(&mut ch);
        assert!(m.cycle() < 5_000, "drain never engaged");
    }
    let drained_before = m.core(0).global().syscall_drain_cycles;
    let committed_before = m.thread_counters(0).committed;
    let syscalls_before = m.thread_counters(0).syscalls;
    assert_eq!(m.apply_placement(&[1]), 1);
    m.check_invariants();
    assert_eq!(m.core(0).total_inflight(), 0, "migrate_out must flush");
    m.run(8_000, &mut ch);
    assert_eq!(
        m.core(0).global().syscall_drain_cycles,
        drained_before,
        "empty core kept draining after the syscall owner migrated away"
    );
    let c = m.thread_counters(0);
    assert!(
        c.committed > committed_before,
        "thread stalled after migration"
    );
    assert!(
        c.syscalls > syscalls_before,
        "migrated thread stopped retiring syscalls"
    );
    m.check_invariants();
}

#[test]
fn migration_with_wrongpath_ops_in_flight() {
    // A 50/50-bias branch-heavy stream keeps wrong-path fetch continuously
    // active; migrating at an arbitrary cycle must catch speculative ops in
    // flight, squash them cleanly, and carry the architectural counters to
    // the new core untouched.
    let profile = Arc::new(
        AppProfile::builder("wrongpath-heavy")
            .branch_frac(0.25)
            .branch_bias(0.5)
            .build(),
    );
    let cfg = SimConfig::with_threads(1);
    let core0 = SmtMachine::new(
        cfg.clone(),
        vec![UopStream::new(
            profile,
            7,
            smt_workloads::thread_addr_base(0),
        )],
    );
    let core1 = SmtMachine::new(cfg, vec![synth(8, 1)]);
    let mut m = MultiCoreMachine::from_cores(vec![core0, core1], vec![(0, 0)], 64);
    let mut ch = [RoundRobin, RoundRobin];
    m.run(997, &mut ch);
    assert!(
        m.thread_counters(0).wrongpath_fetched > 0,
        "stream must be fetching down the wrong path"
    );
    let before = m.thread_counters(0).clone();
    assert_eq!(m.apply_placement(&[1]), 1);
    m.check_invariants();
    assert_eq!(m.core(0).total_inflight(), 0, "wrong-path ops must squash");
    assert_eq!(
        *m.thread_counters(0),
        before,
        "architectural counters must travel unchanged"
    );
    m.run(3_000, &mut ch);
    assert!(m.thread_counters(0).committed > before.committed);
    m.check_invariants();
}

#[test]
fn migrating_the_same_thread_two_quanta_in_a_row_stacks_cleanly() {
    // Penalty longer than the inter-migration gap: the second migration
    // lands while the first cold-frontend penalty is still being served.
    // The stall must restart (not wedge), and fetch stays frozen across
    // both windows.
    let script: Vec<MicroOp> = (0..4u8).map(|i| alu(4 * i as u64, 10 + i, None)).collect();
    let mut m = two_cores_one_thread(script, 2_000);
    let mut ch = [RoundRobin, RoundRobin];
    m.run(200, &mut ch);
    let before = m.thread_counters(0).committed;
    assert!(before > 0);
    assert_eq!(m.apply_placement(&[1]), 1);
    m.run(500, &mut ch); // still inside the first penalty window
    assert_eq!(m.apply_placement(&[0]), 1); // second migration mid-penalty
    m.run(500, &mut ch); // still inside the restarted window
    assert_eq!(m.migrations(), &[2]);
    assert_eq!(
        m.thread_counters(0).committed,
        before,
        "committed during a cold-frontend penalty"
    );
    m.check_invariants();
    m.run(4_000, &mut ch); // well past cycle 1200 + 2000
    assert!(
        m.thread_counters(0).committed > before,
        "thread never resumed after back-to-back migrations"
    );
    m.check_invariants();
}

#[test]
fn allocation_can_empty_a_core_and_refill_it() {
    // Co-scheduling both threads onto core 0 leaves core 1 with no work:
    // it must keep cycling in lockstep (the shared-L2 rotation depends on
    // it) without draining or deadlocking, and refilling it later works.
    let cfg = SimConfig::with_threads(2);
    let core0 = SmtMachine::new(cfg.clone(), vec![synth(1, 0), synth(91, 2)]);
    let core1 = SmtMachine::new(cfg, vec![synth(92, 3), synth(2, 1)]);
    let mut m = MultiCoreMachine::from_cores(vec![core0, core1], vec![(0, 0), (1, 1)], 32);
    let mut ch = [RoundRobin, RoundRobin];
    m.run(500, &mut ch);
    assert_eq!(m.apply_placement(&[0, 0]), 1);
    m.check_invariants();
    assert_eq!(
        m.core(1).total_inflight(),
        0,
        "emptied core must be flushed"
    );
    let (c0, c1) = (
        m.thread_counters(0).committed,
        m.thread_counters(1).committed,
    );
    // The machine-global counter keeps counting across migrations, so the
    // emptied core's total freezes at whatever the departed thread left.
    let core1_frozen = m.core(1).total_committed();
    m.run(3_000, &mut ch);
    assert!(m.thread_counters(0).committed > c0, "thread 0 stalled");
    assert!(m.thread_counters(1).committed > c1, "thread 1 stalled");
    assert_eq!(
        m.core(1).cycle(),
        m.core(0).cycle(),
        "empty core fell out of lockstep"
    );
    assert_eq!(
        m.core(1).total_committed(),
        core1_frozen,
        "empty core committed ops"
    );
    // Refill the emptied core and keep going.
    assert_eq!(m.apply_placement(&[1, 0]), 1);
    let c0 = m.thread_counters(0).committed;
    m.run(3_000, &mut ch);
    assert!(m.thread_counters(0).committed > c0, "refilled core stalled");
    assert_eq!(m.migrations(), &[1, 1]);
    m.check_invariants();
}

#[test]
fn n_threads_on_one_core_matches_plain_smt_machine() {
    // The N=1 equivalence guarantee at microtest scale: wrapping a 4-thread
    // SmtMachine in MultiCoreMachine::single and stepping through odd-sized
    // chunks must reproduce the standalone machine's counters exactly.
    let cfg = SimConfig::with_threads(4);
    let streams: Vec<UopStream> = (0..4).map(|t| synth(3 + t as u64, t)).collect();
    let mut plain = SmtMachine::new(cfg.clone(), streams.clone());
    let mut wrapped = MultiCoreMachine::single(SmtMachine::new(cfg, streams));
    let mut ch = [RoundRobin];
    for chunk in [13u64, 101, 997, 1, 7, 400] {
        plain.run(chunk, &mut RoundRobin);
        wrapped.run(chunk, &mut ch);
        assert_eq!(
            plain.counter_snapshot(),
            wrapped.counter_snapshot(),
            "wrapper diverged from plain machine"
        );
    }
    assert!(plain.total_committed() > 0, "vacuous equivalence");
    plain.check_invariants();
    wrapped.check_invariants();
}

#[test]
fn migration_penalty_freezes_fetch_and_is_attributed() {
    // During the cold-frontend penalty the thread commits nothing (its
    // pipeline was flushed and fetch is held), and the attribution layer
    // charges the lost fetch slots to the dedicated Migration cause.
    let script: Vec<MicroOp> = (0..4u8).map(|i| alu(4 * i as u64, 10 + i, None)).collect();
    let mut m = two_cores_one_thread(script, 300);
    let mut ch = [RoundRobin, RoundRobin];
    m.run(500, &mut ch);
    let before = m.thread_counters(0).committed;
    assert_eq!(m.apply_placement(&[1]), 1);
    m.core_mut(1).enable_attr();
    m.run(300, &mut ch);
    assert_eq!(
        m.thread_counters(0).committed,
        before,
        "committed while the migration penalty held fetch"
    );
    let attr = m.core_mut(1).disable_attr().expect("attr was enabled");
    assert!(
        attr.stacks()[0].fetch_count(FetchCause::Migration) > 0,
        "penalty cycles not attributed to the migration cause"
    );
    m.run(2_000, &mut ch);
    assert!(
        m.thread_counters(0).committed > before,
        "thread never thawed after the penalty"
    );
    m.check_invariants();
}
