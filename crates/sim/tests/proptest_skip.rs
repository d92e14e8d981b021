//! Differential property tests for event-horizon cycle skipping.
//!
//! The fast-forward engine (`SmtMachine::stall_horizon` /
//! `skip_cycles`) claims to be *bit-identical* to cycle-by-cycle
//! stepping: every skipped window is pure stall, and every per-cycle
//! effect those cycles would have had (stall accounting, decay,
//! LSQ-full charges, slot attribution) is applied in closed form. These
//! tests run two timelines of the same machine — one with skipping
//! enabled, one pinned to single-stepping — through random mixes,
//! random run-length chunking, and flush/replace/migration churn, and
//! demand byte-identical serialized state plus equal counter and
//! attribution snapshots at every comparison point.
//!
//! A final deterministic test guards against the vacuous-pass failure
//! mode: on stall-heavy inputs (a long-latency memory and a replayed
//! trace among them) the skip engine must actually engage (fast-forward
//! a nontrivial share of the run), so the equalities above are
//! comparing a genuinely skipped timeline.

use proptest::prelude::*;
use smt_isa::tracefile::TraceFile;
use smt_isa::Tid;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{MultiCoreMachine, MultiCoreSnapshot, RoundRobin, SimConfig, SmtMachine};
use smt_workloads::{mix, streams_from_trace};

/// Main-memory latency of the long-latency inputs (the default is 80):
/// stall windows stretch to the miss latency and dominate the run.
const LONG_MEM_LATENCY: u64 = 600;

fn machine_pair(
    mix_id: usize,
    threads: usize,
    seed: u64,
    mem_latency: u64,
) -> (SmtMachine, SmtMachine) {
    let m = mix(mix_id).take_threads(threads, 1);
    let mut cfg = SimConfig::with_threads(threads);
    cfg.mem_latency = mem_latency;
    skip_pair(SmtMachine::new(cfg, m.streams(seed)))
}

/// `fast` with skipping on, and its clone pinned to single-stepping.
fn skip_pair(mut fast: SmtMachine) -> (SmtMachine, SmtMachine) {
    fast.set_skip_enabled(true);
    let mut slow = fast.clone();
    slow.set_skip_enabled(false);
    (fast, slow)
}

/// A machine replaying the committed two-thread MIX01 capture.
fn trace_machine() -> SmtMachine {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../traces/mix01_t2.smttrace"
    );
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let file = TraceFile::parse(bytes).expect("committed capture parses");
    let streams = streams_from_trace(&file).expect("committed capture replays");
    SmtMachine::new(SimConfig::with_threads(streams.len()), streams)
}

/// Byte-level equality of the two timelines' full serialized state.
fn assert_bit_identical(fast: &SmtMachine, slow: &SmtMachine) {
    assert_eq!(fast.cycle(), slow.cycle());
    assert_eq!(fast.counter_snapshot(), slow.counter_snapshot());
    assert_eq!(
        MachineSnapshot::capture(fast).to_bytes(),
        MachineSnapshot::capture(slow).to_bytes(),
        "skip-on and skip-off timelines diverged at the state level"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Skip-on ≡ skip-off over random mixes, thread counts, memory
    /// latencies and run chunkings (chunk boundaries land
    /// mid-stall-window, so partial skips to `end` are exercised too).
    #[test]
    fn skip_matches_stepping_on_random_mixes(
        mix_id in 1usize..14,
        threads in 1usize..6,
        seed in 0u64..1_000,
        long_mem in any::<bool>(),
        chunks in prop::collection::vec(1u64..3_000, 1..6),
    ) {
        let mem_latency = if long_mem { LONG_MEM_LATENCY } else { SimConfig::default().mem_latency };
        let (mut fast, mut slow) = machine_pair(mix_id, threads, seed, mem_latency);
        for c in chunks {
            fast.run(c, &mut RoundRobin);
            slow.run(c, &mut RoundRobin);
            assert_bit_identical(&fast, &slow);
        }
        fast.check_invariants();
    }

    /// Skip-on ≡ skip-off under flush/replace/migration/fetch-toggle
    /// churn: every event perturbs the stall bookkeeping the horizon is
    /// computed from (redirects, cold-frontend penalties, parked
    /// threads) between random-length bursts.
    #[test]
    fn skip_matches_stepping_under_churn(
        seed in 0u64..1_000,
        events in prop::collection::vec((0u64..4, 0u8..4, 1u64..2_000, 0u64..300), 1..8),
    ) {
        let (mut fast, mut slow) = machine_pair(13, 4, seed, SimConfig::default().mem_latency);
        let mut replaced = 0u64;
        for (t, kind, burst, penalty) in events {
            let tid = Tid(t as u8);
            match kind {
                0 => {
                    fast.flush_thread(tid);
                    slow.flush_thread(tid);
                }
                1 => {
                    replaced += 1;
                    let s = mix(11).take_threads(1, replaced).streams(seed ^ replaced);
                    fast.replace_thread(tid, s[0].clone(), penalty);
                    let s = mix(11).take_threads(1, replaced).streams(seed ^ replaced);
                    slow.replace_thread(tid, s[0].clone(), penalty);
                }
                2 => {
                    // Out-and-back migration: pays the cold-frontend
                    // penalty, the `migration_stall_until` horizon term.
                    let th = fast.migrate_out(tid);
                    fast.migrate_in(tid, th, penalty);
                    let th = slow.migrate_out(tid);
                    slow.migrate_in(tid, th, penalty);
                }
                _ => {
                    let on = fast.fetch_enabled(tid);
                    fast.set_fetch_enabled(tid, !on);
                    slow.set_fetch_enabled(tid, !on);
                }
            }
            fast.run(burst, &mut RoundRobin);
            slow.run(burst, &mut RoundRobin);
            assert_bit_identical(&fast, &slow);
        }
        fast.check_invariants();
    }

    /// With slot attribution live, the closed-form skipped-cycle
    /// classification must equal the per-cycle one — same stacks, same
    /// conservation — on top of the architectural bit-identity.
    #[test]
    fn skip_matches_stepping_with_attribution(
        mix_id in 1usize..14,
        threads in 2usize..5,
        seed in 0u64..500,
        chunks in prop::collection::vec(1u64..2_000, 1..4),
    ) {
        let (mut fast, mut slow) =
            machine_pair(mix_id, threads, seed, SimConfig::default().mem_latency);
        fast.enable_attr();
        slow.enable_attr();
        for c in chunks {
            fast.run(c, &mut RoundRobin);
            slow.run(c, &mut RoundRobin);
            assert_eq!(fast.counter_snapshot(), slow.counter_snapshot());
            assert_eq!(
                fast.attr().expect("attr enabled").snapshot(),
                slow.attr().expect("attr enabled").snapshot(),
                "skipped-cycle attribution diverged from per-cycle"
            );
        }
        assert!(fast.disable_attr().is_some());
        assert_bit_identical(&fast, &slow);
    }

    /// Multi-core: all-cores-stalled windows skip in lockstep and the
    /// machine state (cores, shared L2, placement) stays byte-identical
    /// to per-cycle rotation stepping, across placement churn.
    #[test]
    fn multicore_skip_matches_stepping(
        seed in 0u64..500,
        chunks in prop::collection::vec(1u64..2_000, 1..4),
        swap in 0u8..2,
    ) {
        let build = || {
            let cores = (0..2)
                .map(|c| {
                    let m = mix(13).take_threads(2, c + 1);
                    SmtMachine::new(SimConfig::with_threads(2), m.streams(seed + c))
                })
                .collect();
            MultiCoreMachine::from_cores(cores, vec![(0, 0), (0, 1), (1, 0), (1, 1)], 64)
        };
        let mut fast = build();
        fast.set_skip_enabled(true);
        let mut slow = build();
        slow.set_skip_enabled(false);
        let mut choosers = [RoundRobin, RoundRobin];
        for (i, c) in chunks.into_iter().enumerate() {
            if i == 1 && swap == 1 {
                // Capacity-preserving cross-migration of threads 1 and 2.
                let placement = [0, 1, 0, 1];
                fast.apply_placement(&placement);
                slow.apply_placement(&placement);
            }
            fast.run(c, &mut choosers);
            slow.run(c, &mut choosers);
            assert_eq!(fast.cycle(), slow.cycle());
            assert_eq!(fast.counter_snapshot(), slow.counter_snapshot());
            assert_eq!(
                MultiCoreSnapshot::capture(&fast, Vec::new()).to_bytes(),
                MultiCoreSnapshot::capture(&slow, Vec::new()).to_bytes(),
                "multi-core skip diverged from rotation stepping"
            );
        }
        fast.check_invariants();
    }
}

/// Anti-vacuity guard: on stall-heavy inputs the engine must actually
/// fast-forward a meaningful share of the run — otherwise every
/// differential test above passes trivially with the horizon never
/// firing. The inputs: MIX13 at 8 threads; one MIX13 thread on a
/// long-latency memory, where stall windows dominate the run; and the
/// committed MIX01 capture replayed, since skipping must be oblivious to
/// the stream backend.
#[test]
fn skip_engages_on_stalling_inputs() {
    let default_mem = SimConfig::default().mem_latency;
    let long_mem = {
        let m = mix(13).take_threads(1, 7);
        let mut cfg = SimConfig::with_threads(1);
        cfg.mem_latency = LONG_MEM_LATENCY;
        SmtMachine::new(cfg, m.streams(42))
    };
    let cases: [(&str, (SmtMachine, SmtMachine), u64); 3] = [
        ("MIX13_t8", machine_pair(13, 8, 42, default_mem), 10_000),
        ("MIX13_t1_mem600", skip_pair(long_mem), 90_000),
        ("MIX01x2_trace", skip_pair(trace_machine()), 2_000),
    ];
    for (label, (mut fast, mut slow), min_skipped) in cases {
        fast.run(100_000, &mut RoundRobin);
        slow.run(100_000, &mut RoundRobin);
        assert_bit_identical(&fast, &slow);
        assert_eq!(
            slow.skipped_cycles(),
            0,
            "{label}: skip-off machine must not skip"
        );
        assert!(
            fast.skipped_cycles() > min_skipped,
            "{label}: skip engine barely engaged: {} of 100000 cycles",
            fast.skipped_cycles()
        );
    }
}
