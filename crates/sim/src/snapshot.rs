//! Versioned machine snapshots: capture/restore of the full [`SmtMachine`]
//! state plus a self-describing binary container.
//!
//! A snapshot is the warm-state currency of the bench layer's checkpoint
//! subsystem: `warmed_machine` captures once per (mix, config, seed,
//! warmup) point and every sweep cell restores a copy instead of paying
//! the warmup simulation again. Two guarantees anchor the design:
//!
//! - **Bit-identity.** [`MachineSnapshot::capture`] is a clean clone of
//!   the machine (instrumentation stripped — trace buffers and slot
//!   attribution are observation state, not simulated state), and
//!   [`MachineSnapshot::restore`] clones it back out, so a restored
//!   machine is *the same value* the `clone_resumes_identically` test
//!   already pins. The binary round trip preserves that: every RNG,
//!   cache stamp, predictor counter and in-flight op is encoded exactly
//!   (`snapshot → to_bytes → from_bytes → restore` is covered by the
//!   machine-equivalence proptests).
//! - **Fail-safe decoding.** The container is versioned, length-framed
//!   and checksummed; corrupt, truncated or version-bumped bytes decode
//!   to a [`CodecError`], never a panic — callers fall back to a cold
//!   warmup.
//!
//! Container layout (little-endian):
//!
//! ```text
//! magic    [u8; 8]   = b"SMTCKPT\0"
//! version  u32       = FORMAT_VERSION
//! len      u64       payload byte count
//! payload  [u8; len] SmtMachine state (see machine.rs encode_into)
//! checksum u64       FNV-1a 64 of payload
//! ```

use crate::machine::SmtMachine;
use smt_isa::codec::{fnv1a_64, ByteReader, ByteWriter, CodecError};

/// Leading magic of every checkpoint container.
pub const MAGIC: [u8; 8] = *b"SMTCKPT\0";

/// Current container format version. Bump on any layout change — old
/// files then decode to [`CodecError::UnsupportedVersion`] and are
/// recomputed, never misinterpreted.
///
/// v2: `UopStream` state gained a leading backend tag (synthetic vs
/// trace replay), changing the thread payload layout.
///
/// v3: `ThreadCtx` gained `migration_stall_until` (cross-core migration
/// cold-frontend penalty), changing the thread payload layout.
pub const FORMAT_VERSION: u32 = 3;

/// A captured warm machine state.
///
/// Cheap to clone (no instrumentation attached) and safe to share behind
/// an `Arc`: [`Self::restore`] takes `&self`.
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    state: SmtMachine,
}

impl MachineSnapshot {
    /// Capture `machine`'s complete simulated state. Instrumentation
    /// (event trace, slot attribution) is not part of the snapshot: the
    /// restored machine starts with both disabled, exactly like a machine
    /// that was never instrumented.
    pub fn capture(machine: &SmtMachine) -> Self {
        let mut state = machine.clone();
        state.disable_trace();
        state.disable_attr();
        MachineSnapshot { state }
    }

    /// A machine that will simulate bit-identically to the captured one.
    pub fn restore(&self) -> SmtMachine {
        self.state.clone()
    }

    /// Cycle count at capture time.
    pub fn cycle(&self) -> u64 {
        self.state.cycle()
    }

    /// Hardware contexts in the captured machine.
    pub fn n_threads(&self) -> usize {
        self.state.n_threads()
    }

    /// Serialize into the versioned, checksummed container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut pw = ByteWriter::with_capacity(64 << 10);
        self.state.encode_into(&mut pw);
        let payload = pw.into_bytes();
        let mut w = ByteWriter::with_capacity(payload.len() + 28);
        w.raw(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(payload.len() as u64);
        w.raw(&payload);
        w.u64(fnv1a_64(&payload));
        w.into_bytes()
    }

    /// Parse a container produced by [`Self::to_bytes`]. Every corruption
    /// mode returns an error: wrong magic, unknown version, truncation
    /// (length frame or payload), checksum mismatch, trailing bytes, and
    /// any structural inconsistency inside the payload itself.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let len = r.usize()?;
        let payload = r.take(len)?;
        let checksum = r.u64()?;
        r.finish()?;
        if fnv1a_64(payload) != checksum {
            return Err(CodecError::ChecksumMismatch);
        }
        let mut pr = ByteReader::new(payload);
        let state = SmtMachine::decode_from(&mut pr)?;
        pr.finish()?;
        Ok(MachineSnapshot { state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::RoundRobin;
    use crate::config::SimConfig;
    use smt_isa::AppProfile;
    use smt_workloads::UopStream;
    use std::sync::Arc;

    fn machine(n: usize, seed: u64) -> SmtMachine {
        let streams = (0..n)
            .map(|i| {
                UopStream::new(
                    Arc::new(AppProfile::builder("t").build()),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        SmtMachine::new(SimConfig::with_threads(n), streams)
    }

    #[test]
    fn restore_resumes_identically_in_memory() {
        let mut a = machine(2, 11);
        a.run(2_000, &mut RoundRobin);
        let snap = MachineSnapshot::capture(&a);
        let mut b = snap.restore();
        a.run(2_000, &mut RoundRobin);
        b.run(2_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn binary_roundtrip_resumes_identically() {
        let mut a = machine(4, 13);
        a.run(3_000, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&a).to_bytes();
        let snap = MachineSnapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(snap.cycle(), a.cycle());
        assert_eq!(snap.n_threads(), 4);
        let mut b = snap.restore();
        b.check_invariants();
        a.run(3_000, &mut RoundRobin);
        b.run(3_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn capture_strips_instrumentation() {
        let mut m = machine(2, 17);
        m.enable_trace(128);
        m.enable_attr();
        m.run(500, &mut RoundRobin);
        let snap = MachineSnapshot::capture(&m);
        let restored = snap.restore();
        assert!(restored.trace().is_none());
        assert!(restored.attr().is_none());
        // The original keeps its instrumentation.
        assert!(m.trace().is_some());
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut m = machine(2, 19);
        m.run(1_000, &mut RoundRobin);
        let a = MachineSnapshot::capture(&m).to_bytes();
        let b = MachineSnapshot::capture(&m).to_bytes();
        assert_eq!(a, b, "same state must serialize to identical bytes");
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut m = machine(1, 23);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn version_bump_is_an_error() {
        let mut m = machine(1, 23);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        bytes[8] = FORMAT_VERSION as u8 + 1; // little-endian low byte
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn truncation_is_an_error_at_every_cut() {
        let mut m = machine(1, 29);
        m.run(200, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&m).to_bytes();
        // Exhaustive cuts are slow on a full snapshot; probe a spread.
        for frac in 1..20 {
            let cut = bytes.len() * frac / 20;
            assert!(
                MachineSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}/{} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut m = machine(1, 31);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes),
            Err(CodecError::ChecksumMismatch)
        ));
    }

    #[test]
    fn queues_encoded_for_other_context_counts_are_errors() {
        // A fresh 2-thread machine's payload ends in a layout known byte
        // for byte: the int IQ, fp IQ and LSQ (context count, length 0),
        // the free registers, both divider reservations, the empty syscall
        // FIFO, six zero global counters, and the dispatch FIFO (context
        // count, length 0).
        let cfg = SimConfig::with_threads(2);
        let mut tail = ByteWriter::new();
        for _ in 0..3 {
            tail.usize(2);
            tail.usize(0);
        }
        tail.usize(cfg.extra_phys_int);
        tail.usize(cfg.extra_phys_fp);
        for _ in 0..9 {
            tail.u64(0);
        }
        tail.usize(2);
        tail.usize(0);
        let tail = tail.into_bytes();
        let bytes = MachineSnapshot::capture(&machine(2, 41)).to_bytes();
        let payload_end = bytes.len() - 8;
        let tail_start = payload_end - tail.len();
        assert_eq!(&bytes[tail_start..payload_end], &tail[..], "layout drifted");
        assert!(MachineSnapshot::from_bytes(&bytes).is_ok());
        // Claim one context for each queue in turn and restamp the
        // checksum, so the decoder itself has to reject it.
        for (offset, queue) in [
            (0, "int IQ"),
            (16, "fp IQ"),
            (32, "LSQ"),
            (tail.len() - 16, "dispatch FIFO"),
        ] {
            let mut bad = bytes.clone();
            let at = tail_start + offset;
            bad[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
            let sum = fnv1a_64(&bad[20..payload_end]);
            bad[payload_end..].copy_from_slice(&sum.to_le_bytes());
            match MachineSnapshot::from_bytes(&bad) {
                Err(CodecError::Invalid(msg)) => assert!(msg.contains(queue), "{queue}: {msg}"),
                other => panic!(
                    "{queue} for 1 context: expected Invalid, got {:?}",
                    other.map(|_| "a machine")
                ),
            }
        }
    }

    #[test]
    fn gauges_that_disagree_with_the_window_are_errors() {
        // A warm 8-thread MIX01 machine holds every gauge's kind of op.
        let streams = smt_workloads::mix(1).take_threads(8, 7).streams(42);
        let mut m = SmtMachine::new(SimConfig::with_threads(8), streams);
        m.run(6 * 8_192, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&m).to_bytes();
        assert!(MachineSnapshot::from_bytes(&bytes).is_ok());
        let payload_end = bytes.len() - 8;
        for gauge in [
            "front_end_occ",
            "iq_occ",
            "inflight_branches",
            "inflight_loads",
            "inflight_mem",
            "outstanding_dmiss",
        ] {
            // Thread 0's counters leaf is the first to hold the key.
            // Change its last digit and restamp the checksum, so the
            // decoder itself has to reject it.
            let key = format!("\"{gauge}\":");
            let at = bytes
                .windows(key.len())
                .position(|w| w == key.as_bytes())
                .expect("counters leaf holds every gauge")
                + key.len();
            let digits = bytes[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let mut bad = bytes.clone();
            let last = &mut bad[at + digits - 1];
            *last = if *last == b'0' { b'1' } else { *last - 1 };
            let sum = fnv1a_64(&bad[20..payload_end]);
            bad[payload_end..].copy_from_slice(&sum.to_le_bytes());
            match MachineSnapshot::from_bytes(&bad) {
                Err(CodecError::Invalid(msg)) => {
                    assert!(msg.contains("T0") && msg.contains(gauge), "{gauge}: {msg}")
                }
                other => panic!(
                    "{gauge} rewritten: expected Invalid, got {:?}",
                    other.map(|_| "a machine")
                ),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut m = machine(1, 37);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        bytes.push(0);
        assert!(MachineSnapshot::from_bytes(&bytes).is_err());
    }
}
