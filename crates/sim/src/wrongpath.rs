//! Wrong-path micro-op synthesis.
//!
//! After a fetch-time mispredict the machine keeps fetching down the wrong
//! path until the branch resolves — those instructions occupy fetch slots,
//! queue entries, registers and functional units, and pollute the caches.
//! That waste is precisely the phenomenon BRCOUNT-style policies exist to
//! limit (paper §1), so it must be modeled, but its *content* is
//! meaningless: the [`WrongPathGen`] synthesizes plausible filler ops
//! deterministically from the thread seed.
//!
//! Wrong-path streams never contain syscalls (a squashed drain would
//! deadlock the drain protocol) and their branches never trigger nested
//! squashes (the machine ignores mispredicts on wrong-path ops).

use smt_isa::codec::{ByteReader, ByteWriter, CodecError};
use smt_isa::{ArchReg, BranchInfo, BranchKind, MemInfo, MicroOp, OpKind, RegClass};
use smt_workloads::{unit_bound, SplitMix64};

/// Destination registers the filler cycles through (from r2).
const DST_WINDOW: u8 = 24;

/// The op-kind cascade's cumulative bounds on a 53-bit draw
/// ([`unit_bound`]): ALU, load, store, branch, then a source-less ALU op.
const ALU: u64 = unit_bound(0.55);
const LOAD: u64 = unit_bound(0.75);
const STORE: u64 = unit_bound(0.83);
const BRANCH: u64 = unit_bound(0.93);
/// A wrong-path load wanders off into the wider footprint.
const POLLUTE: u64 = unit_bound(0.33);

/// Deterministic generator of wrong-path filler ops for one thread.
#[derive(Clone, Debug)]
pub struct WrongPathGen {
    rng: SplitMix64,
    /// Thread address base (so cache pollution lands in this thread's
    /// address space).
    addr_base: u64,
    /// Data-region mask for synthesized accesses.
    ws_mask: u64,
    /// Wider mask for the polluting minority of wrong-path loads.
    pollute_mask: u64,
    next_dst: u8,
}

impl WrongPathGen {
    pub fn new(seed: u64, addr_base: u64, ws_bytes: u64) -> Self {
        let (ws_mask, pollute_mask) = Self::masks(ws_bytes).expect("working set fits a u64");
        WrongPathGen {
            rng: SplitMix64::new(SplitMix64::derive(seed, 0xDEAD)),
            addr_base,
            ws_mask,
            pollute_mask,
            next_dst: 0,
        }
    }

    /// The (hot, polluting) address masks of a `ws_bytes` working set, or
    /// `None` when it has no power of two above it in a `u64`. Wrong-path
    /// code is nearby code: its data accesses share the hot region, they
    /// don't stream the whole footprint.
    fn masks(ws_bytes: u64) -> Option<(u64, u64)> {
        let full = ws_bytes.max(64).checked_next_power_of_two()?;
        let hot = (full / 32).clamp(2 << 10, 8 << 10);
        Some((hot.min(full) - 1, full.min(1 << 22) - 1))
    }

    /// Is this the generator [`Self::new`] builds for a thread at
    /// `addr_base` with a `ws_bytes` working set? Returns the first field
    /// that disagrees.
    pub(crate) fn check_for(&self, addr_base: u64, ws_bytes: u64) -> Result<(), String> {
        if self.addr_base != addr_base {
            return Err(format!(
                "wrong-path addr_base {:#x} is not its stream's {addr_base:#x}",
                self.addr_base
            ));
        }
        let (ws_mask, pollute_mask) =
            Self::masks(ws_bytes).ok_or("wrong-path working set has no power-of-two size")?;
        for (field, got, want) in [
            ("ws_mask", self.ws_mask, ws_mask),
            ("pollute_mask", self.pollute_mask, pollute_mask),
        ] {
            if got != want {
                return Err(format!(
                    "wrong-path {field} {got:#x} is not the stream profile's {want:#x}"
                ));
            }
        }
        Ok(())
    }

    /// Serialize the full generator state for checkpointing.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.u64(self.rng.state());
        w.u64(self.addr_base);
        w.u64(self.ws_mask);
        w.u64(self.pollute_mask);
        w.u8(self.next_dst);
    }

    /// Rebuild from [`Self::encode_into`] bytes. A register counter past
    /// the window is [`CodecError::Invalid`]; the masks and base are
    /// checked against the thread's stream ([`Self::check_for`]).
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        let gen = WrongPathGen {
            rng: SplitMix64::from_state(r.u64()?),
            addr_base: r.u64()?,
            ws_mask: r.u64()?,
            pollute_mask: r.u64()?,
            next_dst: r.u8()?,
        };
        if gen.next_dst >= DST_WINDOW {
            return Err(CodecError::Invalid(format!(
                "wrong-path next_dst {} is past the {DST_WINDOW}-register window",
                gen.next_dst
            )));
        }
        Ok(gen)
    }

    /// Synthesize the op at wrong-path pc `pc`.
    pub fn next(&mut self, pc: u64) -> MicroOp {
        let r = self.rng.next_u53();
        self.next_dst = (self.next_dst + 1) % DST_WINDOW;
        let dst = ArchReg {
            class: RegClass::Int,
            idx: 2 + self.next_dst,
        };
        let src = ArchReg {
            class: RegClass::Int,
            idx: 2 + (self.next_dst + 11) % DST_WINDOW,
        };
        if r < ALU {
            MicroOp {
                kind: OpKind::IntAlu,
                pc,
                dst: Some(dst),
                src1: Some(src),
                src2: None,
                mem: None,
                branch: None,
            }
        } else if r < LOAD {
            // Most wrong-path loads touch hot data, but a third wander off
            // into the wider footprint and genuinely pollute the caches.
            let addr = if self.rng.next_u53() < POLLUTE {
                self.addr_base | (self.rng.next_u64() & self.pollute_mask & !7)
            } else {
                self.addr_base | (self.rng.next_u64() & self.ws_mask & !7)
            };
            MicroOp {
                kind: OpKind::Load,
                pc,
                dst: Some(dst),
                src1: Some(src),
                src2: None,
                mem: Some(MemInfo { addr, size: 8 }),
                branch: None,
            }
        } else if r < STORE {
            let addr = self.addr_base | (self.rng.next_u64() & self.ws_mask & !7);
            MicroOp {
                kind: OpKind::Store,
                pc,
                dst: None,
                src1: Some(src),
                src2: None,
                mem: Some(MemInfo { addr, size: 8 }),
                branch: None,
            }
        } else if r < BRANCH {
            let taken = self.rng.next_u64() & 1 == 0;
            MicroOp {
                kind: OpKind::Branch,
                pc,
                dst: None,
                src1: Some(src),
                src2: None,
                mem: None,
                branch: Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: pc + 32,
                }),
            }
        } else {
            MicroOp {
                kind: OpKind::IntAlu,
                pc,
                dst: Some(dst),
                src1: None,
                src2: None,
                mem: None,
                branch: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_emits_syscalls() {
        let mut g = WrongPathGen::new(1, 1 << 40, 1 << 16);
        for pc in 0..20_000u64 {
            let op = g.next((1 << 40) | (pc * 4));
            assert_ne!(op.kind, OpKind::Syscall);
            assert!(op.is_well_formed());
        }
    }

    #[test]
    fn deterministic() {
        let mut a = WrongPathGen::new(5, 0, 4096);
        let mut b = WrongPathGen::new(5, 0, 4096);
        for pc in 0..1000u64 {
            assert_eq!(a.next(pc * 4), b.next(pc * 4));
        }
    }

    /// Pins the filler stream: an FNV-1a-64 over the codec bytes of the
    /// first 200,000 ops of each application's generator, built as the
    /// machine builds thread 0's and fetched at consecutive pcs.
    #[test]
    fn every_app_wrong_path_matches_its_golden_hash() {
        use smt_isa::codec::{fnv1a_64, ByteWriter, Codec};
        use smt_workloads::{app, app_names, thread_addr_base};
        const GOLDEN: [(&str, u64); 21] = [
            ("gzip", 0x2cd075a5b28f4f05),
            ("vpr", 0xe1171b9b74edd3f1),
            ("gcc", 0xf18cb0dba0d9ae51),
            ("mcf", 0xb95244c8fd025971),
            ("crafty", 0x9065f8236b985241),
            ("parser", 0xf18cb0dba0d9ae51),
            ("perlbmk", 0xf18cb0dba0d9ae51),
            ("gap", 0xb95244c8fd025971),
            ("vortex", 0xb95244c8fd025971),
            ("bzip2", 0xb95244c8fd025971),
            ("twolf", 0xf18cb0dba0d9ae51),
            ("wupwise", 0xb95244c8fd025971),
            ("swim", 0xb95244c8fd025971),
            ("mgrid", 0xb95244c8fd025971),
            ("applu", 0xb95244c8fd025971),
            ("mesa", 0x9065f8236b985241),
            ("art", 0xb95244c8fd025971),
            ("equake", 0xb95244c8fd025971),
            ("ammp", 0xb95244c8fd025971),
            ("lucas", 0xb95244c8fd025971),
            ("apsi", 0xb95244c8fd025971),
        ];
        let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, app_names());
        let base = thread_addr_base(0);
        let got: Vec<(&str, u64)> = GOLDEN
            .iter()
            .map(|(name, _)| {
                let ws = app(name).data_ws_bytes;
                let mut g = WrongPathGen::new(SplitMix64::derive(0xAD75, 7), base, ws);
                let mut w = ByteWriter::new();
                for k in 0..200_000u64 {
                    g.next(base | (k * 4)).encode(&mut w);
                }
                (*name, fnv1a_64(w.as_bytes()))
            })
            .collect();
        for ((name, want), (_, hash)) in GOLDEN.iter().zip(&got) {
            assert_eq!(
                *hash, *want,
                "{name}: wrong-path hash {hash:#018x}, golden {want:#018x}; all: {got:#x?}"
            );
        }
    }

    #[test]
    fn a_register_counter_past_the_window_is_invalid() {
        let mut g = WrongPathGen::new(3, 1 << 40, 1 << 16);
        for pc in 0..100u64 {
            g.next(pc * 4);
        }
        for next_dst in [DST_WINDOW, 255] {
            let mut w = ByteWriter::new();
            WrongPathGen {
                next_dst,
                ..g.clone()
            }
            .encode_into(&mut w);
            match WrongPathGen::decode_from(&mut ByteReader::new(w.as_bytes())) {
                Err(CodecError::Invalid(msg)) => assert!(msg.contains("next_dst"), "{msg}"),
                other => panic!("next_dst {next_dst}: {other:?}"),
            }
        }
        let mut w = ByteWriter::new();
        g.encode_into(&mut w);
        let back = WrongPathGen::decode_from(&mut ByteReader::new(w.as_bytes())).expect("decode");
        assert_eq!(back.check_for(1 << 40, 1 << 16), Ok(()));
    }

    #[test]
    fn check_for_names_the_field_that_disagrees() {
        let g = WrongPathGen::new(3, 1 << 40, 1 << 20);
        assert_eq!(g.check_for(1 << 40, 1 << 20), Ok(()));
        // A working set in the same power of two makes the same masks.
        assert_eq!(g.check_for(1 << 40, (1 << 20) - 100), Ok(()));
        let field = |base, ws| g.check_for(base, ws).expect_err("a mismatch");
        assert!(field(2 << 40, 1 << 20).contains("addr_base"));
        // 64 KiB: a hot region of 2 KiB, not 8 KiB.
        assert!(field(1 << 40, 1 << 16).contains("ws_mask"));
        // 2 MiB: the same 8 KiB hot region, a wider polluting one.
        assert!(field(1 << 40, 2 << 20).contains("pollute_mask"));
        assert!(field(1 << 40, u64::MAX).contains("working set"));
    }

    #[test]
    fn addresses_within_thread_region() {
        let base = 3u64 << 40;
        let mut g = WrongPathGen::new(9, base, 1 << 20);
        for pc in 0..5_000u64 {
            if let Some(m) = g.next(base + pc * 4).mem {
                assert_eq!(m.addr & base, base);
                assert!((m.addr & !base) <= (1 << 20));
            }
        }
    }
}
