//! The statistical micro-op stream generator.
//!
//! [`UopStream`] turns an [`AppProfile`] into an infinite, deterministic,
//! cloneable stream of dynamic [`MicroOp`]s. The generator models what the
//! cycle-level machine needs to see, in a way the machine's *real* structural
//! models (caches, gshare, rename) respond to faithfully:
//!
//! - **control flow**: a synthetic program counter walks a code region;
//!   branches have per-site personalities (deterministic short patterns or
//!   biased coins) so the machine's gshare predictor reaches realistic,
//!   per-app accuracy; calls and returns maintain a shadow call stack so the
//!   RAS works; taken branches relocate the PC, giving the I-cache a real
//!   locality structure (loops, function bodies);
//! - **data flow**: destination registers are allocated round-robin from a
//!   window of 24 names, and sources name the destination written `d` ops
//!   ago with `d` geometric (mean = `mean_dep_dist`). Because the window is
//!   larger than the maximum distance, the *architectural* register name
//!   uniquely identifies the intended producer, so the machine's renamer
//!   reconstructs exactly the intended dependence graph;
//! - **memory**: accesses split between a hot working set (strided and
//!   random components) and a cold streaming region that always misses,
//!   with the split modulated by the profile's phase schedule.
//!
//! Each thread's stream is placed at a distinct virtual base address so
//! threads never share data, but they *do* compete for cache capacity —
//! exactly the interference the paper's scheduling policies manage.
//!
//! The generator only generates. A fixed op sequence, such as a machine
//! microtest's script, replays through the trace backend
//! ([`UopStream::scripted`]), the one cyclic replayer.

use crate::seed::SplitMix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smt_isa::codec::{self, ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::{AppProfile, ArchReg, BranchInfo, BranchKind, MemInfo, MicroOp, OpKind, RegClass};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Number of distinct destination registers the generator cycles through per
/// class. Must exceed [`MAX_DEP_DIST`] so dependence distances are exact.
const DST_WINDOW: u8 = 24;

/// Dependence distances are capped here; beyond it the op is independent.
const MAX_DEP_DIST: usize = 20;

/// The dependence distance a uniform draw `u` in [0, 1) maps to under a
/// geometric law with `ln_q` = ln(1 − p): 1 + ⌊ln u / ln q⌋, or `None`
/// (an independent operand) past [`MAX_DEP_DIST`]. A draw of exactly 0
/// has ln u = −∞, an infinite distance, so it is independent too.
fn dep_distance(u: f64, ln_q: f64) -> Option<usize> {
    let k = (u.ln() / ln_q).floor();
    // `k as usize` saturates, so compare before converting: +∞ and every
    // k past the cap are independent.
    if k >= MAX_DEP_DIST as f64 {
        return None;
    }
    Some(1 + k as usize)
}

/// Code region instruction slot size (bytes per op).
const OP_BYTES: u64 = 4;

/// Size of the cold streaming region each thread walks through (wraps).
const COLD_REGION_BYTES: u64 = 64 << 20;

/// Maximum shadow call-stack depth tracked for return targets.
const CALL_STACK_MAX: usize = 16;

/// Trip counts the generator draws for loop-style branch sites.
const LOOP_TRIPS: RangeInclusive<u8> = 4..=32;

/// Per-site branch personality, derived deterministically from the stream
/// seed and the site index, so it is stable across clones and replays.
///
/// Two flavours, matching the two dominant populations in real code:
/// *loop* sites are taken `trip - 1` times then fall through once (a
/// pc-indexed predictor gets `(trip-1)/trip` of them right); *biased*
/// sites follow a dominant direction with probability `branch_bias`.
///
/// Packed into two bytes: a thread holds up to 16,384 sites, and every
/// batch fork and warm-pool machine clones them. Checkpoints keep the
/// wider unpacked form (see the [`Codec`] impl), so the packing changes
/// no snapshot byte.
#[derive(Clone, Copy, Debug)]
struct BranchSite {
    /// Loop trip count in [`LOOP_TRIPS`], or 0 for a biased site.
    trip: u8,
    /// A loop site's iteration position (below `trip`), or a biased
    /// site's dominant direction (1 = taken).
    state: u8,
}

const _: () = assert!(std::mem::size_of::<BranchSite>() == 2);

impl Codec for BranchSite {
    /// The unpacked form: `Option<u16>` loop trip, `u16` position and
    /// `bool` dominant direction (always taken for loop sites).
    fn encode(&self, w: &mut ByteWriter) {
        if self.trip == 0 {
            None::<u16>.encode(w);
            w.u16(0);
            w.bool(self.state == 1);
        } else {
            Some(u16::from(self.trip)).encode(w);
            w.u16(u16::from(self.state));
            w.bool(true);
        }
    }

    /// Rejects every site the generator cannot produce, so a decoded
    /// stream never divides by a zero trip or overflows a position.
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let trip: Option<u16> = Option::decode(r)?;
        let pos = r.u16()?;
        let dominant_taken = r.bool()?;
        let site = match trip {
            None if pos == 0 => Some(BranchSite {
                trip: 0,
                state: u8::from(dominant_taken),
            }),
            Some(t) if dominant_taken && pos < t => u8::try_from(t)
                .ok()
                .filter(|t| LOOP_TRIPS.contains(t))
                .map(|trip| BranchSite {
                    trip,
                    state: pos as u8,
                }),
            _ => None,
        };
        site.ok_or_else(|| {
            CodecError::Invalid(format!(
                "branch site (trip {trip:?}, pos {pos}, dominant taken {dominant_taken}) \
                 is not one the generator makes"
            ))
        })
    }
}

/// Deterministic, cloneable infinite *statistical* micro-op stream for one
/// thread — the synthetic backend behind the [`UopStream`] facade.
#[derive(Clone, Debug)]
pub struct SynthStream {
    profile: Arc<AppProfile>,
    rng: SmallRng,
    /// Per-thread virtual address base; ORed into every address and PC.
    addr_base: u64,

    // control flow
    pc: u64,
    code_size: u64,
    sites: Vec<BranchSite>,
    call_stack: Vec<u64>,
    /// Hot function entry points; most calls go here (code has hot spots —
    /// without this, large-footprint apps walk their code uniformly and
    /// the I-cache mispredicts reality by an order of magnitude).
    hot_entries: Vec<u64>,

    // data flow
    next_dst_int: u8,
    next_dst_fp: u8,
    /// Ring of the last `MAX_DEP_DIST` destination registers, most recent
    /// last. `None` entries are ops without a destination.
    recent_dsts: [Option<ArchReg>; MAX_DEP_DIST],
    recent_head: usize,
    /// Destination of the most recent load: conditional branches test
    /// loaded values half the time (that is *why* hard branches resolve
    /// late and wrong-path waste piles up behind cache misses).
    last_load_dst: Option<ArchReg>,

    // memory
    ws_size: u64,
    /// Hot-subset size for random accesses (80/20 two-level locality).
    ws_hot_size: u64,
    /// Span the strided pointer walks before wrapping: real inner loops
    /// re-walk bounded arrays, not the entire footprint.
    stride_span: u64,
    ws_stride_ptr: u64,
    cold_ptr: u64,

    // phases
    phase_idx: usize,
    phase_left: u64,

    // bookkeeping
    generated: u64,
    /// `(ilp_scale, ln(1 - 1/mean))` of the last dependence-distance draw:
    /// the log depends only on the phase's ILP scale, so it is computed
    /// once per phase instead of once per source operand. Transient (not
    /// serialized) and exact: the memo holds the very `f64` the draw would
    /// compute.
    dep_ln: Option<(f64, f64)>,
}

impl SynthStream {
    /// Create a stream for `profile`, seeded by `seed`, with all addresses
    /// offset by `addr_base` (give each thread a distinct base).
    pub fn new(profile: Arc<AppProfile>, seed: u64, addr_base: u64) -> Self {
        debug_assert!(profile.validate().is_ok());
        let code_size = profile.code_bytes.max(64).next_power_of_two();
        // One site per instruction slot, capped: apps with very large code
        // footprints alias sites, which (realistically) hurts their
        // predictability a little.
        let n_sites = ((code_size / OP_BYTES).max(16) as usize).min(16_384);
        let mut site_seed = SplitMix64::new(SplitMix64::derive(seed, 0xB7A7));
        let sites = (0..n_sites)
            .map(|_| {
                let r = site_seed.next_f64();
                if r < profile.pattern_frac {
                    // Trip counts in LOOP_TRIPS, skewed low like real inner
                    // loops.
                    let trip = 4 + (site_seed.next_u64() % 29).min(site_seed.next_u64() % 29) as u8;
                    BranchSite { trip, state: 0 }
                } else {
                    BranchSite {
                        trip: 0,
                        state: u8::from(site_seed.next_u64() & 1 == 0),
                    }
                }
            })
            .collect();
        let phase_left = profile
            .phases
            .first()
            .map(|p| p.len_uops)
            .unwrap_or(u64::MAX);
        let span_ops = code_size / OP_BYTES;
        let mut entry_seed = SplitMix64::new(SplitMix64::derive(seed, 0xF00D));
        let hot_entries = (0..12)
            .map(|_| ((entry_seed.next_u64() % span_ops) & !63) * OP_BYTES % code_size)
            .collect();
        let ws_size = profile.data_ws_bytes.max(64).next_power_of_two();
        SynthStream {
            rng: SmallRng::seed_from_u64(SplitMix64::derive(seed, 0x57EE)),
            addr_base,
            pc: 0,
            code_size,
            sites,
            call_stack: Vec::with_capacity(CALL_STACK_MAX),
            hot_entries,
            next_dst_int: 0,
            next_dst_fp: 0,
            recent_dsts: [None; MAX_DEP_DIST],
            recent_head: 0,
            last_load_dst: None,
            ws_hot_size: (ws_size / 32).clamp(2 << 10, 8 << 10).min(ws_size),
            stride_span: (ws_size / 8).clamp(4 << 10, 64 << 10).min(ws_size),
            ws_size,
            ws_stride_ptr: 0,
            cold_ptr: 0,
            phase_idx: 0,
            phase_left,
            generated: 0,
            dep_ln: None,
            profile,
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Total micro-ops generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Program counter of the *next* op this stream will generate (with the
    /// thread's address base applied). The fetch stage uses this for the
    /// I-cache access before consuming the op.
    pub fn current_pc(&self) -> u64 {
        self.addr_base | self.pc
    }

    /// The thread's virtual address base.
    pub fn addr_base(&self) -> u64 {
        self.addr_base
    }

    #[inline]
    fn phase(&self) -> (f64, f64, f64, f64) {
        match self.profile.phases.get(self.phase_idx) {
            Some(p) => (p.mem_pressure, p.br_pressure, p.ilp_scale, p.predictability),
            None => (1.0, 1.0, 1.0, 1.0),
        }
    }

    fn advance_phase(&mut self) {
        if self.profile.phases.is_empty() {
            return;
        }
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
            self.phase_left = self.profile.phases[self.phase_idx].len_uops;
        }
    }

    /// Allocate a destination register of `class`, cycling through the
    /// window (offset by 2 to keep r0/r1 as never-written "constant" regs).
    fn alloc_dst(&mut self, class: RegClass) -> ArchReg {
        let ctr = match class {
            RegClass::Int => {
                let c = self.next_dst_int;
                self.next_dst_int = (self.next_dst_int + 1) % DST_WINDOW;
                c
            }
            RegClass::Fp => {
                let c = self.next_dst_fp;
                self.next_dst_fp = (self.next_dst_fp + 1) % DST_WINDOW;
                c
            }
        };
        ArchReg {
            class,
            idx: 2 + ctr,
        }
    }

    /// Pick a source register at a geometric dependence distance, or `None`
    /// for an independent operand (an immediate / long-lived value) — drawn
    /// with probability `indep_frac`, or when the distance draw exceeds the
    /// window.
    fn pick_src(&mut self, ilp_scale: f64, indep_frac: f64) -> Option<ArchReg> {
        if self.rng.gen::<f64>() < indep_frac {
            return None;
        }
        // Geometric with mean `mean`: P(d = k) = (1-p)^(k-1) p, p = 1/mean.
        let ln_q = match self.dep_ln {
            Some((scale, ln_q)) if scale.to_bits() == ilp_scale.to_bits() => ln_q,
            _ => {
                let mean = (self.profile.mean_dep_dist * ilp_scale).max(1.0);
                let p = 1.0 / mean;
                let ln_q = (1.0 - p).max(1e-12).ln();
                self.dep_ln = Some((ilp_scale, ln_q));
                ln_q
            }
        };
        let d = dep_distance(self.rng.gen::<f64>(), ln_q)?;
        // recent_head points at the slot for the *next* push; distance 1 is
        // the most recent.
        let slot = (self.recent_head + MAX_DEP_DIST - d) % MAX_DEP_DIST;
        self.recent_dsts[slot]
    }

    fn push_dst(&mut self, dst: Option<ArchReg>) {
        self.recent_dsts[self.recent_head] = dst;
        self.recent_head = (self.recent_head + 1) % MAX_DEP_DIST;
    }

    /// Generate a data address according to locality parameters.
    fn gen_addr(&mut self, mem_pressure: f64) -> u64 {
        let cold = (self.profile.cold_frac * mem_pressure).min(1.0);
        let off = if self.rng.gen::<f64>() < cold {
            // Streaming through a large cold region: every new line misses.
            self.cold_ptr = (self.cold_ptr + 64) % COLD_REGION_BYTES;
            (1 << 30) + self.cold_ptr
        } else if self.rng.gen::<f64>() < self.profile.stride_frac {
            self.ws_stride_ptr = (self.ws_stride_ptr + 8) % self.stride_span;
            self.ws_stride_ptr
        } else if self.rng.gen::<f64>() < 0.8 {
            // Two-level locality: most random accesses hit a hot subset.
            (self.rng.gen::<u64>() % self.ws_hot_size) & !7
        } else {
            (self.rng.gen::<u64>() % self.ws_size) & !7
        };
        self.addr_base | off
    }

    fn site_for(&self, pc: u64) -> usize {
        ((pc / OP_BYTES) as usize) % self.sites.len()
    }

    /// Resolve the direction of the conditional branch at `pc`;
    /// `predictability` is the current phase's learnable fraction.
    fn branch_outcome(&mut self, pc: u64, predictability: f64) -> bool {
        if predictability < 1.0 && self.rng.gen::<f64>() >= predictability {
            // Storm outcome: pure noise, unlearnable by any predictor.
            return self.rng.gen::<bool>();
        }
        let idx = self.site_for(pc);
        let site = &mut self.sites[idx];
        if site.trip == 0 {
            let follow = self.rng.gen::<f64>() < self.profile.branch_bias;
            site.state == u8::from(follow)
        } else {
            // Taken trip-1 times, then the loop exit.
            site.state = (site.state + 1) % site.trip;
            site.state != 0
        }
    }

    /// Pick a conditional-branch target: mostly short backward loops, some
    /// forward skips — both stay inside the code region.
    fn cond_target(&mut self, pc: u64) -> u64 {
        let span_ops = self.code_size / OP_BYTES;
        if self.rng.gen::<f64>() < 0.6 {
            let back = 4 + self.rng.gen::<u64>() % 60; // loop body 4..64 ops
            pc.wrapping_sub(back * OP_BYTES) % self.code_size
        } else {
            let fwd = 2 + self.rng.gen::<u64>() % 30;
            ((pc / OP_BYTES + fwd) % span_ops) * OP_BYTES
        }
    }

    /// Serialize the complete generator state for checkpointing. Decoding
    /// with [`decode_state`](Self::decode_state) yields a stream whose
    /// future output is bit-identical to this one's. The state ends with
    /// two slots that are always zero (`u8` 0, `u64` 0): they keep the
    /// byte layout that machine snapshot fingerprints and the snapshot
    /// `FORMAT_VERSION` pin.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        codec::encode_json(w, self.profile.as_ref());
        self.rng.state().encode(w);
        w.u64(self.addr_base);
        w.u64(self.pc);
        w.u64(self.code_size);
        self.sites.encode(w);
        self.call_stack.encode(w);
        self.hot_entries.encode(w);
        w.u8(self.next_dst_int);
        w.u8(self.next_dst_fp);
        self.recent_dsts.encode(w);
        w.usize(self.recent_head);
        self.last_load_dst.encode(w);
        w.u64(self.ws_size);
        w.u64(self.ws_hot_size);
        w.u64(self.stride_span);
        w.u64(self.ws_stride_ptr);
        w.u64(self.cold_ptr);
        w.usize(self.phase_idx);
        w.u64(self.phase_left);
        w.u64(self.generated);
        w.u8(0);
        w.u64(0);
    }

    /// Rebuild a stream from [`encode_state`](Self::encode_state) bytes.
    /// A nonzero retired slot is [`CodecError::Invalid`].
    pub fn decode_state(r: &mut ByteReader) -> Result<Self, CodecError> {
        let profile: AppProfile = codec::decode_json(r)?;
        let rng = SmallRng::from_state(<[u64; 4]>::decode(r)?);
        let addr_base = r.u64()?;
        let pc = r.u64()?;
        let code_size = r.u64()?;
        let sites: Vec<BranchSite> = Vec::decode(r)?;
        if sites.is_empty() {
            return Err(CodecError::Invalid("stream has no branch sites".into()));
        }
        let stream = SynthStream {
            profile: Arc::new(profile),
            rng,
            addr_base,
            pc,
            code_size,
            sites,
            call_stack: Vec::decode(r)?,
            hot_entries: Vec::decode(r)?,
            next_dst_int: r.u8()?,
            next_dst_fp: r.u8()?,
            recent_dsts: <[Option<ArchReg>; MAX_DEP_DIST]>::decode(r)?,
            recent_head: r.usize()?,
            last_load_dst: Option::decode(r)?,
            ws_size: r.u64()?,
            ws_hot_size: r.u64()?,
            stride_span: r.u64()?,
            ws_stride_ptr: r.u64()?,
            cold_ptr: r.u64()?,
            phase_idx: r.usize()?,
            phase_left: r.u64()?,
            generated: r.u64()?,
            dep_ln: None,
        };
        if (r.u8()?, r.u64()?) != (0, 0) {
            return Err(CodecError::Invalid(
                "synthetic stream carries a retired script slot".into(),
            ));
        }
        Ok(stream)
    }

    /// Generate the next micro-op.
    pub fn next_uop(&mut self) -> MicroOp {
        let (mem_p, br_p, ilp_s, predictability) = self.phase();
        // Copy the profile fields out, so reading them holds no borrow of
        // `self` across the mutating helper calls below.
        let AppProfile {
            branch_frac,
            jump_frac,
            load_frac,
            store_frac,
            fp_frac,
            mul_frac,
            div_frac,
            syscall_per_muop,
            src_indep_frac,
            addr_indep_frac,
            ..
        } = *self.profile;

        let branch_frac = (branch_frac * br_p).min(0.5);
        let r: f64 = self.rng.gen();
        let syscall_p = syscall_per_muop / 1.0e6;

        let pc = self.addr_base | self.pc;
        let mut next_pc = (self.pc + OP_BYTES) % self.code_size;

        // Local snapshot of per-branch probabilities to keep the cascade
        // readable. Order: syscall, cond-branch, jump, load, store, compute.
        let jump_hi = syscall_p + branch_frac + jump_frac;
        let load_hi = jump_hi + load_frac;
        let store_hi = load_hi + store_frac;

        let (kind, dst, src1, src2, mem, branch) = if r < syscall_p {
            (OpKind::Syscall, None, None, None, None, None)
        } else if r < syscall_p + branch_frac {
            let taken = self.branch_outcome(self.pc, predictability);
            let target_off = self.cond_target(self.pc);
            if taken {
                next_pc = target_off;
            }
            let s1 = if self.rng.gen::<f64>() < 0.5 && self.last_load_dst.is_some() {
                self.last_load_dst
            } else {
                self.pick_src(ilp_s, src_indep_frac)
            };
            (
                OpKind::Branch,
                None,
                s1,
                None,
                None,
                Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: self.addr_base | target_off,
                }),
            )
        } else if r < jump_hi {
            // Unconditional control: call / return / direct jump.
            let u: f64 = self.rng.gen();
            let (bk, target_off) = if u < 0.35 && self.call_stack.len() < CALL_STACK_MAX {
                // Call: usually one of the hot functions, occasionally a
                // cold one (85/15 — code has hot spots).
                let entry = if self.rng.gen::<f64>() < 0.85 {
                    let i = (self.rng.gen::<u64>() as usize) % self.hot_entries.len();
                    self.hot_entries[i]
                } else {
                    let span_ops = self.code_size / OP_BYTES;
                    ((self.rng.gen::<u64>() % span_ops) & !63) * OP_BYTES % self.code_size
                };
                self.call_stack.push(next_pc);
                (BranchKind::Call, entry)
            } else if u < 0.70 {
                match self.call_stack.pop() {
                    Some(ret) => (BranchKind::Return, ret),
                    None => (BranchKind::Unconditional, self.cond_target(self.pc)),
                }
            } else {
                (BranchKind::Unconditional, self.cond_target(self.pc))
            };
            next_pc = target_off;
            (
                OpKind::Branch,
                None,
                None,
                None,
                None,
                Some(BranchInfo {
                    kind: bk,
                    taken: true,
                    target: self.addr_base | target_off,
                }),
            )
        } else if r < load_hi {
            let addr = self.gen_addr(mem_p);
            let class = if self.rng.gen::<f64>() < fp_frac {
                RegClass::Fp
            } else {
                RegClass::Int
            };
            let dst = self.alloc_dst(class);
            self.last_load_dst = Some(dst);
            let s1 = self.pick_src(ilp_s, addr_indep_frac);
            (
                OpKind::Load,
                Some(dst),
                s1,
                None,
                Some(MemInfo { addr, size: 8 }),
                None,
            )
        } else if r < store_hi {
            let addr = self.gen_addr(mem_p);
            let s1 = self.pick_src(ilp_s, addr_indep_frac); // address
            let s2 = self.pick_src(ilp_s, src_indep_frac); // data
            (
                OpKind::Store,
                None,
                s1,
                s2,
                Some(MemInfo { addr, size: 8 }),
                None,
            )
        } else {
            // Compute op.
            let fp = self.rng.gen::<f64>() < fp_frac;
            let u: f64 = self.rng.gen();
            let kind = if u < div_frac {
                if fp {
                    OpKind::FpDiv
                } else {
                    OpKind::IntDiv
                }
            } else if u < div_frac + mul_frac {
                if fp {
                    OpKind::FpMul
                } else {
                    OpKind::IntMul
                }
            } else if fp {
                OpKind::FpAlu
            } else {
                OpKind::IntAlu
            };
            let class = if fp { RegClass::Fp } else { RegClass::Int };
            let dst = self.alloc_dst(class);
            let s1 = self.pick_src(ilp_s, src_indep_frac);
            let s2 = self.pick_src(ilp_s, src_indep_frac);
            (kind, Some(dst), s1, s2, None, None)
        };

        self.push_dst(dst);
        self.pc = next_pc;
        self.generated += 1;
        self.advance_phase();

        let op = MicroOp {
            kind,
            pc,
            dst,
            src1,
            src2,
            mem,
            branch,
        };
        debug_assert!(
            op.is_well_formed(),
            "generator produced ill-formed op {op:?}"
        );
        op
    }
}

impl Iterator for SynthStream {
    type Item = MicroOp;
    fn next(&mut self) -> Option<MicroOp> {
        Some(self.next_uop())
    }
}

/// Backend tag leading every serialized [`UopStream`] state.
const STATE_TAG_SYNTH: u8 = 0;
const STATE_TAG_TRACE: u8 = 1;

/// A per-thread micro-op source: either the statistical generator
/// ([`SynthStream`]) or a recorded-trace replayer
/// ([`TraceStream`](crate::trace::TraceStream)). The machine, the warm
/// pool and the batch stepper all hold this facade, so every simulator
/// feature works identically over both backends.
///
/// ```
/// use smt_workloads::{app, thread_addr_base, UopStream};
/// use std::sync::Arc;
///
/// let mut stream = UopStream::new(Arc::new(app("gzip")), 42, thread_addr_base(0));
/// let op = stream.next_uop();
/// assert!(op.is_well_formed());
/// ```
// The synthetic variant dominates the size, but boxing it would put a
// pointer chase on the default backend's per-op hot path for the sake of
// a handful of per-thread instances — not a trade worth making.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum UopStream {
    Synth(SynthStream),
    Trace(crate::trace::TraceStream),
}

impl UopStream {
    /// A synthetic stream for `profile` (see [`SynthStream::new`]).
    pub fn new(profile: Arc<AppProfile>, seed: u64, addr_base: u64) -> Self {
        UopStream::Synth(SynthStream::new(profile, seed, addr_base))
    }

    /// A stream that replays `ops` cyclically, for machine microtests: a
    /// [`TraceStream`](crate::trace::TraceStream) over `ops`. The ops'
    /// `pc` fields should already carry the thread's address base;
    /// `profile` only provides metadata (working-set size for the
    /// wrong-path generator). Panics on an empty op list.
    pub fn scripted(profile: Arc<AppProfile>, addr_base: u64, ops: Vec<MicroOp>) -> Self {
        UopStream::Trace(crate::trace::TraceStream::replay(
            profile,
            addr_base,
            Arc::new(ops),
        ))
    }

    /// The profile describing this stream's application (replay carries the
    /// captured profile, so the wrong-path generator and thread metadata
    /// behave identically over both backends).
    pub fn profile(&self) -> &AppProfile {
        match self {
            UopStream::Synth(s) => s.profile(),
            UopStream::Trace(t) => t.profile(),
        }
    }

    /// Total micro-ops this stream has handed out.
    pub fn generated(&self) -> u64 {
        match self {
            UopStream::Synth(s) => s.generated(),
            UopStream::Trace(t) => t.generated(),
        }
    }

    /// Program counter of the *next* op (address base applied).
    pub fn current_pc(&self) -> u64 {
        match self {
            UopStream::Synth(s) => s.current_pc(),
            UopStream::Trace(t) => t.current_pc(),
        }
    }

    /// The thread's virtual address base.
    pub fn addr_base(&self) -> u64 {
        match self {
            UopStream::Synth(s) => s.addr_base(),
            UopStream::Trace(t) => t.addr_base(),
        }
    }

    /// Generate or replay the next micro-op.
    pub fn next_uop(&mut self) -> MicroOp {
        match self {
            UopStream::Synth(s) => s.next_uop(),
            UopStream::Trace(t) => t.next_uop(),
        }
    }

    /// Serialize the stream (backend tag + backend state) for
    /// checkpointing. Decoding yields a stream whose future output is
    /// bit-identical to this one's.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        match self {
            UopStream::Synth(s) => {
                w.u8(STATE_TAG_SYNTH);
                s.encode_state(w);
            }
            UopStream::Trace(t) => {
                w.u8(STATE_TAG_TRACE);
                t.encode_state(w);
            }
        }
    }

    /// Rebuild a stream from [`encode_state`](Self::encode_state) bytes.
    pub fn decode_state(r: &mut ByteReader) -> Result<Self, CodecError> {
        match r.u8()? {
            STATE_TAG_SYNTH => Ok(UopStream::Synth(SynthStream::decode_state(r)?)),
            STATE_TAG_TRACE => Ok(UopStream::Trace(crate::trace::TraceStream::decode_state(
                r,
            )?)),
            tag => Err(CodecError::BadTag {
                what: "UopStream backend",
                tag: tag as u64,
            }),
        }
    }
}

impl From<SynthStream> for UopStream {
    fn from(s: SynthStream) -> Self {
        UopStream::Synth(s)
    }
}

impl From<crate::trace::TraceStream> for UopStream {
    fn from(t: crate::trace::TraceStream) -> Self {
        UopStream::Trace(t)
    }
}

impl Iterator for UopStream {
    type Item = MicroOp;
    fn next(&mut self) -> Option<MicroOp> {
        Some(self.next_uop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::AppProfile;

    fn stream_of(p: AppProfile, seed: u64) -> UopStream {
        UopStream::new(Arc::new(p), seed, 0x1_0000_0000)
    }

    fn default_stream(seed: u64) -> UopStream {
        stream_of(AppProfile::builder("t").build(), seed)
    }

    #[test]
    fn dep_distance_saturates_a_zero_draw_to_independent() {
        let ln_q = (1.0f64 - 1.0 / 4.0).ln();
        assert_eq!(dep_distance(0.0, ln_q), None, "ln 0 = -inf: no distance");
        // 1 + floor(ln u / ln q): u = 0.9 gives 1, q itself gives 2, and
        // q^20 is the first draw past the cap.
        assert_eq!(dep_distance(0.9, ln_q), Some(1));
        assert_eq!(dep_distance(0.75, ln_q), Some(2));
        assert_eq!(dep_distance(0.75f64.powi(19) * 0.999, ln_q), Some(20));
        assert_eq!(dep_distance(0.75f64.powi(20) * 0.999, ln_q), None);
        assert_eq!(dep_distance(f64::MIN_POSITIVE, ln_q), None);
    }

    #[test]
    fn all_ops_well_formed() {
        let mut s = default_stream(1);
        for _ in 0..20_000 {
            assert!(s.next_uop().is_well_formed());
        }
    }

    #[test]
    fn deterministic_replay() {
        let mut a = default_stream(7);
        let mut b = default_stream(7);
        for _ in 0..10_000 {
            assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    #[test]
    fn clone_preserves_future() {
        let mut a = default_stream(9);
        for _ in 0..5_000 {
            a.next_uop();
        }
        let mut b = a.clone();
        for _ in 0..5_000 {
            assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    #[test]
    fn mix_fractions_hit_targets() {
        let p = AppProfile::builder("mix")
            .branch_frac(0.15)
            .load_frac(0.25)
            .store_frac(0.10)
            .build();
        let mut s = stream_of(p, 3);
        let n = 200_000;
        let (mut br, mut ld, mut st) = (0u32, 0u32, 0u32);
        for _ in 0..n {
            let op = s.next_uop();
            match op.kind {
                OpKind::Branch if op.is_cond_branch() => br += 1,
                OpKind::Load => ld += 1,
                OpKind::Store => st += 1,
                _ => {}
            }
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(br) - 0.15).abs() < 0.01, "branch frac {}", f(br));
        assert!((f(ld) - 0.25).abs() < 0.01, "load frac {}", f(ld));
        assert!((f(st) - 0.10).abs() < 0.01, "store frac {}", f(st));
    }

    #[test]
    fn dependence_sources_were_recently_written() {
        // Any named source must have been a destination within the last
        // MAX_DEP_DIST ops — that is the contract that makes renaming
        // reconstruct the intended dependence. The one exception is a
        // conditional branch testing the most recent *load* result, which
        // may lie further back.
        let mut s = default_stream(11);
        let mut recent: Vec<Option<ArchReg>> = Vec::new();
        let mut last_load: Option<ArchReg> = None;
        for _ in 0..50_000 {
            let op = s.next_uop();
            for src in [op.src1, op.src2].into_iter().flatten() {
                let hit = recent
                    .iter()
                    .rev()
                    .take(MAX_DEP_DIST)
                    .any(|d| *d == Some(src))
                    || (op.is_cond_branch() && last_load == Some(src));
                assert!(
                    hit,
                    "source {src} not written in the last {MAX_DEP_DIST} ops"
                );
            }
            recent.push(op.dst);
            if op.kind == OpKind::Load {
                last_load = op.dst;
            }
        }
    }

    #[test]
    fn addresses_carry_thread_base() {
        let mut s = UopStream::new(Arc::new(AppProfile::builder("t").build()), 5, 0x7_0000_0000);
        for _ in 0..10_000 {
            let op = s.next_uop();
            if let Some(m) = op.mem {
                assert_eq!(m.addr & 0x7_0000_0000, 0x7_0000_0000);
            }
            assert_eq!(op.pc & 0x7_0000_0000, 0x7_0000_0000);
        }
    }

    #[test]
    fn cold_fraction_scales_with_phase_pressure() {
        let base = AppProfile::builder("ph")
            .cold_frac(0.05)
            .phases(vec![
                smt_isa::Phase::neutral(50_000),
                smt_isa::Phase::mem_storm(50_000, 8.0),
            ])
            .build();
        let mut s = stream_of(base, 13);
        let cold_in = |s: &mut UopStream, n: u64| {
            let (mut cold, mut mem) = (0u64, 0u64);
            for _ in 0..n {
                if let Some(m) = s.next_uop().mem {
                    mem += 1;
                    if m.addr & (1 << 30) != 0 {
                        cold += 1;
                    }
                }
            }
            cold as f64 / mem.max(1) as f64
        };
        let quiet = cold_in(&mut s, 50_000);
        let loud = cold_in(&mut s, 50_000);
        assert!(
            loud > 3.0 * quiet,
            "phase pressure had no effect: {quiet} vs {loud}"
        );
    }

    #[test]
    fn branch_targets_in_code_region() {
        let p = AppProfile::builder("code").code_bytes(4096).build();
        let code_size = 4096u64;
        let mut s = stream_of(p, 17);
        for _ in 0..20_000 {
            let op = s.next_uop();
            if let Some(b) = op.branch {
                let off = b.target & 0xFFFF_FFFF;
                assert!(off < code_size, "target offset {off} outside code region");
            }
        }
    }

    #[test]
    fn loop_sites_are_periodic() {
        // With pattern_frac = 1 every branch site behaves like a loop
        // branch: taken trip-1 times, not-taken once, repeating.
        let p = AppProfile::builder("pat")
            .pattern_frac(1.0)
            .branch_frac(0.3)
            .code_bytes(1024) // small code so individual sites get hot
            .build();
        let mut s = stream_of(p, 19);
        use std::collections::HashMap;
        let mut hist: HashMap<u64, Vec<bool>> = HashMap::new();
        for _ in 0..200_000 {
            let op = s.next_uop();
            if op.is_cond_branch() {
                hist.entry(op.pc)
                    .or_default()
                    .push(op.branch.unwrap().taken);
            }
        }
        let (_, seq) = hist.iter().max_by_key(|(_, v)| v.len()).unwrap();
        assert!(seq.len() > 64, "no hot branch site found");
        // Not-taken events must be evenly spaced (the loop exits).
        let exits: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter(|(_, t)| !**t)
            .map(|(i, _)| i)
            .collect();
        assert!(exits.len() >= 2, "loop site never exits: {seq:?}");
        let gaps: Vec<usize> = exits.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[0] == w[1]),
            "irregular loop exits: {gaps:?}"
        );
        // Majority taken.
        let taken = seq.iter().filter(|t| **t).count();
        assert!(taken * 2 > seq.len(), "loop site not majority-taken");
    }

    #[test]
    fn syscalls_at_configured_rate() {
        let p = AppProfile::builder("sys").syscall_per_muop(500.0).build();
        let mut s = stream_of(p, 23);
        let n = 200_000;
        let count = (0..n)
            .filter(|_| s.next_uop().kind == OpKind::Syscall)
            .count();
        let per_muop = count as f64 * 1.0e6 / n as f64;
        assert!((per_muop - 500.0).abs() < 120.0, "syscall rate {per_muop}");
    }

    #[test]
    fn scripted_stream_replays_cyclically() {
        let ops = vec![MicroOp::nop(0x100), MicroOp::nop(0x104)];
        let mut s = UopStream::scripted(Arc::new(AppProfile::builder("t").build()), 0, ops);
        assert_eq!(s.current_pc(), 0x100);
        assert_eq!(s.next_uop().pc, 0x100);
        assert_eq!(s.current_pc(), 0x104);
        assert_eq!(s.next_uop().pc, 0x104);
        assert_eq!(s.next_uop().pc, 0x100, "script must cycle");
        assert_eq!(s.generated(), 3);
    }

    #[test]
    #[should_panic]
    fn empty_script_panics() {
        let _ = UopStream::scripted(Arc::new(AppProfile::builder("t").build()), 0, vec![]);
    }

    #[test]
    fn encoded_state_resumes_identically() {
        let mut a = default_stream(31);
        for _ in 0..7_500 {
            a.next_uop();
        }
        let mut w = ByteWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut b = UopStream::decode_state(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        let mut again = ByteWriter::new();
        b.encode_state(&mut again);
        assert!(again.into_bytes() == bytes, "re-encoding changed the bytes");
        assert_eq!(b.generated(), a.generated());
        assert_eq!(b.current_pc(), a.current_pc());
        for _ in 0..7_500 {
            assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    #[test]
    fn scripted_state_roundtrips() {
        let ops = vec![MicroOp::nop(0x100), MicroOp::nop(0x104)];
        let mut s = UopStream::scripted(Arc::new(AppProfile::builder("t").build()), 0, ops);
        s.next_uop();
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = UopStream::decode_state(&mut ByteReader::new(&bytes)).expect("decode");
        assert_eq!(b.current_pc(), 0x104);
        assert_eq!(b.next_uop().pc, 0x104);
        assert_eq!(b.next_uop().pc, 0x100);
    }

    #[test]
    fn retired_script_slots_must_be_zero() {
        let s = default_stream(43);
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        // The state ends with the retired `u8` and `u64` slots.
        let slots = bytes.len() - 9;
        assert!(bytes[slots..] == [0; 9]);
        for at in [slots, slots + 1, bytes.len() - 1] {
            let mut patched = bytes.clone();
            patched[at] = 1;
            assert!(
                matches!(
                    UopStream::decode_state(&mut ByteReader::new(&patched)),
                    Err(CodecError::Invalid(_))
                ),
                "accepted a nonzero retired slot at byte {at}"
            );
        }
    }

    #[test]
    fn truncated_state_is_an_error() {
        let s = default_stream(37);
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len() / 2;
        assert!(UopStream::decode_state(&mut ByteReader::new(&bytes[..cut])).is_err());
    }

    #[test]
    fn invalid_branch_sites_are_errors() {
        // 1 KiB of code: 256 branch sites.
        let s = stream_of(AppProfile::builder("t").code_bytes(1024).build(), 41);
        let UopStream::Synth(synth) = &s else {
            unreachable!("stream_of builds a synthetic stream")
        };
        assert_eq!(synth.sites.len(), 256);
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        // The first site follows the backend tag, the profile, the rng
        // state, three u64 fields and the site count.
        let mut head = ByteWriter::new();
        head.u8(STATE_TAG_SYNTH);
        codec::encode_json(&mut head, synth.profile());
        synth.rng.state().encode(&mut head);
        for v in [synth.addr_base, synth.pc, synth.code_size] {
            head.u64(v);
        }
        head.usize(synth.sites.len());
        let mut first = ByteWriter::new();
        synth.sites[0].encode(&mut first);
        let (at, end) = (head.len(), head.len() + first.len());
        assert!(bytes[..end] == [head.as_bytes(), first.as_bytes()].concat());

        let decode_with_first_site = |trip: Option<u16>, pos: u16, dominant_taken: bool| {
            let mut site = ByteWriter::new();
            trip.encode(&mut site);
            site.u16(pos);
            site.bool(dominant_taken);
            let patched = [&bytes[..at], site.as_bytes(), &bytes[end..]].concat();
            UopStream::decode_state(&mut ByteReader::new(&patched))
        };
        // Shapes the generator makes decode...
        assert!(decode_with_first_site(Some(4), 3, true).is_ok());
        assert!(decode_with_first_site(Some(32), 0, true).is_ok());
        assert!(decode_with_first_site(None, 0, false).is_ok());
        // ...and every other shape is a typed error, not a later panic.
        for (trip, pos, dominant_taken) in [
            (Some(0), 0, true),
            (Some(8), 8, true),
            (Some(8), u16::MAX, true),
            (Some(8), 0, false),
            (Some(3), 0, true),
            (Some(33), 0, true),
            (None, 1, true),
        ] {
            assert!(
                decode_with_first_site(trip, pos, dominant_taken).is_err(),
                "accepted site (trip {trip:?}, pos {pos}, dominant taken {dominant_taken})"
            );
        }
    }

    #[test]
    fn generated_counter_advances() {
        let mut s = default_stream(29);
        assert_eq!(s.generated(), 0);
        for _ in 0..10 {
            s.next_uop();
        }
        assert_eq!(s.generated(), 10);
    }
}
