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

use crate::seed::{unit_bound, SplitMix64};
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
///
/// `x` = ln u / ln q is never negative (ln u ≤ 0 and ln q < 0) and never
/// NaN (ln q is finite), so `x < MAX` and `x as usize` are exact stand-ins
/// for ⌊x⌋ < MAX and ⌊x⌋: no `floor`, which baseline x86-64 compiles to a
/// library call.
#[inline]
fn dep_distance(u: f64, ln_q: f64) -> Option<usize> {
    let x = u.ln() / ln_q;
    if x < MAX_DEP_DIST as f64 {
        Some(1 + x as usize)
    } else {
        None
    }
}

/// Code region instruction slot size (bytes per op).
const OP_BYTES: u64 = 4;

/// Size of the cold streaming region each thread walks through (wraps).
const COLD_REGION_BYTES: u64 = 64 << 20;

/// Maximum shadow call-stack depth tracked for return targets.
const CALL_STACK_MAX: usize = 16;

/// Hot function entry points per stream.
const HOT_ENTRIES: usize = 12;

/// Hot entries sit on 64-op (256-byte) boundaries of the code region.
const HOT_ENTRY_ALIGN: u64 = 64 * OP_BYTES;

/// Trip counts the generator draws for loop-style branch sites.
const LOOP_TRIPS: RangeInclusive<u8> = 4..=32;

/// The generator's fixed probabilities, as [`unit_bound`]s of its 53-bit
/// draws: a conditional branch tests the last load's result, a jump is a
/// call (then a return), a call goes to a hot entry, a conditional branch
/// jumps back, and a random access stays in the hot subset.
const TEST_LAST_LOAD: u64 = unit_bound(0.5);
const CALL: u64 = unit_bound(0.35);
const RETURN: u64 = unit_bound(0.70);
const HOT_CALL: u64 = unit_bound(0.85);
const BACKWARD: u64 = unit_bound(0.6);
const HOT_ACCESS: u64 = unit_bound(0.8);

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

/// The sizes [`SynthStream::new`] derives from a profile. Each is a power
/// of two, so the generator wraps every cursor and offset with a mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    code_size: u64,
    /// Branch sites: one per instruction slot, from 16 to 16,384.
    n_sites: usize,
    ws_size: u64,
    ws_hot_size: u64,
    stride_span: u64,
}

impl Layout {
    /// `None` when a footprint has no power of two above it in a `u64`.
    fn of(profile: &AppProfile) -> Option<Layout> {
        let code_size = profile.code_bytes.max(64).checked_next_power_of_two()?;
        let ws_size = profile.data_ws_bytes.max(64).checked_next_power_of_two()?;
        Some(Layout {
            code_size,
            // Apps with very large code footprints alias sites, which
            // (realistically) hurts their predictability a little.
            n_sites: ((code_size / OP_BYTES).max(16) as usize).min(16_384),
            ws_size,
            // Two-level locality: an 80/20 hot subset for random accesses.
            ws_hot_size: (ws_size / 32).clamp(2 << 10, 8 << 10).min(ws_size),
            // Real inner loops re-walk bounded arrays, not the footprint.
            stride_span: (ws_size / 8).clamp(4 << 10, 64 << 10).min(ws_size),
        })
    }
}

/// Every probability one phase of a stream compares a draw against, as
/// the exact bound of its 53-bit draw ([`unit_bound`]), plus the
/// dependence-distance log. A pure function of the profile and the phase
/// index: transient (never serialized), rebuilt at each phase change and
/// on decode, so the per-op path derives nothing.
#[derive(Clone, Copy, Debug)]
struct PhaseBounds {
    /// The op-kind cascade's cumulative bounds, compared in this order.
    syscall: u64,
    cond_branch: u64,
    jump: u64,
    load: u64,
    store: u64,
    /// A conditional branch follows its site unless the draw passes this
    /// bound; `None` when the phase is fully predictable (no draw).
    predictable: Option<u64>,
    branch_bias: u64,
    cold: u64,
    stride: u64,
    fp: u64,
    /// Compute-op divides, then divides and multiplies together.
    div: u64,
    div_mul: u64,
    src_indep: u64,
    addr_indep: u64,
    /// ln(1 − 1/mean) of the phase's geometric dependence distance.
    ln_q: f64,
}

impl PhaseBounds {
    fn new(profile: &AppProfile, phase_idx: usize) -> Self {
        Self::with_bound(profile, phase_idx, unit_bound)
    }

    /// The bounds of phase `phase_idx` (neutral past the schedule), each
    /// probability mapped through `bound`. The sums are added in the
    /// order the cascade of `next_uop` compares them, so every bound is
    /// that of the very `f64` the comparison used to read.
    fn with_bound(p: &AppProfile, phase_idx: usize, mut bound: impl FnMut(f64) -> u64) -> Self {
        let (mem_p, br_p, ilp_s, predictability) = match p.phases.get(phase_idx) {
            Some(ph) => (
                ph.mem_pressure,
                ph.br_pressure,
                ph.ilp_scale,
                ph.predictability,
            ),
            None => (1.0, 1.0, 1.0, 1.0),
        };
        let syscall_p = p.syscall_per_muop / 1.0e6;
        let branch_frac = (p.branch_frac * br_p).min(0.5);
        let jump_hi = syscall_p + branch_frac + p.jump_frac;
        let load_hi = jump_hi + p.load_frac;
        let mean = (p.mean_dep_dist * ilp_s).max(1.0);
        PhaseBounds {
            syscall: bound(syscall_p),
            cond_branch: bound(syscall_p + branch_frac),
            jump: bound(jump_hi),
            load: bound(load_hi),
            store: bound(load_hi + p.store_frac),
            predictable: (predictability < 1.0).then(|| bound(predictability)),
            branch_bias: bound(p.branch_bias),
            cold: bound((p.cold_frac * mem_p).min(1.0)),
            stride: bound(p.stride_frac),
            fp: bound(p.fp_frac),
            div: bound(p.div_frac),
            div_mul: bound(p.div_frac + p.mul_frac),
            src_indep: bound(p.src_indep_frac),
            addr_indep: bound(p.addr_indep_frac),
            ln_q: (1.0 - 1.0 / mean).max(1e-12).ln(),
        }
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
    hot_entries: [u64; HOT_ENTRIES],

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
    /// Span the strided pointer walks before wrapping.
    stride_span: u64,
    ws_stride_ptr: u64,
    cold_ptr: u64,

    // phases
    phase_idx: usize,
    phase_left: u64,
    /// The current phase's draw bounds (transient).
    bounds: PhaseBounds,

    // bookkeeping
    generated: u64,
}

impl SynthStream {
    /// Create a stream for `profile`, seeded by `seed`, with all addresses
    /// offset by `addr_base` (give each thread a distinct base).
    pub fn new(profile: Arc<AppProfile>, seed: u64, addr_base: u64) -> Self {
        debug_assert!(profile.validate().is_ok());
        let layout = Layout::of(&profile).expect("footprints fit a u64");
        let code_size = layout.code_size;
        let mut site_seed = SplitMix64::new(SplitMix64::derive(seed, 0xB7A7));
        let sites = (0..layout.n_sites)
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
        let hot_entries = std::array::from_fn(|_| {
            ((entry_seed.next_u64() % span_ops) & !63) * OP_BYTES % code_size
        });
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
            ws_hot_size: layout.ws_hot_size,
            stride_span: layout.stride_span,
            ws_size: layout.ws_size,
            ws_stride_ptr: 0,
            cold_ptr: 0,
            phase_idx: 0,
            phase_left,
            bounds: PhaseBounds::new(&profile, 0),
            generated: 0,
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

    /// The next 53-bit uniform draw, `m` of `u = m·2⁻⁵³`: the same
    /// generator step `gen::<f64>()` takes, compared against a bound.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    fn advance_phase(&mut self) {
        if self.profile.phases.is_empty() {
            return;
        }
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
            self.phase_left = self.profile.phases[self.phase_idx].len_uops;
            self.bounds = PhaseBounds::new(&self.profile, self.phase_idx);
        }
    }

    /// Allocate a destination register of `class`, cycling through the
    /// window (offset by 2 to keep r0/r1 as never-written "constant" regs).
    fn alloc_dst(&mut self, class: RegClass) -> ArchReg {
        let ctr = match class {
            RegClass::Int => &mut self.next_dst_int,
            RegClass::Fp => &mut self.next_dst_fp,
        };
        let c = *ctr;
        *ctr = if c + 1 == DST_WINDOW { 0 } else { c + 1 };
        ArchReg { class, idx: 2 + c }
    }

    /// Pick a source register at a geometric dependence distance, or `None`
    /// for an independent operand (an immediate / long-lived value) — drawn
    /// below `indep`, or when the distance draw exceeds the window.
    fn pick_src(&mut self, indep: u64) -> Option<ArchReg> {
        if self.draw() < indep {
            return None;
        }
        // Geometric with mean `mean`: P(d = k) = (1-p)^(k-1) p, p = 1/mean.
        let d = dep_distance(self.rng.gen::<f64>(), self.bounds.ln_q)?;
        // recent_head points at the slot for the *next* push; distance 1 is
        // the most recent.
        let slot = if self.recent_head >= d {
            self.recent_head - d
        } else {
            self.recent_head + MAX_DEP_DIST - d
        };
        self.recent_dsts[slot]
    }

    fn push_dst(&mut self, dst: Option<ArchReg>) {
        self.recent_dsts[self.recent_head] = dst;
        self.recent_head = if self.recent_head + 1 == MAX_DEP_DIST {
            0
        } else {
            self.recent_head + 1
        };
    }

    /// Generate a data address according to locality parameters.
    fn gen_addr(&mut self) -> u64 {
        let off = if self.draw() < self.bounds.cold {
            // Streaming through a large cold region: every new line misses.
            self.cold_ptr = (self.cold_ptr + 64) % COLD_REGION_BYTES;
            (1 << 30) + self.cold_ptr
        } else if self.draw() < self.bounds.stride {
            self.ws_stride_ptr = (self.ws_stride_ptr + 8) & (self.stride_span - 1);
            self.ws_stride_ptr
        } else if self.draw() < HOT_ACCESS {
            // Two-level locality: most random accesses hit a hot subset.
            self.rng.next_u64() & (self.ws_hot_size - 1) & !7
        } else {
            self.rng.next_u64() & (self.ws_size - 1) & !7
        };
        self.addr_base | off
    }

    /// Resolve the direction of the conditional branch at `pc`.
    fn branch_outcome(&mut self, pc: u64) -> bool {
        if let Some(predictable) = self.bounds.predictable {
            if self.draw() >= predictable {
                // Storm outcome: pure noise, unlearnable by any predictor.
                return self.rng.gen::<bool>();
            }
        }
        let idx = ((pc / OP_BYTES) as usize) & (self.sites.len() - 1);
        let BranchSite { trip, state } = self.sites[idx];
        if trip == 0 {
            let follow = self.draw() < self.bounds.branch_bias;
            state == u8::from(follow)
        } else {
            // Taken trip-1 times, then the loop exit.
            let state = if state + 1 == trip { 0 } else { state + 1 };
            self.sites[idx].state = state;
            state != 0
        }
    }

    /// Pick a conditional-branch target: mostly short backward loops, some
    /// forward skips — both stay inside the code region.
    fn cond_target(&mut self, pc: u64) -> u64 {
        if self.draw() < BACKWARD {
            let back = 4 + self.rng.next_u64() % 60; // loop body 4..64 ops
            pc.wrapping_sub(back * OP_BYTES) & (self.code_size - 1)
        } else {
            let fwd = 2 + self.rng.next_u64() % 30;
            (pc + fwd * OP_BYTES) & (self.code_size - 1)
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
        // Length-prefixed, as the `Vec` it used to be.
        w.usize(HOT_ENTRIES);
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
    /// Only a state the generator can reach decodes; anything else, and a
    /// nonzero retired slot, is [`CodecError::Invalid`] naming the field.
    pub fn decode_state(r: &mut ByteReader) -> Result<Self, CodecError> {
        let profile: AppProfile = codec::decode_json(r)?;
        let rng = SmallRng::from_state(<[u64; 4]>::decode(r)?);
        let addr_base = r.u64()?;
        let pc = r.u64()?;
        let code_size = r.u64()?;
        let sites: Vec<BranchSite> = Vec::decode(r)?;
        let call_stack = Vec::decode(r)?;
        let hot_entries: Vec<u64> = Vec::decode(r)?;
        let hot_entries = <[u64; HOT_ENTRIES]>::try_from(hot_entries).map_err(|v| {
            CodecError::Invalid(format!(
                "hot_entries: {} entries, the generator draws {HOT_ENTRIES}",
                v.len()
            ))
        })?;
        let mut stream = SynthStream {
            // Rebuilt below, once the phase index is known to be valid.
            bounds: PhaseBounds::new(&profile, 0),
            profile: Arc::new(profile),
            rng,
            addr_base,
            pc,
            code_size,
            sites,
            call_stack,
            hot_entries,
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
        };
        if (r.u8()?, r.u64()?) != (0, 0) {
            return Err(CodecError::Invalid(
                "synthetic stream carries a retired script slot".into(),
            ));
        }
        stream.validate().map_err(CodecError::Invalid)?;
        stream.bounds = PhaseBounds::new(&stream.profile, stream.phase_idx);
        Ok(stream)
    }

    /// Is this a state the generator can reach? Returns the first field
    /// that is not, with why. Every size [`Self::new`] derives from the
    /// profile must equal its derivation, and every cursor must lie in the
    /// range [`Self::next_uop`] keeps it in: then every mask and index of
    /// the per-op path is in range.
    fn validate(&self) -> Result<(), String> {
        self.profile
            .validate()
            .map_err(|e| format!("profile: {e}"))?;
        let want = Layout::of(&self.profile)
            .ok_or("profile: a footprint has no power-of-two size in a u64")?;
        let derived = [
            ("code_size", self.code_size, want.code_size),
            ("sites", self.sites.len() as u64, want.n_sites as u64),
            ("ws_size", self.ws_size, want.ws_size),
            ("ws_hot_size", self.ws_hot_size, want.ws_hot_size),
            ("stride_span", self.stride_span, want.stride_span),
        ];
        for (field, got, want) in derived {
            if got != want {
                return Err(format!("{field} {got} is not the profile's {want}"));
            }
        }
        let code_offset = |v: u64, align: u64| v < self.code_size && v.is_multiple_of(align);
        if let Some(i) =
            (0..HOT_ENTRIES).find(|&i| !code_offset(self.hot_entries[i], HOT_ENTRY_ALIGN))
        {
            return Err(format!(
                "hot_entries[{i}] {:#x} is not a {HOT_ENTRY_ALIGN}-byte-aligned code offset",
                self.hot_entries[i]
            ));
        }
        if !code_offset(self.pc, OP_BYTES) {
            return Err(format!(
                "pc {:#x} is not an op slot of the code region",
                self.pc
            ));
        }
        if self.call_stack.len() > CALL_STACK_MAX {
            return Err(format!(
                "call_stack holds {} returns, past {CALL_STACK_MAX}",
                self.call_stack.len()
            ));
        }
        if let Some(ret) = self
            .call_stack
            .iter()
            .find(|&&ret| !code_offset(ret, OP_BYTES))
        {
            return Err(format!(
                "call_stack return {ret:#x} is not an op slot of the code region"
            ));
        }
        for (field, ctr) in [
            ("next_dst_int", self.next_dst_int),
            ("next_dst_fp", self.next_dst_fp),
        ] {
            if ctr >= DST_WINDOW {
                return Err(format!(
                    "{field} {ctr} is past the {DST_WINDOW}-register window"
                ));
            }
        }
        let window_reg =
            |reg: &Option<ArchReg>| reg.is_none_or(|r| (2..2 + DST_WINDOW).contains(&r.idx));
        if let Some(i) = (0..MAX_DEP_DIST).find(|&i| !window_reg(&self.recent_dsts[i])) {
            return Err(format!(
                "recent_dsts[{i}] {:?} is not a destination the generator allocates",
                self.recent_dsts[i]
            ));
        }
        if !window_reg(&self.last_load_dst) {
            return Err(format!(
                "last_load_dst {:?} is not a destination the generator allocates",
                self.last_load_dst
            ));
        }
        if self.recent_head >= MAX_DEP_DIST {
            return Err(format!(
                "recent_head {} is past the {MAX_DEP_DIST}-slot ring",
                self.recent_head
            ));
        }
        match self.profile.phases.get(self.phase_idx) {
            Some(phase) if (1..=phase.len_uops).contains(&self.phase_left) => {}
            None if self.profile.phases.is_empty()
                && self.phase_idx == 0
                && self.phase_left == u64::MAX => {}
            _ => {
                return Err(format!(
                    "phase_idx {} with phase_left {} is not a position in the profile's {} phases",
                    self.phase_idx,
                    self.phase_left,
                    self.profile.phases.len()
                ))
            }
        }
        if self.ws_stride_ptr >= self.stride_span || !self.ws_stride_ptr.is_multiple_of(8) {
            return Err(format!(
                "ws_stride_ptr {:#x} is not an 8-byte step below stride_span",
                self.ws_stride_ptr
            ));
        }
        if self.cold_ptr >= COLD_REGION_BYTES || !self.cold_ptr.is_multiple_of(64) {
            return Err(format!(
                "cold_ptr {:#x} is not a line of the cold region",
                self.cold_ptr
            ));
        }
        if self.rng.state() == [0; 4] {
            return Err("rng state is all zero, which xoshiro never reaches".into());
        }
        Ok(())
    }

    /// Generate the next micro-op.
    pub fn next_uop(&mut self) -> MicroOp {
        // Copy the bounds out, so reading them holds no borrow of `self`
        // across the mutating helper calls below.
        let PhaseBounds {
            syscall,
            cond_branch,
            jump,
            load,
            store,
            fp,
            div,
            div_mul,
            src_indep,
            addr_indep,
            ..
        } = self.bounds;
        let r = self.draw();

        let pc = self.addr_base | self.pc;
        let mut next_pc = (self.pc + OP_BYTES) & (self.code_size - 1);

        // The op-kind cascade: syscall, cond-branch, jump, load, store,
        // compute.
        let (kind, dst, src1, src2, mem, branch) = if r < syscall {
            (OpKind::Syscall, None, None, None, None, None)
        } else if r < cond_branch {
            let taken = self.branch_outcome(self.pc);
            let target_off = self.cond_target(self.pc);
            if taken {
                next_pc = target_off;
            }
            let s1 = if self.draw() < TEST_LAST_LOAD && self.last_load_dst.is_some() {
                self.last_load_dst
            } else {
                self.pick_src(src_indep)
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
        } else if r < jump {
            // Unconditional control: call / return / direct jump.
            let u = self.draw();
            let (bk, target_off) = if u < CALL && self.call_stack.len() < CALL_STACK_MAX {
                // Call: usually one of the hot functions, occasionally a
                // cold one (85/15 — code has hot spots).
                let entry = if self.draw() < HOT_CALL {
                    self.hot_entries[(self.rng.next_u64() as usize) % HOT_ENTRIES]
                } else {
                    let span_ops = self.code_size / OP_BYTES;
                    (self.rng.next_u64() & (span_ops - 1) & !63) * OP_BYTES
                };
                self.call_stack.push(next_pc);
                (BranchKind::Call, entry)
            } else if u < RETURN {
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
        } else if r < load {
            let addr = self.gen_addr();
            let class = if self.draw() < fp {
                RegClass::Fp
            } else {
                RegClass::Int
            };
            let dst = self.alloc_dst(class);
            self.last_load_dst = Some(dst);
            let s1 = self.pick_src(addr_indep);
            (
                OpKind::Load,
                Some(dst),
                s1,
                None,
                Some(MemInfo { addr, size: 8 }),
                None,
            )
        } else if r < store {
            let addr = self.gen_addr();
            let s1 = self.pick_src(addr_indep); // address
            let s2 = self.pick_src(src_indep); // data
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
            let fp = self.draw() < fp;
            let u = self.draw();
            let kind = if u < div {
                if fp {
                    OpKind::FpDiv
                } else {
                    OpKind::IntDiv
                }
            } else if u < div_mul {
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
            let s1 = self.pick_src(src_indep);
            let s2 = self.pick_src(src_indep);
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

    /// The pre-cut form of [`dep_distance`], with `floor`.
    fn dep_distance_floor(u: f64, ln_q: f64) -> Option<usize> {
        let k = (u.ln() / ln_q).floor();
        if k >= MAX_DEP_DIST as f64 {
            return None;
        }
        Some(1 + k as usize)
    }

    /// The `f64` the samplers make of a 53-bit draw `m`.
    fn unit(m: u64) -> f64 {
        m as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `m = bound − 1` passes `u < p` and `m = bound` does not. For
    /// `p ≥ 0.5`, p·2⁵³ is an integer: the bound must be exactly it, since
    /// an off-by-one there moves one draw in 2⁵³, which no stream
    /// fingerprint would notice.
    fn assert_exact_bound(p: f64) {
        let bound = unit_bound(p);
        if p > 1.0 {
            assert!(bound > 1 << 53, "p {p}: bound {bound} fails a draw");
            return;
        }
        if bound > 0 {
            assert!(unit(bound - 1) < p, "p {p}: m = bound - 1 fails");
        }
        assert!(unit(bound) >= p, "p {p}: m = bound {bound} passes");
        if p >= 0.5 {
            let scaled = p * (1u64 << 53) as f64;
            assert_eq!(scaled.fract(), 0.0, "p {p}: p·2⁵³ is not an integer");
            assert_eq!(bound as f64, scaled, "p {p}");
            assert_eq!(unit(bound), p, "p {p}");
        }
    }

    /// Every app's per-phase bounds (and the neutral bounds past the
    /// schedule), each probability checked by `assert_exact_bound`.
    fn every_phase_bounds() -> Vec<PhaseBounds> {
        let mut out = Vec::new();
        for name in crate::app_names() {
            let profile = crate::app(name);
            for idx in 0..=profile.phases.len() {
                let checked = PhaseBounds::with_bound(&profile, idx, |p| {
                    assert_exact_bound(p);
                    unit_bound(p)
                });
                let plain = PhaseBounds::new(&profile, idx);
                assert_eq!(format!("{checked:?}"), format!("{plain:?}"));
                out.push(plain);
            }
        }
        out
    }

    #[test]
    fn literal_bounds_are_exact() {
        // The stream's literals, then the wrong-path generator's.
        let literals = [0.35, 0.5, 0.6, 0.7, 0.8, 0.85, 0.33, 0.55, 0.75, 0.83, 0.93];
        for p in literals {
            assert_exact_bound(p);
        }
        assert_eq!(
            [TEST_LAST_LOAD, CALL, RETURN, HOT_CALL, BACKWARD, HOT_ACCESS],
            [0.5, 0.35, 0.70, 0.85, 0.6, 0.8].map(unit_bound)
        );
        assert_eq!(unit_bound(0.0), 0);
        assert_eq!(unit_bound(-1.0), 0);
        assert_eq!(unit_bound(f64::NAN), 0);
        assert_eq!(unit_bound(1.0), 1 << 53);
        assert_eq!(unit_bound(f64::INFINITY), u64::MAX);
        // The smallest positive probability passes only m = 0.
        assert_eq!(unit_bound(f64::MIN_POSITIVE), 1);
    }

    #[test]
    fn every_app_phase_bound_is_exact() {
        let bounds = every_phase_bounds();
        assert!(bounds.len() > crate::APP_COUNT, "no app has phases");
        // A phase whose predictability is below 1 draws for storms.
        assert!(bounds.iter().any(|b| b.predictable.is_some()));
    }

    #[test]
    fn floor_free_dep_distance_matches_the_floor_form_at_every_boundary() {
        let mut ln_qs: Vec<f64> = every_phase_bounds().iter().map(|b| b.ln_q).collect();
        // The extremes `PhaseBounds` can make: a mean of 1 (clamped to
        // ln 1e-12), just above it, and a long one.
        ln_qs.extend([1.0, 1.0001, 100.0].map(|mean: f64| (1.0 - 1.0 / mean).max(1e-12).ln()));
        for ln_q in ln_qs {
            assert!(ln_q.is_finite() && ln_q < 0.0, "ln_q {ln_q}");
            let x = |m: u64| unit(m).ln() / ln_q;
            // u = 0 and the smallest draw.
            let mut draws = vec![0, 1];
            for k in 1..=MAX_DEP_DIST {
                // The first draw with x < k: ⌊x⌋ steps below k there.
                let (mut lo, mut hi) = (1u64, 1 << 53);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if x(mid) < k as f64 {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                if lo > 1 && lo < 1 << 53 {
                    assert!(x(lo - 1) >= k as f64 && x(lo) < k as f64);
                }
                draws.extend(lo.saturating_sub(2)..(lo + 2).min(1 << 53));
            }
            for m in draws {
                let u = unit(m);
                assert!(!x(m).is_nan(), "m {m}, ln_q {ln_q}");
                assert_eq!(
                    dep_distance(u, ln_q),
                    dep_distance_floor(u, ln_q),
                    "m {m}, ln_q {ln_q}"
                );
            }
        }
    }

    /// A synthetic stream of a phased app 5,000 ops in: calls, loads and
    /// phases have moved every cursor off its start.
    fn warm_synth() -> SynthStream {
        let mut s = SynthStream::new(Arc::new(crate::app("mcf")), 42, crate::thread_addr_base(1));
        for _ in 0..5_000 {
            s.next_uop();
        }
        s
    }

    /// Decode `s`'s encoding: `None` if it decodes, else the message of
    /// its `CodecError::Invalid`.
    fn decode_error(s: &SynthStream) -> Option<String> {
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        match SynthStream::decode_state(&mut ByteReader::new(w.as_bytes())) {
            Ok(_) => None,
            Err(CodecError::Invalid(msg)) => Some(msg),
            Err(e) => panic!("{e:?} is not CodecError::Invalid"),
        }
    }

    #[test]
    fn unreachable_states_are_invalid_and_name_their_field() {
        let warm = warm_synth();
        assert_eq!(decode_error(&warm), None);
        type Mutation = (&'static str, fn(&mut SynthStream));
        let table: [Mutation; 28] = [
            ("profile", |s| {
                let mut p = (*s.profile).clone();
                p.branch_frac = 2.0;
                s.profile = Arc::new(p);
            }),
            ("code_size", |s| s.code_size = 0),
            ("code_size", |s| s.code_size *= 2),
            ("sites", |s| s.sites.truncate(s.sites.len() / 2)),
            ("ws_size", |s| s.ws_size += 64),
            ("ws_hot_size", |s| s.ws_hot_size /= 2),
            ("stride_span", |s| s.stride_span = s.ws_size),
            ("hot_entries[3]", |s| s.hot_entries[3] = s.code_size),
            ("hot_entries[0]", |s| s.hot_entries[0] += OP_BYTES),
            ("pc", |s| s.pc = s.code_size),
            ("pc", |s| s.pc += 2),
            ("call_stack", |s| s.call_stack = vec![0; CALL_STACK_MAX + 1]),
            ("call_stack", |s| s.call_stack = vec![s.code_size]),
            ("next_dst_int", |s| s.next_dst_int = 200),
            ("next_dst_fp", |s| s.next_dst_fp = DST_WINDOW),
            ("recent_dsts[5]", |s| {
                s.recent_dsts[5] = Some(ArchReg::fp(1))
            }),
            ("recent_dsts[0]", |s| {
                s.recent_dsts[0] = Some(ArchReg::int(2 + DST_WINDOW))
            }),
            ("last_load_dst", |s| s.last_load_dst = Some(ArchReg::int(0))),
            ("recent_head", |s| s.recent_head = 25),
            ("recent_head", |s| s.recent_head = MAX_DEP_DIST),
            ("phase_idx", |s| s.phase_idx = s.profile.phases.len()),
            ("phase_left", |s| s.phase_left = 0),
            ("phase_left", |s| {
                s.phase_left = s.profile.phases[s.phase_idx].len_uops + 1
            }),
            ("ws_stride_ptr", |s| s.ws_stride_ptr = s.stride_span),
            ("ws_stride_ptr", |s| s.ws_stride_ptr += 4),
            ("cold_ptr", |s| s.cold_ptr = COLD_REGION_BYTES),
            ("cold_ptr", |s| s.cold_ptr += 32),
            ("rng", |s| s.rng = SmallRng::from_state([0; 4])),
        ];
        for (field, mutate) in table {
            let mut bad = warm.clone();
            mutate(&mut bad);
            let msg = decode_error(&bad).unwrap_or_else(|| panic!("decoded a bad {field}"));
            assert!(msg.contains(field), "{field}: {msg}");
        }
        // A register the generator allocates from either class is fine.
        let mut ok = warm.clone();
        (ok.recent_dsts[0], ok.last_load_dst) = (Some(ArchReg::int(2)), Some(ArchReg::fp(25)));
        assert_eq!(decode_error(&ok), None);
    }

    #[test]
    fn a_hot_entry_list_of_another_length_is_invalid() {
        let warm = warm_synth();
        let mut w = ByteWriter::new();
        warm.encode_state(&mut w);
        let bytes = w.into_bytes();
        // The list follows the profile, the rng, three u64 fields, the
        // sites and the call stack.
        let mut head = ByteWriter::new();
        codec::encode_json(&mut head, warm.profile());
        warm.rng.state().encode(&mut head);
        for v in [warm.addr_base, warm.pc, warm.code_size] {
            head.u64(v);
        }
        warm.sites.encode(&mut head);
        warm.call_stack.encode(&mut head);
        let (at, end) = (head.len(), head.len() + 8 * (1 + HOT_ENTRIES));
        let mut same = ByteWriter::new();
        warm.hot_entries.to_vec().encode(&mut same);
        assert!(bytes[at..end] == *same.as_bytes());
        let short = warm.hot_entries[..HOT_ENTRIES - 1].to_vec();
        let long = [&warm.hot_entries[..], &[0]].concat();
        for entries in [vec![], short, long] {
            let mut list = ByteWriter::new();
            entries.encode(&mut list);
            let patched = [&bytes[..at], list.as_bytes(), &bytes[end..]].concat();
            match SynthStream::decode_state(&mut ByteReader::new(&patched)) {
                Err(CodecError::Invalid(msg)) => assert!(msg.contains("hot_entries"), "{msg}"),
                other => panic!("{} hot entries: {other:?}", entries.len()),
            }
        }
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
