//! The cycle-level SMT machine.
//!
//! [`SmtMachine`] owns every structural model — shared caches, shared branch
//! predictor, shared instruction queues, LSQ and rename registers, plus one
//! reorder window per hardware context — and advances them one cycle per
//! [`SmtMachine::step`]. Stages run in reverse pipeline order within a
//! cycle (complete → commit → issue → dispatch → fetch) so that an op never
//! traverses two stages in one cycle:
//!
//! 1. **complete** — finish executing ops; resolve branches, training the
//!    predictor and squashing the thread on a misprediction;
//! 2. **commit** — retire completed ops in order, up to `commit_width`
//!    across threads; syscalls retire the drain;
//! 3. **issue** — pick ready ops oldest-first from the int/fp queues under
//!    functional-unit and port constraints; loads access the D-cache here;
//! 4. **dispatch** — move decoded ops into the queues, allocating rename
//!    registers and LSQ entries (a shared count: a thread's entries are
//!    its window's memory ops past dispatch);
//! 5. **fetch** — ask the [`FetchChooser`] to order fetchable threads, then
//!    fetch up to `fetch_width` ops from the top `max_fetch_threads`
//!    (the ICOUNT2.8-style mechanism of \[20\]), predicting branches and
//!    entering wrong-path mode on a fetch-time mispredict.
//!
//! The machine is `Clone`: the oracle scheduler in `adts-core` checkpoints
//! it and replays a quantum under every candidate policy.

use crate::batch::RunSlots;
use crate::bpred::BranchPredictor;
use crate::cache::Hierarchy;
use crate::chooser::FetchChooser;
use crate::config::{SimConfig, MAX_LATENCY};
use crate::counters::{CounterSnapshot, PolicyView, ThreadCounters};
use crate::inflight::{
    find_seq, CompletionWheel, InFlight, Stage, StoreFilter, NO_WAKE, WHEEL_NIL,
};
use crate::iqueue::{IndexedQueue, NIL};
use crate::lookahead::{self, CorrectPath, Inline};
use crate::obs::attr::{CommitCause, FetchCause, IssueCause, SlotAttribution};
use crate::obs::profile::{StageClock, StageProfile, PROFILE_PERIOD};
use crate::trace::{MissLevel, TraceBuffer, TraceEvent};
use crate::wrongpath::WrongPathGen;
use smt_isa::codec::{self, ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::{BranchKind, OpKind, RegClass, Tid};
use smt_workloads::{SplitMix64, UopStream};
use std::collections::VecDeque;

/// `Err` with the formatted message unless `cond` holds: the `assert!`
/// of [`SmtMachine::validate`].
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Machine-wide statistics the detector thread (and experiment harness)
/// reads in addition to the per-thread counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlobalCounters {
    /// Cycles simulated.
    pub cycles: u64,
    /// Micro-ops committed across all threads.
    pub committed: u64,
    /// Cycles during which the shared LSQ was full.
    pub lsq_full_cycles: u64,
    /// Fetch slots actually filled (correct + wrong path).
    pub fetch_slots_used: u64,
    /// Total squash (mispredict recovery) events.
    pub squashes: u64,
    /// Cycles spent with a system call draining/executing.
    pub syscall_drain_cycles: u64,
}

/// Reference into a shared queue: which thread's window, which sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QRef {
    tid: Tid,
    seq: u64,
}

/// A dispatch-FIFO entry: the fetched op's thread, sequence number and
/// window position ([`ThreadCtx::at`]). The position is transient: a
/// decode recomputes it.
#[derive(Clone, Copy, Debug)]
struct FifoEntry {
    tid: Tid,
    pos: u32,
    seq: u64,
}

/// Instruction-queue payload: the facts issue needs every cycle, copied
/// out of the window op at dispatch so a dep-blocked entry is judged
/// without touching the window at all.
#[derive(Clone, Copy, Debug)]
struct IqData {
    kind: OpKind,
    /// Producer sequence numbers (immutable after fetch).
    deps: [Option<u64>; 2],
    /// Monotone memo: once every producer has been observed complete the
    /// check never needs to run again. A producer can only leave the
    /// window by committing (still satisfied) or by a squash that also
    /// removes this younger entry, so the flag can never go stale.
    deps_done: bool,
    /// Outstanding (not yet completed) producers, maintained by the wake
    /// chains: dispatch counts the live producers, each producer's
    /// Done-transition decrements. The entry joins its queue's ready list
    /// the moment `pending` reaches 0, and issue walks only that list.
    /// Transient acceleration state, *not* serialized (rebuilt after
    /// decode), so snapshot bytes are unchanged; `deps_done` stays the
    /// serialized memo. `deps_ready` remains as the search-based
    /// reference oracle.
    pending: u8,
    /// The op's window position ([`ThreadCtx::at`]). Transient, not
    /// serialized: rebuilt after decode.
    pos: u32,
}

/// Per-context state.
#[derive(Clone, Debug)]
struct ThreadCtx {
    tid: Tid,
    stream: UopStream,
    wp_gen: WrongPathGen,
    window: VecDeque<InFlight>,
    /// Position of `window[0]`: commit adds 1 and a flush adds the window
    /// length, while a squash leaves it alone, so the op at `window[i]`
    /// keeps the position `base + i` (wrapping) for its whole life. IQ
    /// entries, dispatch-FIFO entries and the completion wheel name ops
    /// by position, and [`Self::at`] resolves one in O(1). A squash lets
    /// later ops reuse its victims' positions, which is why every handle
    /// also carries the seq. Transient: 0 after decode, where every
    /// handle is recomputed.
    base: u32,
    next_seq: u64,
    /// Flat arch-reg → producing seq.
    rename: [Option<u64>; 64],
    /// ADTS thread-control flag: may this thread fetch?
    fetch_enabled: bool,
    icache_stall_until: u64,
    /// Line (addr / line_bytes) guaranteed deliverable after an I-miss
    /// completes, even if meanwhile evicted by another thread — the fill
    /// went to the fetch buffer, so re-probing would be a livelock.
    icache_ready_line: Option<u64>,
    redirect_stall_until: u64,
    /// `Some(branch_seq)` while fetching down the wrong path.
    wrong_path_since: Option<u64>,
    /// Wrong-path fetch pc.
    wp_pc: u64,
    /// Lower bound on the earliest `done_at` among this thread's Executing
    /// ops: exact after each completion pass (`u64::MAX` when none is
    /// left), lowered by every issue, never raised by a squash. Gates
    /// `complete`: staleness on the low side only costs a fruitless pass,
    /// never a missed completion.
    min_done_at: u64,
    /// Completion calendar: a timing wheel holding exactly the executing
    /// ops, each linked by its window slot into the bucket of the cycle
    /// it completes in — `done_at`, or the next cycle for an op due the
    /// cycle it issues. `complete` takes the bucket of `now` whole instead
    /// of scanning the window. A squash unlinks its executing victims and
    /// a flush clears the wheel. Transient acceleration state like the
    /// wake chains: cloned, rebuilt after decode, never serialized.
    calendar: CompletionWheel,
    /// Which address words an older in-flight store may still write:
    /// the store-to-load forwarding check scans the window only on a hit.
    /// Transient like the calendar; `next_seq` never resets (not on a
    /// flush, `replace_thread` or a migration), so a stale slot stays
    /// below every later op's seq.
    store_filter: StoreFilter,
    /// Cold-frontend penalty of a cross-core migration: fetch is held
    /// until this cycle (0 = no pending penalty). Set by
    /// [`SmtMachine::migrate_in`], attributed as [`FetchCause::Migration`].
    migration_stall_until: u64,
    counters: ThreadCounters,
}

/// A thread's architectural residue in transit between cores: the stream
/// position and cumulative counters survive a migration; every piece of
/// microarchitectural state (window, rename, queues, stalls) is flushed
/// at the source and rebuilt cold at the destination. Produced by
/// [`SmtMachine::migrate_out`], consumed by [`SmtMachine::migrate_in`].
#[derive(Clone, Debug)]
pub struct MigratedThread {
    stream: UopStream,
    counters: ThreadCounters,
}

impl MigratedThread {
    /// Cumulative committed micro-ops carried by the migrating thread.
    pub fn committed(&self) -> u64 {
        self.counters.committed
    }
}

impl IqData {
    fn encode_into(&self, w: &mut ByteWriter) {
        self.kind.encode(w);
        self.deps.encode(w);
        w.bool(self.deps_done);
    }

    fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(IqData {
            kind: OpKind::decode(r)?,
            deps: <[Option<u64>; 2]>::decode(r)?,
            deps_done: r.bool()?,
            // Rebuilt by `rebuild_wake_state` once the whole machine is
            // decoded (the windows aren't available yet here).
            pending: 0,
            pos: 0,
        })
    }
}

/// One registered waiter on a producer's wake chain: when the producer
/// completes, decrement `pending` of the instruction-queue entry at
/// `slot` — *after* revalidating that the slot still holds
/// `(producer's tid, waiter_seq)`, because a waiter can be squashed while
/// its (older) producer survives, and the queue slab may have reused the
/// slot since ([`IndexedQueue::entry_matches`]).
#[derive(Clone, Copy, Debug)]
struct WakeNode {
    /// Waiter sits in the fp queue (else the int queue).
    fp: bool,
    /// Slab index of the waiter's queue entry at registration time.
    slot: u32,
    /// Waiter's sequence number, for slot revalidation.
    waiter_seq: u64,
    /// Next node in this producer's chain ([`NO_WAKE`] terminates).
    next: u32,
}

/// Slab of [`WakeNode`]s with a free list. Chains are singly linked from
/// each window op's `wake_head`; every allocated node sits on exactly one
/// chain (freed when its producer completes, is squashed, or is flushed).
#[derive(Clone, Debug, Default)]
struct WakeArena {
    nodes: Vec<WakeNode>,
    free: Vec<u32>,
}

impl WakeArena {
    fn alloc(&mut self, node: WakeNode) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Free every node of the chain starting at `head`.
    fn free_chain(&mut self, head: u32) {
        let mut idx = head;
        while idx != NO_WAKE {
            let next = self.nodes[idx as usize].next;
            self.free.push(idx);
            idx = next;
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
    }

    /// Allocated (live) nodes.
    fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }
}

impl ThreadCtx {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.u8(self.tid.0);
        self.stream.encode_state(w);
        self.wp_gen.encode_into(w);
        w.usize(self.window.len());
        for op in &self.window {
            op.encode(w);
        }
        w.u64(self.next_seq);
        self.rename.encode(w);
        w.bool(self.fetch_enabled);
        w.u64(self.icache_stall_until);
        self.icache_ready_line.encode(w);
        w.u64(self.redirect_stall_until);
        self.wrong_path_since.encode(w);
        w.u64(self.wp_pc);
        w.u64(self.min_done_at);
        w.u64(self.migration_stall_until);
        codec::encode_json(w, &self.counters);
    }

    fn decode_from(
        r: &mut ByteReader,
        cfg: &SimConfig,
        wheel_buckets: usize,
    ) -> Result<Self, CodecError> {
        let tid = Tid(r.u8()?);
        let stream = UopStream::decode_state(r)?;
        let wp_gen = WrongPathGen::decode_from(r)?;
        wp_gen
            .check_for(stream.addr_base(), stream.profile().data_ws_bytes)
            .map_err(|e| CodecError::Invalid(format!("{tid}: {e}")))?;
        let n = r.usize()?;
        if n > cfg.rob_per_thread {
            return Err(CodecError::Invalid(format!(
                "window length {n} exceeds rob_per_thread {}",
                cfg.rob_per_thread
            )));
        }
        // Rebuilt contiguous regardless of the source ring's split point —
        // unobservable, since all window lookups index logically.
        let mut window = VecDeque::with_capacity(cfg.rob_per_thread);
        for _ in 0..n {
            window.push_back(InFlight::decode(r)?);
        }
        Ok(ThreadCtx {
            tid,
            stream,
            wp_gen,
            store_filter: StoreFilter::of(&window),
            window,
            base: 0,
            next_seq: r.u64()?,
            rename: <[Option<u64>; 64]>::decode(r)?,
            fetch_enabled: r.bool()?,
            icache_stall_until: r.u64()?,
            icache_ready_line: Option::decode(r)?,
            redirect_stall_until: r.u64()?,
            wrong_path_since: Option::decode(r)?,
            wp_pc: r.u64()?,
            min_done_at: r.u64()?,
            migration_stall_until: r.u64()?,
            counters: codec::decode_json(r)?,
            // Filled by `rebuild_wake_state` once the machine is decoded.
            calendar: CompletionWheel::new(wheel_buckets, wheel_slots(cfg)),
        })
    }

    /// Window index of the op at position `pos`, if it is still the op
    /// with sequence number `seq` (a squash lets a later op reuse the
    /// position; a flush or commit removes it).
    #[inline]
    fn at(&self, pos: u32, seq: u64) -> Option<usize> {
        let i = pos.wrapping_sub(self.base) as usize;
        self.window.get(i).filter(|op| op.seq == seq).map(|_| i)
    }

    /// Position of `window[i]`.
    #[inline]
    fn pos(&self, i: usize) -> u32 {
        self.base.wrapping_add(i as u32)
    }

    /// Does an older store in `window[..i]` hold an LSQ entry for address
    /// word `word`? The full scan the store filter gates, and the
    /// reference oracle the filtered decision is checked against.
    fn older_store_to(&self, i: usize, word: u64) -> bool {
        self.window
            .range(..i)
            .rev()
            .any(|op| op.uop.kind == OpKind::Store && op.lsq_word() == Some(word))
    }

    /// Can this thread accept fetch this cycle (ignoring chooser priority)?
    fn fetchable(&self, cycle: u64, cfg: &SimConfig) -> bool {
        self.fetch_enabled
            && self.migration_stall_until <= cycle
            && self.icache_stall_until <= cycle
            && self.redirect_stall_until <= cycle
            && self.window.len() < cfg.rob_per_thread
            && (self.counters.front_end_occ as usize) < cfg.fetch_buffer_per_thread
    }

    /// Start window op `i` executing until `done_at` in cycle `now`,
    /// publishing the deadline to `min_done_at` and the completion wheel.
    /// An op due the cycle it issues (a zero latency) completes at the
    /// next `complete`, since this cycle's already ran.
    fn start_executing(&mut self, i: usize, now: u64, done_at: u64) {
        self.window[i].stage = Stage::Executing { done_at };
        self.min_done_at = self.min_done_at.min(done_at);
        let slot = self.calendar.slot(self.pos(i));
        self.calendar.insert(slot, done_at.max(now + 1), now);
    }
}

/// Window slots of a completion wheel: the window capacity rounded up to
/// a power of two, so position modulo the slot count never maps two ops
/// of one window to the same slot.
fn wheel_slots(cfg: &SimConfig) -> usize {
    cfg.rob_per_thread.next_power_of_two()
}

/// Buckets of every thread's completion wheel: a power of two above the
/// longest latency `issue` can assign — the unit latencies, the syscall
/// latency, a forwarded load (2) and a load that misses to memory in
/// `mem`, the hierarchy the machine holds (a decoded snapshot's own).
/// `Err` past [`MAX_LATENCY`].
fn wheel_buckets(cfg: &SimConfig, mem: &Hierarchy) -> Result<usize, String> {
    let longest = [
        2,
        cfg.lat_int_mul,
        cfg.lat_int_div,
        cfg.lat_fp_alu,
        cfg.lat_fp_mul,
        cfg.lat_fp_div,
        cfg.syscall_latency,
        mem.max_data_latency().saturating_add(1),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    if longest > MAX_LATENCY {
        return Err(format!(
            "latency {longest} exceeds the {MAX_LATENCY}-cycle maximum"
        ));
    }
    Ok((longest as usize + 1).next_power_of_two())
}

/// The simultaneous-multithreading machine.
#[derive(Clone, Debug)]
pub struct SmtMachine {
    cfg: SimConfig,
    cycle: u64,
    pub mem: Hierarchy,
    pub bpred: BranchPredictor,
    threads: Vec<ThreadCtx>,
    int_iq: IndexedQueue<IqData>,
    fp_iq: IndexedQueue<IqData>,
    /// Occupancy of the shared LSQ: the memory ops past dispatch across
    /// all windows ([`InFlight::lsq_word`]). The windows hold the entries
    /// themselves.
    lsq_len: usize,
    /// Stamp of the next memory op to dispatch ([`InFlight::lsq_stamp`]),
    /// wrapping. Transient: decode restarts it after the snapshot's LSQ.
    lsq_stamp: u32,
    free_int_regs: usize,
    free_fp_regs: usize,
    int_div_free_at: u64,
    fp_div_free_at: u64,
    /// FIFO of fetched-but-unretired system calls; non-empty = drain mode.
    pending_syscalls: VecDeque<QRef>,
    global: GlobalCounters,
    /// Scratch for chooser views (reused each cycle, and by
    /// [`SmtMachine::views`]).
    view_buf: Vec<PolicyView>,
    /// Scratch for mispredict squashes discovered during complete
    /// (ti, seq, history, outcome); reused each cycle, empty between
    /// cycles.
    squash_buf: Vec<(usize, u64, u64, Option<bool>)>,
    /// Optional pipeline event trace (None = disabled, zero overhead
    /// beyond one branch per event site).
    trace: Option<TraceBuffer>,
    /// Optional slot-loss attribution (None = disabled; boxed so the
    /// untraced machine stays small and `Clone` stays cheap).
    attr: Option<Box<SlotAttribution>>,
    /// Optional sampled stage profile (None = off: the machine steps the
    /// monomorphization that reads no clock). Never serialized.
    profile: Option<Box<StageProfile>>,
    /// This core's position in a multi-core shared-L2 arbitration
    /// rotation (0 standalone). Pure trace context — stamped onto
    /// [`TraceEvent::CacheMiss`] events, never serialized, never read by
    /// the pipeline.
    l2_rot: u8,
    /// The decode/rename pipe: fetched ops in global fetch order. Dispatch
    /// consumes strictly from the head and *stalls* on a structural hazard
    /// (queue/LSQ/register full), so one clogged thread's backlog delays
    /// everyone behind it — the head-of-line interference the paper's
    /// scheduling policies exist to manage. This is also what propagates
    /// fetch priority into the shared queues: a thread that wins fetch
    /// slots owns a proportional share of this FIFO.
    ///
    /// Squash and flush leave their victims' entries in place. An entry
    /// is live while [`ThreadCtx::at`] finds its op; dispatch pops a dead
    /// one at the head as a free bubble (no budget), and the codec writes
    /// only live entries, so a snapshot holds exactly the ops still
    /// waiting to leave the decode pipe.
    dispatch_fifo: VecDeque<FifoEntry>,
    /// Producer-completion wake chains backing the issue stage's
    /// `pending` readiness counters. Transient acceleration state:
    /// cloned with the machine (slab indices are preserved by `Clone`),
    /// never serialized (rebuilt after decode).
    wake: WakeArena,
    /// Scratch for `complete`'s due window indices; empty between cycles.
    due_buf: Vec<usize>,
}

impl SmtMachine {
    /// Build a machine running one [`UopStream`] per context. `streams.len()`
    /// must equal `cfg.threads`.
    pub fn new(cfg: SimConfig, streams: Vec<UopStream>) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert_eq!(
            streams.len(),
            cfg.threads,
            "one stream per configured context"
        );
        let mut mem = Hierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.mem_latency);
        mem.set_next_line_prefetch(cfg.next_line_prefetch);
        let buckets = wheel_buckets(&cfg, &mem).expect("validated latencies");
        let threads = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let base = stream.addr_base();
                let ws = stream.profile().data_ws_bytes;
                ThreadCtx {
                    tid: Tid(i as u8),
                    wp_gen: WrongPathGen::new(SplitMix64::derive(0xAD75 ^ i as u64, 7), base, ws),
                    stream,
                    window: VecDeque::with_capacity(cfg.rob_per_thread),
                    base: 0,
                    next_seq: 0,
                    rename: [None; 64],
                    fetch_enabled: true,
                    icache_stall_until: 0,
                    icache_ready_line: None,
                    redirect_stall_until: 0,
                    wrong_path_since: None,
                    wp_pc: 0,
                    min_done_at: u64::MAX,
                    calendar: CompletionWheel::new(buckets, wheel_slots(&cfg)),
                    store_filter: StoreFilter::default(),
                    migration_stall_until: 0,
                    counters: ThreadCounters::default(),
                }
            })
            .collect();
        SmtMachine {
            free_int_regs: cfg.extra_phys_int,
            free_fp_regs: cfg.extra_phys_fp,
            mem,
            bpred: BranchPredictor::new(&cfg),
            threads,
            int_iq: IndexedQueue::new(cfg.threads, cfg.int_iq_size),
            fp_iq: IndexedQueue::new(cfg.threads, cfg.fp_iq_size),
            lsq_len: 0,
            lsq_stamp: 0,
            int_div_free_at: 0,
            fp_div_free_at: 0,
            pending_syscalls: VecDeque::new(),
            global: GlobalCounters::default(),
            view_buf: Vec::with_capacity(cfg.threads),
            squash_buf: Vec::new(),
            trace: None,
            attr: None,
            profile: None,
            l2_rot: 0,
            dispatch_fifo: VecDeque::with_capacity(64),
            wake: WakeArena::default(),
            due_buf: Vec::new(),
            cycle: 0,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // checkpoint codec
    // ------------------------------------------------------------------

    /// Serialize the complete simulated state (architectural and
    /// microarchitectural) for checkpointing. Instrumentation (`trace`,
    /// `attr`) and the per-cycle scratch buffers are *not* captured: both
    /// are empty/disabled at every quantum boundary, which is the only
    /// place snapshots are taken. A machine decoded from these bytes
    /// simulates bit-identically to this one.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        codec::encode_json(w, &self.cfg);
        w.u64(self.cycle);
        self.mem.encode_into(w);
        self.bpred.encode_into(w);
        w.usize(self.threads.len());
        for t in &self.threads {
            t.encode_into(w);
        }
        self.int_iq.encode_with(w, |w, d| d.encode_into(w));
        self.fp_iq.encode_with(w, |w, d| d.encode_into(w));
        self.encode_lsq(w);
        w.usize(self.free_int_regs);
        w.usize(self.free_fp_regs);
        w.u64(self.int_div_free_at);
        w.u64(self.fp_div_free_at);
        w.usize(self.pending_syscalls.len());
        for q in &self.pending_syscalls {
            w.u8(q.tid.0);
            w.u64(q.seq);
        }
        w.u64(self.global.cycles);
        w.u64(self.global.committed);
        w.u64(self.global.lsq_full_cycles);
        w.u64(self.global.fetch_slots_used);
        w.u64(self.global.squashes);
        w.u64(self.global.syscall_drain_cycles);
        // The live entries, laid out as the `IndexedQueue` codec lays out
        // a queue: context count, length, then (tid, seq) in FIFO order.
        let live = || {
            self.dispatch_fifo
                .iter()
                .filter(|e| self.threads[e.tid.idx()].at(e.pos, e.seq).is_some())
        };
        w.usize(self.threads.len());
        w.usize(live().count());
        for e in live() {
            w.u8(e.tid.0);
            w.u64(e.seq);
        }
    }

    /// Rebuild a machine from [`Self::encode_into`] bytes. Never panics on
    /// corrupt input — every structural inconsistency decodes to an error.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        let cfg: SimConfig = codec::decode_json(r)?;
        cfg.validate()
            .map_err(|e| CodecError::Invalid(format!("bad SimConfig: {e}")))?;
        let cycle = r.u64()?;
        let mem = Hierarchy::decode_from(r)?;
        let buckets = wheel_buckets(&cfg, &mem).map_err(CodecError::Invalid)?;
        let bpred = BranchPredictor::decode_from(r)?;
        bpred.check_for(&cfg).map_err(CodecError::Invalid)?;
        let n_threads = r.usize()?;
        if n_threads != cfg.threads {
            return Err(CodecError::Invalid(format!(
                "thread count {n_threads} disagrees with config {}",
                cfg.threads
            )));
        }
        let mut threads = Vec::with_capacity(n_threads);
        for i in 0..n_threads {
            let t = ThreadCtx::decode_from(r, &cfg, buckets)?;
            if t.tid.idx() != i {
                return Err(CodecError::Invalid("thread ids out of order".into()));
            }
            threads.push(t);
        }
        // Each shared queue must have been encoded for this machine's
        // contexts: a thread with no per-thread list would index past it.
        let contexts = |q: usize, what: &str| {
            if q == n_threads {
                Ok(())
            } else {
                Err(CodecError::Invalid(format!(
                    "{what} encoded for {q} contexts, machine has {n_threads}"
                )))
            }
        };
        let int_iq = IndexedQueue::decode_with(r, IqData::decode_from)?;
        contexts(int_iq.contexts(), "int IQ")?;
        let fp_iq = IndexedQueue::decode_with(r, IqData::decode_from)?;
        contexts(fp_iq.contexts(), "fp IQ")?;
        contexts(r.usize()?, "LSQ")?;
        let lsq_len = Self::decode_lsq(r, &mut threads)?;
        let free_int_regs = r.usize()?;
        let free_fp_regs = r.usize()?;
        let int_div_free_at = r.u64()?;
        let fp_div_free_at = r.u64()?;
        let n_sys = r.usize()?;
        let mut pending_syscalls = VecDeque::with_capacity(n_sys.min(r.remaining()));
        for _ in 0..n_sys {
            let tid = r.u8()?;
            if tid as usize >= n_threads {
                return Err(CodecError::Invalid("syscall tid out of range".into()));
            }
            pending_syscalls.push_back(QRef {
                tid: Tid(tid),
                seq: r.u64()?,
            });
        }
        let global = GlobalCounters {
            cycles: r.u64()?,
            committed: r.u64()?,
            lsq_full_cycles: r.u64()?,
            fetch_slots_used: r.u64()?,
            squashes: r.u64()?,
            syscall_drain_cycles: r.u64()?,
        };
        contexts(r.usize()?, "dispatch FIFO")?;
        let len = r.usize()?;
        let mut dispatch_fifo = VecDeque::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            let tid = r.u8()?;
            if tid as usize >= n_threads {
                return Err(CodecError::Invalid(format!(
                    "dispatch FIFO entry tid {tid} out of range"
                )));
            }
            let seq = r.u64()?;
            // Positions restart at 0 (`base`), so an op's position is its
            // window index. An entry whose op is not in the window would
            // be a dead entry, which the encoder never writes.
            if let Some(i) = find_seq(&threads[tid as usize].window, seq) {
                dispatch_fifo.push_back(FifoEntry {
                    tid: Tid(tid),
                    pos: i as u32,
                    seq,
                });
            }
        }
        let mut m = SmtMachine {
            view_buf: Vec::with_capacity(cfg.threads),
            squash_buf: Vec::new(),
            trace: None,
            attr: None,
            profile: None,
            l2_rot: 0,
            wake: WakeArena::default(),
            due_buf: Vec::new(),
            cfg,
            cycle,
            mem,
            bpred,
            threads,
            int_iq,
            fp_iq,
            lsq_len,
            // Decode stamped the listed ops 0, 1, ….
            lsq_stamp: lsq_len as u32,
            free_int_regs,
            free_fp_regs,
            int_div_free_at,
            fp_div_free_at,
            pending_syscalls,
            global,
            dispatch_fifo,
        };
        // The wake chains, `pending` counters, ready lists, positions and
        // completion wheels are transient (not part of the byte format)
        // and the queue decode does not preserve slab indices, so
        // recompute them from the decoded windows/queues. Then accept
        // only a machine the simulator could have reached.
        m.rebuild_wake_state();
        m.validate().map_err(CodecError::Invalid)?;
        Ok(m)
    }

    /// Write the LSQ section: the context count, the length, then each
    /// entry's tid, seq, address word and store flag in global dispatch
    /// order — the layout of the shared queue the windows replaced, so
    /// snapshot bytes did not move.
    fn encode_lsq(&self, w: &mut ByteWriter) {
        // A stamp's distance past the next one sorts the oldest first.
        let mut entries = Vec::with_capacity(self.lsq_len);
        for ctx in &self.threads {
            for op in &ctx.window {
                if let Some(word) = op.lsq_word() {
                    let key = op.lsq_stamp.wrapping_sub(self.lsq_stamp);
                    let is_store = op.uop.kind == OpKind::Store;
                    entries.push((key, ctx.tid.0, op.seq, word, is_store));
                }
            }
        }
        entries.sort_unstable();
        w.usize(self.threads.len());
        w.usize(entries.len());
        for (_, tid, seq, word, is_store) in entries {
            w.u8(tid);
            w.u64(seq);
            w.u64(word);
            w.bool(is_store);
        }
    }

    /// Read the LSQ section past its context count: each entry must name
    /// a memory op of its thread's window that is past dispatch, with
    /// that op's address word and store flag. Stamps the listed ops in
    /// section order and returns the LSQ's length; [`Self::validate`]
    /// then checks the count and the per-thread dispatch order.
    fn decode_lsq(r: &mut ByteReader, threads: &mut [ThreadCtx]) -> Result<usize, CodecError> {
        let invalid = |msg: String| Err(CodecError::Invalid(format!("LSQ {msg}")));
        let len = r.usize()?;
        for stamp in 0..len {
            let (tid, seq, word, is_store) = (r.u8()?, r.u64()?, r.u64()?, r.bool()?);
            let Some(ctx) = threads.get_mut(tid as usize) else {
                return invalid(format!("entry tid {tid} out of range"));
            };
            let tid = ctx.tid;
            let Some(i) = find_seq(&ctx.window, seq) else {
                return invalid(format!("entry {tid} seq {seq} is not in its window"));
            };
            let op = &mut ctx.window[i];
            let Some(op_word) = op.lsq_word() else {
                return invalid(format!(
                    "entry {tid} seq {seq} names no memory op past dispatch"
                ));
            };
            if op_word != word || (op.uop.kind == OpKind::Store) != is_store {
                return invalid(format!(
                    "entry {tid} seq {seq} disagrees with its op's address word or kind"
                ));
            }
            op.lsq_stamp = stamp as u32;
        }
        Ok(len)
    }

    /// Recompute the transient acceleration state (wake chains, per-entry
    /// `pending` counters, IQ ready lists and positions, completion
    /// wheels) from the architecturally serialized state: windows, queues
    /// and `deps`. Used after decode, where every `base` is 0; `Clone`
    /// preserves the state directly. A deadline past the wheel links into
    /// the wrong bucket, which [`Self::validate`] then reports.
    fn rebuild_wake_state(&mut self) {
        let now = self.cycle;
        self.wake.clear();
        for ctx in &mut self.threads {
            ctx.calendar.clear();
            for i in 0..ctx.window.len() {
                ctx.window[i].wake_head = NO_WAKE;
                if let Stage::Executing { done_at } = ctx.window[i].stage {
                    // Between cycles an op issued last cycle with zero
                    // latency is due now, one cycle past its `done_at`.
                    let slot = ctx.calendar.slot(ctx.pos(i));
                    ctx.calendar.link(slot, done_at.max(now));
                }
            }
        }
        for is_fp in [false, true] {
            let queue = if is_fp { &self.fp_iq } else { &self.int_iq };
            // Collect first: registration mutates windows and the arena
            // while the cursor walk borrows the queue.
            let mut entries: Vec<(u32, Tid, u64, [Option<u64>; 2])> = Vec::new();
            let mut idx = queue.first();
            while idx != NIL {
                let (tid, seq) = queue.key(idx);
                entries.push((idx, tid, seq, queue.payload(idx).deps));
                idx = queue.next_of(idx);
            }
            for (slot, tid, seq, deps) in entries {
                let ctx = &mut self.threads[tid.idx()];
                // An entry with no window op is corrupt: its position never
                // resolves, and `validate` rejects it.
                let pos = find_seq(&ctx.window, seq).map_or(u32::MAX, |i| ctx.pos(i));
                let oldest = ctx.window.front().map_or(u64::MAX, |f| f.seq);
                let mut pending = 0u8;
                for dep in deps.iter().copied().flatten() {
                    if dep < oldest {
                        continue; // producer already committed
                    }
                    if let Some(i) = find_seq(&ctx.window, dep) {
                        if !ctx.window[i].is_done() {
                            pending += 1;
                            let head = ctx.window[i].wake_head;
                            ctx.window[i].wake_head = self.wake.alloc(WakeNode {
                                fp: is_fp,
                                slot,
                                waiter_seq: seq,
                                next: head,
                            });
                        }
                    }
                }
                let q = if is_fp {
                    &mut self.fp_iq
                } else {
                    &mut self.int_iq
                };
                let d = q.payload_mut(slot);
                d.pending = pending;
                d.pos = pos;
                if pending == 0 {
                    q.mark_ready(slot);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // public accessors
    // ------------------------------------------------------------------

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    pub fn global(&self) -> &GlobalCounters {
        &self.global
    }

    pub fn counters(&self, tid: Tid) -> &ThreadCounters {
        &self.threads[tid.idx()].counters
    }

    /// Copy every thread's status indicators at the current cycle, for
    /// telemetry export and per-interval deltas
    /// ([`crate::counters::CounterSnapshot::delta`]).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        self.counter_snapshot_into(&mut out);
        out
    }

    /// Refill an existing snapshot in place — the zero-allocation variant
    /// of [`Self::counter_snapshot`] for per-quantum telemetry loops: after
    /// the first call the thread vector is warm and nothing allocates.
    pub fn counter_snapshot_into(&self, out: &mut CounterSnapshot) {
        out.cycle = self.cycle;
        out.threads
            .resize(self.threads.len(), ThreadCounters::default());
        for (dst, src) in out.threads.iter_mut().zip(&self.threads) {
            dst.clone_from(&src.counters);
        }
    }

    /// Always 0: every cycle is stepped. Kept only because the benchmark
    /// harness still reads it; the next change to the benchmark removes it.
    pub fn skipped_cycles(&self) -> u64 {
        0
    }

    /// Committed instructions across all threads.
    pub fn total_committed(&self) -> u64 {
        self.global.committed
    }

    /// Aggregate IPC since reset.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.global.committed as f64 / self.cycle as f64
        }
    }

    /// Enable pipeline event tracing with a ring of `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(TraceBuffer::new(cap));
    }

    /// Disable tracing, returning the buffer (if any).
    pub fn disable_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Enable slot-loss attribution (per-thread CPI stacks). Runs on the
    /// same instrumented monomorphization as event tracing; simulated
    /// behavior is unchanged (`tests/obs_differential.rs`).
    pub fn enable_attr(&mut self) {
        self.attr = Some(Box::new(SlotAttribution::new(self.threads.len())));
    }

    /// Disable attribution, returning the accumulated stacks (if any).
    pub fn disable_attr(&mut self) -> Option<SlotAttribution> {
        self.attr.take().map(|b| *b)
    }

    /// The attribution state, if enabled.
    pub fn attr(&self) -> Option<&SlotAttribution> {
        self.attr.as_deref()
    }

    /// Start the sampled stage profile ([`StageProfile`]), from zero.
    /// Stepping then reads the clock one cycle in [`PROFILE_PERIOD`];
    /// simulated behavior is unchanged.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::new(StageProfile::calibrated()));
    }

    /// Stop the stage profile, returning its readings (if it was on).
    pub fn disable_profile(&mut self) -> Option<StageProfile> {
        self.profile.take().map(|b| *b)
    }

    /// Set this core's shared-L2 arbitration-rotation position (trace
    /// context only; see the `l2_rot` field). [`crate::MultiCoreMachine`]
    /// stamps each core with its rotation index at assembly.
    pub fn set_l2_rot(&mut self, rot: u8) {
        self.l2_rot = rot;
    }

    /// This core's shared-L2 arbitration-rotation position.
    pub fn l2_rot(&self) -> u8 {
        self.l2_rot
    }

    #[inline]
    fn trace_push(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// ADTS thread-control flag: enable/disable fetching for a context.
    pub fn set_fetch_enabled(&mut self, tid: Tid, enabled: bool) {
        self.threads[tid.idx()].fetch_enabled = enabled;
    }

    pub fn fetch_enabled(&self, tid: Tid) -> bool {
        self.threads[tid.idx()].fetch_enabled
    }

    /// Profile of the application running on `tid`.
    pub fn thread_profile(&self, tid: Tid) -> &smt_isa::AppProfile {
        self.threads[tid.idx()].stream.profile()
    }

    /// Total micro-ops `tid`'s stream has handed to the front end so far.
    /// Trace capture uses this to learn how deep a run consumed each
    /// per-thread stream (wrong-path ops come from a separate generator
    /// and are not counted).
    pub fn stream_generated(&self, tid: Tid) -> u64 {
        self.threads[tid.idx()].stream.generated()
    }

    /// Policy views for all threads (not just fetchable ones). Reuses the
    /// machine's internal scratch buffer, so repeated calls never allocate;
    /// the slice is valid until the next `views()` call or `step`.
    pub fn views(&mut self) -> &[PolicyView] {
        let cycle = self.cycle;
        let threads = &self.threads;
        self.view_buf.clear();
        self.view_buf.extend(
            threads
                .iter()
                .map(|t| PolicyView::of(t.tid, &t.counters, cycle)),
        );
        &self.view_buf
    }

    /// Fill `out` with policy views for all threads — for callers that
    /// hold their own buffer across quanta.
    pub fn views_into(&self, out: &mut Vec<PolicyView>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .map(|t| PolicyView::of(t.tid, &t.counters, self.cycle)),
        );
    }

    /// Total in-flight micro-ops (all windows).
    pub fn total_inflight(&self) -> usize {
        self.threads.iter().map(|t| t.window.len()).sum()
    }

    /// Current occupancy of the shared integer instruction queue.
    pub fn int_iq_len(&self) -> usize {
        self.int_iq.len()
    }

    /// Current occupancy of the shared floating-point instruction queue.
    pub fn fp_iq_len(&self) -> usize {
        self.fp_iq.len()
    }

    /// Current occupancy of the shared load/store queue.
    pub fn lsq_len(&self) -> usize {
        self.lsq_len
    }

    /// In-flight ops in one thread's reorder window.
    pub fn window_len(&self, tid: Tid) -> usize {
        self.threads[tid.idx()].window.len()
    }

    /// Record a fetch-policy switch in the event trace (no-op unless
    /// tracing is enabled). `from`/`to` index `FetchPolicy::ALL`; the
    /// scheduling layer calls this when it retargets the TSU, since the
    /// machine itself is policy-agnostic.
    pub fn note_policy_switch(&mut self, from: u8, to: u8) {
        let cycle = self.cycle;
        self.trace_push(TraceEvent::PolicySwitch { cycle, from, to });
    }

    // ------------------------------------------------------------------
    // the cycle
    // ------------------------------------------------------------------

    /// Is any instrumentation (event trace or slot attribution) live?
    #[inline]
    fn instrumented(&self) -> bool {
        self.trace.is_some() || self.attr.is_some()
    }

    /// Advance one cycle under the given fetch policy.
    pub fn step<C: FetchChooser>(&mut self, chooser: &mut C) {
        match (self.instrumented(), self.profile.is_some()) {
            (false, false) => self.step_impl::<C, _, false, false>(chooser, &mut Inline),
            (true, false) => self.step_impl::<C, _, true, false>(chooser, &mut Inline),
            (false, true) => self.step_impl::<C, _, false, true>(chooser, &mut Inline),
            (true, true) => self.step_impl::<C, _, true, true>(chooser, &mut Inline),
        }
    }

    /// Run `cycles` cycles, one [`Self::step`] each. The instrumentation
    /// and profile checks are hoisted out of the loop: with tracing,
    /// attribution and the profile off (every sweep and bench) the whole
    /// quantum runs in the bare monomorphization, with no per-event
    /// branches anywhere in the pipeline and no clock reads.
    ///
    /// The run counts its calling thread in the step budget
    /// ([`crate::batch::set_step_budget`]). A bare run of at least
    /// [`lookahead::MIN_RUN`] cycles that finds a slot free generates
    /// every correct-path µop on a helper thread ([`crate::lookahead`]);
    /// the machine ends bit-identical to an inline run.
    pub fn run<C: FetchChooser>(&mut self, cycles: u64, chooser: &mut C) {
        match (self.instrumented(), self.profile.is_some()) {
            (false, false) => self.run_impl::<C, false, false>(cycles, chooser),
            (true, false) => self.run_impl::<C, true, false>(cycles, chooser),
            (false, true) => self.run_impl::<C, false, true>(cycles, chooser),
            (true, true) => self.run_impl::<C, true, true>(cycles, chooser),
        }
    }

    fn run_impl<C: FetchChooser, const TRACE: bool, const PROFILE: bool>(
        &mut self,
        cycles: u64,
        chooser: &mut C,
    ) {
        let slots = RunSlots::take(!TRACE && !PROFILE && cycles >= lookahead::MIN_RUN);
        // Testing the consts again keeps the helper path out of the
        // instrumented and profiled monomorphizations.
        if !TRACE && !PROFILE && slots.helper {
            let streams = self.threads.iter().map(|t| t.stream.clone()).collect();
            let streams = lookahead::with_helper(streams, |feed| {
                for _ in 0..cycles {
                    self.step_impl::<C, _, TRACE, PROFILE>(chooser, feed);
                }
            });
            for (t, stream) in self.threads.iter_mut().zip(streams) {
                t.stream = stream;
            }
        } else {
            for _ in 0..cycles {
                self.step_impl::<C, _, TRACE, PROFILE>(chooser, &mut Inline);
            }
        }
    }

    /// One cycle, monomorphized on whether any instrumentation (event
    /// trace or slot attribution) is live and on whether the stage
    /// profile is. `TRACE` must match [`Self::instrumented`] and `PROFILE`
    /// the profile's presence; `step`/`run` guarantee both. Every trace
    /// emission site still checks `self.trace`, and every attribution hook
    /// checks `self.attr`, so either can be on without the other. `gen`
    /// supplies the correct-path ops.
    fn step_impl<C: FetchChooser, G: CorrectPath, const TRACE: bool, const PROFILE: bool>(
        &mut self,
        chooser: &mut C,
        gen: &mut G,
    ) {
        debug_assert_eq!(TRACE, self.instrumented());
        debug_assert_eq!(PROFILE, self.profile.is_some());
        if TRACE {
            self.attr_begin_cycle();
        }
        let mut clock = StageClock::start(PROFILE && self.cycle.is_multiple_of(PROFILE_PERIOD));
        self.complete::<TRACE>();
        clock.lap();
        self.commit::<TRACE>();
        clock.lap();
        self.issue::<TRACE>();
        clock.lap();
        self.dispatch::<TRACE>();
        clock.lap();
        self.fetch::<C, G, TRACE, PROFILE>(chooser, gen, &mut clock);
        clock.lap();
        if PROFILE {
            if let Some(profile) = self.profile.as_deref_mut() {
                clock.record(profile);
            }
        }
        self.end_cycle();
    }

    // ------------------------------------------------------------------
    // stage 1: complete
    // ------------------------------------------------------------------

    fn complete<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        // Branch mispredict squashes are collected first, then applied, so
        // the completion pass does not fight the borrow checker. Both
        // buffers are machine fields, kept empty between cycles — no
        // allocation on the hot path.
        let mut squashes = std::mem::take(&mut self.squash_buf);
        debug_assert!(squashes.is_empty());
        let mut due = std::mem::take(&mut self.due_buf);
        let mut trace = if TRACE { self.trace.take() } else { None };
        for (ti, ctx) in self.threads.iter_mut().enumerate() {
            if ctx.min_done_at > now {
                continue;
            }
            let tid = ctx.tid;
            // Take this cycle's wheel bucket whole — everything in it is
            // due now — and finish its ops oldest first: the window order
            // a scan would visit them in.
            due.clear();
            let mut slot = ctx.calendar.take(now);
            while slot != WHEEL_NIL {
                due.push(ctx.calendar.index_of(slot, ctx.base));
                slot = ctx.calendar.next_of(slot);
            }
            due.sort_unstable();
            for &i in &due {
                let op = &mut ctx.window[i];
                debug_assert!(
                    matches!(op.stage, Stage::Executing { done_at } if done_at == now || done_at + 1 == now),
                    "wheel bucket {now} holds {:?}",
                    op.stage
                );
                op.stage = Stage::Done;
                let wake_head = std::mem::replace(&mut op.wake_head, NO_WAKE);
                // Copy the facts out so counter updates don't fight the
                // window borrow (MicroOp is Copy).
                let uop = op.uop;
                if TRACE {
                    if let Some(t) = &mut trace {
                        t.push(TraceEvent::Complete {
                            cycle: now,
                            tid: ctx.tid,
                            seq: op.seq,
                        });
                    }
                }
                let (wrong_path, mispredicted, dmiss, seq, pht_index, hist) = (
                    op.wrong_path,
                    op.mispredicted,
                    op.dmiss,
                    op.seq,
                    op.pht_index,
                    op.history_at_fetch,
                );
                // Wake this producer's registered waiters: O(waiters)
                // counter decrements instead of every blocked entry
                // re-searching the window each cycle. A stale node (its
                // waiter was squashed after registering) fails the slot
                // revalidation and is simply dropped.
                let mut widx = wake_head;
                while widx != NO_WAKE {
                    let node = self.wake.nodes[widx as usize];
                    let queue = if node.fp {
                        &mut self.fp_iq
                    } else {
                        &mut self.int_iq
                    };
                    if queue.entry_matches(node.slot, tid, node.waiter_seq) {
                        let p = queue.payload_mut(node.slot);
                        debug_assert!(p.pending > 0, "wake underflow");
                        p.pending = p.pending.saturating_sub(1);
                        if p.pending == 0 {
                            queue.mark_ready(node.slot);
                        }
                    }
                    self.wake.free.push(widx);
                    widx = node.next;
                }
                match uop.kind {
                    OpKind::Branch => {
                        if uop.is_cond_branch() {
                            ctx.counters.inflight_branches -= 1;
                        }
                        if !wrong_path {
                            if let Some(b) = uop.branch {
                                if b.kind == BranchKind::Conditional {
                                    ctx.counters.branches_resolved += 1;
                                    self.bpred.train(uop.pc, pht_index, b.taken);
                                }
                                if mispredicted {
                                    let outcome =
                                        (b.kind == BranchKind::Conditional).then_some(b.taken);
                                    squashes.push((ti, seq, hist, outcome));
                                }
                            }
                        }
                    }
                    OpKind::Load => {
                        if dmiss {
                            ctx.counters.outstanding_dmiss -= 1;
                        }
                        ctx.counters.inflight_loads -= 1;
                        ctx.counters.inflight_mem -= 1;
                    }
                    OpKind::Store => {
                        ctx.counters.inflight_mem -= 1;
                    }
                    _ => {}
                }
            }
            // Every op left on the wheel is due after now in its own
            // bucket's cycle, so this is the earliest live deadline.
            ctx.min_done_at = ctx.calendar.earliest_after(now);
        }
        self.due_buf = due;
        if TRACE {
            self.trace = trace.take();
        }
        for (ti, seq, hist, outcome) in squashes.drain(..) {
            self.bpred.repair_history(Tid(ti as u8), hist, outcome);
            self.squash_after::<TRACE>(ti, seq);
        }
        self.squash_buf = squashes;
    }

    /// Squash every op of thread `ti` younger than `seq` and redirect fetch.
    fn squash_after<const TRACE: bool>(&mut self, ti: usize, seq: u64) {
        let now = self.cycle;
        let cut = {
            let ctx = &self.threads[ti];
            // First index with seq greater than the branch.
            let (a, b) = ctx.window.as_slices();
            let in_a = a.partition_point(|op| op.seq <= seq);
            if in_a < a.len() {
                in_a
            } else {
                a.len() + b.partition_point(|op| op.seq <= seq)
            }
        };
        let ctx = &mut self.threads[ti];
        let n_victims = ctx.window.len() - cut;
        // Return every resource each victim holds, accounting in place —
        // no drained victims Vec, no allocation.
        for i in cut..ctx.window.len() {
            let (stage, kind, is_cond, dmiss, dst, past_dispatch, done) = {
                let op = &ctx.window[i];
                (
                    op.stage,
                    op.uop.kind,
                    op.uop.is_cond_branch(),
                    op.dmiss,
                    op.uop.dst,
                    op.past_dispatch(),
                    op.is_done(),
                )
            };
            if ctx.window[i].lsq_word().is_some() {
                self.lsq_len -= 1;
            }
            // A squashed producer takes its wake chain with it; its
            // waiters are younger ops of the same thread, squashed here
            // too, so no pending counter goes un-decremented. (A squashed
            // *waiter* may leave a stale node on an older surviving
            // producer; the drain's slot revalidation drops it.)
            let wake_head = std::mem::replace(&mut ctx.window[i].wake_head, NO_WAKE);
            self.wake.free_chain(wake_head);
            match stage {
                Stage::FrontEnd { .. } => ctx.counters.front_end_occ -= 1,
                Stage::Queued => ctx.counters.iq_occ -= 1,
                Stage::Executing { done_at } => {
                    // Everything due by now completed in this cycle's
                    // pass, so the victim sits in its `done_at` bucket.
                    debug_assert!(done_at > now);
                    let slot = ctx.calendar.slot(ctx.pos(i));
                    let linked = ctx.calendar.remove(slot, done_at);
                    debug_assert!(linked, "executing victim missing from the wheel");
                }
                Stage::Done => {}
            }
            if !done {
                match kind {
                    OpKind::Branch if is_cond => ctx.counters.inflight_branches -= 1,
                    OpKind::Load => {
                        if dmiss && matches!(stage, Stage::Executing { .. }) {
                            ctx.counters.outstanding_dmiss -= 1;
                        }
                        ctx.counters.inflight_loads -= 1;
                        ctx.counters.inflight_mem -= 1;
                    }
                    OpKind::Store => ctx.counters.inflight_mem -= 1,
                    _ => {}
                }
            }
            if past_dispatch {
                if let Some(d) = dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
            }
        }
        ctx.window.truncate(cut);
        let tid = ctx.tid;
        // Purge the instruction queues of the squashed refs: O(victims)
        // per queue, touching only this thread's entries. The dispatch
        // FIFO keeps its dead entries until they reach the head.
        let min_gone = seq + 1;
        self.int_iq.squash_tail(tid, min_gone);
        self.fp_iq.squash_tail(tid, min_gone);

        let ctx = &mut self.threads[ti];
        ctx.wrong_path_since = None;
        ctx.redirect_stall_until = now + 1;
        ctx.counters.squashes += 1;
        ctx.counters.mispredicts += 1;
        ctx.counters.recent_mispredicts += 1;
        self.global.squashes += 1;
        if TRACE {
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::Squash {
                    cycle: now,
                    tid,
                    after_seq: seq,
                    victims: n_victims,
                });
            }
        }
        // Rebuild the rename map from the surviving window.
        ctx.rename = [None; 64];
        for i in 0..ctx.window.len() {
            if let Some(d) = ctx.window[i].uop.dst {
                let s = ctx.window[i].seq;
                ctx.rename[d.flat()] = Some(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // stage 2: commit
    // ------------------------------------------------------------------

    fn commit<const TRACE: bool>(&mut self) {
        let n = self.threads.len();
        let mut budget = self.cfg.commit_width;
        // The round-robin walk starts at thread `cycle mod n`: a mask, not
        // a division, for a power-of-two thread count.
        let mut ti = if n.is_power_of_two() {
            self.cycle as usize & (n - 1)
        } else {
            (self.cycle % n as u64) as usize
        };
        for _ in 0..n {
            while budget > 0 {
                let ctx = &mut self.threads[ti];
                let Some(head) = ctx.window.front() else {
                    break;
                };
                if !head.is_done() {
                    break;
                }
                debug_assert!(!head.wrong_path, "wrong-path op reached commit");
                let op = ctx.window.pop_front().expect("head exists");
                ctx.base = ctx.base.wrapping_add(1);
                budget -= 1;
                ctx.counters.committed += 1;
                self.global.committed += 1;
                if TRACE {
                    if let Some(t) = &mut self.trace {
                        t.push(TraceEvent::Commit {
                            cycle: self.cycle,
                            tid: ctx.tid,
                            seq: op.seq,
                        });
                    }
                }
                if let Some(d) = op.uop.dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
                if op.lsq_word().is_some() {
                    self.lsq_len -= 1;
                }
                if op.uop.kind == OpKind::Syscall {
                    ctx.counters.syscalls += 1;
                    let popped = self.pending_syscalls.pop_front();
                    debug_assert_eq!(
                        popped.map(|q| (q.tid, q.seq)),
                        Some((Tid(ti as u8), op.seq)),
                        "drain FIFO out of sync"
                    );
                }
            }
            ti = if ti + 1 == n { 0 } else { ti + 1 };
        }
        if TRACE {
            self.attr_commit(budget);
        }
    }

    // ------------------------------------------------------------------
    // stage 3: issue
    // ------------------------------------------------------------------

    /// Are all producers in `deps` complete? The pre-readiness-tracking
    /// window binary search — retained as the *reference oracle* for the
    /// `pending` counters (cross-checked by the issue stage's debug
    /// asserts, [`Self::check_invariants`], and the readiness microtests
    /// and proptests, via [`Self::deps_ready_search`]).
    fn deps_ready(ctx: &ThreadCtx, deps: &[Option<u64>; 2]) -> bool {
        let oldest = match ctx.window.front() {
            Some(f) => f.seq,
            None => return true,
        };
        for dep in deps.iter().copied().flatten() {
            if dep < oldest {
                continue; // producer already committed
            }
            match find_seq(&ctx.window, dep) {
                Some(i) => {
                    if !ctx.window[i].is_done() {
                        return false;
                    }
                }
                None => {
                    debug_assert!(false, "live op depends on squashed producer");
                }
            }
        }
        true
    }

    /// Public face of the reference oracle: judge `deps` of thread `tid`
    /// by binary-searching the window, exactly as the issue stage did
    /// before readiness tracking. Cold path, for differential tests.
    pub fn deps_ready_search(&self, tid: Tid, deps: &[Option<u64>; 2]) -> bool {
        Self::deps_ready(&self.threads[tid.idx()], deps)
    }

    /// Readiness counter of the queued op `(tid, seq)`: `Some(pending)`
    /// if the op currently sits in an instruction queue, else `None`.
    /// O(thread queue length); for tests and invariant checks only.
    pub fn queued_pending(&self, tid: Tid, seq: u64) -> Option<u8> {
        for queue in [&self.int_iq, &self.fp_iq] {
            let mut idx = queue.first();
            while idx != NIL {
                let (t, s) = queue.key(idx);
                if t == tid && s == seq {
                    return Some(queue.payload(idx).pending);
                }
                idx = queue.next_of(idx);
            }
        }
        None
    }

    fn issue<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        if TRACE {
            self.attr_issue_begin();
        }
        // Drained syscall execution (bypasses the queues entirely).
        if let Some(&q) = self.pending_syscalls.front() {
            // Drained when nothing is in flight except the pending syscalls
            // themselves (several threads may have fetched one in the same
            // cycle; they execute one at a time in FIFO order).
            if self.total_inflight() == self.pending_syscalls.len() {
                let ctx = &mut self.threads[q.tid.idx()];
                if let Some(i) = find_seq(&ctx.window, q.seq) {
                    if ctx.window[i].in_front_end() {
                        ctx.start_executing(i, now, now + self.cfg.syscall_latency);
                        ctx.counters.front_end_occ -= 1;
                    }
                }
            }
        }

        let mut budget = self.cfg.issue_width;
        let mut int_units = self.cfg.int_alus;
        let mut fp_units = self.cfg.fp_units;
        let mut ldst_ports = self.cfg.ldst_ports;

        // Issue frees the queue slot; long-latency *dep-blocked* ops are
        // what clog the queues (Tullsen's "IQ clog"), not issued ops.
        // Walk only the ready lists, oldest first: a dep-blocked entry
        // neither issues nor spends budget nor writes anything, so passing
        // it over leaves every decision unchanged. An issued entry is
        // unlinked in O(1).
        let mut idx = self.int_iq.first_ready();
        while idx != NIL && budget > 0 {
            let next = self.int_iq.next_ready(idx);
            if self.try_issue_int::<TRACE>(idx, now, &mut int_units, &mut ldst_ports) {
                self.int_iq.remove(idx);
                budget -= 1;
            }
            idx = next;
        }

        let mut idx = self.fp_iq.first_ready();
        while idx != NIL && budget > 0 && fp_units > 0 {
            let next = self.fp_iq.next_ready(idx);
            if self.try_issue_fp::<TRACE>(idx, now, &mut fp_units) {
                self.fp_iq.remove(idx);
                budget -= 1;
            }
            idx = next;
        }
        if TRACE {
            self.attr_issue_end(budget);
        }
    }

    fn try_issue_int<const TRACE: bool>(
        &mut self,
        idx: u32,
        now: u64,
        int_units: &mut usize,
        ldst_ports: &mut usize,
    ) -> bool {
        let cfg_lat_mul = self.cfg.lat_int_mul;
        let cfg_lat_div = self.cfg.lat_int_div;
        let (tid, seq) = self.int_iq.key(idx);
        let q = QRef { tid, seq };
        let d = *self.int_iq.payload(idx);
        // Only ready-list entries get here; `deps_ready` is kept as the
        // reference oracle. The memo is written before the unit check, as
        // the full-queue walk did.
        debug_assert!(
            d.pending == 0 && Self::deps_ready(&self.threads[tid.idx()], &d.deps),
            "ready-list entry not ready"
        );
        self.int_iq.payload_mut(idx).deps_done = true;
        let done_at = match d.kind {
            OpKind::IntAlu | OpKind::Nop | OpKind::Branch => {
                if *int_units == 0 {
                    return false;
                }
                *int_units -= 1;
                now + 1
            }
            OpKind::IntMul => {
                if *int_units == 0 {
                    return false;
                }
                *int_units -= 1;
                now + cfg_lat_mul
            }
            OpKind::IntDiv => {
                if *int_units == 0 || self.int_div_free_at > now {
                    return false;
                }
                *int_units -= 1;
                self.int_div_free_at = now + cfg_lat_div;
                now + cfg_lat_div
            }
            OpKind::Load => {
                if *ldst_ports == 0 {
                    return false;
                }
                *ldst_ports -= 1;
                return self.issue_load::<TRACE>(q, d.pos, now);
            }
            OpKind::Store => {
                if *ldst_ports == 0 {
                    return false;
                }
                *ldst_ports -= 1;
                return self.issue_store::<TRACE>(q, d.pos, now);
            }
            OpKind::Syscall => return false, // handled by the drain path
            _ => unreachable!("fp op in int queue"),
        };
        let ctx = &mut self.threads[q.tid.idx()];
        let Some(i) = ctx.at(d.pos, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        debug_assert!(ctx.window[i].is_queued(), "issued op left in queue");
        ctx.start_executing(i, now, done_at);
        ctx.counters.iq_occ -= 1;
        if TRACE {
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at,
            });
        }
        true
    }

    fn issue_load<const TRACE: bool>(&mut self, q: QRef, pos: u32, now: u64) -> bool {
        let ti = q.tid.idx();
        let Some(i) = self.threads[ti].at(pos, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        let ctx = &self.threads[ti];
        let wrong_path = ctx.window[i].wrong_path;
        let addr = ctx.window[i].uop.mem.expect("load has mem").addr;
        let word = addr >> 3;
        // Store-to-load forwarding: an older in-flight store to the same
        // 8-byte word supplies the value without a cache access. The
        // window is scanned only when the store filter says such a store
        // may still be in flight; `window[0]` exists, since the load does.
        let forwarded =
            ctx.store_filter.may_hold(word, ctx.window[0].seq) && ctx.older_store_to(i, word);
        debug_assert_eq!(
            forwarded,
            ctx.older_store_to(i, word),
            "filtered forwarding decision disagrees with the window scan for {} seq {}",
            q.tid,
            q.seq
        );
        let (lat, l1_miss, l2_miss) = if forwarded {
            (2, false, false)
        } else {
            let r = self.mem.data(addr);
            (1 + r.latency, r.l1_miss, r.l2_miss)
        };
        let ctx = &mut self.threads[ti];
        ctx.start_executing(i, now, now + lat);
        ctx.window[i].dmiss = l1_miss;
        ctx.counters.iq_occ -= 1;
        if !wrong_path {
            ctx.counters.loads += 1;
        }
        if l1_miss {
            ctx.counters.l1d_misses += 1;
            ctx.counters.recent_l1d_misses += 1;
            ctx.counters.outstanding_dmiss += 1;
        }
        if l2_miss {
            ctx.counters.l2_misses += 1;
        }
        if TRACE {
            let rot = self.l2_rot;
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at: now + lat,
            });
            if l1_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L1D,
                    rot,
                });
            }
            if l2_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L2,
                    rot,
                });
            }
        }
        true
    }

    fn issue_store<const TRACE: bool>(&mut self, q: QRef, pos: u32, now: u64) -> bool {
        let ti = q.tid.idx();
        let Some(i) = self.threads[ti].at(pos, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        let uop = self.threads[ti].window[i].uop;
        let wrong_path = self.threads[ti].window[i].wrong_path;
        let addr = uop.mem.expect("store has mem").addr;
        // Write-allocate access now; the write buffer hides the miss
        // latency from the store itself.
        let r = self.mem.data(addr);
        let ctx = &mut self.threads[ti];
        ctx.start_executing(i, now, now + 1);
        ctx.counters.iq_occ -= 1;
        if !wrong_path {
            ctx.counters.stores += 1;
        }
        if r.l1_miss {
            ctx.counters.l1d_misses += 1;
            ctx.counters.recent_l1d_misses += 1;
        }
        if r.l2_miss {
            ctx.counters.l2_misses += 1;
        }
        if TRACE {
            let rot = self.l2_rot;
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at: now + 1,
            });
            if r.l1_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L1D,
                    rot,
                });
            }
            if r.l2_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L2,
                    rot,
                });
            }
        }
        true
    }

    fn try_issue_fp<const TRACE: bool>(
        &mut self,
        idx: u32,
        now: u64,
        fp_units: &mut usize,
    ) -> bool {
        let (tid, seq) = self.fp_iq.key(idx);
        let q = QRef { tid, seq };
        let d = *self.fp_iq.payload(idx);
        debug_assert!(
            d.pending == 0 && Self::deps_ready(&self.threads[tid.idx()], &d.deps),
            "ready-list entry not ready"
        );
        self.fp_iq.payload_mut(idx).deps_done = true;
        let done_at = match d.kind {
            OpKind::FpAlu => now + self.cfg.lat_fp_alu,
            OpKind::FpMul => now + self.cfg.lat_fp_mul,
            OpKind::FpDiv => {
                if self.fp_div_free_at > now {
                    return false;
                }
                self.fp_div_free_at = now + self.cfg.lat_fp_div;
                now + self.cfg.lat_fp_div
            }
            _ => unreachable!("non-fp op in fp queue"),
        };
        *fp_units -= 1;
        let ctx = &mut self.threads[q.tid.idx()];
        let Some(i) = ctx.at(d.pos, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        debug_assert!(ctx.window[i].is_queued(), "issued op left in queue");
        ctx.start_executing(i, now, done_at);
        ctx.counters.iq_occ -= 1;
        if TRACE {
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at,
            });
        }
        true
    }

    // ------------------------------------------------------------------
    // stage 4: dispatch
    // ------------------------------------------------------------------

    fn dispatch<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        let mut budget = self.cfg.dispatch_width;
        while budget > 0 {
            let Some(&FifoEntry { tid, pos, seq }) = self.dispatch_fifo.front() else {
                break;
            };
            let ti = tid.idx();
            let Some(i) = self.threads[ti].at(pos, seq) else {
                // Squashed or flushed while queued for decode (or a syscall
                // the drain already retired): a free bubble.
                self.dispatch_fifo.pop_front();
                continue;
            };
            let op = &self.threads[ti].window[i];
            match op.stage {
                Stage::FrontEnd { ready_at } if ready_at <= now => {}
                // Still in the decode pipe (or already handled): stall.
                _ => break,
            }
            let kind = op.uop.kind;
            if kind == OpKind::Syscall {
                // Syscalls hold no queue resources; they leave the decode
                // pipe and wait in the window for the machine-wide drain.
                self.dispatch_fifo.pop_front();
                continue;
            }
            // Structural hazards stall the whole in-order front end.
            let is_fp = kind.is_fp();
            if is_fp {
                if self.fp_iq.len() >= self.cfg.fp_iq_size {
                    break;
                }
            } else if self.int_iq.len() >= self.cfg.int_iq_size {
                break;
            }
            if kind.is_mem() && self.lsq_len >= self.cfg.lsq_size {
                self.threads[ti].counters.lsq_full_cycles += 1;
                break;
            }
            if let Some(d) = op.uop.dst {
                let free = match d.class {
                    RegClass::Int => &mut self.free_int_regs,
                    RegClass::Fp => &mut self.free_fp_regs,
                };
                if *free == 0 {
                    break;
                }
                *free -= 1;
            }
            // Commit the dispatch.
            let word = op.uop.mem.map(|m| m.addr >> 3);
            let deps = op.deps;
            let ctx = &mut self.threads[ti];
            ctx.window[i].stage = Stage::Queued;
            if let Some(word) = word {
                ctx.window[i].lsq_stamp = self.lsq_stamp;
                self.lsq_stamp = self.lsq_stamp.wrapping_add(1);
                self.lsq_len += 1;
                if kind == OpKind::Store {
                    ctx.store_filter.note(word, seq);
                }
            }
            ctx.counters.front_end_occ -= 1;
            ctx.counters.iq_occ += 1;
            let data = IqData {
                kind,
                deps,
                deps_done: false,
                pending: 0,
                pos,
            };
            let slot = if is_fp {
                self.fp_iq.push_back(tid, seq, data)
            } else {
                self.int_iq.push_back(tid, seq, data)
            };
            // Register on each live, not-yet-done producer: count it in
            // `pending` and link a wake node onto the producer's chain.
            // `complete` ran earlier this cycle, so a producer finishing
            // *now* already reads as Done — exactly what `deps_ready`
            // would conclude at this op's first issue attempt.
            let oldest = ctx.window.front().map(|f| f.seq).unwrap_or(u64::MAX);
            let mut pending = 0u8;
            for dep in deps.iter().copied().flatten() {
                if dep < oldest {
                    continue; // producer already committed
                }
                match find_seq(&ctx.window, dep) {
                    Some(p) => {
                        if !ctx.window[p].is_done() {
                            pending += 1;
                            let head = ctx.window[p].wake_head;
                            ctx.window[p].wake_head = self.wake.alloc(WakeNode {
                                fp: is_fp,
                                slot,
                                waiter_seq: seq,
                                next: head,
                            });
                        }
                    }
                    None => {
                        debug_assert!(false, "dispatched op depends on squashed producer");
                    }
                }
            }
            let q = if is_fp {
                &mut self.fp_iq
            } else {
                &mut self.int_iq
            };
            if pending == 0 {
                q.mark_ready(slot);
            } else {
                q.payload_mut(slot).pending = pending;
            }
            self.dispatch_fifo.pop_front();
            if TRACE {
                self.trace_push(TraceEvent::Dispatch {
                    cycle: now,
                    tid,
                    seq,
                });
            }
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // stage 5: fetch
    // ------------------------------------------------------------------

    fn fetch<C: FetchChooser, G: CorrectPath, const TRACE: bool, const PROFILE: bool>(
        &mut self,
        chooser: &mut C,
        gen: &mut G,
        clock: &mut StageClock,
    ) {
        let now = self.cycle;
        let drain = !self.pending_syscalls.is_empty();
        // One pass over the threads: a willing thread that cannot fetch
        // this cycle (every willing thread, during a syscall drain)
        // accounts a stall; the fetchable ones become the candidates.
        let mut views = std::mem::take(&mut self.view_buf);
        views.clear();
        for ctx in &mut self.threads {
            if !ctx.fetch_enabled {
                continue;
            }
            if !drain && ctx.fetchable(now, &self.cfg) {
                views.push(PolicyView::of(ctx.tid, &ctx.counters, now));
            } else {
                ctx.counters.fetch_stall_cycles += 1;
                ctx.counters.recent_stalls += 1;
            }
        }
        if drain {
            self.view_buf = views;
            self.global.syscall_drain_cycles += 1;
            if TRACE {
                self.attr_fetch(self.cfg.fetch_width, true);
            }
            return;
        }
        // The candidates, ordered by the policy.
        chooser.prioritize(now, &mut views);
        let mut remaining = self.cfg.fetch_width;
        for v in views.iter().take(self.cfg.max_fetch_threads) {
            if remaining == 0 {
                break;
            }
            remaining -= self.fetch_thread::<G, TRACE, PROFILE>(v.tid, remaining, gen, clock);
        }
        self.view_buf = views;
        if TRACE {
            self.attr_fetch(remaining, false);
        }
    }

    /// Fetch up to `budget` ops from `tid`, its correct-path ops from
    /// `gen`; returns how many were fetched. In a timed cycle of the
    /// profile, `clock` times each correct-path generation.
    fn fetch_thread<G: CorrectPath, const TRACE: bool, const PROFILE: bool>(
        &mut self,
        tid: Tid,
        budget: usize,
        gen: &mut G,
        clock: &mut StageClock,
    ) -> usize {
        let now = self.cycle;
        // `line_bytes` is a validated power of two.
        let line_shift = self.cfg.l1i.line_bytes.trailing_zeros();
        let mut fetched = 0usize;
        let mut line: Option<u64> = None;
        while fetched < budget {
            let ctx = &self.threads[tid.idx()];
            if ctx.window.len() >= self.cfg.rob_per_thread
                || (ctx.counters.front_end_occ as usize) >= self.cfg.fetch_buffer_per_thread
            {
                break;
            }
            let wrong_path = ctx.wrong_path_since.is_some();
            let pc = if wrong_path {
                ctx.wp_pc
            } else {
                gen.pc(tid.idx(), &ctx.stream)
            };
            // One I-cache line per thread per cycle.
            let this_line = pc >> line_shift;
            match line {
                None => line = Some(this_line),
                Some(l) if l != this_line => break,
                _ => {}
            }
            if fetched == 0 {
                // Access the line once per cycle (first op). A line whose
                // miss we already waited out is delivered from the fetch
                // buffer without re-probing (otherwise another thread could
                // evict it during the stall and livelock this one).
                if ctx.icache_ready_line == Some(this_line) {
                    self.threads[tid.idx()].icache_ready_line = None;
                } else {
                    let r = self.mem.fetch(pc);
                    if r.l1_miss {
                        let ctx = &mut self.threads[tid.idx()];
                        ctx.counters.l1i_misses += 1;
                        ctx.counters.recent_l1i_misses += 1;
                        if r.l2_miss {
                            ctx.counters.l2_misses += 1;
                        }
                        ctx.icache_stall_until = now + r.latency;
                        ctx.icache_ready_line = Some(this_line);
                        if TRACE {
                            let rot = self.l2_rot;
                            self.trace_push(TraceEvent::CacheMiss {
                                cycle: now,
                                tid,
                                addr: pc,
                                level: MissLevel::L1I,
                                rot,
                            });
                            if r.l2_miss {
                                self.trace_push(TraceEvent::CacheMiss {
                                    cycle: now,
                                    tid,
                                    addr: pc,
                                    level: MissLevel::L2,
                                    rot,
                                });
                            }
                        }
                        break;
                    }
                }
            }
            // Produce the op.
            let ctx = &mut self.threads[tid.idx()];
            let uop = if wrong_path {
                let op = ctx.wp_gen.next(ctx.wp_pc);
                ctx.wp_pc += 4;
                op
            } else if PROFILE && clock.timed() {
                clock.time_gen(|| gen.next(tid.idx(), &mut ctx.stream))
            } else {
                gen.next(tid.idx(), &mut ctx.stream)
            };
            let seq = ctx.next_seq;
            ctx.next_seq += 1;
            // Rename: resolve sources, then bind the destination.
            let dep1 = uop.src1.and_then(|r| ctx.rename[r.flat()]);
            let dep2 = uop.src2.and_then(|r| ctx.rename[r.flat()]);
            if let Some(d) = uop.dst {
                ctx.rename[d.flat()] = Some(seq);
            }
            let mut inflight = InFlight {
                seq,
                uop,
                wrong_path,
                deps: [dep1, dep2],
                stage: Stage::FrontEnd {
                    ready_at: now + self.cfg.front_end_latency,
                },
                mispredicted: false,
                dmiss: false,
                pht_index: 0,
                history_at_fetch: 0,
                fetched_at: now,
                wake_head: NO_WAKE,
                lsq_stamp: 0,
            };
            // Gauges and cumulative fetch counters.
            ctx.counters.front_end_occ += 1;
            if wrong_path {
                ctx.counters.wrongpath_fetched += 1;
            } else {
                ctx.counters.fetched += 1;
            }
            self.global.fetch_slots_used += 1;
            match uop.kind {
                OpKind::Load => {
                    ctx.counters.inflight_loads += 1;
                    ctx.counters.inflight_mem += 1;
                }
                OpKind::Store => ctx.counters.inflight_mem += 1,
                _ => {}
            }
            let mut stop_after = false;
            if let Some(b) = uop.branch {
                if b.kind == BranchKind::Conditional && !wrong_path {
                    ctx.counters.cond_branches += 1;
                }
                if uop.is_cond_branch() {
                    ctx.counters.inflight_branches += 1;
                }
                let pred = self
                    .bpred
                    .predict(tid, uop.pc, b.kind, b.taken, !wrong_path);
                inflight.pht_index = pred.pht_index;
                inflight.history_at_fetch = pred.history_at_fetch;
                let mispredict = match b.kind {
                    BranchKind::Conditional => pred.taken != b.taken,
                    // Unconditional/call: direction always right; a BTB miss
                    // is a fetch break, not a mispredict.
                    BranchKind::Unconditional | BranchKind::Call => false,
                    // Empty-RAS returns are discovered wrong at resolve.
                    BranchKind::Return => !pred.target_known,
                };
                if !wrong_path && mispredict {
                    inflight.mispredicted = true;
                    let ctx = &mut self.threads[tid.idx()];
                    ctx.wrong_path_since = Some(seq);
                    // The wrong path is whichever direction the predictor
                    // chose: the target if predicted taken, else fall-through.
                    ctx.wp_pc = if pred.taken { b.target } else { uop.pc + 4 };
                }
                // No fetching past a predicted-taken branch in one cycle,
                // nor past a taken branch with an unknown target.
                if pred.taken || !pred.target_known {
                    stop_after = true;
                }
            }
            if uop.kind == OpKind::Syscall {
                // Begin the machine-wide drain once this is fetched.
                self.pending_syscalls.push_back(QRef { tid, seq });
                stop_after = true;
            }
            let kind = inflight.uop.kind;
            let ctx = &mut self.threads[tid.idx()];
            let pos = ctx.pos(ctx.window.len());
            ctx.window.push_back(inflight);
            self.dispatch_fifo.push_back(FifoEntry { tid, pos, seq });
            if TRACE {
                self.trace_push(TraceEvent::Fetch {
                    cycle: now,
                    tid,
                    seq,
                    kind,
                    wrong_path,
                });
            }
            fetched += 1;
            if stop_after {
                break;
            }
        }
        fetched
    }

    /// Human-readable one-screen snapshot of the pipeline state: per-thread
    /// window occupancy by stage, shared-queue fill, and the drain state.
    /// Intended for interactive debugging and the examples.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {}  committed {}  IPC {:.3}  intq {}/{}  fpq {}/{}  lsq {}/{}  regs {}i/{}f  drain {}",
            self.cycle,
            self.global.committed,
            self.aggregate_ipc(),
            self.int_iq.len(),
            self.cfg.int_iq_size,
            self.fp_iq.len(),
            self.cfg.fp_iq_size,
            self.lsq_len,
            self.cfg.lsq_size,
            self.free_int_regs,
            self.free_fp_regs,
            self.pending_syscalls.len(),
        );
        for ctx in &self.threads {
            let (mut fe, mut q, mut ex, mut done) = (0, 0, 0, 0);
            for op in &ctx.window {
                match op.stage {
                    Stage::FrontEnd { .. } => fe += 1,
                    Stage::Queued => q += 1,
                    Stage::Executing { .. } => ex += 1,
                    Stage::Done => done += 1,
                }
            }
            let _ = writeln!(
                out,
                "  {} {:<8} win {:>3} (fe {fe:>2} q {q:>2} ex {ex:>2} done {done:>2})  committed {:>8}  wp {}  {}",
                ctx.tid,
                ctx.stream.profile().name,
                ctx.window.len(),
                ctx.counters.committed,
                ctx.counters.wrongpath_fetched,
                if ctx.wrong_path_since.is_some() { "WRONG-PATH" } else { "" },
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // context switching (job-scheduler support)
    // ------------------------------------------------------------------

    /// Replace the job running on context `tid` with a fresh stream, as a
    /// job scheduler would: every in-flight op of the thread is flushed
    /// (its shared resources returned), the context state is reset, and
    /// fetch is blocked for `penalty` cycles to model state save/restore.
    ///
    /// Per-thread *cumulative* counters reset with the job (they describe
    /// the job, not the context); the machine-wide counters keep counting.
    pub fn replace_thread(&mut self, tid: Tid, stream: UopStream, penalty: u64) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        let base = stream.addr_base();
        let ws = stream.profile().data_ws_bytes;
        ctx.wp_gen = WrongPathGen::new(
            SplitMix64::derive(0xAD75 ^ tid.idx() as u64, stream.generated() ^ 7),
            base,
            ws,
        );
        ctx.stream = stream;
        ctx.counters = ThreadCounters::default();
        ctx.icache_stall_until = self.cycle + penalty;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = self.cycle + penalty;
        ctx.migration_stall_until = 0;
    }

    /// Extract `tid`'s architectural residue for a cross-core migration:
    /// flush every in-flight op (returning its shared resources), then
    /// park the context (fetch disabled, stalls cleared) and hand back
    /// the stream position plus cumulative counters. Microarchitectural
    /// state does not travel — the destination rebuilds it cold.
    pub fn migrate_out(&mut self, tid: Tid) -> MigratedThread {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        debug_assert_eq!(ctx.counters.front_end_occ, 0, "flush left frontend occ");
        debug_assert_eq!(ctx.counters.iq_occ, 0, "flush left IQ occ");
        let stream = ctx.stream.clone();
        let counters = std::mem::take(&mut ctx.counters);
        ctx.fetch_enabled = false;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = 0;
        MigratedThread { stream, counters }
    }

    /// Install a migrated thread into context `tid`: the slot is flushed,
    /// the stream position and cumulative counters are restored, the
    /// wrong-path generator is re-derived from the stream position (as in
    /// [`replace_thread`](Self::replace_thread)), and fetch is held for
    /// `penalty` cycles of cold-frontend stall attributed as
    /// [`crate::obs::FetchCause::Migration`].
    pub fn migrate_in(&mut self, tid: Tid, thread: MigratedThread, penalty: u64) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        let MigratedThread { stream, counters } = thread;
        let base = stream.addr_base();
        let ws = stream.profile().data_ws_bytes;
        ctx.wp_gen = WrongPathGen::new(
            SplitMix64::derive(0xAD75 ^ tid.idx() as u64, stream.generated() ^ 7),
            base,
            ws,
        );
        ctx.stream = stream;
        ctx.counters = counters;
        ctx.fetch_enabled = true;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = self.cycle + penalty;
    }

    /// Park context `tid`: fetch disabled, stalls cleared. Used by the
    /// multi-core constructor for slots above a core's initial occupancy.
    pub fn park_thread(&mut self, tid: Tid) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        ctx.counters = ThreadCounters::default();
        ctx.fetch_enabled = false;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = 0;
    }

    /// Flush every in-flight op of `tid` and return its shared resources
    /// (queue slots, LSQ entries, rename registers, pending syscalls).
    pub fn flush_thread(&mut self, tid: Tid) {
        let ti = tid.idx();
        let ctx = &mut self.threads[ti];
        // Same in-place victim accounting as squash_after, over the whole
        // window.
        for i in 0..ctx.window.len() {
            let (stage, kind, is_cond, dmiss, dst, past_dispatch, done) = {
                let op = &ctx.window[i];
                (
                    op.stage,
                    op.uop.kind,
                    op.uop.is_cond_branch(),
                    op.dmiss,
                    op.uop.dst,
                    op.past_dispatch(),
                    op.is_done(),
                )
            };
            if ctx.window[i].lsq_word().is_some() {
                self.lsq_len -= 1;
            }
            // The whole thread goes: every producer chain dies with it
            // (its waiters are same-thread, flushed here too).
            let wake_head = std::mem::replace(&mut ctx.window[i].wake_head, NO_WAKE);
            self.wake.free_chain(wake_head);
            match stage {
                Stage::FrontEnd { .. } => ctx.counters.front_end_occ -= 1,
                Stage::Queued => ctx.counters.iq_occ -= 1,
                _ => {}
            }
            if !done {
                match kind {
                    OpKind::Branch if is_cond => ctx.counters.inflight_branches -= 1,
                    OpKind::Load => {
                        if dmiss && matches!(stage, Stage::Executing { .. }) {
                            ctx.counters.outstanding_dmiss -= 1;
                        }
                        ctx.counters.inflight_loads -= 1;
                        ctx.counters.inflight_mem -= 1;
                    }
                    OpKind::Store => ctx.counters.inflight_mem -= 1,
                    _ => {}
                }
            }
            if past_dispatch {
                if let Some(d) = dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
            }
        }
        let victims = ctx.window.len();
        ctx.window.clear();
        // Later ops take fresh positions; the thread's dead dispatch-FIFO
        // entries stay until they reach the head.
        ctx.base = ctx.base.wrapping_add(victims as u32);
        ctx.wrong_path_since = None;
        ctx.rename = [None; 64];
        ctx.min_done_at = u64::MAX;
        ctx.calendar.clear();
        self.int_iq.remove_thread(tid);
        self.fp_iq.remove_thread(tid);
        self.pending_syscalls.retain(|q| q.tid != tid);
        // Not on the per-cycle hot path (quantum-boundary operation), so a
        // plain runtime branch suffices instead of the TRACE const.
        let cycle = self.cycle;
        self.trace_push(TraceEvent::Flush {
            cycle,
            tid,
            victims,
        });
    }

    // ------------------------------------------------------------------
    // slot-loss attribution hooks (instrumented monomorphization only)
    // ------------------------------------------------------------------
    //
    // "Used" slots per stage are deltas of the counters the machine
    // already maintains (committed / fetched+wrongpath / iq_occ) across
    // the stage's boundaries, so the per-op hot loops stay untouched.
    // Lost slots are the stage budget left over, distributed
    // deterministically and blamed on each thread's own blocking
    // condition. Per cycle and stage the categories sum to the stage
    // width exactly (debug-asserted here, property-tested in
    // `tests/proptest_attr.rs`).

    /// Record the per-thread counter bases this cycle's deltas are taken
    /// against. `complete` only marks ops done (it never retires or
    /// fetches), so cycle start is a valid base for commit and fetch; the
    /// issue base is taken later because squashes during `complete` also
    /// drop `iq_occ`.
    fn attr_begin_cycle(&mut self) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        attr.cycles += 1;
        attr.base_fetch.clear();
        attr.base_commit.clear();
        for ctx in &self.threads {
            attr.base_fetch
                .push(ctx.counters.fetched + ctx.counters.wrongpath_fetched);
            attr.base_commit.push(ctx.counters.committed);
        }
    }

    /// Classify this cycle's commit slots; `lost` is the unspent budget.
    fn attr_commit(&mut self, lost: usize) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = ctx.counters.committed - attr.base_commit[t];
            attr.stacks[t].commit[CommitCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.commit_width);
        // Unfilled slots round-robin from the commit walk's own starting
        // thread; with budget left over, every head is absent or not done.
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            let ctx = &self.threads[ti];
            let cause = match ctx.window.front() {
                None if ctx.redirect_stall_until > now => CommitCause::SquashDrain,
                None => CommitCause::Empty,
                Some(head) => {
                    if head.dmiss && matches!(head.stage, Stage::Executing { .. }) {
                        CommitCause::DataMiss
                    } else {
                        CommitCause::NotReady
                    }
                }
            };
            attr.stacks[ti].commit[cause as usize] += 1;
        }
    }

    /// Take the per-thread `iq_occ` base the issue deltas are read
    /// against. Only issue decrements `iq_occ` between here and
    /// [`Self::attr_issue_end`] (dispatch, which increments it, runs
    /// after), so the decrease is exactly the slots the thread issued.
    fn attr_issue_begin(&mut self) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        attr.base_iq.clear();
        attr.base_iq
            .extend(self.threads.iter().map(|c| c.counters.iq_occ));
    }

    /// Classify this cycle's issue slots; `lost` is the unspent budget.
    fn attr_issue_end(&mut self, mut lost: usize) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = (attr.base_iq[t] - ctx.counters.iq_occ) as u64;
            attr.stacks[t].issue[IssueCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.issue_width);
        // Blame leftover queue entries in age order — the order issue
        // itself considered them. Producers complete only in the next
        // `complete`, so the `pending` counters still read exactly what
        // issue saw.
        for queue in [&self.int_iq, &self.fp_iq] {
            let mut idx = queue.first();
            while idx != NIL && lost > 0 {
                let (tid, _) = queue.key(idx);
                let d = queue.payload(idx);
                let cause = if !d.deps_done && d.pending != 0 {
                    debug_assert!(!Self::deps_ready(&self.threads[tid.idx()], &d.deps));
                    IssueCause::DepsNotReady
                } else {
                    IssueCause::FuBusy
                };
                attr.stacks[tid.idx()].issue[cause as usize] += 1;
                lost -= 1;
                idx = queue.next_of(idx);
            }
        }
        // Slots with nothing left in either queue to blame.
        let empty = if self.pending_syscalls.is_empty() {
            IssueCause::IqEmpty
        } else {
            IssueCause::Drain
        };
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            attr.stacks[ti].issue[empty as usize] += 1;
        }
    }

    /// Classify this cycle's fetch slots; `lost` is the unspent budget
    /// (the whole width when a syscall `drain` suppressed fetch).
    fn attr_fetch(&mut self, lost: usize, drain: bool) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = ctx.counters.fetched + ctx.counters.wrongpath_fetched - attr.base_fetch[t];
            attr.stacks[t].fetch[FetchCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.fetch_width);
        // A stall begun this very cycle (I-miss probed at fetch, redirect
        // from this cycle's squash) already reads as `> now`, so the lost
        // slots land on the condition that actually blocked the thread.
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            let ctx = &self.threads[ti];
            let cause = if drain {
                FetchCause::Drain
            } else if !ctx.fetch_enabled {
                FetchCause::PolicyStarved
            } else if ctx.migration_stall_until > now {
                FetchCause::Migration
            } else if ctx.icache_stall_until > now {
                FetchCause::L1iMiss
            } else if ctx.redirect_stall_until > now {
                FetchCause::Redirect
            } else if ctx.window.len() >= self.cfg.rob_per_thread {
                FetchCause::RobFull
            } else if (ctx.counters.front_end_occ as usize) >= self.cfg.fetch_buffer_per_thread {
                FetchCause::FrontEndFull
            } else {
                FetchCause::PolicyStarved
            };
            attr.stacks[ti].fetch[cause as usize] += 1;
        }
    }

    // ------------------------------------------------------------------
    // stage 6: cycle bookkeeping
    // ------------------------------------------------------------------

    fn end_cycle(&mut self) {
        if self.lsq_len >= self.cfg.lsq_size {
            self.global.lsq_full_cycles += 1;
        }
        self.cycle += 1;
        self.global.cycles = self.cycle;
        // `decay_period` is a validated power of two.
        if self.cycle & (self.cfg.decay_period - 1) == 0 {
            for ctx in &mut self.threads {
                ctx.counters.decay();
            }
        }
    }

    // ------------------------------------------------------------------
    // invariant checking (tests and decode)
    // ------------------------------------------------------------------

    /// Panic with [`Self::validate`]'s first violation. Tests call it
    /// after every cycle.
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// The one definition of a consistent machine: every gauge, count
    /// and index the stages maintain agrees with a recount of the
    /// windows, and the windows hold only what the stages could have
    /// built. `Err` names the first violation. O(window); every decode
    /// ends with it, and [`Self::check_invariants`] asserts it.
    pub fn validate(&self) -> Result<(), String> {
        let (mut int_held, mut fp_held, mut lsq, mut syscalls) = (0usize, 0usize, 0usize, 0usize);
        for ctx in &self.threads {
            let tid = ctx.tid;
            let (mut fe, mut int_q, mut fp_q, mut brs, mut lds, mut mems, mut dmiss) =
                (0, 0, 0, 0, 0, 0, 0);
            // Arch reg → the seq of its youngest writer in the window.
            let mut writer = [None; 64];
            let mut prev_seq = None;
            for op in &ctx.window {
                let seq = op.seq;
                ensure!(
                    prev_seq.is_none_or(|p| seq > p),
                    "window out of seq order on {tid} at seq {seq}"
                );
                prev_seq = Some(seq);
                // The stages trust an op's kind to say which fields it
                // carries (a load's `mem`, a branch's `branch`).
                ensure!(
                    op.uop.is_well_formed(),
                    "{tid} seq {seq} is an ill-formed {:?} op",
                    op.uop.kind
                );
                // Resolve trains the PHT entry the prediction used.
                ensure!(
                    (op.pht_index as usize) < self.bpred.pht_len(),
                    "{tid} seq {seq} names PHT entry {} of {}",
                    op.pht_index,
                    self.bpred.pht_len()
                );
                // Issue finds a load's D-miss.
                let issued = matches!(op.stage, Stage::Executing { .. } | Stage::Done);
                ensure!(
                    !op.dmiss || (op.uop.kind == OpKind::Load && issued),
                    "{tid} seq {seq} carries a D-miss as a {:?} op in {:?}",
                    op.uop.kind,
                    op.stage
                );
                match op.stage {
                    Stage::FrontEnd { .. } => fe += 1,
                    Stage::Queued if op.uop.kind.is_fp() => fp_q += 1,
                    Stage::Queued => int_q += 1,
                    Stage::Executing { .. } if op.dmiss => dmiss += 1,
                    _ => {}
                }
                if !op.is_done() {
                    brs += op.uop.is_cond_branch() as u32;
                    lds += (op.uop.kind == OpKind::Load) as u32;
                    mems += op.uop.kind.is_mem() as u32;
                }
                if let Some(d) = op.uop.dst {
                    writer[d.flat()] = Some(seq);
                    let held = match d.class {
                        RegClass::Int => &mut int_held,
                        RegClass::Fp => &mut fp_held,
                    };
                    *held += op.past_dispatch() as usize;
                }
                lsq += op.lsq_word().is_some() as usize;
                syscalls += (op.uop.kind == OpKind::Syscall) as usize;
            }
            ensure!(
                prev_seq.is_none_or(|s| s < ctx.next_seq),
                "{tid} next_seq {} is not above its youngest op's seq",
                ctx.next_seq
            );
            // The stages decrement these gauges unchecked: drift would
            // underflow.
            let c = &ctx.counters;
            for (gauge, kept, counted) in [
                ("front_end_occ", c.front_end_occ, fe),
                ("iq_occ", c.iq_occ, int_q + fp_q),
                ("inflight_branches", c.inflight_branches, brs),
                ("inflight_loads", c.inflight_loads, lds),
                ("inflight_mem", c.inflight_mem, mems),
                ("outstanding_dmiss", c.outstanding_dmiss, dmiss),
            ] {
                ensure!(
                    kept == counted,
                    "{gauge} gauge drift on {tid}: {kept} maintained, {counted} in the window"
                );
            }
            // Fetch renames a source to its youngest older writer: one in
            // the window, or one that has committed.
            let oldest = ctx.window.front().map_or(ctx.next_seq, |op| op.seq);
            for (r, (&named, &youngest)) in ctx.rename.iter().zip(&writer).enumerate() {
                ensure!(
                    youngest.map_or(named.is_none_or(|s| s < oldest), |w| named == Some(w)),
                    "rename of reg {r} on {tid} names {named:?}, its youngest writer in the window {youngest:?}"
                );
            }
            for (queue, name, queued) in [(&self.int_iq, "int", int_q), (&self.fp_iq, "fp", fp_q)] {
                ensure!(
                    queue.thread_len(tid) == queued as usize,
                    "{name} IQ per-thread index drift on {tid}"
                );
            }
        }
        ensure!(self.int_iq.len() <= self.cfg.int_iq_size, "int IQ overflow");
        ensure!(self.fp_iq.len() <= self.cfg.fp_iq_size, "fp IQ overflow");
        // The queues check their own links and ready lists by panicking:
        // a decode builds both through the queue's own operations, so
        // only a stage bug can break them.
        self.int_iq.validate_ready(|d| d.pending == 0);
        self.fp_iq.validate_ready(|d| d.pending == 0);
        // A dispatched op with a destination holds a rename register
        // until it commits or is squashed.
        for (class, free, held, total) in [
            ("int", self.free_int_regs, int_held, self.cfg.extra_phys_int),
            ("fp", self.free_fp_regs, fp_held, self.cfg.extra_phys_fp),
        ] {
            ensure!(
                free.checked_add(held) == Some(total),
                "{class} reg count drift: {free} free and {held} held of {total}"
            );
        }
        // The LSQ count vs the windows, and the store filter vs every
        // store holding an entry: a store the filter does not cover is a
        // forward a load could miss. Per thread, the dispatch stamps rise
        // with seq, so the encoder's stamp order is dispatch order.
        ensure!(
            self.lsq_len <= self.cfg.lsq_size,
            "LSQ holds {} entries, more than its {}",
            self.lsq_len,
            self.cfg.lsq_size
        );
        ensure!(
            self.lsq_len == lsq,
            "LSQ count drift: {} kept, the windows hold {lsq} memory ops past dispatch",
            self.lsq_len
        );
        for ctx in &self.threads {
            let mut last_age = None;
            for op in &ctx.window {
                let Some(word) = op.lsq_word() else {
                    continue;
                };
                // Were this store the window's oldest op, its slots must
                // still send a load of its word to the scan.
                ensure!(
                    op.uop.kind != OpKind::Store || ctx.store_filter.may_hold(word, op.seq),
                    "store filter misses {} seq {}",
                    ctx.tid,
                    op.seq
                );
                let age = self.lsq_stamp.wrapping_sub(op.lsq_stamp);
                ensure!(
                    last_age.is_none_or(|a| a > age) && age > 0,
                    "LSQ stamps out of dispatch order on {} seq {}",
                    ctx.tid,
                    op.seq
                );
                last_age = Some(age);
            }
        }
        // Each queue entry names a queued op of its window, with that
        // op's kind and producers; its `pending` counter equals the
        // number of live, not-yet-done producers the reference binary
        // search would find.
        for (queue, is_fp) in [(&self.int_iq, false), (&self.fp_iq, true)] {
            let mut idx = queue.first();
            while idx != NIL {
                let (tid, seq) = queue.key(idx);
                let d = queue.payload(idx);
                let ctx = &self.threads[tid.idx()];
                ensure!(
                    ctx.at(d.pos, seq).is_some_and(|i| {
                        let op = &ctx.window[i];
                        op.is_queued() && op.uop.kind == d.kind && op.deps == d.deps
                    }) && d.kind.is_fp() == is_fp,
                    "IQ entry {tid} seq {seq} names no queued op of its window"
                );
                let mut expect = 0u8;
                if let Some(front) = ctx.window.front() {
                    for dep in d.deps.iter().copied().flatten() {
                        if dep < front.seq {
                            continue;
                        }
                        if let Some(i) = find_seq(&ctx.window, dep) {
                            if !ctx.window[i].is_done() {
                                expect += 1;
                            }
                        }
                    }
                }
                ensure!(
                    d.pending == expect,
                    "pending counter drift on {tid} seq {seq}"
                );
                ensure!(
                    (d.pending == 0) == Self::deps_ready(ctx, &d.deps),
                    "pending disagrees with the search oracle on {tid} seq {seq}"
                );
                idx = queue.next_of(idx);
            }
        }
        // Completion wheels vs the windows: the wheel links exactly the
        // executing ops, each at its window slot in the bucket of the
        // cycle it completes in (`done_at`, or now for an op issued last
        // cycle with zero latency), and `min_done_at` bounds the earliest
        // deadline.
        let now = self.cycle;
        for ctx in &self.threads {
            let mut linked = ctx.calendar.entries();
            linked.sort_unstable();
            let mut executing = Vec::new();
            let mut earliest = u64::MAX;
            for (i, op) in ctx.window.iter().enumerate() {
                if let Stage::Executing { done_at } = op.stage {
                    let due = done_at.max(now);
                    ensure!(
                        now.saturating_sub(1) <= done_at
                            && due - now < ctx.calendar.buckets() as u64,
                        "{} seq {} due at {done_at}: overdue or past the wheel at cycle {now}",
                        ctx.tid,
                        op.seq
                    );
                    let bucket = due as usize & (ctx.calendar.buckets() - 1);
                    executing.push((bucket, ctx.calendar.slot(ctx.pos(i))));
                    earliest = earliest.min(done_at);
                }
            }
            executing.sort_unstable();
            ensure!(linked == executing, "completion wheel drift on {}", ctx.tid);
            ensure!(
                ctx.min_done_at <= earliest,
                "min_done_at {} above the earliest live deadline {earliest} on {}",
                ctx.min_done_at,
                ctx.tid
            );
        }
        // The dispatch FIFO: each thread's entries, dead ones included,
        // in fetch (seq) order; every live entry names a front-end op or a
        // syscall the drain started before dispatch popped it; and every
        // other front-end op has a live entry.
        let mut last_seq: Vec<Option<u64>> = vec![None; self.threads.len()];
        let mut queued = vec![0usize; self.threads.len()];
        for e in &self.dispatch_fifo {
            let ti = e.tid.idx();
            ensure!(
                last_seq[ti].is_none_or(|s| s < e.seq),
                "dispatch FIFO out of seq order on {}",
                e.tid
            );
            last_seq[ti] = Some(e.seq);
            if let Some(i) = self.threads[ti].at(e.pos, e.seq) {
                let op = &self.threads[ti].window[i];
                if op.uop.kind == OpKind::Syscall {
                    continue;
                }
                ensure!(
                    op.in_front_end(),
                    "dispatch FIFO names {} seq {} past the front end",
                    e.tid,
                    e.seq
                );
                queued[ti] += 1;
            }
        }
        for (ctx, &n) in self.threads.iter().zip(&queued) {
            let front_end = ctx
                .window
                .iter()
                .filter(|op| op.in_front_end() && op.uop.kind != OpKind::Syscall)
                .count();
            ensure!(
                n == front_end,
                "dispatch FIFO misses front-end ops of {}",
                ctx.tid
            );
        }
        // The drain: each pending entry names a syscall of its thread's
        // window, in fetch order, and every syscall in a window is
        // pending until it commits.
        last_seq.fill(None);
        for q in &self.pending_syscalls {
            let ctx = &self.threads[q.tid.idx()];
            let last = &mut last_seq[q.tid.idx()];
            ensure!(
                last.is_none_or(|s| s < q.seq)
                    && find_seq(&ctx.window, q.seq)
                        .is_some_and(|i| ctx.window[i].uop.kind == OpKind::Syscall),
                "pending syscall {} seq {} names no syscall of its window",
                q.tid,
                q.seq
            );
            *last = Some(q.seq);
        }
        ensure!(
            self.pending_syscalls.len() == syscalls,
            "{} syscalls pending, the windows hold {syscalls}",
            self.pending_syscalls.len()
        );
        // Every allocated wake node sits on exactly one producer's chain.
        let mut chained = 0usize;
        for ctx in &self.threads {
            for op in &ctx.window {
                let mut widx = op.wake_head;
                let mut steps = 0usize;
                while widx != NO_WAKE {
                    chained += 1;
                    steps += 1;
                    ensure!(steps <= self.wake.nodes.len(), "wake chain cycle");
                    widx = self.wake.nodes[widx as usize].next;
                }
            }
        }
        ensure!(
            chained == self.wake.live(),
            "wake arena leak: {chained} chained nodes, {} live allocations",
            self.wake.live()
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::RoundRobin;
    use smt_isa::{AppProfile, NUM_ARCH_REGS_PER_CLASS};
    use std::sync::Arc;

    fn stream(seed: u64, tid: usize) -> UopStream {
        UopStream::new(
            Arc::new(AppProfile::builder("t").build()),
            seed,
            smt_workloads::thread_addr_base(tid),
        )
    }

    fn machine(n: usize, seed: u64) -> SmtMachine {
        let cfg = SimConfig::with_threads(n);
        let streams = (0..n).map(|i| stream(seed + i as u64, i)).collect();
        SmtMachine::new(cfg, streams)
    }

    #[test]
    fn makes_forward_progress() {
        let mut m = machine(4, 1);
        m.run(5_000, &mut RoundRobin);
        assert!(
            m.total_committed() > 1_000,
            "committed {}",
            m.total_committed()
        );
        for t in 0..4 {
            assert!(m.counters(Tid(t)).committed > 0, "thread {t} starved");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = machine(4, 2);
        let mut b = machine(4, 2);
        a.run(3_000, &mut RoundRobin);
        b.run(3_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        for t in 0..4 {
            assert_eq!(a.counters(Tid(t)), b.counters(Tid(t)));
        }
    }

    #[test]
    fn clone_resumes_identically() {
        let mut a = machine(2, 3);
        a.run(2_000, &mut RoundRobin);
        let mut b = a.clone();
        a.run(2_000, &mut RoundRobin);
        b.run(2_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
    }

    #[test]
    fn invariants_hold_throughout() {
        let mut m = machine(8, 4);
        for _ in 0..2_000 {
            m.step(&mut RoundRobin);
            m.check_invariants();
        }
    }

    #[test]
    fn mispredicts_and_squashes_happen() {
        let mut m = machine(4, 5);
        m.run(10_000, &mut RoundRobin);
        let total_mispred: u64 = (0..4).map(|t| m.counters(Tid(t)).mispredicts).sum();
        assert!(total_mispred > 10, "no mispredicts in a branchy workload");
        assert_eq!(m.global().squashes, total_mispred);
        let wp: u64 = (0..4).map(|t| m.counters(Tid(t)).wrongpath_fetched).sum();
        assert!(wp > 0, "mispredicts must cause wrong-path fetch");
    }

    #[test]
    fn caches_miss_and_fill() {
        let mut m = machine(2, 6);
        m.run(10_000, &mut RoundRobin);
        let c0 = m.counters(Tid(0));
        assert!(c0.l1d_misses > 0, "no D-cache misses");
        assert!(c0.loads > 0 && c0.stores > 0);
        // The default profile's 64 KiB working set exceeds the shared L1D,
        // so misses are plentiful — but strided reuse must keep the ratio
        // well below a pure-streaming 100%.
        assert!(
            m.mem.l1d.miss_ratio() < 0.85,
            "L1D miss ratio {}",
            m.mem.l1d.miss_ratio()
        );
        assert!(m.mem.l1d.miss_ratio() > 0.0);
    }

    #[test]
    fn disabled_thread_does_not_fetch() {
        let mut m = machine(2, 7);
        m.set_fetch_enabled(Tid(1), false);
        m.run(3_000, &mut RoundRobin);
        assert_eq!(m.counters(Tid(1)).fetched, 0);
        assert!(m.counters(Tid(0)).committed > 0);
        assert!(!m.fetch_enabled(Tid(1)));
    }

    #[test]
    fn syscall_drains_machine() {
        let p = AppProfile::builder("sys").syscall_per_muop(2_000.0).build();
        let streams = vec![
            UopStream::new(Arc::new(p), 8, smt_workloads::thread_addr_base(0)),
            stream(9, 1),
        ];
        let mut m = SmtMachine::new(SimConfig::with_threads(2), streams);
        m.run(30_000, &mut RoundRobin);
        assert!(m.counters(Tid(0)).syscalls > 0, "no syscalls retired");
        assert!(m.global().syscall_drain_cycles > 0);
        // Forward progress resumed after drains.
        assert!(m.counters(Tid(1)).committed > 1_000);
    }

    #[test]
    fn more_threads_more_throughput() {
        let mut one = machine(1, 10);
        let mut four = machine(4, 10);
        one.run(8_000, &mut RoundRobin);
        four.run(8_000, &mut RoundRobin);
        assert!(
            four.aggregate_ipc() > 1.3 * one.aggregate_ipc(),
            "SMT gained nothing: 1T={} 4T={}",
            one.aggregate_ipc(),
            four.aggregate_ipc()
        );
    }

    #[test]
    fn ipc_is_plausible() {
        let mut m = machine(8, 11);
        m.run(20_000, &mut RoundRobin);
        let ipc = m.aggregate_ipc();
        assert!(ipc > 1.0 && ipc <= 8.0, "implausible aggregate IPC {ipc}");
    }

    #[test]
    fn committed_matches_thread_sum() {
        let mut m = machine(4, 12);
        m.run(5_000, &mut RoundRobin);
        let sum: u64 = (0..4).map(|t| m.counters(Tid(t)).committed).sum();
        assert_eq!(sum, m.total_committed());
    }

    #[test]
    fn views_cover_all_threads() {
        let mut m = machine(3, 13);
        let v = m.views();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].tid, Tid(2));
    }

    /// Threads of a mispredict-heavy profile: squashes keep removing
    /// waiters and executing ops while their producers survive. The small
    /// int IQ keeps the dispatch head stalled often, so squashed entries
    /// linger in the dispatch FIFO behind it.
    fn branchy_machine(n: usize, seed: u64) -> SmtMachine {
        let p = Arc::new(
            AppProfile::builder("branchy")
                .branch_frac(0.25)
                .branch_bias(0.5)
                .build(),
        );
        let streams = (0..n)
            .map(|i| {
                UopStream::new(
                    p.clone(),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        let cfg = SimConfig {
            int_iq_size: 8,
            ..SimConfig::with_threads(n)
        };
        SmtMachine::new(cfg, streams)
    }

    /// Dispatch-FIFO entries whose op a squash or flush removed.
    fn dead_fifo_entries(m: &SmtMachine) -> usize {
        m.dispatch_fifo
            .iter()
            .filter(|e| m.threads[e.tid.idx()].at(e.pos, e.seq).is_none())
            .count()
    }

    #[test]
    fn wheel_buckets_exceed_the_longest_latency() {
        let buckets = |cfg: SimConfig| {
            let streams = (0..cfg.threads).map(|i| stream(1, i)).collect();
            SmtMachine::new(cfg, streams).threads[0].calendar.buckets()
        };
        // The 200-cycle syscall; a 1 + 1 + 10 + 600-cycle load; a
        // 5,000-cycle syscall.
        assert_eq!(buckets(SimConfig::with_threads(1)), 256);
        let long_mem = SimConfig {
            mem_latency: 600,
            ..SimConfig::with_threads(1)
        };
        assert_eq!(buckets(long_mem), 1024);
        let long_syscall = SimConfig {
            syscall_latency: 5_000,
            ..SimConfig::with_threads(1)
        };
        assert_eq!(buckets(long_syscall), 8192);
        let exact = SimConfig {
            syscall_latency: 255,
            ..SimConfig::with_threads(1)
        };
        assert_eq!(buckets(exact), 256);
        let exact = SimConfig {
            syscall_latency: 256,
            ..SimConfig::with_threads(1)
        };
        assert_eq!(buckets(exact), 512);
    }

    #[test]
    fn squashed_waiter_slot_reuse_keeps_the_ready_list_exact() {
        // A waiter squashed while its producer executes leaves a wake node
        // naming its IQ slot, and a later dispatch reuses the slot. When
        // the producer completes, the node must neither decrement nor
        // ready the slot's new entry: `check_invariants` recounts every
        // `pending` against the search oracle and checks ready-list
        // membership after every cycle.
        let mut m = branchy_machine(2, 21);
        let mut reused_at_wake = 0usize;
        for _ in 0..20_000 {
            let now = m.cycle;
            for ctx in &m.threads {
                for op in &ctx.window {
                    if op.stage != (Stage::Executing { done_at: now }) {
                        continue;
                    }
                    let mut w = op.wake_head;
                    while w != NO_WAKE {
                        let node = m.wake.nodes[w as usize];
                        let q = if node.fp { &m.fp_iq } else { &m.int_iq };
                        if q.key(node.slot) != (ctx.tid, node.waiter_seq) {
                            reused_at_wake += 1;
                        }
                        w = node.next;
                    }
                }
            }
            m.step(&mut RoundRobin);
            m.check_invariants();
        }
        assert!(
            reused_at_wake > 0,
            "no producer ever completed onto a reused waiter slot"
        );
    }

    #[test]
    fn forwarding_fires_under_squashes_and_flushes() {
        // Each thread loops a store and a load of the same word (which
        // forwards), a load and a store of another word (the younger store
        // passes the filter, but the scan finds nothing older to forward),
        // and a conditional branch, 256 times over with one PC per branch
        // and pseudo-random directions, so the predictor keeps missing:
        // squashes remove stores and loads alike and leave stale filter
        // slots behind. Thread 1 migrates out and back in twice, a flush
        // with its loads waiting. `check_invariants` holds the filter to
        // every in-flight store after each cycle, every load issue in a
        // debug build checks the filtered decision against the full
        // window scan, and each cycle's forwards are counted off the L1D:
        // a forwarded load is the one memory op that never accesses it.
        use smt_isa::{BranchInfo, BranchKind, MemInfo, MicroOp};
        let script = |t: usize| {
            let base = smt_workloads::thread_addr_base(t);
            let mem = |pc: u64, kind, dst: Option<u8>, addr: u64| MicroOp {
                kind,
                dst: dst.map(smt_isa::ArchReg::int),
                mem: Some(MemInfo {
                    addr: base | addr,
                    size: 8,
                }),
                ..MicroOp::nop(base | pc)
            };
            let branch = |taken| MicroOp {
                kind: OpKind::Branch,
                branch: Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: base,
                }),
                ..MicroOp::nop(base | 0x8)
            };
            let mut rng = SplitMix64::new(t as u64);
            (0..256u64)
                .flat_map(|k| {
                    let addr = 0x9000 + 8 * (k % 4);
                    [
                        mem(0x0, OpKind::Store, None, addr),
                        mem(0x4, OpKind::Load, Some(3), addr),
                        mem(0x10, OpKind::Load, Some(4), addr + 0x100),
                        mem(0x14, OpKind::Store, None, addr + 0x100),
                        branch(rng.next_u64() & 1 == 1),
                    ]
                })
                .collect::<Vec<_>>()
        };
        for n in 2..=4 {
            let profile = Arc::new(AppProfile::builder("fwd").build());
            let streams = (0..n)
                .map(|t| {
                    let base = smt_workloads::thread_addr_base(t);
                    UopStream::scripted(profile.clone(), base, script(t))
                })
                .collect();
            let mut m = SmtMachine::new(SimConfig::with_threads(n), streams);
            let mut forwarded = 0;
            for cycle in 0..3_000 {
                if cycle == 1_000 || cycle == 2_000 {
                    let thread = m.migrate_out(Tid(1));
                    m.check_invariants();
                    m.migrate_in(Tid(1), thread, 20);
                }
                // A queued load's older stores have all dispatched, and a
                // store can only leave during the step. So a load that
                // issues this cycle forwards only if it has an older store
                // to its word now, and surely forwards if that store is
                // still there after the step.
                let queued: Vec<(usize, u64, bool)> = (0..n)
                    .flat_map(|t| {
                        let ctx = &m.threads[t];
                        ctx.window
                            .iter()
                            .enumerate()
                            .filter(|(_, op)| op.is_queued())
                            .filter_map(move |(i, op)| {
                                let word = op.lsq_word()?;
                                let load = op.uop.kind == OpKind::Load;
                                Some((t, op.seq, load && ctx.older_store_to(i, word)))
                            })
                    })
                    .collect();
                let accesses = m.mem.l1d.accesses;
                m.step(&mut RoundRobin);
                m.check_invariants();
                let (mut issued, mut surely, mut maybe) = (0, 0, 0);
                for (t, seq, store_before) in queued {
                    let ctx = &m.threads[t];
                    let Some(i) =
                        find_seq(&ctx.window, seq).filter(|&i| !ctx.window[i].is_queued())
                    else {
                        continue; // still queued, or squashed
                    };
                    issued += 1;
                    if store_before {
                        maybe += 1;
                        surely += ctx.older_store_to(i, ctx.window[i].lsq_word().unwrap()) as u64;
                    }
                }
                let forwards = issued - (m.mem.l1d.accesses - accesses);
                assert!(
                    (surely..=maybe).contains(&forwards),
                    "{n} threads, cycle {cycle}: {forwards} forwards, {surely}..={maybe} expected"
                );
                forwarded += forwards;
            }
            let c = m.counters(Tid(0));
            assert!(c.squashes > 100, "{n} threads: {} squashes", c.squashes);
            assert!(
                forwarded > 1_000,
                "{n} threads: {forwarded} forwarded loads"
            );
            assert!(
                m.counters(Tid(1)).committed > 100,
                "{n} threads: T1 stalled"
            );
        }
    }

    fn payload(m: &SmtMachine) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode_into(&mut w);
        w.into_bytes()
    }

    /// One LSQ section entry: tid, seq, address word, store flag.
    type LsqEntry = (u8, u64, u64, bool);

    /// A 4-thread machine with a well-filled LSQ and a memory op in some
    /// front end, its payload, where its LSQ section starts and ends, and
    /// the section's entries.
    struct LsqSection {
        m: SmtMachine,
        bytes: Vec<u8>,
        at: usize,
        end: usize,
        entries: Vec<LsqEntry>,
    }

    impl LsqSection {
        fn warm() -> Self {
            let mut m = machine(4, 5);
            m.run(2_000, &mut RoundRobin);
            let front_end_mem = |m: &SmtMachine| {
                m.threads.iter().any(|ctx| {
                    ctx.window
                        .iter()
                        .any(|op| op.in_front_end() && op.uop.mem.is_some())
                })
            };
            while m.lsq_len() < 16 || !front_end_mem(&m) {
                m.step(&mut RoundRobin);
                assert!(m.cycle() < 20_000, "the LSQ never filled");
            }
            let bytes = payload(&m);
            let mut w = ByteWriter::new();
            m.encode_lsq(&mut w);
            let section = w.into_bytes();
            let found: Vec<usize> = bytes
                .windows(section.len())
                .enumerate()
                .filter(|(_, w)| *w == &section[..])
                .map(|(i, _)| i)
                .collect();
            assert_eq!(found.len(), 1, "LSQ section not unique in the payload");
            let mut r = ByteReader::new(&section[16..]);
            let entries = (0..m.lsq_len())
                .map(|_| {
                    (
                        r.u8().unwrap(),
                        r.u64().unwrap(),
                        r.u64().unwrap(),
                        r.bool().unwrap(),
                    )
                })
                .collect();
            LsqSection {
                at: found[0],
                end: found[0] + section.len(),
                m,
                bytes,
                entries,
            }
        }

        /// The payload with `entries` as its LSQ section, decoded.
        fn decode(&self, entries: &[LsqEntry]) -> Result<SmtMachine, CodecError> {
            let mut w = ByteWriter::new();
            w.raw(&self.bytes[..self.at]);
            w.usize(self.m.n_threads());
            w.usize(entries.len());
            for &(tid, seq, word, is_store) in entries {
                w.u8(tid);
                w.u64(seq);
                w.u64(word);
                w.bool(is_store);
            }
            w.raw(&self.bytes[self.end..]);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let m = SmtMachine::decode_from(&mut r)?;
            r.finish()?;
            Ok(m)
        }

        /// Decoding `entries` fails with an LSQ error containing `what`.
        fn rejects(&self, entries: &[LsqEntry], what: &str) {
            match self.decode(entries) {
                Err(CodecError::Invalid(msg)) => {
                    assert!(
                        msg.starts_with("LSQ ") && msg.contains(what),
                        "{what}: {msg}"
                    )
                }
                other => panic!(
                    "{what}: expected Invalid, got {:?}",
                    other.map(|_| "a machine")
                ),
            }
        }
    }

    #[test]
    fn lsq_section_round_trips() {
        let s = LsqSection::warm();
        assert!(s.entries.len() > 8, "{} LSQ entries", s.entries.len());
        let m = s.decode(&s.entries).expect("the machine's own section");
        m.check_invariants();
        assert_eq!(payload(&m), s.bytes, "re-encoding moved bytes");
    }

    #[test]
    fn lsq_entry_missing_from_its_window_is_an_error() {
        let s = LsqSection::warm();
        let (t, _, word, is_store) = s.entries[0];
        let past = s.m.threads[t as usize].next_seq + 5;
        s.rejects(&[(t, past, word, is_store)], "is not in its window");
    }

    #[test]
    fn lsq_entry_naming_a_non_memory_or_front_end_op_is_an_error() {
        let s = LsqSection::warm();
        let ops = || {
            let threads = s.m.threads.iter();
            threads.flat_map(|ctx| ctx.window.iter().map(move |op| (ctx.tid.0, op)))
        };
        let (t, alu) = ops()
            .find(|(_, op)| op.past_dispatch() && op.uop.mem.is_none())
            .expect("a dispatched op that is not a memory op");
        s.rejects(
            &[(t, alu.seq, 0, false)],
            "names no memory op past dispatch",
        );
        let (t, fe) = ops()
            .find(|(_, op)| op.in_front_end() && op.uop.mem.is_some())
            .expect("a memory op in some front end");
        let word = fe.uop.mem.unwrap().addr >> 3;
        let entry = (t, fe.seq, word, fe.uop.kind == OpKind::Store);
        s.rejects(&[entry], "names no memory op past dispatch");
    }

    #[test]
    fn lsq_entry_disagreeing_with_its_op_is_an_error() {
        let s = LsqSection::warm();
        let mut wrong_word = s.entries.clone();
        wrong_word[0].2 ^= 1;
        s.rejects(&wrong_word, "disagrees with its op");
        let mut wrong_kind = s.entries.clone();
        wrong_kind[0].3 = !wrong_kind[0].3;
        s.rejects(&wrong_kind, "disagrees with its op");
    }

    #[test]
    fn lsq_entries_out_of_order_or_duplicated_are_errors() {
        let s = LsqSection::warm();
        let first = s.entries[0];
        let later = s.entries[1..]
            .iter()
            .position(|e| e.0 == first.0)
            .expect("a thread with two entries")
            + 1;
        let mut swapped = s.entries.clone();
        swapped.swap(0, later);
        // The younger op took the older one's stamp.
        let (t, seq) = (Tid(first.0), s.entries[later].1);
        s.rejects(
            &swapped,
            &format!("stamps out of dispatch order on {t} seq {seq}"),
        );
        let mut duplicated = s.entries.clone();
        duplicated.insert(1, first);
        let n = s.entries.len();
        s.rejects(
            &duplicated,
            &format!("count drift: {} kept, the windows hold {n}", n + 1),
        );
    }

    #[test]
    fn lsq_entry_tid_out_of_range_is_an_error() {
        let s = LsqSection::warm();
        let (_, seq, word, is_store) = s.entries[0];
        s.rejects(&[(4, seq, word, is_store)], "tid 4 out of range");
    }

    #[test]
    fn lsq_leaving_out_a_dispatched_memory_op_is_an_error() {
        let s = LsqSection::warm();
        let n = s.entries.len();
        s.rejects(
            &s.entries[1..],
            &format!("count drift: {} kept, the windows hold {n}", n - 1),
        );
        let over = vec![s.entries[0]; s.m.cfg.lsq_size + 1];
        s.rejects(&over, "more than its");
    }

    #[test]
    fn ill_formed_window_op_is_an_error() {
        // A queued load without its address would decode, then panic
        // when it issues.
        let mut m = LsqSection::warm().m;
        let (tid, op) = m
            .threads
            .iter_mut()
            .find_map(|ctx| {
                let tid = ctx.tid;
                let load = ctx
                    .window
                    .iter_mut()
                    .find(|op| op.is_queued() && op.uop.kind == OpKind::Load);
                load.map(|op| (tid, op))
            })
            .expect("a queued load");
        op.uop.mem = None;
        let want = format!("{tid} seq {} is an ill-formed Load op", op.seq);
        let bytes = payload(&m);
        match SmtMachine::decode_from(&mut ByteReader::new(&bytes)) {
            Err(CodecError::Invalid(msg)) => assert_eq!(msg, want),
            other => panic!("expected Invalid, got {:?}", other.map(|_| "a machine")),
        }
    }

    #[test]
    fn phantom_pending_syscall_is_an_error() {
        // A drain entry that names no syscall holds fetch forever: the
        // decoded machine would never commit again.
        let mut m = machine(4, 5);
        m.run(5_000, &mut RoundRobin);
        while !m.pending_syscalls.is_empty() {
            m.step(&mut RoundRobin);
        }
        let clean = payload(&m);
        let seq = m.threads[0].next_seq + 1_000;
        m.pending_syscalls.push_back(QRef { tid: Tid(0), seq });
        let want = format!("pending syscall T0 seq {seq} names no syscall of its window");
        match SmtMachine::decode_from(&mut ByteReader::new(&payload(&m))) {
            Err(CodecError::Invalid(msg)) => assert_eq!(msg, want),
            other => panic!("expected Invalid, got {:?}", other.map(|_| "a machine")),
        }
        assert!(SmtMachine::decode_from(&mut ByteReader::new(&clean)).is_ok());
    }

    /// The first live dispatch-FIFO entry naming a front-end op that is
    /// not a syscall.
    fn live_front_end_entry(m: &SmtMachine) -> Option<usize> {
        m.dispatch_fifo.iter().position(|e| {
            let ctx = &m.threads[e.tid.idx()];
            ctx.at(e.pos, e.seq).is_some_and(|i| {
                let op = &ctx.window[i];
                op.in_front_end() && op.uop.kind != OpKind::Syscall
            })
        })
    }

    /// The first window op `pick` accepts.
    fn op_where(m: &mut SmtMachine, pick: impl Fn(&InFlight) -> bool) -> &mut InFlight {
        let mut ops = m.threads.iter_mut().flat_map(|ctx| ctx.window.iter_mut());
        ops.find(|op| pick(op)).expect("a target op")
    }

    /// A correct-path conditional branch still to resolve: it will train
    /// the PHT entry its prediction used.
    fn trains_at_resolve(op: &InFlight) -> bool {
        op.uop.is_cond_branch() && !op.wrong_path && !op.is_done()
    }

    fn issued_non_load(op: &InFlight) -> bool {
        op.uop.kind != OpKind::Load && op.past_dispatch() && !op.is_queued()
    }

    fn gauge(c: &mut ThreadCounters, k: usize) -> (&'static str, &mut u32) {
        match k {
            0 => ("front_end_occ", &mut c.front_end_occ),
            1 => ("iq_occ", &mut c.iq_occ),
            2 => ("inflight_branches", &mut c.inflight_branches),
            3 => ("inflight_loads", &mut c.inflight_loads),
            4 => ("inflight_mem", &mut c.inflight_mem),
            _ => ("outstanding_dmiss", &mut c.outstanding_dmiss),
        }
    }

    #[test]
    fn each_mutation_is_rejected_or_runs_clean() {
        // A warm machine with a target for every mutation below and no
        // drain pending.
        let mut warm = machine(4, 5);
        warm.run(5_000, &mut RoundRobin);
        let targets = |m: &SmtMachine| {
            let mut ops = m.threads.iter().flat_map(|ctx| &ctx.window);
            m.pending_syscalls.is_empty()
                && m.free_int_regs > 0
                && live_front_end_entry(m).is_some()
                && ops.clone().any(|op| op.is_queued())
                && ops.clone().any(issued_non_load)
                && ops.clone().any(trains_at_resolve)
                && ops.any(|op| matches!(op.stage, Stage::Executing { .. }))
        };
        while !targets(&warm) {
            warm.step(&mut RoundRobin);
            assert!(warm.cycle() < 20_000, "no cycle holds every target");
        }
        type Mutation = (String, Box<dyn Fn(&mut SmtMachine)>);
        let extra = warm.cfg.extra_phys_int;
        let mut table: Vec<Mutation> = vec![
            (
                "free_int_regs - 1".into(),
                Box::new(|m| m.free_int_regs -= 1),
            ),
            (
                "free_int_regs + 1".into(),
                Box::new(|m| m.free_int_regs += 1),
            ),
            (
                "free_int_regs = 0".into(),
                Box::new(|m| m.free_int_regs = 0),
            ),
            (
                "free_int_regs = extra_phys_int + 1".into(),
                Box::new(move |m| m.free_int_regs = extra + 1),
            ),
            (
                "next_seq at the youngest seq".into(),
                Box::new(|m| {
                    let ctx = m.threads.iter_mut().find(|c| !c.window.is_empty());
                    let ctx = ctx.expect("a thread with a window");
                    ctx.next_seq = ctx.window.back().expect("an op").seq;
                }),
            ),
            (
                "rename past next_seq".into(),
                Box::new(|m| {
                    let ctx = &mut m.threads[0];
                    ctx.rename[1] = Some(ctx.next_seq + 5);
                }),
            ),
            (
                "PHT index past the table".into(),
                Box::new(|m| op_where(m, trains_at_resolve).pht_index = u32::MAX),
            ),
            (
                "destination past the architectural file".into(),
                Box::new(|m| {
                    let op = op_where(m, |op| op.uop.dst.is_some());
                    op.uop.dst.as_mut().expect("a destination").idx = NUM_ARCH_REGS_PER_CLASS;
                }),
            ),
            (
                "dmiss on a queued op".into(),
                Box::new(|m| op_where(m, InFlight::is_queued).dmiss = true),
            ),
            (
                "dmiss on a non-load".into(),
                Box::new(|m| op_where(m, issued_non_load).dmiss = true),
            ),
            (
                "phantom pending syscall".into(),
                Box::new(|m| {
                    let seq = m.threads[0].next_seq + 1_000;
                    m.pending_syscalls.push_back(QRef { tid: Tid(0), seq });
                }),
            ),
            (
                "dropped live FIFO entry".into(),
                Box::new(|m| {
                    let i = live_front_end_entry(m).expect("a live entry");
                    m.dispatch_fifo.remove(i);
                }),
            ),
            (
                "min_done_at above the earliest deadline".into(),
                Box::new(|m| {
                    for ctx in &mut m.threads {
                        let deadlines = ctx.window.iter().filter_map(|op| match op.stage {
                            Stage::Executing { done_at } => Some(done_at),
                            _ => None,
                        });
                        if let Some(earliest) = deadlines.min() {
                            ctx.min_done_at = earliest + 1;
                            return;
                        }
                    }
                }),
            ),
        ];
        for k in 0..6 {
            for (sign, delta) in [("+", 1u32), ("-", u32::MAX)] {
                let name = gauge(&mut warm.threads[0].counters, k).0;
                table.push((
                    format!("{name} {sign}1"),
                    Box::new(move |m| {
                        let g = gauge(&mut m.threads[0].counters, k).1;
                        *g = g.wrapping_add(delta);
                    }),
                ));
            }
        }
        let clean = payload(&warm);
        for (name, mutate) in &table {
            let mut bad = warm.clone();
            mutate(&mut bad);
            let bytes = payload(&bad);
            assert_ne!(bytes, clean, "{name}: the mutation changed no byte");
            match SmtMachine::decode_from(&mut ByteReader::new(&bytes)) {
                Err(CodecError::Invalid(_)) => {}
                Err(e) => panic!("{name}: {e}"),
                Ok(mut m) => {
                    // Accepted: then it must run clean, every thread
                    // committing.
                    let before: Vec<u64> = (0..4).map(|t| m.counters(Tid(t)).committed).collect();
                    for _ in 0..2_000 {
                        m.step(&mut RoundRobin);
                        m.check_invariants();
                    }
                    for (t, &b) in before.iter().enumerate() {
                        let after = m.counters(Tid(t as u8)).committed;
                        assert!(after > b, "{name}: decoded, then T{t} committed nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_path_generator_must_fit_its_stream() {
        let mut warm = machine(4, 5);
        warm.run(2_000, &mut RoundRobin);
        let stream = &warm.threads[2].stream;
        let (base, ws) = (stream.addr_base(), stream.profile().data_ws_bytes);
        let other_ws = if ws > 1 << 16 { 64 } else { 1 << 30 };
        let decode_with = |gen: WrongPathGen| {
            let mut m = warm.clone();
            m.threads[2].wp_gen = gen;
            SmtMachine::decode_from(&mut ByteReader::new(&payload(&m)))
        };
        for (field, gen) in [
            ("addr_base", WrongPathGen::new(7, base ^ (1 << 44), ws)),
            ("ws_mask", WrongPathGen::new(7, base, other_ws)),
        ] {
            match decode_with(gen) {
                Err(CodecError::Invalid(msg)) => {
                    assert!(msg.contains(field) && msg.contains("T2"), "{msg}")
                }
                other => panic!("{field}: {other:?}"),
            }
        }
        // Any seed fits: `replace_thread` and `migrate_in` derive one from
        // the stream position.
        assert!(decode_with(WrongPathGen::new(9, base, ws)).is_ok());
    }

    #[test]
    fn a_predictor_must_fit_its_config() {
        let mut warm = machine(2, 8);
        warm.run(2_000, &mut RoundRobin);
        let decode_with = |bpred: BranchPredictor| {
            let mut m = warm.clone();
            m.bpred = bpred;
            SmtMachine::decode_from(&mut ByteReader::new(&payload(&m)))
        };
        let small = SimConfig {
            gshare_bits: warm.cfg.gshare_bits - 1,
            ..warm.cfg.clone()
        };
        match decode_with(BranchPredictor::new(&small)) {
            Err(CodecError::Invalid(msg)) => assert!(msg.contains("PHT entries"), "{msg}"),
            other => panic!("decoded {:?}", other.map(|_| "a machine")),
        }
        assert!(decode_with(BranchPredictor::new(&warm.cfg)).is_ok());
    }

    #[test]
    fn lsq_stamps_wrap() {
        // The same machine with every stamp moved to just short of the
        // `u32` wrap must encode the same LSQ order as it keeps running.
        let mut a = machine(4, 6);
        a.run(2_000, &mut RoundRobin);
        let mut b = a.clone();
        let shift = u32::MAX - 20;
        b.lsq_stamp = b.lsq_stamp.wrapping_add(shift);
        for op in b.threads.iter_mut().flat_map(|ctx| ctx.window.iter_mut()) {
            op.lsq_stamp = op.lsq_stamp.wrapping_add(shift);
        }
        for _ in 0..200 {
            a.step(&mut RoundRobin);
            b.step(&mut RoundRobin);
            b.check_invariants();
            assert_eq!(payload(&a), payload(&b));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 12, ..proptest::ProptestConfig::default() })]

        /// A snapshot taken while the transient state it drops is
        /// non-trivial (dead dispatch-FIFO entries of squashed ops behind
        /// a stalled head, queued ready entries) restores to a machine
        /// that continues byte-identically to a clone taken at the same
        /// cycle.
        #[test]
        fn restore_with_dead_fifo_and_ready_entries_matches_clone(
            n in 2usize..5,
            seed in 0u64..1_000,
            post in 1u64..3_000,
        ) {
            use crate::snapshot::MachineSnapshot;
            let mut live = branchy_machine(n, seed);
            let mut steps = 0;
            while dead_fifo_entries(&live) == 0
                || live.int_iq.ready_len() + live.fp_iq.ready_len() == 0
            {
                live.step(&mut RoundRobin);
                steps += 1;
                proptest::prop_assert!(steps < 50_000, "no split with dead dispatch-FIFO entries");
            }
            let mut clone = live.clone();
            let bytes = MachineSnapshot::capture(&live).to_bytes();
            let mut restored = MachineSnapshot::from_bytes(&bytes).expect("decode").restore();
            restored.check_invariants();
            proptest::prop_assert_eq!(dead_fifo_entries(&restored), 0);
            clone.run(post, &mut RoundRobin);
            restored.run(post, &mut RoundRobin);
            proptest::prop_assert_eq!(clone.counter_snapshot(), restored.counter_snapshot());
            proptest::prop_assert_eq!(
                MachineSnapshot::capture(&clone).to_bytes(),
                MachineSnapshot::capture(&restored).to_bytes()
            );
        }
    }
}

#[cfg(test)]
mod characterization {
    //! Characterization tests: these pin down the *shape* of the machine
    //! model (predictor quality, per-app orderings, SMT scaling) rather
    //! than exact numbers, so modeling regressions are caught early.
    use super::*;
    use crate::chooser::{FnChooser, RoundRobin};
    use smt_isa::AppProfile;
    use std::sync::Arc;

    fn app_machine(names: &[&str], seed: u64) -> SmtMachine {
        let cfg = SimConfig::with_threads(names.len());
        let streams = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                UopStream::new(
                    Arc::new(smt_workloads::app(n)),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        SmtMachine::new(cfg, streams)
    }

    fn single_ipc(name: &str) -> f64 {
        let mut m = app_machine(&[name], 11);
        m.run(30_000, &mut RoundRobin);
        let warm = m.total_committed();
        let c0 = m.cycle();
        m.run(60_000, &mut RoundRobin);
        (m.total_committed() - warm) as f64 / (m.cycle() - c0) as f64
    }

    #[test]
    fn predictor_accuracy_on_stream_is_realistic() {
        let mut st = UopStream::new(
            Arc::new(AppProfile::builder("t").build()),
            11,
            smt_workloads::thread_addr_base(0),
        );
        let mut p = BranchPredictor::new(&SimConfig::default());
        let (mut n, mut correct, mut warm) = (0u64, 0u64, 0u64);
        loop {
            let op = st.next_uop();
            if !op.is_cond_branch() {
                continue;
            }
            let b = op.branch.unwrap();
            let pr = p.predict(Tid(0), op.pc, BranchKind::Conditional, b.taken, true);
            p.train(op.pc, pr.pht_index, b.taken);
            warm += 1;
            if warm < 5_000 {
                continue;
            }
            n += 1;
            if pr.taken == b.taken {
                correct += 1;
            }
            if n == 50_000 {
                break;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(
            acc > 0.80,
            "predictor accuracy {acc} below the realistic band"
        );
    }

    #[test]
    fn single_thread_app_ipc_ordering() {
        // The defining order: pointer-chasing mcf is the slowest, streaming
        // swim is memory-bound but better, cache-resident gzip is fastest.
        let mcf = single_ipc("mcf");
        let swim = single_ipc("swim");
        let gzip = single_ipc("gzip");
        assert!(mcf < swim, "mcf {mcf} should trail swim {swim}");
        assert!(swim < gzip, "swim {swim} should trail gzip {gzip}");
        assert!(mcf < 0.6, "mcf must look memory-bound, got {mcf}");
        assert!(gzip > 0.8, "gzip must look cache-resident, got {gzip}");
    }

    #[test]
    fn mispredict_rates_track_app_character() {
        let rate = |name: &str| {
            let mut m = app_machine(&[name], 13);
            m.run(60_000, &mut RoundRobin);
            let c = m.counters(Tid(0));
            c.mispredicts as f64 / c.branches_resolved.max(1) as f64
        };
        let gcc = rate("gcc");
        let swim = rate("swim");
        assert!(
            gcc > 2.0 * swim,
            "control-intensive gcc ({gcc}) must mispredict far more than swim ({swim})"
        );
        assert!(swim < 0.08, "swim mispredict rate {swim} too high");
    }

    #[test]
    fn smt_throughput_scales_with_contexts() {
        let ipc = |n: usize| {
            let cfg = SimConfig::with_threads(n);
            let streams = (0..n)
                .map(|i| {
                    UopStream::new(
                        Arc::new(AppProfile::builder("t").build()),
                        11 + i as u64,
                        smt_workloads::thread_addr_base(i),
                    )
                })
                .collect();
            let mut m = SmtMachine::new(cfg, streams);
            let mut icount = FnChooser(|_c: u64, v: &mut Vec<PolicyView>| {
                v.sort_by_key(|x| x.front_end_occ as u64 + x.iq_occ as u64);
            });
            m.run(30_000, &mut icount);
            m.aggregate_ipc()
        };
        let (i1, i2, i4, i8) = (ipc(1), ipc(2), ipc(4), ipc(8));
        assert!(i2 > 1.5 * i1, "2T {i2} vs 1T {i1}");
        assert!(i4 > i2, "4T {i4} vs 2T {i2}");
        assert!(i8 > i4, "8T {i8} vs 4T {i4}");
        assert!(i8 > 1.5, "8T aggregate IPC {i8} implausibly low");
    }

    #[test]
    fn wrongpath_fetch_is_substantial_for_branchy_apps() {
        let mut m = app_machine(&["gcc"], 17);
        m.run(30_000, &mut RoundRobin);
        let c = m.counters(Tid(0));
        let frac = c.wrongpath_fetched as f64 / (c.fetched + c.wrongpath_fetched) as f64;
        assert!(
            frac > 0.10,
            "gcc should waste a visible fraction of fetch on the wrong path, got {frac}"
        );
    }
}
