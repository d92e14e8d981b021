//! In-flight micro-op records and the per-thread completion wheel.
//!
//! Each hardware context owns a window (`VecDeque<InFlight>`) ordered by
//! per-thread sequence number — the reorder buffer. Sequence numbers are
//! monotone and never reused, so after a squash the window may contain a
//! gap. The per-cycle stages never search the window: every structure
//! that refers to an op (an IQ entry, a dispatch-FIFO entry, a completion
//! wheel link) holds its *position*, which the machine resolves with one
//! bounds check and one sequence compare. [`find_seq`] remains for the
//! lookups that start from a bare sequence number (a producer named by a
//! `deps` entry, a pending syscall, a decoded queue entry): two O(1)
//! probes, relative to the front and to the back of the window, and a
//! binary search only for an op between two gaps.
//!
//! A long-latency op publishes its [`Stage::Executing`] `done_at`
//! deadline the moment it issues. The deadline files the op on its
//! thread's `CompletionWheel`, so `complete` finds the ops due this cycle
//! without looking at any other op, and lowers the per-thread
//! `min_done_at` bound, so `complete` skips a thread with nothing due.
//!
//! The load/store queue is not a structure of its own: a thread's LSQ
//! entries are exactly its window's memory ops past dispatch
//! ([`InFlight::lsq_word`]). A store records its address word in its
//! thread's `StoreFilter` the moment it dispatches, so a load searches
//! its window for an older store to forward from only when one may still
//! be in flight.

use smt_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::{MicroOp, OpKind};

/// Pipeline stage of an in-flight op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Fetched; eligible for dispatch at `ready_at` (decode/rename depth).
    FrontEnd { ready_at: u64 },
    /// Waiting in an instruction queue.
    Queued,
    /// Issued to a functional unit; completes at `done_at`.
    Executing { done_at: u64 },
    /// Completed; awaiting in-order commit.
    Done,
}

/// One in-flight dynamic micro-op.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Per-thread sequence number (monotone, never reused).
    pub seq: u64,
    pub uop: MicroOp,
    /// Fetched down the wrong path; will be squashed, never committed.
    pub wrong_path: bool,
    /// Producer sequence numbers for up to two register sources.
    pub deps: [Option<u64>; 2],
    pub stage: Stage,
    /// Branch whose fetch-time prediction disagreed with the architectural
    /// outcome; triggers a squash when it resolves.
    pub mispredicted: bool,
    /// This load missed L1D (for the outstanding-miss gauge).
    pub dmiss: bool,
    /// PHT index used at prediction time (conditional branches only).
    pub pht_index: u32,
    /// Global-history register value before this branch's fetch (branches
    /// only; used to repair the history on squash).
    pub history_at_fetch: u64,
    pub fetched_at: u64,
    /// Head of this producer's wake chain in the machine's wake arena
    /// ([`NO_WAKE`] = no registered waiters). Transient acceleration
    /// state: *not* serialized (the machine rebuilds it after decode), so
    /// snapshot bytes are unchanged from the binary-search era.
    pub wake_head: u32,
    /// Dispatch order among the machine's memory ops: a wrapping stamp
    /// the machine hands out as each load or store dispatches, meaningful
    /// while [`Self::lsq_word`] is `Some`. The snapshot codec writes the
    /// LSQ in this order. Transient: decode restamps the ops in the order
    /// the snapshot lists them.
    pub lsq_stamp: u32,
}

/// Sentinel for an empty wake chain ([`InFlight::wake_head`]).
pub const NO_WAKE: u32 = u32::MAX;

impl InFlight {
    /// True once execution finished.
    #[inline]
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    /// True while the op sits in an instruction queue.
    #[inline]
    pub fn is_queued(&self) -> bool {
        matches!(self.stage, Stage::Queued)
    }

    /// True while the op is in the front end (pre-dispatch).
    #[inline]
    pub fn in_front_end(&self) -> bool {
        matches!(self.stage, Stage::FrontEnd { .. })
    }

    /// Has the op passed dispatch (and so holds queue/LSQ/register
    /// resources that must be returned on squash)?
    #[inline]
    pub fn past_dispatch(&self) -> bool {
        !self.in_front_end()
    }

    /// The address word (address / 8, the generator's access
    /// granularity) of a memory op past dispatch: `Some` exactly while
    /// the op holds an LSQ entry.
    #[inline]
    pub fn lsq_word(&self) -> Option<u64> {
        match self.uop.mem {
            Some(m) if self.past_dispatch() => Some(m.addr >> 3),
            _ => None,
        }
    }
}

impl Codec for Stage {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Stage::FrontEnd { ready_at } => {
                w.u8(0);
                w.u64(*ready_at);
            }
            Stage::Queued => w.u8(1),
            Stage::Executing { done_at } => {
                w.u8(2);
                w.u64(*done_at);
            }
            Stage::Done => w.u8(3),
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Stage::FrontEnd { ready_at: r.u64()? },
            1 => Stage::Queued,
            2 => Stage::Executing { done_at: r.u64()? },
            3 => Stage::Done,
            t => {
                return Err(CodecError::BadTag {
                    what: "Stage",
                    tag: t as u64,
                })
            }
        })
    }
}

impl Codec for InFlight {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.seq);
        self.uop.encode(w);
        w.bool(self.wrong_path);
        self.deps.encode(w);
        self.stage.encode(w);
        w.bool(self.mispredicted);
        w.bool(self.dmiss);
        w.u32(self.pht_index);
        w.u64(self.history_at_fetch);
        w.u64(self.fetched_at);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(InFlight {
            seq: r.u64()?,
            uop: MicroOp::decode(r)?,
            wrong_path: r.bool()?,
            deps: <[Option<u64>; 2]>::decode(r)?,
            stage: Stage::decode(r)?,
            mispredicted: r.bool()?,
            dmiss: r.bool()?,
            pht_index: r.u32()?,
            history_at_fetch: r.u64()?,
            fetched_at: r.u64()?,
            wake_head: NO_WAKE,
            lsq_stamp: 0,
        })
    }
}

/// Index of sequence number `seq` in a window sorted by `seq`.
///
/// Commit pops the front and a squash truncates the back, so a window is
/// a few runs of consecutive sequence numbers separated by squash gaps.
/// The front-relative probe hits every op of the oldest run and the
/// back-relative probe every op of the youngest, so a window with at most
/// one gap never reaches the binary-search fallback.
#[inline]
pub fn find_seq(window: &std::collections::VecDeque<InFlight>, seq: u64) -> Option<usize> {
    let (front, back) = (window.front()?.seq, window.back()?.seq);
    if seq < front || seq > back {
        return None;
    }
    let n = window.len();
    let i = (seq - front) as usize;
    if i < n && window[i].seq == seq {
        return Some(i);
    }
    let j = (back - seq) as usize;
    if j < n && window[n - 1 - j].seq == seq {
        return Some(n - 1 - j);
    }
    find_seq_search(window, seq)
}

/// The binary-search fallback of [`find_seq`], reached only for ops
/// between two squash gaps.
#[cold]
fn find_seq_search(window: &std::collections::VecDeque<InFlight>, seq: u64) -> Option<usize> {
    let (a, b) = window.as_slices();
    if let Ok(i) = a.binary_search_by_key(&seq, |op| op.seq) {
        return Some(i);
    }
    if let Ok(i) = b.binary_search_by_key(&seq, |op| op.seq) {
        return Some(a.len() + i);
    }
    None
}

/// One thread's store-to-load forwarding filter: two tables of 64 slots,
/// each indexed by its own six bits of a hash of the address word, each
/// slot holding 1 + the seq of the youngest store dispatched with those
/// bits (0 for none). A load scans its window only when both of its slots
/// may hold a store: with one table, collisions with the thread's other
/// in-flight stores sent 4–16% of loads to a scan on the benchmark's
/// mixes, where about 0.1% forward; the second table cuts that to
/// 0.4–2.9%.
///
/// Each table alone never misses a forward. Per-thread seqs only grow and
/// dispatch is in order, so every op older than an issuing load is past
/// dispatch, and a store leaves the window only by commit (oldest first)
/// or by a squash or flush (youngest first). An in-flight store therefore
/// keeps its slot above the seq of its window's oldest op, and a load
/// whose slot is not above it has no older store to the same word. A
/// stale slot (its store committed or squashed) costs only a needless
/// window scan. Transient: cloned with the machine, rebuilt from the
/// window after decode, never serialized.
#[derive(Clone, Debug)]
pub(crate) struct StoreFilter {
    slots: [[u64; 64]; 2],
}

impl Default for StoreFilter {
    fn default() -> Self {
        StoreFilter {
            slots: [[0; 64]; 2],
        }
    }
}

impl StoreFilter {
    /// The slot of address word `word` in each table: the top two six-bit
    /// fields of a Fibonacci hash, so strided words spread over every slot.
    #[inline]
    fn slots(word: u64) -> [usize; 2] {
        let h = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        [(h >> 58) as usize, (h >> 52) as usize & 63]
    }

    /// Record the dispatch of store `seq` to word `word`. Dispatch is in
    /// seq order per thread, so each slot keeps its youngest store.
    #[inline]
    pub fn note(&mut self, word: u64, seq: u64) {
        let [a, b] = Self::slots(word);
        self.slots[0][a] = seq + 1;
        self.slots[1][b] = seq + 1;
    }

    /// May a store to `word` still be in flight in a window whose oldest
    /// op has seq `oldest`? `false` is exact; `true` asks for a scan.
    #[inline]
    pub fn may_hold(&self, word: u64, oldest: u64) -> bool {
        let [a, b] = Self::slots(word);
        self.slots[0][a] > oldest && self.slots[1][b] > oldest
    }

    /// The filter of `window`'s dispatched stores, as dispatch would have
    /// left it (stale slots aside).
    pub fn of(window: &std::collections::VecDeque<InFlight>) -> Self {
        let mut f = StoreFilter::default();
        for op in window {
            if let (OpKind::Store, Some(word)) = (op.uop.kind, op.lsq_word()) {
                f.note(word, op.seq);
            }
        }
        f
    }
}

/// Empty bucket or end of a bucket's chain in a [`CompletionWheel`].
pub(crate) const WHEEL_NIL: u16 = u16::MAX;

/// Most window slots a [`CompletionWheel`] can link: slot indices are
/// 16-bit and [`WHEEL_NIL`] must stay out of range.
pub(crate) const WHEEL_MAX_SLOTS: usize = 1 << 15;

/// One thread's completion calendar: a timing wheel with one bucket per
/// cycle modulo its power-of-two bucket count, each bucket a chain of the
/// window slots whose ops complete in that cycle.
///
/// A window slot is an op's position modulo the power-of-two slot count
/// (at least the window capacity), so the ops in one window never share
/// a slot, and each slot carries one `next` link. The bucket count must
/// exceed every latency the machine can assign: then a bucket holds only
/// the ops due in one cycle, and the bucket of cycle `now` can be taken
/// whole. An occupancy bitmap answers "when is the next completion" in a
/// few word scans.
#[derive(Clone, Debug)]
pub(crate) struct CompletionWheel {
    /// First slot of each bucket's chain ([`WHEEL_NIL`] when empty).
    heads: Vec<u16>,
    /// Next slot in the same bucket, per window slot.
    next: Vec<u16>,
    /// One bit per bucket, set while the bucket's chain is non-empty.
    occupied: Vec<u64>,
}

impl CompletionWheel {
    /// An empty wheel of `buckets` buckets over `slots` window slots; both
    /// powers of two, `slots` at most [`WHEEL_MAX_SLOTS`].
    pub fn new(buckets: usize, slots: usize) -> Self {
        assert!(buckets.is_power_of_two() && slots.is_power_of_two());
        assert!(slots <= WHEEL_MAX_SLOTS, "{slots} window slots");
        CompletionWheel {
            heads: vec![WHEEL_NIL; buckets],
            next: vec![WHEEL_NIL; slots],
            occupied: vec![0; buckets.div_ceil(64)],
        }
    }

    /// Bucket count: one more than the longest schedulable latency, at
    /// least.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// The window slot of the op at `pos`.
    #[inline]
    pub fn slot(&self, pos: u32) -> usize {
        pos as usize & (self.next.len() - 1)
    }

    /// Window index of the op at `slot`, in a window whose first op sits
    /// at position `base`.
    #[inline]
    pub fn index_of(&self, slot: u16, base: u32) -> usize {
        (slot as usize).wrapping_sub(base as usize) & (self.next.len() - 1)
    }

    #[inline]
    fn bucket(&self, cycle: u64) -> usize {
        cycle as usize & (self.heads.len() - 1)
    }

    /// Link `slot` into the bucket of cycle `due`, which must lie in the
    /// wheel's horizon after `now` — a later one would alias an earlier
    /// bucket and complete early.
    #[inline]
    pub fn insert(&mut self, slot: usize, due: u64, now: u64) {
        assert!(
            due > now && due - now < self.heads.len() as u64,
            "completion at {due} outside the {}-bucket wheel at cycle {now}",
            self.heads.len()
        );
        self.link(slot, due);
    }

    /// Link `slot` into the bucket of cycle `due`, unchecked.
    #[inline]
    pub fn link(&mut self, slot: usize, due: u64) {
        let b = self.bucket(due);
        self.next[slot] = self.heads[b];
        self.heads[b] = slot as u16;
        self.occupied[b >> 6] |= 1 << (b & 63);
    }

    /// Unlink `slot` from the bucket of cycle `due`. Returns whether it
    /// was there.
    pub fn remove(&mut self, slot: usize, due: u64) -> bool {
        let b = self.bucket(due);
        let slot = slot as u16;
        if self.heads[b] == slot {
            self.heads[b] = self.next[slot as usize];
            if self.heads[b] == WHEEL_NIL {
                self.occupied[b >> 6] &= !(1 << (b & 63));
            }
            return true;
        }
        let mut cur = self.heads[b];
        while cur != WHEEL_NIL {
            let nxt = self.next[cur as usize];
            if nxt == slot {
                self.next[cur as usize] = self.next[slot as usize];
                return true;
            }
            cur = nxt;
        }
        false
    }

    /// Empty the bucket of cycle `now` and return the first slot of its
    /// chain ([`WHEEL_NIL`] if it was empty); [`Self::next_of`] walks the
    /// rest. The links stay readable until a slot is linked again.
    #[inline]
    pub fn take(&mut self, now: u64) -> u16 {
        let b = self.bucket(now);
        self.occupied[b >> 6] &= !(1 << (b & 63));
        std::mem::replace(&mut self.heads[b], WHEEL_NIL)
    }

    /// The slot after `slot` in its bucket's chain.
    #[inline]
    pub fn next_of(&self, slot: u16) -> u16 {
        self.next[slot as usize]
    }

    /// The first cycle after `now` whose bucket is occupied, or
    /// `u64::MAX` when the wheel is empty. Exact when every linked op is
    /// due after `now` and within the wheel's horizon.
    pub fn earliest_after(&self, now: u64) -> u64 {
        let mask = self.heads.len() - 1;
        let start = (now as usize).wrapping_add(1) & mask;
        let words = self.occupied.len();
        let mut w = start >> 6;
        let mut bits = self.occupied[w] & (!0u64 << (start & 63));
        // One more word than the bitmap holds: the start word's low bits
        // are the wheel's last buckets.
        for _ in 0..=words {
            if bits != 0 {
                let b = (w << 6) | bits.trailing_zeros() as usize;
                return now + 1 + (b.wrapping_sub(start) & mask) as u64;
            }
            w = if w + 1 == words { 0 } else { w + 1 };
            bits = self.occupied[w];
        }
        u64::MAX
    }

    /// Unlink everything.
    pub fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                self.heads[(w << 6) | word.trailing_zeros() as usize] = WHEEL_NIL;
                *word &= *word - 1;
            }
        }
    }

    /// Every linked `(bucket, slot)` pair, bucket by bucket — for
    /// invariant checks. Panics if a chain loops or a bucket's occupancy
    /// bit disagrees with its chain.
    pub fn entries(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (b, &head) in self.heads.iter().enumerate() {
            let bit = self.occupied[b >> 6] >> (b & 63) & 1 == 1;
            assert_eq!(bit, head != WHEEL_NIL, "occupancy bit wrong for bucket {b}");
            let mut cur = head;
            let mut steps = 0;
            while cur != WHEEL_NIL {
                out.push((b, cur as usize));
                steps += 1;
                assert!(steps <= self.next.len(), "bucket {b} chain loops");
                cur = self.next[cur as usize];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn op(seq: u64) -> InFlight {
        InFlight {
            seq,
            uop: MicroOp::nop(seq * 4),
            wrong_path: false,
            deps: [None, None],
            stage: Stage::FrontEnd { ready_at: 0 },
            mispredicted: false,
            dmiss: false,
            pht_index: 0,
            history_at_fetch: 0,
            fetched_at: 0,
            wake_head: NO_WAKE,
            lsq_stamp: 0,
        }
    }

    /// A window holding `seqs` whose ring storage wraps, so `as_slices`
    /// splits it in two.
    fn wrapped_window(seqs: &[u64]) -> VecDeque<InFlight> {
        let mut w: VecDeque<InFlight> = VecDeque::with_capacity(seqs.len());
        let cap = w.capacity() as u64;
        for s in 0..cap - 2 {
            w.push_back(op(s));
        }
        while w.pop_front().is_some() {}
        for &s in seqs {
            w.push_back(op(s));
        }
        assert!(!w.as_slices().1.is_empty(), "window must wrap the ring");
        w
    }

    #[test]
    fn find_seq_handles_gaps_across_ring_wrap() {
        // 0, 1 and 2 squash gaps. The two probes cover the first two
        // windows; the middle run of the last one (15..=17) is reachable
        // only through the binary-search fallback.
        let windows: [&[u64]; 3] = [
            &[10, 11, 12, 13, 14, 15, 16],
            &[10, 11, 12, 20, 21, 22, 23],
            &[10, 11, 15, 16, 17, 30, 31],
        ];
        for seqs in windows {
            let w = wrapped_window(seqs);
            for s in 0..40 {
                let want = seqs.iter().position(|&x| x == s);
                assert_eq!(find_seq(&w, s), want, "seq {s} in {seqs:?}");
            }
        }
        assert_eq!(find_seq(&VecDeque::new(), 0), None);
    }

    fn chain(w: &mut CompletionWheel, now: u64) -> Vec<usize> {
        let mut out = Vec::new();
        let mut s = w.take(now);
        while s != WHEEL_NIL {
            out.push(s as usize);
            s = w.next_of(s);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn wheel_takes_a_bucket_whole_and_finds_the_next_deadline() {
        let mut w = CompletionWheel::new(8, 4);
        assert_eq!(w.earliest_after(0), u64::MAX);
        w.insert(0, 3, 0);
        w.insert(1, 3, 0);
        w.insert(2, 7, 0);
        w.insert(3, 5, 1);
        assert_eq!(w.earliest_after(0), 3);
        assert_eq!(chain(&mut w, 3), vec![0, 1]);
        assert_eq!(w.earliest_after(3), 5);
        assert!(w.remove(3, 5));
        assert!(!w.remove(3, 5), "already unlinked");
        assert_eq!(w.earliest_after(3), 7);
        // Due 12 at cycle 6 lands in bucket 4 and is found across the
        // wheel's wrap.
        w.insert(0, 12, 6);
        assert_eq!(chain(&mut w, 7), vec![2]);
        assert_eq!(w.earliest_after(7), 12);
        assert_eq!(w.entries(), vec![(4, 0)]);
        w.clear();
        assert!(w.entries().is_empty());
        assert_eq!(w.earliest_after(12), u64::MAX);
    }

    #[test]
    fn wheel_bitmap_spans_several_words() {
        let mut w = CompletionWheel::new(256, 128);
        w.insert(5, 1_000 + 200, 1_000);
        w.insert(6, 1_000 + 70, 1_000);
        assert_eq!(w.earliest_after(1_000), 1_070);
        assert!(w.remove(6, 1_070));
        assert_eq!(w.earliest_after(1_000), 1_200);
        // A full turn earlier the scan starts just past the deadline's
        // bucket and wraps all the way round to it.
        assert_eq!(w.earliest_after(1_200 - 256), 1_200);
    }

    #[test]
    #[should_panic(expected = "outside the 8-bucket wheel")]
    fn wheel_rejects_a_deadline_past_its_horizon() {
        CompletionWheel::new(8, 4).insert(0, 8, 0);
    }

    #[test]
    fn lsq_stamp_fits_in_padding() {
        // The stamp fills padding: a `u64` one made every in-flight op
        // 8 bytes larger and the machine's clones and heap with it.
        assert_eq!(std::mem::size_of::<InFlight>(), 144);
    }

    #[test]
    fn store_filter_holds_every_in_flight_store() {
        let store = |seq: u64, addr: u64| {
            let mut o = op(seq);
            o.uop = MicroOp {
                kind: OpKind::Store,
                mem: Some(smt_isa::MemInfo { addr, size: 8 }),
                ..MicroOp::nop(seq * 4)
            };
            o.stage = Stage::Queued;
            o
        };
        let window: VecDeque<InFlight> = [store(3, 0x40), op(4), store(5, 0x48)].into();
        let f = StoreFilter::of(&window);
        assert!(f.may_hold(0x40 >> 3, 3) && f.may_hold(0x48 >> 3, 5));
        // Once the oldest op in the window is younger than every store
        // the slot saw, the slot rules the word out.
        assert!(!f.may_hold(0x48 >> 3, 6));
        // A front-end store holds no LSQ entry and marks nothing.
        let mut fe = store(7, 0x50);
        fe.stage = Stage::FrontEnd { ready_at: 0 };
        assert_eq!(fe.lsq_word(), None);
        assert!(!StoreFilter::of(&[fe].into()).may_hold(0x50 >> 3, 0));
    }

    #[test]
    fn stage_predicates() {
        let mut o = op(1);
        assert!(o.in_front_end());
        assert!(!o.past_dispatch());
        o.stage = Stage::Queued;
        assert!(o.is_queued() && o.past_dispatch());
        o.stage = Stage::Executing { done_at: 5 };
        assert!(o.past_dispatch() && !o.is_done());
        o.stage = Stage::Done;
        assert!(o.is_done());
    }
}
