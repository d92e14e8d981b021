//! Per-thread-indexed shared queue.
//!
//! The machine's shared queues (the instruction queues and the LSQ) hold
//! entries from every hardware context in global age order, but the
//! expensive operations are per-thread: a squash removes one thread's
//! youngest entries, a flush removes one thread's entries outright, and
//! store-to-load forwarding only ever inspects the loading thread's own
//! stores. A flat `Vec` makes all of those O(total occupancy) `retain`
//! scans — on an 8-thread machine that is ~8× more work than necessary,
//! paid on every mispredict.
//!
//! [`IndexedQueue`] keeps each entry on **two intrusive doubly-linked
//! lists** over one slab: the global age list (the order slot
//! attribution and the codec walk — identical to the `Vec` push order it
//! replaces) and a
//! per-thread list (seq-ordered, because every producer inserts a thread's
//! entries in program order). Squash walks the victim thread's list from
//! its tail and stops at the first survivor, so the cost is O(victims);
//! every other thread's entries are untouched. All link surgery is O(1).
//!
//! An entry can also sit on a third list, the **ready list**: the entries
//! the owner has marked ready ([`IndexedQueue::mark_ready`]), kept in
//! global age order by an insertion stamp. The issue stage walks only this
//! list, so a dep-blocked entry costs nothing until its producers finish.
//! Removal takes an entry off every list it is on.
//!
//! The dispatch FIFO is not an `IndexedQueue`: the machine keeps it as a
//! plain `VecDeque` whose squashed and flushed entries die in place and
//! are popped as free bubbles when they reach the head, so neither a
//! squash nor a flush touches it.
//!
//! The pre-optimization `Vec`+`retain` semantics are preserved verbatim —
//! [`reference::RetainQueue`] keeps that implementation alive as the
//! oracle for the differential property tests in
//! `crates/sim/tests/proptest_machine_equiv.rs`, and the golden-trace
//! suite pins the machine-level behavior bit-for-bit.

use smt_isa::codec::{ByteReader, ByteWriter, CodecError};
use smt_isa::Tid;

/// Null link. Slab indices are `u32`; the queues hold at most a few
/// hundred entries.
pub const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<T> {
    seq: u64,
    payload: T,
    tid: u8,
    /// Queued; false once removed (the slot is then a dead residue on the
    /// free list until `alloc` reuses it).
    live: bool,
    /// On the ready list.
    ready: bool,
    /// Insertion stamp: global age order as a number.
    age: u64,
    /// Global age-order links.
    prev: u32,
    next: u32,
    /// Per-thread (seq-order) links.
    tprev: u32,
    tnext: u32,
    /// Ready-list (age-order) links, meaningful while `ready`.
    rprev: u32,
    rnext: u32,
}

/// A shared queue with O(1) append/unlink and O(victims) per-thread purge.
#[derive(Clone, Debug)]
pub struct IndexedQueue<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    theads: Vec<u32>,
    ttails: Vec<u32>,
    tlens: Vec<u32>,
    len: usize,
    rhead: u32,
    rtail: u32,
    rlen: usize,
    /// Stamp of the next pushed entry.
    next_age: u64,
}

impl<T> IndexedQueue<T> {
    /// An empty queue for `n_threads` contexts, with room for `cap`
    /// entries before the slab reallocates.
    pub fn new(n_threads: usize, cap: usize) -> Self {
        IndexedQueue {
            nodes: Vec::with_capacity(cap),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            theads: vec![NIL; n_threads],
            ttails: vec![NIL; n_threads],
            tlens: vec![0; n_threads],
            len: 0,
            rhead: NIL,
            rtail: NIL,
            rlen: 0,
            next_age: 0,
        }
    }

    /// Live entries across all threads.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live entries belonging to `tid`.
    #[inline]
    pub fn thread_len(&self, tid: Tid) -> usize {
        self.tlens[tid.idx()] as usize
    }

    /// Hardware contexts the queue keeps per-thread lists for.
    pub fn contexts(&self) -> usize {
        self.theads.len()
    }

    fn alloc(&mut self, node: Node<T>) -> u32 {
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

    /// Append at the global tail. Callers insert each thread's entries in
    /// program order, which is what keeps the per-thread list seq-sorted
    /// (checked in debug builds) and the tail-walk squash correct.
    ///
    /// Returns the entry's slab index — stable for the entry's whole
    /// lifetime, so callers may hold it as a weak reference and later
    /// revalidate it with [`Self::entry_matches`].
    pub fn push_back(&mut self, tid: Tid, seq: u64, payload: T) -> u32 {
        let ti = tid.idx();
        debug_assert!(
            self.ttails[ti] == NIL || self.nodes[self.ttails[ti] as usize].seq < seq,
            "per-thread seq order violated on push"
        );
        let idx = self.alloc(Node {
            seq,
            payload,
            tid: tid.0,
            live: true,
            ready: false,
            age: self.next_age,
            prev: self.tail,
            next: NIL,
            tprev: self.ttails[ti],
            tnext: NIL,
            rprev: NIL,
            rnext: NIL,
        });
        self.next_age += 1;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        if self.ttails[ti] != NIL {
            self.nodes[self.ttails[ti] as usize].tnext = idx;
        } else {
            self.theads[ti] = idx;
        }
        self.ttails[ti] = idx;
        self.len += 1;
        self.tlens[ti] += 1;
        idx
    }

    /// Does the slab slot `idx` still hold the live entry `(tid, seq)`?
    ///
    /// `(tid, seq)` keys are never reused within one queue (per-thread
    /// sequence numbers are monotone), so a live slot with a matching key
    /// is the original entry. A freed slot keeps its last key until
    /// `alloc` overwrites it, but it is no longer live; a reused slot holds
    /// a different key. Both compare unequal, which is what makes a stale
    /// index a safe *weak* reference rather than a dangling one. Acting on
    /// a freed slot would not be harmless: readying it would link a dead
    /// node into the ready list.
    #[inline]
    pub fn entry_matches(&self, idx: u32, tid: Tid, seq: u64) -> bool {
        match self.nodes.get(idx as usize) {
            Some(n) => n.live && n.tid == tid.0 && n.seq == seq,
            None => false,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next, tprev, tnext, ti) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.tprev, n.tnext, n.tid as usize)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        if tprev != NIL {
            self.nodes[tprev as usize].tnext = tnext;
        } else {
            self.theads[ti] = tnext;
        }
        if tnext != NIL {
            self.nodes[tnext as usize].tprev = tprev;
        } else {
            self.ttails[ti] = tprev;
        }
        if self.nodes[idx as usize].ready {
            self.unlink_ready(idx);
        }
        self.nodes[idx as usize].live = false;
        self.free.push(idx);
        self.len -= 1;
        self.tlens[ti] -= 1;
    }

    fn unlink_ready(&mut self, idx: u32) {
        let n = &mut self.nodes[idx as usize];
        n.ready = false;
        let (rprev, rnext) = (n.rprev, n.rnext);
        if rprev != NIL {
            self.nodes[rprev as usize].rnext = rnext;
        } else {
            self.rhead = rnext;
        }
        if rnext != NIL {
            self.nodes[rnext as usize].rprev = rprev;
        } else {
            self.rtail = rprev;
        }
        self.rlen -= 1;
    }

    /// Put the entry at `idx` on the ready list, in age order. A no-op for
    /// an entry already on it and for a freed slot.
    pub fn mark_ready(&mut self, idx: u32) {
        let n = &self.nodes[idx as usize];
        if !n.live || n.ready {
            return;
        }
        let age = n.age;
        // Walk back from the youngest ready entry to this one's place: a
        // freshly pushed entry is the youngest of all and links in O(1).
        let mut prev = self.rtail;
        while prev != NIL && self.nodes[prev as usize].age > age {
            prev = self.nodes[prev as usize].rprev;
        }
        let next = if prev == NIL {
            self.rhead
        } else {
            self.nodes[prev as usize].rnext
        };
        let n = &mut self.nodes[idx as usize];
        n.ready = true;
        n.rprev = prev;
        n.rnext = next;
        if prev == NIL {
            self.rhead = idx;
        } else {
            self.nodes[prev as usize].rnext = idx;
        }
        if next == NIL {
            self.rtail = idx;
        } else {
            self.nodes[next as usize].rprev = idx;
        }
        self.rlen += 1;
    }

    /// Cursor to the oldest ready entry ([`NIL`] when none is ready).
    #[inline]
    pub fn first_ready(&self) -> u32 {
        self.rhead
    }

    /// Cursor following `idx` on the ready list.
    #[inline]
    pub fn next_ready(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].rnext
    }

    /// Entries on the ready list.
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.rlen
    }

    /// Remove the entry at `idx` (a cursor obtained from [`Self::first`] /
    /// [`Self::next_of`]). Neighbors' cursors stay valid; `idx` does not.
    #[inline]
    pub fn remove(&mut self, idx: u32) {
        self.unlink(idx);
    }

    /// Cursor to the oldest entry ([`NIL`] when empty).
    #[inline]
    pub fn first(&self) -> u32 {
        self.head
    }

    /// Cursor following `idx` in age order.
    #[inline]
    pub fn next_of(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].next
    }

    /// (thread, seq) of the entry at `idx`.
    #[inline]
    pub fn key(&self, idx: u32) -> (Tid, u64) {
        let n = &self.nodes[idx as usize];
        (Tid(n.tid), n.seq)
    }

    /// Payload of the entry at `idx`.
    #[inline]
    pub fn payload(&self, idx: u32) -> &T {
        &self.nodes[idx as usize].payload
    }

    /// Mutable payload of the entry at `idx` — for caller-maintained memos
    /// (e.g. the issue stage's dependency-satisfied flag).
    #[inline]
    pub fn payload_mut(&mut self, idx: u32) -> &mut T {
        &mut self.nodes[idx as usize].payload
    }

    /// Remove every entry of `tid` with `seq >= min_gone` — the squash
    /// operation. Walks the thread's seq-sorted list from its tail and
    /// stops at the first survivor: O(victims), other threads untouched.
    pub fn squash_tail(&mut self, tid: Tid, min_gone: u64) -> usize {
        let ti = tid.idx();
        let mut removed = 0;
        let mut idx = self.ttails[ti];
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.seq < min_gone {
                break;
            }
            let prev = n.tprev;
            self.unlink(idx);
            removed += 1;
            idx = prev;
        }
        removed
    }

    /// Remove every entry of `tid` — the flush operation.
    pub fn remove_thread(&mut self, tid: Tid) -> usize {
        self.squash_tail(tid, 0)
    }

    /// Remove `tid`'s entry with exactly `seq` (if present). O(position in
    /// the thread's list); commit removes the thread's oldest memory op,
    /// so in practice this is the first probe.
    pub fn find_thread_remove(&mut self, tid: Tid, seq: u64) -> bool {
        let mut idx = self.theads[tid.idx()];
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.seq == seq {
                self.unlink(idx);
                return true;
            }
            if n.seq > seq {
                return false; // seq-sorted: overshot
            }
            idx = n.tnext;
        }
        false
    }

    /// `tid`'s entries in seq order.
    pub fn iter_thread(&self, tid: Tid) -> impl Iterator<Item = (u64, &T)> + '_ {
        let mut idx = self.theads[tid.idx()];
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let n = &self.nodes[idx as usize];
            idx = n.tnext;
            Some((n.seq, &n.payload))
        })
    }

    /// All entries in global age order.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, u64, &T)> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let n = &self.nodes[idx as usize];
            idx = n.next;
            Some((Tid(n.tid), n.seq, &n.payload))
        })
    }

    /// Serialize the queue's *logical* contents — entries in global age
    /// order, plus the context count. Slab indices and free-list layout
    /// are deliberately not preserved: they are unobservable through the
    /// public API (walks go through [`Self::first`]/[`Self::next_of`],
    /// removals are key- or cursor-based), so a decode that re-pushes the
    /// same entries in the same order is behaviorally identical.
    pub fn encode_with(&self, w: &mut ByteWriter, mut enc: impl FnMut(&mut ByteWriter, &T)) {
        w.usize(self.theads.len());
        w.usize(self.len);
        for (tid, seq, payload) in self.iter() {
            w.u8(tid.0);
            w.u64(seq);
            enc(w, payload);
        }
    }

    /// Rebuild from [`Self::encode_with`] bytes.
    pub fn decode_with(
        r: &mut ByteReader,
        mut dec: impl FnMut(&mut ByteReader) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let n_threads = r.usize()?;
        if n_threads == 0 || n_threads > smt_isa::MAX_HW_CONTEXTS {
            return Err(CodecError::Invalid(format!(
                "queue context count {n_threads} out of range"
            )));
        }
        let len = r.usize()?;
        let mut q = IndexedQueue::new(n_threads, len.min(r.remaining()));
        for _ in 0..len {
            let tid = r.u8()?;
            if tid as usize >= n_threads {
                return Err(CodecError::Invalid(format!(
                    "queue entry tid {tid} out of range"
                )));
            }
            let seq = r.u64()?;
            let ti = tid as usize;
            // push_back debug-asserts per-thread seq order; enforce it in
            // release decodes too so corrupt bytes cannot corrupt links.
            if q.ttails[ti] != NIL && q.nodes[q.ttails[ti] as usize].seq >= seq {
                return Err(CodecError::Invalid("queue entries out of seq order".into()));
            }
            let payload = dec(r)?;
            q.push_back(Tid(tid), seq, payload);
        }
        Ok(q)
    }

    /// Recheck every structural invariant from scratch: link symmetry and
    /// order on all three lists, per-thread seq order, length bookkeeping,
    /// slab accounting. O(len); called from tests and `check_invariants`.
    pub fn validate(&self) {
        let mut count = 0usize;
        let mut flagged = 0usize;
        let mut prev = NIL;
        let mut idx = self.head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert!(n.live, "freed slot {idx} on the global list");
            assert_eq!(n.prev, prev, "global prev link broken at {idx}");
            if prev != NIL {
                assert!(
                    n.age > self.nodes[prev as usize].age,
                    "global list out of age order at {idx}"
                );
            }
            flagged += n.ready as usize;
            count += 1;
            prev = idx;
            idx = n.next;
        }
        assert_eq!(self.tail, prev, "global tail link broken");
        assert_eq!(count, self.len, "global length drift");
        let mut tsum = 0usize;
        for ti in 0..self.theads.len() {
            let mut cnt = 0usize;
            let mut tprev = NIL;
            let mut last_seq = None;
            let mut idx = self.theads[ti];
            while idx != NIL {
                let n = &self.nodes[idx as usize];
                assert_eq!(n.tid as usize, ti, "entry on wrong thread list");
                assert_eq!(n.tprev, tprev, "thread prev link broken at {idx}");
                if let Some(s) = last_seq {
                    assert!(n.seq > s, "thread list out of seq order");
                }
                last_seq = Some(n.seq);
                cnt += 1;
                tprev = idx;
                idx = n.tnext;
            }
            assert_eq!(self.ttails[ti], tprev, "thread tail link broken");
            assert_eq!(cnt, self.tlens[ti] as usize, "thread length drift");
            tsum += cnt;
        }
        assert_eq!(tsum, self.len, "thread lengths do not sum to total");
        assert_eq!(
            self.free.len() + self.len,
            self.nodes.len(),
            "slab accounting drift"
        );
        assert!(
            self.free.iter().all(|&f| !self.nodes[f as usize].live),
            "live entry on the free list"
        );
        // Ready list: symmetric links, strictly increasing age, and exactly
        // the entries flagged ready.
        let mut rcount = 0usize;
        let mut rprev = NIL;
        let mut idx = self.rhead;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert!(
                n.live && n.ready,
                "unflagged or freed entry {idx} on the ready list"
            );
            assert_eq!(n.rprev, rprev, "ready prev link broken at {idx}");
            if rprev != NIL {
                assert!(
                    n.age > self.nodes[rprev as usize].age,
                    "ready list out of age order at {idx}"
                );
            }
            rcount += 1;
            rprev = idx;
            idx = n.rnext;
        }
        assert_eq!(self.rtail, rprev, "ready tail link broken");
        assert_eq!(rcount, self.rlen, "ready length drift");
        assert_eq!(
            flagged, self.rlen,
            "ready flags disagree with the ready list"
        );
    }

    /// [`Self::validate`], plus ready-list membership: an entry is on the
    /// ready list exactly when `is_ready` holds for its payload.
    pub fn validate_ready(&self, is_ready: impl Fn(&T) -> bool) {
        self.validate();
        let mut idx = self.head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert_eq!(
                n.ready,
                is_ready(&n.payload),
                "ready-list membership wrong for t{} seq {}",
                n.tid,
                n.seq
            );
            idx = n.next;
        }
    }
}

#[doc(hidden)]
pub mod reference {
    //! The **pre-optimization** shared-queue implementation: a flat `Vec`
    //! purged with order-preserving `retain` scans, exactly as
    //! `SmtMachine` did before [`super::IndexedQueue`] replaced it. Kept
    //! (and exported, test-only by convention) as the oracle for the
    //! differential property tests: both implementations must agree on
    //! contents and order under every operation sequence.

    use smt_isa::Tid;

    /// `Vec`+`retain` shared queue with the original semantics.
    #[derive(Clone, Debug, Default)]
    pub struct RetainQueue<T> {
        entries: Vec<(Tid, u64, T)>,
    }

    impl<T> RetainQueue<T> {
        pub fn new() -> Self {
            RetainQueue {
                entries: Vec::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub fn thread_len(&self, tid: Tid) -> usize {
            self.entries.iter().filter(|(t, _, _)| *t == tid).count()
        }

        pub fn push_back(&mut self, tid: Tid, seq: u64, payload: T) {
            self.entries.push((tid, seq, payload));
        }

        /// The original squash purge:
        /// `retain(|q| !(q.tid == tid && q.seq >= min_gone))`.
        pub fn squash_tail(&mut self, tid: Tid, min_gone: u64) -> usize {
            let before = self.entries.len();
            self.entries
                .retain(|(t, s, _)| !(*t == tid && *s >= min_gone));
            before - self.entries.len()
        }

        /// The original flush purge: `retain(|q| q.tid != tid)`.
        pub fn remove_thread(&mut self, tid: Tid) -> usize {
            let before = self.entries.len();
            self.entries.retain(|(t, _, _)| *t != tid);
            before - self.entries.len()
        }

        /// Order-preserving removal by (tid, seq).
        pub fn find_thread_remove(&mut self, tid: Tid, seq: u64) -> bool {
            match self
                .entries
                .iter()
                .position(|(t, s, _)| *t == tid && *s == seq)
            {
                Some(pos) => {
                    self.entries.remove(pos);
                    true
                }
                None => false,
            }
        }

        pub fn iter(&self) -> impl Iterator<Item = (Tid, u64, &T)> + '_ {
            self.entries.iter().map(|(t, s, p)| (*t, *s, p))
        }

        pub fn iter_thread(&self, tid: Tid) -> impl Iterator<Item = (u64, &T)> + '_ {
            self.entries
                .iter()
                .filter(move |(t, _, _)| *t == tid)
                .map(|(_, s, p)| (*s, p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(q: &IndexedQueue<u32>) -> Vec<(u8, u64, u32)> {
        q.iter().map(|(t, s, p)| (t.0, s, *p)).collect()
    }

    #[test]
    fn push_preserves_global_age_order() {
        let mut q = IndexedQueue::new(2, 8);
        q.push_back(Tid(0), 0, 10);
        q.push_back(Tid(1), 0, 20);
        q.push_back(Tid(0), 1, 11);
        assert_eq!(collect(&q), vec![(0, 0, 10), (1, 0, 20), (0, 1, 11)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.thread_len(Tid(0)), 2);
        q.validate();
    }

    #[test]
    fn squash_tail_removes_only_young_victims() {
        let mut q = IndexedQueue::new(2, 8);
        for s in 0..4 {
            q.push_back(Tid(0), s, s as u32);
            q.push_back(Tid(1), s, 100 + s as u32);
        }
        let removed = q.squash_tail(Tid(0), 2);
        assert_eq!(removed, 2);
        assert_eq!(
            collect(&q),
            vec![
                (0, 0, 0),
                (1, 0, 100),
                (0, 1, 1),
                (1, 1, 101),
                (1, 2, 102),
                (1, 3, 103)
            ]
        );
        q.validate();
    }

    #[test]
    fn remove_thread_spares_others() {
        let mut q = IndexedQueue::new(3, 8);
        for s in 0..3 {
            q.push_back(Tid(0), s, 0);
            q.push_back(Tid(2), s, 2);
        }
        assert_eq!(q.remove_thread(Tid(0)), 3);
        assert_eq!(q.thread_len(Tid(0)), 0);
        assert_eq!(q.thread_len(Tid(2)), 3);
        assert_eq!(q.len(), 3);
        q.validate();
    }

    #[test]
    fn cursor_walk_with_removal_matches_vec_filtering() {
        let mut q = IndexedQueue::new(1, 8);
        for s in 0..6 {
            q.push_back(Tid(0), s, s as u32);
        }
        // Remove even seqs during a walk, as issue does.
        let mut idx = q.first();
        while idx != NIL {
            let next = q.next_of(idx);
            if q.key(idx).1 % 2 == 0 {
                q.remove(idx);
            }
            idx = next;
        }
        assert_eq!(collect(&q), vec![(0, 1, 1), (0, 3, 3), (0, 5, 5)]);
        q.validate();
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut q = IndexedQueue::new(1, 4);
        for s in 0..4 {
            q.push_back(Tid(0), s, 0);
        }
        q.remove_thread(Tid(0));
        for s in 10..14 {
            q.push_back(Tid(0), s, 1);
        }
        assert_eq!(q.len(), 4);
        q.validate();
    }

    #[test]
    fn find_thread_remove_hits_exact_seq_only() {
        let mut q = IndexedQueue::new(2, 8);
        q.push_back(Tid(0), 5, 0);
        q.push_back(Tid(1), 5, 1);
        assert!(!q.find_thread_remove(Tid(0), 4));
        assert!(q.find_thread_remove(Tid(0), 5));
        assert!(!q.find_thread_remove(Tid(0), 5));
        assert_eq!(q.thread_len(Tid(1)), 1, "other thread's seq 5 survives");
        q.validate();
    }

    #[test]
    fn encode_decode_preserves_logical_contents() {
        use smt_isa::codec::{ByteReader, ByteWriter};
        let mut q = IndexedQueue::new(3, 8);
        let script: &[(u8, u64)] = &[(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)];
        for &(t, s) in script {
            q.push_back(Tid(t), s, t as u32 * 10 + s as u32);
        }
        q.squash_tail(Tid(0), 2); // leave some slab holes
        let mut w = ByteWriter::new();
        q.encode_with(&mut w, |w, p| w.u32(*p));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back: IndexedQueue<u32> = IndexedQueue::decode_with(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert_eq!(collect(&back), collect(&q));
        assert_eq!(back.thread_len(Tid(1)), q.thread_len(Tid(1)));
        back.validate();
    }

    #[test]
    fn decode_rejects_corrupt_queue_bytes() {
        use smt_isa::codec::{ByteReader, ByteWriter};
        // tid out of range
        let mut w = ByteWriter::new();
        w.usize(2); // n_threads
        w.usize(1); // len
        w.u8(7); // bad tid
        w.u64(0);
        w.u32(0);
        let bytes = w.into_bytes();
        assert!(
            IndexedQueue::<u32>::decode_with(&mut ByteReader::new(&bytes), |r| r.u32()).is_err()
        );
        // per-thread seq order violated
        let mut w = ByteWriter::new();
        w.usize(1);
        w.usize(2);
        for seq in [5u64, 3u64] {
            w.u8(0);
            w.u64(seq);
            w.u32(0);
        }
        let bytes = w.into_bytes();
        assert!(
            IndexedQueue::<u32>::decode_with(&mut ByteReader::new(&bytes), |r| r.u32()).is_err()
        );
    }

    fn ready(q: &IndexedQueue<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut idx = q.first_ready();
        while idx != NIL {
            out.push(*q.payload(idx));
            idx = q.next_ready(idx);
        }
        out
    }

    #[test]
    fn ready_list_keeps_age_order_and_follows_removal() {
        let mut q = IndexedQueue::new(2, 8);
        // Thread 0 holds seqs 0, 2, 4 and thread 1 seqs 1, 3, 5; the
        // payload is the global age.
        let slots: Vec<u32> = (0..6u64)
            .map(|s| q.push_back(Tid((s % 2) as u8), s, s as u32))
            .collect();
        for i in [4, 1, 5, 0, 1] {
            q.mark_ready(slots[i]); // out of age order, one twice
        }
        assert_eq!(ready(&q), vec![0, 1, 4, 5]);
        assert_eq!(q.ready_len(), 4);
        q.validate();
        q.remove(slots[1]);
        q.squash_tail(Tid(1), 5);
        q.mark_ready(slots[2]);
        assert_eq!(ready(&q), vec![0, 2, 4]);
        q.validate_ready(|p| [0, 2, 4].contains(p));
    }

    #[test]
    fn freed_and_reused_slots_never_join_the_ready_list() {
        let mut q = IndexedQueue::new(1, 4);
        let a = q.push_back(Tid(0), 0, 0);
        let b = q.push_back(Tid(0), 1, 1);
        q.squash_tail(Tid(0), 1);
        // A stale reference to the freed slot neither matches nor readies.
        assert!(!q.entry_matches(b, Tid(0), 1));
        q.mark_ready(b);
        assert_eq!(q.ready_len(), 0);
        // The slab hands the slot to the next entry; the old key still
        // fails to match it.
        let c = q.push_back(Tid(0), 2, 2);
        assert_eq!(c, b, "the slab reuses the freed slot");
        assert!(!q.entry_matches(c, Tid(0), 1));
        assert!(q.entry_matches(c, Tid(0), 2));
        q.mark_ready(a);
        assert_eq!(ready(&q), vec![0]);
        q.validate_ready(|&p| p == 0);
    }

    #[test]
    fn matches_reference_on_a_fixed_script() {
        use super::reference::RetainQueue;
        let mut a = IndexedQueue::new(3, 8);
        let mut b = RetainQueue::new();
        let script: &[(u8, u64)] = &[(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)];
        for &(t, s) in script {
            a.push_back(Tid(t), s, t as u32);
            b.push_back(Tid(t), s, t as u32);
        }
        a.squash_tail(Tid(0), 1);
        b.squash_tail(Tid(0), 1);
        a.remove_thread(Tid(1));
        b.remove_thread(Tid(1));
        a.find_thread_remove(Tid(2), 0);
        b.find_thread_remove(Tid(2), 0);
        let av: Vec<_> = a.iter().map(|(t, s, p)| (t, s, *p)).collect();
        let bv: Vec<_> = b.iter().map(|(t, s, p)| (t, s, *p)).collect();
        assert_eq!(av, bv);
        a.validate();
    }
}
