//! In-flight micro-op records.
//!
//! Each hardware context owns a window (`VecDeque<InFlight>`) ordered by
//! per-thread sequence number — the reorder buffer. Sequence numbers are
//! monotone and never reused, so after a squash the window may contain a
//! gap. [`find_seq`] looks an op up with two O(1) probes, relative to the
//! front and to the back of the window, and binary-searches only for an
//! op between two gaps.
//!
//! The [`Stage::Executing`] `done_at` deadlines recorded here are one of
//! the event sources the machine's event-horizon fast-forward
//! (`SmtMachine::stall_horizon`) is computed from: a long-latency op
//! publishes its completion cycle the moment it issues, so the machine
//! knows — without stepping — the first future cycle at which anything
//! can complete (tracked incrementally as the per-thread `min_done_at`
//! lower bound).

use smt_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::MicroOp;

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
