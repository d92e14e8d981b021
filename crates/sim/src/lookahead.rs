//! Correct-path µop generation on a helper thread.
//!
//! A thread's correct-path ops depend on its stream alone, never on the
//! machine, so a run that can borrow a thread from the step budget
//! ([`crate::batch`]) generates them there, ahead of fetch, and hands
//! them over through one small buffer per context:
//!
//! * Each context's lane holds a clone of its stream, the *lead*, and
//!   one ready batch of ops generated from it. The helper refills a lane
//!   as soon as fetch takes its ready batch. Fetch peeks and pops ops
//!   from the batch it took, and swaps in the ready one, under one lock,
//!   when that runs out. If none is ready (at the start of a run, or
//!   when the helper falls behind), fetch generates the batch from the
//!   lead itself.
//! * The helper owns the machine's streams for the run, the *trails*.
//!   Fetch publishes how many ops it has consumed at each swap and at
//!   the end; the helper advances each trail to that count and hands the
//!   trails back, so each stream ends exactly where inline generation
//!   would have left it.
//!
//! Wrong-path ops stay inline: they depend on the mispredicted target.
//! Nothing of this outlives the run, and the machine's bytes never see
//! it. Inline generation is the reference, and serves
//! [`SmtMachine::step`](crate::SmtMachine::step), instrumented and
//! profiled runs, runs shorter than [`MIN_RUN`] and runs that find no
//! free slot.

use smt_isa::MicroOp;
use smt_workloads::UopStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Shortest run that borrows a generation helper. Starting the helper
/// and waiting for it at the end cost a few tens of µs, which a
/// one-thread machine (~150 ns a cycle, ~0.4 correct-path ops a cycle)
/// wins back only over several thousand cycles.
pub const MIN_RUN: u64 = 4096;

/// Ops in one batch. Small, because a run's end waits for the helper to
/// replay each context's part-consumed batch onto its trail.
const DEPTH: usize = 64;

/// Where fetch takes a context's correct-path ops from.
pub(crate) trait CorrectPath {
    /// Program counter of context `ti`'s next op.
    fn pc(&mut self, ti: usize, stream: &UopStream) -> u64;
    /// Consume context `ti`'s next op.
    fn next(&mut self, ti: usize, stream: &mut UopStream) -> MicroOp;
}

/// Generate from the machine's own stream, on the stepping thread.
pub(crate) struct Inline;

impl CorrectPath for Inline {
    #[inline(always)]
    fn pc(&mut self, _: usize, stream: &UopStream) -> u64 {
        stream.current_pc()
    }

    #[inline(always)]
    fn next(&mut self, _: usize, stream: &mut UopStream) -> MicroOp {
        stream.next_uop()
    }
}

/// A lane's state under its lock.
struct Slot {
    /// The lead; out while a thread generates from it.
    lead: Option<UopStream>,
    /// The next batch, oldest op first; empty once fetch has taken it.
    ready: Vec<MicroOp>,
}

/// One context's hand-over point.
struct Lane {
    slot: Mutex<Slot>,
    /// Ops fetch has consumed, as a stream count.
    consumed: AtomicU64,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect("a lookahead lane is poisoned")
    }

    /// If the ready batch is gone and no thread holds the lead, generate
    /// the next batch from the lead into `batch`, outside the lock. With
    /// `publish`, it becomes the ready batch (and `batch` gets the empty
    /// one) as the lead goes back. Returns whether it generated.
    fn generate(&self, batch: &mut Vec<MicroOp>, publish: bool) -> bool {
        let mut lead = {
            let mut slot = self.lock();
            if !slot.ready.is_empty() {
                return false;
            }
            let Some(lead) = slot.lead.take() else {
                return false;
            };
            lead
        };
        batch.clear();
        batch.extend((0..DEPTH).map(|_| lead.next_uop()));
        let mut slot = self.lock();
        slot.lead = Some(lead);
        if publish {
            std::mem::swap(&mut slot.ready, batch);
        }
        true
    }
}

/// What fetch and the helper share.
struct Shared {
    lanes: Vec<Lane>,
    /// The trails, locked by the helper for the whole run.
    trails: Mutex<Vec<UopStream>>,
    /// Set when the run is over, after the final `consumed` counts.
    stop: AtomicBool,
    /// Set when the helper has returned, or unwound.
    gone: AtomicBool,
}

/// Sets a flag on drop: the helper's `gone` and the run's `stop`, so
/// that neither side waits for a thread that has stopped or panicked.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The batch fetch is consuming from one lane.
struct Batch {
    ops: Vec<MicroOp>,
    /// Index of the next op in `ops`.
    next: usize,
    /// Stream count at `ops[0]`.
    start: u64,
}

/// Fetch's side of the lanes.
pub(crate) struct Feed<'a> {
    shared: &'a Shared,
    batches: Vec<Batch>,
}

impl Feed<'_> {
    /// Context `ti`'s next op, taking a new batch if the current one is
    /// used up.
    #[inline]
    fn peek(&mut self, ti: usize) -> &MicroOp {
        let b = &self.batches[ti];
        if b.next == b.ops.len() {
            self.take(ti);
        }
        let b = &self.batches[ti];
        &b.ops[b.next]
    }

    /// Swap in lane `ti`'s ready batch, or generate one here if the
    /// helper has not, and publish the count consumed before it.
    #[cold]
    fn take(&mut self, ti: usize) {
        let lane = &self.shared.lanes[ti];
        let b = &mut self.batches[ti];
        b.start += b.ops.len() as u64;
        b.next = 0;
        loop {
            {
                let mut slot = lane.lock();
                if !slot.ready.is_empty() {
                    b.ops.clear();
                    std::mem::swap(&mut b.ops, &mut slot.ready);
                    break;
                }
            }
            if lane.generate(&mut b.ops, false) {
                break;
            }
            assert!(
                !self.shared.gone.load(Ordering::Acquire),
                "the µop lookahead helper stopped"
            );
            std::thread::yield_now();
        }
        lane.consumed.store(b.start, Ordering::Relaxed);
    }

    /// Publish every context's final count.
    fn finish(&self) {
        for (lane, b) in self.shared.lanes.iter().zip(&self.batches) {
            lane.consumed
                .store(b.start + b.next as u64, Ordering::Relaxed);
        }
    }
}

impl CorrectPath for Feed<'_> {
    #[inline(always)]
    fn pc(&mut self, ti: usize, _: &UopStream) -> u64 {
        self.peek(ti).pc
    }

    #[inline(always)]
    fn next(&mut self, ti: usize, _: &mut UopStream) -> MicroOp {
        let op = *self.peek(ti);
        self.batches[ti].next += 1;
        op
    }
}

/// The helper: refill every lane whose ready batch fetch took, and
/// advance the trails to what fetch consumed until the run is over.
fn help(shared: &Shared) {
    let _gone = SetOnDrop(&shared.gone);
    let mut trails = shared.trails.lock().expect("the trails are poisoned");
    let mut spare = Vec::with_capacity(DEPTH);
    loop {
        // The final counts are stored before `stop`.
        let stop = shared.stop.load(Ordering::Acquire);
        let mut idle = true;
        for (lane, trail) in shared.lanes.iter().zip(trails.iter_mut()) {
            if !shared.stop.load(Ordering::Relaxed) && lane.generate(&mut spare, true) {
                idle = false;
            }
            let consumed = lane.consumed.load(Ordering::Relaxed);
            while trail.generated() < consumed {
                trail.next_uop();
                idle = false;
            }
        }
        if stop {
            return;
        }
        if idle {
            std::thread::yield_now();
        }
    }
}

/// Run `body` with fetch fed by a helper thread that generates from
/// clones of `streams`, and return the streams advanced to what `body`
/// consumed. A panic in `body` stops the helper and propagates, as does
/// one in the helper.
pub(crate) fn with_helper(
    streams: Vec<UopStream>,
    body: impl FnOnce(&mut Feed<'_>),
) -> Vec<UopStream> {
    let lanes = streams
        .iter()
        .map(|s| Lane {
            slot: Mutex::new(Slot {
                lead: Some(s.clone()),
                ready: Vec::new(),
            }),
            consumed: AtomicU64::new(s.generated()),
        })
        .collect();
    let batches = streams
        .iter()
        .map(|s| Batch {
            ops: Vec::new(),
            next: 0,
            start: s.generated(),
        })
        .collect();
    let shared = Shared {
        lanes,
        trails: Mutex::new(streams),
        stop: AtomicBool::new(false),
        gone: AtomicBool::new(false),
    };
    let mut feed = Feed {
        shared: &shared,
        batches,
    };
    std::thread::scope(|s| {
        let helper = s.spawn(|| help(&shared));
        {
            let _stop = SetOnDrop(&shared.stop);
            body(&mut feed);
            feed.finish();
        }
        // Wait for the helper's function, not for its thread to exit:
        // joining would also wait out the OS's teardown of the thread.
        while !helper.is_finished() {
            std::thread::yield_now();
        }
        match shared.trails.lock() {
            Ok(mut trails) => std::mem::take(&mut *trails),
            Err(_) => match helper.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => unreachable!("the trails are poisoned only by a panic"),
            },
        }
    })
}
