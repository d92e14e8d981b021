//! Multi-core SMT: N [`SmtMachine`] cores sharing one L2.
//!
//! Each core keeps its private L1s, branch predictor, queues and
//! contexts; the L2 is lifted out of the per-core [`Hierarchy`](crate::cache::Hierarchy) into a
//! single shared array. Sharing is implemented by *rotation*: every
//! simulated cycle the shared L2 is swapped into core 0's hierarchy,
//! core 0 steps one cycle, the L2 is swapped back out, then core 1, and
//! so on in ascending core id. That fixed order **is** the arbitration
//! policy — inter-core contention (conflict evictions, shared-capacity
//! pressure) is deterministic because core *i* always observes the L2
//! exactly after cores `0..i` have accessed it this cycle and cores
//! `i+1..N` have not.
//!
//! The rotation has a load-bearing corollary: a 1-core machine steps its
//! core against precisely the L2 state a standalone [`SmtMachine`] would
//! hold, every cycle, so `MultiCoreMachine::single(m)` simulates
//! **bit-identically** to `m`. `tests/golden_multicore.rs` pins this
//! N=1 equivalence against every committed golden fixture.
//!
//! Thread→core placement lives here too: global thread ids map to
//! `(core, context-slot)` pairs, re-decided at quantum boundaries by an
//! allocation policy (the `adts-core` crate). A migration is a
//! checkpointed architectural transfer — [`SmtMachine::migrate_out`] /
//! [`SmtMachine::migrate_in`] — whose cold-frontend penalty is paid as a
//! per-thread fetch hold attributed to the `migration` CPI-stack
//! category.

use crate::cache::Cache;
use crate::chooser::FetchChooser;
use crate::config::{CacheGeometry, MAX_LATENCY};
use crate::counters::{CounterSnapshot, ThreadCounters};
use crate::machine::{MigratedThread, SmtMachine};
use smt_isa::codec::{fnv1a_64, ByteReader, ByteWriter, CodecError};
use smt_isa::Tid;

/// N SMT cores around one shared, arbitration-ordered L2 (module docs).
#[derive(Clone, Debug)]
pub struct MultiCoreMachine {
    cores: Vec<SmtMachine>,
    /// The shared L2, held here between steps and rotated through each
    /// core's hierarchy inside [`step`](Self::step). The `mem.l2` left
    /// behind in each core meanwhile is a detached stand-in that holds
    /// only the geometry and encodes as a fresh cache.
    shared_l2: Cache,
    /// Global thread id → (core, context slot).
    placement: Vec<(usize, usize)>,
    /// Per global thread: completed cross-core migrations.
    migrations: Vec<u64>,
    /// Cold-frontend fetch hold charged on every migrate-in, in cycles
    /// (at most [`MAX_LATENCY`], like every other latency).
    migration_penalty: u64,
}

impl MultiCoreMachine {
    /// Assemble a machine from per-core [`SmtMachine`]s and an initial
    /// placement (`placement[g] = (core, slot)` for global thread `g`).
    /// The shared L2 is seeded from core 0's hierarchy (the other cores'
    /// L2 contents are discarded, and a snapshot encodes every core's L2
    /// as fresh — build them fresh); context slots left unoccupied by
    /// `placement` are parked (fetch-disabled).
    ///
    /// # Panics
    /// Panics on an empty core list, a placement entry out of range, a
    /// doubly-assigned slot, cores with differing L2 geometry, or a
    /// migration penalty above [`MAX_LATENCY`].
    pub fn from_cores(
        mut cores: Vec<SmtMachine>,
        placement: Vec<(usize, usize)>,
        migration_penalty: u64,
    ) -> Self {
        assert!(
            !cores.is_empty(),
            "MultiCoreMachine needs at least one core"
        );
        let geom = cores[0].config().l2;
        let occupied = check_topology(&cores, geom, &placement, migration_penalty)
            .unwrap_or_else(|e| panic!("{e}"));
        for (c, core) in cores.iter_mut().enumerate() {
            for (s, &occ) in occupied[c].iter().enumerate() {
                if !occ {
                    core.park_thread(Tid(s as u8));
                }
            }
            // Stamp each core with its position in the L2 arbitration
            // rotation — pure trace context for CacheMiss events.
            core.set_l2_rot(c as u8);
        }
        let shared_l2 = std::mem::replace(&mut cores[0].mem.l2, Cache::detached(geom));
        for core in &mut cores[1..] {
            core.mem.l2 = Cache::detached(geom);
        }
        let migrations = vec![0; placement.len()];
        MultiCoreMachine {
            cores,
            shared_l2,
            placement,
            migrations,
            migration_penalty,
        }
    }

    /// Wrap one existing (possibly warmed or trace-backed) core as a
    /// 1-core machine with the identity placement. The wrapped machine
    /// simulates bit-identically to the original (module docs).
    pub fn single(core: SmtMachine) -> Self {
        let placement = (0..core.n_threads()).map(|s| (0, s)).collect();
        MultiCoreMachine::from_cores(vec![core], placement, 0)
    }

    // ------------------------------------------------------------------
    // stepping
    // ------------------------------------------------------------------

    /// Advance every core one cycle, in ascending core id, rotating the
    /// shared L2 through each core's hierarchy (module docs). One
    /// chooser per core.
    pub fn step<C: FetchChooser>(&mut self, choosers: &mut [C]) {
        assert_eq!(choosers.len(), self.cores.len(), "one chooser per core");
        for (i, core) in self.cores.iter_mut().enumerate() {
            std::mem::swap(&mut self.shared_l2, &mut core.mem.l2);
            core.step(&mut choosers[i]);
            std::mem::swap(&mut self.shared_l2, &mut core.mem.l2);
        }
    }

    /// Run `cycles` cycles, one [`step`](Self::step) each. The run counts
    /// its calling thread in the step budget
    /// ([`crate::batch::set_step_budget`]); its cores generate their µops
    /// inline.
    pub fn run<C: FetchChooser>(&mut self, cycles: u64, choosers: &mut [C]) {
        assert_eq!(choosers.len(), self.cores.len(), "one chooser per core");
        let _slots = crate::batch::RunSlots::take(false);
        for _ in 0..cycles {
            self.step(choosers);
        }
    }

    // ------------------------------------------------------------------
    // placement and migration
    // ------------------------------------------------------------------

    /// Re-place every global thread per `new_cores` (`new_cores[g]` =
    /// destination core of thread `g`), migrating movers. Movers are
    /// extracted in ascending global id, then re-inserted in ascending
    /// global id into the lowest free slot of their destination core —
    /// fully deterministic. Each migrate-in pays
    /// [`migration_penalty`](Self::migration_penalty) cycles of fetch
    /// hold. Returns the number of threads moved.
    ///
    /// # Panics
    /// Panics if `new_cores` has the wrong length, names a core out of
    /// range, or overfills a core's context slots.
    pub fn apply_placement(&mut self, new_cores: &[usize]) -> usize {
        assert_eq!(
            new_cores.len(),
            self.placement.len(),
            "one destination core per global thread"
        );
        let mut occupied: Vec<Vec<bool>> = self
            .cores
            .iter()
            .map(|c| vec![false; c.n_threads()])
            .collect();
        for &(c, s) in &self.placement {
            occupied[c][s] = true;
        }
        let mut in_transit: Vec<(usize, MigratedThread)> = Vec::new();
        for (g, &dst) in new_cores.iter().enumerate() {
            assert!(
                dst < self.cores.len(),
                "destination core {dst} out of range"
            );
            let (c, s) = self.placement[g];
            if c == dst {
                continue;
            }
            in_transit.push((g, self.cores[c].migrate_out(Tid(s as u8))));
            occupied[c][s] = false;
        }
        let moved = in_transit.len();
        for (g, thread) in in_transit {
            let dst = new_cores[g];
            let slot = occupied[dst]
                .iter()
                .position(|&o| !o)
                .unwrap_or_else(|| panic!("core {dst} has no free context slot"));
            occupied[dst][slot] = true;
            self.cores[dst].migrate_in(Tid(slot as u8), thread, self.migration_penalty);
            self.placement[g] = (dst, slot);
            self.migrations[g] += 1;
        }
        moved
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of global threads.
    pub fn n_threads(&self) -> usize {
        self.placement.len()
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &SmtMachine {
        &self.cores[i]
    }

    /// Core `i`, mutable (quantum-boundary use: policy notes, fetch
    /// toggles — not for stepping, which must go through
    /// [`step`](Self::step) so the shared L2 stays coherent).
    pub fn core_mut(&mut self, i: usize) -> &mut SmtMachine {
        &mut self.cores[i]
    }

    /// Current cycle (all cores advance in lockstep; core 0 is
    /// authoritative).
    pub fn cycle(&self) -> u64 {
        self.cores[0].cycle()
    }

    /// Global thread id → (core, slot).
    pub fn placement(&self) -> &[(usize, usize)] {
        &self.placement
    }

    /// Per-global-thread completed migration counts.
    pub fn migrations(&self) -> &[u64] {
        &self.migrations
    }

    /// Cold-frontend fetch hold per migrate-in, in cycles.
    pub fn migration_penalty(&self) -> u64 {
        self.migration_penalty
    }

    /// The shared L2 (read-only; stepping owns mutation).
    pub fn shared_l2(&self) -> &Cache {
        &self.shared_l2
    }

    /// Counters of global thread `g`.
    pub fn thread_counters(&self, g: usize) -> &ThreadCounters {
        let (c, s) = self.placement[g];
        self.cores[c].counters(Tid(s as u8))
    }

    /// Full counter snapshot in **global thread order** (stable across
    /// migrations). For a 1-core identity placement this equals the
    /// wrapped core's own snapshot.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            cycle: self.cycle(),
            threads: (0..self.placement.len())
                .map(|g| self.thread_counters(g).clone())
                .collect(),
        }
    }

    /// Always 0: every cycle is stepped. Kept only because the benchmark
    /// harness still reads it; the next change to the benchmark removes it.
    pub fn skipped_cycles(&self) -> u64 {
        0
    }

    /// Total committed micro-ops over all global threads.
    pub fn total_committed(&self) -> u64 {
        (0..self.placement.len())
            .map(|g| self.thread_counters(g).committed)
            .sum()
    }

    /// Enable slot-loss attribution on every core.
    pub fn enable_attr(&mut self) {
        for core in &mut self.cores {
            core.enable_attr();
        }
    }

    /// Disable attribution on every core, returning each core's
    /// accumulated stacks in core order (`None` for cores that were not
    /// attributing).
    pub fn disable_attr(&mut self) -> Vec<Option<crate::obs::SlotAttribution>> {
        self.cores.iter_mut().map(|c| c.disable_attr()).collect()
    }

    /// Enable pipeline event tracing on every core, each with its own
    /// ring of `cap` events. Events carry the emitting core's
    /// arbitration-rotation position (`rot`), so per-core buffers merge
    /// losslessly into one multi-core timeline.
    pub fn enable_trace(&mut self, cap: usize) {
        for core in &mut self.cores {
            core.enable_trace(cap);
        }
    }

    /// Disable tracing on every core, returning each core's buffer in
    /// core order (`None` for cores that were not tracing).
    pub fn disable_trace(&mut self) -> Vec<Option<crate::trace::TraceBuffer>> {
        self.cores.iter_mut().map(|c| c.disable_trace()).collect()
    }

    /// Shared-L2 contention counters: cumulative (accesses, misses) of
    /// the one L2 every core arbitrates for.
    pub fn shared_l2_stats(&self) -> (u64, u64) {
        (self.shared_l2.accesses, self.shared_l2.misses)
    }

    /// The one definition of a consistent multi-core machine: the
    /// topology [`Self::from_cores`] panics on, then every core's
    /// [`SmtMachine::validate`]. `Err` names the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let l2 = self.shared_l2.geometry();
        check_topology(&self.cores, l2, &self.placement, self.migration_penalty)?;
        for (i, core) in self.cores.iter().enumerate() {
            core.validate().map_err(|e| format!("core {i}: {e}"))?;
        }
        Ok(())
    }

    /// Panic with [`Self::validate`]'s first violation (test support).
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

/// The topology every multi-core machine keeps: a migration penalty of
/// at most [`MAX_LATENCY`], every core's config and hierarchy on `l2`,
/// the shared L2's geometry (each core's completion wheel, sized from its
/// own hierarchy, must cover the shared L2's latency), and each placement
/// entry naming a distinct slot of a core. Returns each core's slot
/// occupancy; `Err` names the first violation.
fn check_topology(
    cores: &[SmtMachine],
    l2: CacheGeometry,
    placement: &[(usize, usize)],
    penalty: u64,
) -> Result<Vec<Vec<bool>>, String> {
    if penalty > MAX_LATENCY {
        return Err(format!(
            "migration penalty {penalty} exceeds the {MAX_LATENCY}-cycle maximum"
        ));
    }
    if let Some(c) = cores
        .iter()
        .position(|c| c.config().l2 != l2 || c.mem.l2.geometry() != l2)
    {
        return Err(format!(
            "core {c}'s L2 geometry disagrees with the shared L2"
        ));
    }
    let mut occupied: Vec<Vec<bool>> = cores.iter().map(|c| vec![false; c.n_threads()]).collect();
    for &(c, s) in placement {
        match occupied.get_mut(c).and_then(|slots| slots.get_mut(s)) {
            None => {
                return Err(format!(
                    "placement names core {c} slot {s}, past the machine"
                ))
            }
            Some(true) => return Err(format!("slot ({c},{s}) doubly assigned")),
            Some(free) => *free = true,
        }
    }
    Ok(occupied)
}

impl crate::batch::LockstepMachine for MultiCoreMachine {}

// ---------------------------------------------------------------------------
// checkpoint container
// ---------------------------------------------------------------------------

const MC_MAGIC: [u8; 8] = *b"SMTMCKP\0";

/// Multi-core container format version.
///
/// v1: initial layout — topology section (placement, migration state,
/// shared L2), opaque allocator-state section, one section per core.
pub const MC_FORMAT_VERSION: u32 = 1;

/// A captured multi-core machine state plus an opaque allocator-state
/// blob, with a self-describing checksummed byte container:
///
/// ```text
/// magic     [u8; 8]  = b"SMTMCKP\0"
/// version   u32      = MC_FORMAT_VERSION
/// n_cores   u32
/// topology  section    placement / migrations / penalty / shared L2
/// alloc     section    opaque allocator state (may be empty)
/// core 0    section    SmtMachine payload (machine.rs encode_into)
/// ...
/// core N-1  section
/// ```
///
/// Every section is `len u64 | payload | fnv1a-64(payload) u64`, so
/// corruption is localized: a flipped byte in core *k* fails core *k*'s
/// checksum without touching the others. Decoding never panics — every
/// malformed input maps to a typed [`CodecError`]
/// (`crates/sim/tests/multicore_negative.rs`).
#[derive(Clone, Debug)]
pub struct MultiCoreSnapshot {
    state: MultiCoreMachine,
    alloc_state: Vec<u8>,
}

fn write_section(w: &mut ByteWriter, payload: &[u8]) {
    w.u64(payload.len() as u64);
    w.raw(payload);
    w.u64(fnv1a_64(payload));
}

fn read_section<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], CodecError> {
    let len = r.u64()? as usize;
    let payload = r.take(len)?;
    let sum = fnv1a_64(payload);
    let stored = r.u64()?;
    if stored != sum {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload)
}

impl MultiCoreSnapshot {
    /// Capture `machine` (with instrumentation stripped, like the
    /// single-core [`crate::snapshot::MachineSnapshot`]) together with an
    /// allocator-state blob. The blob is opaque to this crate — the
    /// allocation layer above owns its encoding.
    pub fn capture(machine: &MultiCoreMachine, alloc_state: Vec<u8>) -> Self {
        let mut state = machine.clone();
        for core in &mut state.cores {
            core.disable_trace();
            core.disable_attr();
        }
        MultiCoreSnapshot { state, alloc_state }
    }

    /// A machine that simulates bit-identically to the captured one.
    pub fn restore(&self) -> MultiCoreMachine {
        self.state.clone()
    }

    /// The captured allocator-state blob.
    pub fn alloc_state(&self) -> &[u8] {
        &self.alloc_state
    }

    /// Serialize to the checksummed container (type docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let m = &self.state;
        let mut topo = ByteWriter::with_capacity(64);
        topo.usize(m.placement.len());
        for &(c, s) in &m.placement {
            topo.u32(c as u32);
            topo.u32(s as u32);
        }
        topo.u64(m.migration_penalty);
        for &n in &m.migrations {
            topo.u64(n);
        }
        m.shared_l2.encode_into(&mut topo);
        let topo = topo.into_bytes();

        let cores: Vec<Vec<u8>> = m
            .cores
            .iter()
            .map(|core| {
                let mut cw = ByteWriter::with_capacity(4096);
                core.encode_into(&mut cw);
                cw.into_bytes()
            })
            .collect();

        let mut w = ByteWriter::with_capacity(
            topo.len() + cores.iter().map(|c| c.len() + 16).sum::<usize>() + 64,
        );
        w.raw(&MC_MAGIC);
        w.u32(MC_FORMAT_VERSION);
        w.u32(m.cores.len() as u32);
        write_section(&mut w, &topo);
        write_section(&mut w, &self.alloc_state);
        for core in &cores {
            write_section(&mut w, core);
        }
        w.into_bytes()
    }

    /// Parse and validate a container. Any malformed input — bad magic,
    /// unknown version, truncation at any point, a failed section
    /// checksum, or a topology inconsistent with the decoded cores —
    /// yields a typed [`CodecError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(MC_MAGIC.len())? != MC_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != MC_FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: MC_FORMAT_VERSION,
            });
        }
        let n_cores = r.u32()? as usize;
        if n_cores == 0 {
            return Err(CodecError::Invalid("zero cores in container".into()));
        }

        let topo = read_section(&mut r)?;
        let alloc_state = read_section(&mut r)?.to_vec();
        // Capacity clamped to the bytes actually present: a corrupted
        // count must fail the framing checks, not abort the allocator.
        let mut cores = Vec::with_capacity(n_cores.min(r.remaining()));
        for _ in 0..n_cores {
            let payload = read_section(&mut r)?;
            let mut cr = ByteReader::new(payload);
            let core = SmtMachine::decode_from(&mut cr)?;
            cr.finish()?;
            cores.push(core);
        }
        r.finish()?;

        let mut tr = ByteReader::new(topo);
        let n_threads = tr.usize()?;
        if n_threads == 0 {
            return Err(CodecError::Invalid("zero threads in topology".into()));
        }
        let mut placement = Vec::with_capacity(n_threads.min(tr.remaining()));
        for _ in 0..n_threads {
            placement.push((tr.u32()? as usize, tr.u32()? as usize));
        }
        let migration_penalty = tr.u64()?;
        let mut migrations = Vec::with_capacity(n_threads.min(tr.remaining()));
        for _ in 0..n_threads {
            migrations.push(tr.u64()?);
        }
        let shared_l2 = Cache::decode_from(&mut tr)?;
        tr.finish()?;

        // Each core passed its own `validate` in its decode.
        check_topology(&cores, shared_l2.geometry(), &placement, migration_penalty)
            .map_err(CodecError::Invalid)?;
        for (c, core) in cores.iter_mut().enumerate() {
            core.set_l2_rot(c as u8);
            core.mem.l2 = Cache::detached(shared_l2.geometry());
        }

        Ok(MultiCoreSnapshot {
            state: MultiCoreMachine {
                cores,
                shared_l2,
                placement,
                migrations,
                migration_penalty,
            },
            alloc_state,
        })
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

    fn core(first_thread: usize, n: usize) -> SmtMachine {
        let streams = (first_thread..first_thread + n)
            .map(|g| {
                UopStream::new(
                    Arc::new(AppProfile::builder("t").build()),
                    40 + g as u64,
                    smt_workloads::thread_addr_base(g),
                )
            })
            .collect();
        SmtMachine::new(SimConfig::with_threads(n), streams)
    }

    fn encoded(cache: &Cache) -> Vec<u8> {
        let mut w = ByteWriter::new();
        cache.encode_into(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cores_hold_no_l2_lines_and_encode_a_fresh_one() {
        let placement = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut m = MultiCoreMachine::from_cores(vec![core(0, 2), core(2, 2)], placement, 64);
        m.run(3_000, &mut [RoundRobin, RoundRobin]);
        assert!(m.shared_l2().misses > 0, "the shared L2 was never used");
        let geom = m.shared_l2().geometry();
        let bytes = MultiCoreSnapshot::capture(&m, vec![7]).to_bytes();
        let back = MultiCoreSnapshot::from_bytes(&bytes).expect("its own bytes");
        assert_eq!(back.to_bytes(), bytes, "the round trip moved bytes");
        let fresh = encoded(&Cache::new(geom));
        for (what, mc) in [("built", &m), ("decoded", &back.restore())] {
            for (i, core) in mc.cores.iter().enumerate() {
                assert!(core.mem.l2.is_detached(), "{what} core {i} holds lines");
                assert_eq!(encoded(&core.mem.l2), fresh, "{what} core {i}");
            }
        }
        // Cores that each kept a fresh full-size L2 encode the same bytes.
        let mut full = m.clone();
        for core in &mut full.cores {
            core.mem.l2 = Cache::new(geom);
        }
        assert_eq!(MultiCoreSnapshot::capture(&full, vec![7]).to_bytes(), bytes);
    }
}
