//! Set-associative caches and the two-level hierarchy.
//!
//! The model is a *latency* model, not a data model: an access looks up (and
//! on miss, allocates) tags, and returns the total latency the requesting
//! micro-op experiences, plus which levels missed. There are no MSHRs —
//! outstanding misses are unbounded — matching the level of detail in the
//! SimpleScalar family the paper's SimpleSMT derives from.
//!
//! All threads share every level: the only thing separating them is their
//! distinct address bases, so capacity and conflict interference between
//! threads is real, which is what the MISSCOUNT-family fetch policies react
//! to.
//!
//! An access resolves its *entire* latency at lookup time: the miss cost
//! is returned as a deadline the issuing op carries to the machine's
//! completion wheel, not modelled as future cache traffic, so the
//! hierarchy changes only when an op accesses it.

use crate::config::CacheGeometry;
use smt_isa::codec::{self, ByteReader, ByteWriter, Codec, CodecError};

/// One set-associative, LRU, write-allocate cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    sets: usize,
    line_shift: u32,
    /// `(tag, stamp)` of each way, at `lines[set * ways + way]`, so a
    /// probe reads one line of its set: the tag (`u64::MAX` = invalid)
    /// and its last-use stamp (a monotone counter, not cycles).
    lines: Vec<(u64, u64)>,
    tick: u64,
    /// Statistics.
    pub accesses: u64,
    pub misses: u64,
}

impl Cache {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        Cache {
            geom,
            sets,
            line_shift: geom.line_bytes.trailing_zeros(),
            lines: vec![(u64::MAX, 0); sets * geom.ways],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// A cache of `geom` that holds no lines: the stand-in a multi-core
    /// core keeps for the shared L2 between rotations. It must not be
    /// accessed, and it encodes as the fresh [`Cache::new`] image it
    /// stands for.
    pub(crate) fn detached(geom: CacheGeometry) -> Self {
        Cache {
            geom,
            sets: geom.sets(),
            line_shift: geom.line_bytes.trailing_zeros(),
            lines: Vec::new(),
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Whether this is a [`Cache::detached`] stand-in (a real cache
    /// always has at least one line).
    pub(crate) fn is_detached(&self) -> bool {
        self.lines.is_empty()
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Probe without modifying state (except statistics are *not* counted).
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.geom.ways;
        self.lines[base..base + self.geom.ways]
            .iter()
            .any(|&(t, _)| t == tag)
    }

    /// Access `addr`: returns `true` on hit. On miss the line is allocated,
    /// evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.accesses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.geom.ways;
        let ways = &mut self.lines[base..base + self.geom.ways];
        if let Some(line) = ways.iter_mut().find(|(t, _)| *t == tag) {
            line.1 = self.tick;
            return true;
        }
        self.misses += 1;
        // Evict LRU (or an invalid way): the first way of least key.
        let lru = ways
            .iter_mut()
            .min_by_key(|(t, stamp)| if *t == u64::MAX { 0 } else { *stamp })
            .expect("ways > 0");
        *lru = (tag, self.tick);
        false
    }

    /// Miss ratio so far (0 if never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Serialize the full cache state (tags, LRU stamps, statistics) for
    /// checkpointing: every tag, then every stamp, each as a
    /// length-prefixed `u64` list. Exact: a decoded cache hits, misses and
    /// evicts identically to the original.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        if self.is_detached() {
            return Cache::new(self.geom).encode_into(w);
        }
        codec::encode_json(w, &self.geom);
        w.usize(self.lines.len());
        for &(tag, _) in &self.lines {
            w.u64(tag);
        }
        w.usize(self.lines.len());
        for &(_, stamp) in &self.lines {
            w.u64(stamp);
        }
        w.u64(self.tick);
        w.u64(self.accesses);
        w.u64(self.misses);
    }

    /// Rebuild from [`Self::encode_into`] bytes.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        let geom: CacheGeometry = codec::decode_json(r)?;
        let sets = geom.sets();
        let tags: Vec<u64> = Vec::decode(r)?;
        let stamps: Vec<u64> = Vec::decode(r)?;
        if tags.len() != sets * geom.ways || stamps.len() != tags.len() {
            return Err(CodecError::Invalid(
                "cache array sizes disagree with geometry".into(),
            ));
        }
        Ok(Cache {
            geom,
            sets,
            line_shift: geom.line_bytes.trailing_zeros(),
            lines: tags.into_iter().zip(stamps).collect(),
            tick: r.u64()?,
            accesses: r.u64()?,
            misses: r.u64()?,
        })
    }
}

/// Outcome of a hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Total latency seen by the requester.
    pub latency: u64,
    pub l1_miss: bool,
    pub l2_miss: bool,
}

/// The shared L1I / L1D / unified-L2 hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
    mem_latency: u64,
    /// Tagged next-line prefetch into L2 on a data L1 miss (the simple
    /// sequential prefetcher of the paper's era). Off by default to match
    /// the SimpleScalar-family baseline; an ablation turns it on.
    next_line_prefetch: bool,
    /// Prefetches issued (L2 fills triggered speculatively).
    pub prefetches: u64,
}

impl Hierarchy {
    pub fn new(
        l1i: CacheGeometry,
        l1d: CacheGeometry,
        l2: CacheGeometry,
        mem_latency: u64,
    ) -> Self {
        Hierarchy {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            mem_latency,
            next_line_prefetch: false,
            prefetches: 0,
        }
    }

    /// Enable/disable next-line prefetching into L2.
    pub fn set_next_line_prefetch(&mut self, on: bool) {
        self.next_line_prefetch = on;
    }

    /// Latency of the slowest data access: an L1D and L2 miss to memory.
    pub(crate) fn max_data_latency(&self) -> u64 {
        self.l1d
            .geom
            .hit_latency
            .saturating_add(self.l2.geom.hit_latency)
            .saturating_add(self.mem_latency)
    }

    fn through_l2(l2: &mut Cache, addr: u64, mem_latency: u64) -> (u64, bool) {
        if l2.access(addr) {
            (l2.geom.hit_latency, false)
        } else {
            (l2.geom.hit_latency + mem_latency, true)
        }
    }

    /// Instruction fetch of the line containing `addr`.
    pub fn fetch(&mut self, addr: u64) -> MemAccessResult {
        if self.l1i.access(addr) {
            MemAccessResult {
                latency: self.l1i.geom.hit_latency,
                l1_miss: false,
                l2_miss: false,
            }
        } else {
            let (below, l2_miss) = Self::through_l2(&mut self.l2, addr, self.mem_latency);
            MemAccessResult {
                latency: self.l1i.geom.hit_latency + below,
                l1_miss: true,
                l2_miss,
            }
        }
    }

    /// Serialize the whole hierarchy for checkpointing.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        self.l1i.encode_into(w);
        self.l1d.encode_into(w);
        self.l2.encode_into(w);
        w.u64(self.mem_latency);
        w.bool(self.next_line_prefetch);
        w.u64(self.prefetches);
    }

    /// Rebuild from [`Self::encode_into`] bytes.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(Hierarchy {
            l1i: Cache::decode_from(r)?,
            l1d: Cache::decode_from(r)?,
            l2: Cache::decode_from(r)?,
            mem_latency: r.u64()?,
            next_line_prefetch: r.bool()?,
            prefetches: r.u64()?,
        })
    }

    /// Data access (load or store; write-allocate makes them symmetric).
    pub fn data(&mut self, addr: u64) -> MemAccessResult {
        if self.l1d.access(addr) {
            MemAccessResult {
                latency: self.l1d.geom.hit_latency,
                l1_miss: false,
                l2_miss: false,
            }
        } else {
            let (below, l2_miss) = Self::through_l2(&mut self.l2, addr, self.mem_latency);
            if self.next_line_prefetch {
                // Pull the next line into L2 off the critical path: the
                // requester does not wait, but the line is resident for the
                // streaming access that typically follows.
                let next = addr + self.l2.geom.line_bytes as u64;
                if !self.l2.contains(next) {
                    let _ = self.l2.access(next);
                    self.prefetches += 1;
                }
            }
            MemAccessResult {
                latency: self.l1d.geom.hit_latency + below,
                l1_miss: true,
                l2_miss,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheGeometry {
        // 4 sets x 2 ways x 64B = 512B
        CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(small());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // same line
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(small());
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b (LRU)
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(small());
        for set in 0..4u64 {
            c.access(set * 64);
        }
        for set in 0..4u64 {
            assert!(c.contains(set * 64), "set {set} evicted unexpectedly");
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(small());
        // 16 lines round-robin into a 8-line cache with LRU: every access
        // misses once warm.
        for round in 0..4 {
            for i in 0..16u64 {
                let hit = c.access(i * 64);
                if round > 0 {
                    assert!(!hit, "LRU should thrash on cyclic overflow");
                }
            }
        }
    }

    #[test]
    fn hierarchy_latencies_compose() {
        let l2g = CacheGeometry {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        let mut h = Hierarchy::new(small(), small(), l2g, 80);
        let miss = h.data(0x5000);
        assert_eq!(
            miss,
            MemAccessResult {
                latency: 1 + 10 + 80,
                l1_miss: true,
                l2_miss: true
            }
        );
        let hit = h.data(0x5000);
        assert_eq!(
            hit,
            MemAccessResult {
                latency: 1,
                l1_miss: false,
                l2_miss: false
            }
        );
    }

    #[test]
    fn l1_miss_l2_hit_after_eviction() {
        let l2g = CacheGeometry {
            size_bytes: 65536,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        let mut h = Hierarchy::new(small(), small(), l2g, 80);
        h.data(0x0000);
        // Evict 0x0000 from tiny L1D by filling its set.
        h.data(0x0100);
        h.data(0x0200);
        let r = h.data(0x0000);
        assert!(r.l1_miss);
        assert!(!r.l2_miss, "L2 retains the line");
        assert_eq!(r.latency, 11);
    }

    #[test]
    fn icache_and_dcache_are_separate() {
        let l2g = CacheGeometry {
            size_bytes: 65536,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        let mut h = Hierarchy::new(small(), small(), l2g, 80);
        h.fetch(0x9000);
        let d = h.data(0x9000);
        assert!(d.l1_miss, "L1D must not hit on a line only the L1I holds");
        assert!(!d.l2_miss, "but unified L2 holds it");
    }

    #[test]
    fn next_line_prefetch_preloads_l2() {
        let small = CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        };
        let l2g = CacheGeometry {
            size_bytes: 65536,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        let mut h = Hierarchy::new(small, small, l2g, 80);
        h.set_next_line_prefetch(true);
        let miss = h.data(0x4000);
        assert!(miss.l2_miss);
        assert_eq!(h.prefetches, 1);
        // Thrash the line out of tiny L1D so the next access goes to L2.
        h.data(0x4100);
        h.data(0x4200);
        let next = h.data(0x4040); // the prefetched line
        assert!(
            next.l1_miss && !next.l2_miss,
            "prefetched line must be an L2 hit"
        );
    }

    #[test]
    fn prefetch_off_by_default() {
        let small = CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        };
        let l2g = CacheGeometry {
            size_bytes: 65536,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        let mut h = Hierarchy::new(small, small, l2g, 80);
        h.data(0x4000);
        assert_eq!(h.prefetches, 0);
    }

    #[test]
    fn miss_ratio_sane() {
        let mut c = Cache::new(small());
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
