//! Machine configuration.
//!
//! Defaults mirror the resource set of Tullsen et al., *Exploiting Choice*
//! (ISCA'96) — the configuration the paper says SimpleSMT was matched
//! against "for verification purposes" — adapted to this simulator's
//! structure (separate int/fp instruction queues, per-thread reorder
//! windows, a two-level cache hierarchy).

use serde::{Deserialize, Serialize};

/// Longest latency, in cycles, any one operation may take: a unit, a
/// syscall, or a load that misses to memory. Each hardware context's
/// completion wheel has a bucket per cycle of its machine's longest
/// latency, so this caps the wheel at 2^17 buckets.
pub const MAX_LATENCY: u64 = 1 << 16;

/// Full static configuration of the simulated machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of active hardware contexts (1..=8).
    pub threads: usize,

    // --- widths ---
    /// Maximum instructions fetched per cycle (shared across threads).
    pub fetch_width: usize,
    /// Maximum threads fetched from per cycle (the "2" of ICOUNT2.8).
    pub max_fetch_threads: usize,
    /// Rename/dispatch width per cycle (shared).
    pub dispatch_width: usize,
    /// Issue width per cycle (shared, across both queues).
    pub issue_width: usize,
    /// Commit width per cycle (shared).
    pub commit_width: usize,

    // --- windows and queues ---
    /// Per-thread in-flight window (reorder buffer) capacity.
    pub rob_per_thread: usize,
    /// Per-thread front-end (fetch buffer + decode/rename pipe) capacity.
    pub fetch_buffer_per_thread: usize,
    /// Shared integer instruction queue capacity.
    pub int_iq_size: usize,
    /// Shared floating-point instruction queue capacity.
    pub fp_iq_size: usize,
    /// Shared load/store queue capacity.
    pub lsq_size: usize,
    /// Renaming registers beyond the architectural set, integer class.
    pub extra_phys_int: usize,
    /// Renaming registers beyond the architectural set, fp class.
    pub extra_phys_fp: usize,

    // --- functional units ---
    /// Integer ALUs (execute IntAlu/IntMul/IntDiv/Branch/Syscall).
    pub int_alus: usize,
    /// Load/store ports (also bounded by `int_alus` in spirit; modeled
    /// as an independent port count like \[20\]'s "4 of 6 units can ld/st").
    pub ldst_ports: usize,
    /// Floating-point units.
    pub fp_units: usize,

    // --- latencies (cycles) ---
    pub lat_int_mul: u64,
    pub lat_int_div: u64,
    pub lat_fp_alu: u64,
    pub lat_fp_mul: u64,
    pub lat_fp_div: u64,
    /// Cycles between fetch and dispatch eligibility (decode+rename depth).
    /// Together with resolve time this sets the mispredict penalty; SMT
    /// pipelines are deeper than single-threaded ones (§5 of the paper).
    pub front_end_latency: u64,
    /// Full-pipeline-drain system call service time.
    pub syscall_latency: u64,

    // --- caches ---
    pub l1i: CacheGeometry,
    pub l1d: CacheGeometry,
    pub l2: CacheGeometry,
    /// Main-memory access latency (added on L2 miss).
    pub mem_latency: u64,
    /// Tagged next-line prefetch into L2 on data misses (off in the
    /// baseline configuration; ablation A6 turns it on).
    pub next_line_prefetch: bool,

    // --- branch prediction ---
    /// log2 of gshare pattern-history-table entries.
    pub gshare_bits: u32,
    /// Global-history length in bits.
    pub history_bits: u32,
    /// Branch target buffer entries (direct-mapped).
    pub btb_entries: usize,
    /// Per-thread return-address-stack depth.
    pub ras_depth: usize,

    // --- counter dynamics ---
    /// Period (cycles) at which the decaying "recent" counters are halved.
    pub decay_period: u64,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheGeometry {
    pub size_bytes: usize,
    pub line_bytes: usize,
    pub ways: usize,
    /// Hit latency contribution of this level.
    pub hit_latency: u64,
}

impl CacheGeometry {
    /// Number of sets; panics if the geometry is inconsistent.
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways),
            "size not divisible"
        );
        let sets = self.size_bytes / (self.line_bytes * self.ways);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: 8,
            fetch_width: 8,
            max_fetch_threads: 2,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_per_thread: 128,
            fetch_buffer_per_thread: 32,
            int_iq_size: 64,
            fp_iq_size: 64,
            lsq_size: 128,
            extra_phys_int: 256,
            extra_phys_fp: 256,
            int_alus: 6,
            ldst_ports: 4,
            fp_units: 3,
            lat_int_mul: 3,
            lat_int_div: 20,
            lat_fp_alu: 2,
            lat_fp_mul: 4,
            lat_fp_div: 24,
            front_end_latency: 4,
            syscall_latency: 200,
            l1i: CacheGeometry {
                size_bytes: 32 << 10,
                line_bytes: 64,
                ways: 4,
                hit_latency: 1,
            },
            l1d: CacheGeometry {
                size_bytes: 32 << 10,
                line_bytes: 64,
                ways: 4,
                hit_latency: 1,
            },
            l2: CacheGeometry {
                size_bytes: 512 << 10,
                line_bytes: 64,
                ways: 8,
                hit_latency: 10,
            },
            mem_latency: 80,
            next_line_prefetch: false,
            gshare_bits: 13,
            history_bits: 12,
            btb_entries: 1024,
            ras_depth: 16,
            decay_period: 1024,
        }
    }
}

impl SimConfig {
    /// Default machine with `n` contexts.
    pub fn with_threads(n: usize) -> Self {
        let mut c = SimConfig::default();
        assert!((1..=smt_isa::MAX_HW_CONTEXTS).contains(&n));
        c.threads = n;
        c.max_fetch_threads = c.max_fetch_threads.min(n);
        c
    }

    /// Validate cross-field constraints; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 || self.threads > smt_isa::MAX_HW_CONTEXTS {
            return Err(format!("threads = {} out of range", self.threads));
        }
        if self.max_fetch_threads == 0 || self.max_fetch_threads > self.threads {
            return Err("max_fetch_threads out of range".into());
        }
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("zero width".into());
        }
        if self.rob_per_thread < self.fetch_buffer_per_thread {
            return Err("rob smaller than fetch buffer".into());
        }
        if self.rob_per_thread > crate::inflight::WHEEL_MAX_SLOTS {
            return Err(format!(
                "rob_per_thread above {}",
                crate::inflight::WHEEL_MAX_SLOTS
            ));
        }
        let load_miss = self
            .l1d
            .hit_latency
            .saturating_add(self.l2.hit_latency)
            .saturating_add(self.mem_latency)
            .saturating_add(1);
        for (name, lat) in [
            ("lat_int_mul", self.lat_int_mul),
            ("lat_int_div", self.lat_int_div),
            ("lat_fp_alu", self.lat_fp_alu),
            ("lat_fp_mul", self.lat_fp_mul),
            ("lat_fp_div", self.lat_fp_div),
            ("syscall_latency", self.syscall_latency),
            ("a load missing to memory", load_miss),
        ] {
            if lat > MAX_LATENCY {
                return Err(format!("{name} takes {lat} cycles, over {MAX_LATENCY}"));
            }
        }
        for (name, g) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            if !g.line_bytes.is_power_of_two()
                || !g.size_bytes.is_multiple_of(g.line_bytes * g.ways)
                || !(g.size_bytes / (g.line_bytes * g.ways)).is_power_of_two()
            {
                return Err(format!("{name} geometry inconsistent"));
            }
        }
        if self.gshare_bits == 0 || self.gshare_bits > 24 {
            return Err("gshare_bits out of range".into());
        }
        if !self.btb_entries.is_power_of_two() {
            return Err("btb_entries must be a power of two".into());
        }
        if self.decay_period == 0 || !self.decay_period.is_power_of_two() {
            return Err("decay_period must be a power of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn default_resembles_exploiting_choice_resources() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.max_fetch_threads, 2); // ICOUNT2.8
                                            // Queues doubled relative to [20] (our front end is simpler, so
                                            // the queues carry more of the window); FU mix identical.
        assert_eq!(c.int_iq_size, 64);
        assert_eq!(c.fp_iq_size, 64);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.fp_units, 3);
    }

    #[test]
    fn sets_computation() {
        let g = CacheGeometry {
            size_bytes: 32 << 10,
            line_bytes: 64,
            ways: 4,
            hit_latency: 1,
        };
        assert_eq!(g.sets(), 128);
    }

    #[test]
    fn bad_threads_rejected() {
        let c = SimConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            threads: 9,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn latencies_past_the_completion_wheel_rejected() {
        let c = SimConfig {
            syscall_latency: MAX_LATENCY,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let c = SimConfig {
            syscall_latency: MAX_LATENCY + 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            mem_latency: MAX_LATENCY,
            ..Default::default()
        };
        assert!(
            c.validate().is_err(),
            "the load's L1D and L2 lookups add up"
        );
        let c = SimConfig {
            rob_per_thread: 1 << 16,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_btb_rejected() {
        let c = SimConfig {
            btb_entries: 1000,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_threads_sets_count() {
        assert_eq!(SimConfig::with_threads(4).threads, 4);
    }

    #[test]
    #[should_panic]
    fn with_threads_zero_panics() {
        let _ = SimConfig::with_threads(0);
    }
}
