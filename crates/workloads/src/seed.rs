//! Deterministic seed derivation.
//!
//! Every random decision in the workspace flows from an explicit root seed
//! through [`SplitMix64`], so any (experiment, mix, thread, purpose) tuple
//! maps to a reproducible sub-seed. SplitMix64 is the standard seeding PRNG
//! (Steele et al., "Fast Splittable Pseudorandom Number Generators"); it is
//! tiny, passes BigCrush, and — unlike reusing the simulation RNG — keeps
//! seed derivation independent of how many values a stream has consumed.

/// SplitMix64 generator. Also usable directly as a cheap standalone PRNG for
/// static derivations (e.g. branch-site personalities).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a root seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        self.next_u53() as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The 53-bit draw `m` behind [`next_f64`](Self::next_f64), which
    /// returns `m·2⁻⁵³`: compare it against a [`unit_bound`].
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform value in `0..bound` (bound > 0), via Lemire reduction.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// The raw generator state, for external checkpointing.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild a generator from a previously captured [`state`](Self::state).
    #[inline]
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Derive an independent sub-seed for a labelled purpose. The label is
    /// hashed in so `derive(a)` and `derive(b)` never collide for `a != b`.
    #[inline]
    pub fn derive(root: u64, label: u64) -> u64 {
        let mut s = SplitMix64::new(root ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        s.next_u64()
    }
}

/// The exact integer form of a uniform-draw comparison. The generators
/// draw `u = m·2⁻⁵³` for a 53-bit `m` ([`SplitMix64::next_f64`], and
/// `Rng::gen::<f64>` of the vendored `rand`), and `u < p` holds exactly when
/// `m < unit_bound(p)`. The bound is ⌈p·2⁵³⌉, which is exact because scaling
/// by 2⁵³ is: 0 for `p ≤ 0` or NaN (no draw passes), saturated for `p`
/// far above 1 (every draw does).
pub const fn unit_bound(p: f64) -> u64 {
    let x = p * (1u64 << 53) as f64;
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= 18_446_744_073_709_551_616.0 {
        u64::MAX
    } else {
        // `x as u64` truncates: below 2⁵³ it is ⌊x⌋, above it `x` is
        // already an integer.
        let t = x as u64;
        if (t as f64) < x {
            t + 1
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut s = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = s.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut s = SplitMix64::new(9);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| s.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut s = SplitMix64::new(11);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(s.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn derive_labels_are_independent() {
        assert_ne!(SplitMix64::derive(5, 0), SplitMix64::derive(5, 1));
        assert_ne!(SplitMix64::derive(5, 0), SplitMix64::derive(6, 0));
        assert_eq!(SplitMix64::derive(5, 3), SplitMix64::derive(5, 3));
    }
}
