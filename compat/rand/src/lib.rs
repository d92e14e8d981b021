//! Offline stand-in for `rand`.
//!
//! The build environment has no crates.io access, so this vendored crate
//! supplies exactly the surface the workspace uses: `rngs::SmallRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::gen::<T>()` for `f64`, `u64`,
//! `u32`, `bool` and `usize`.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64 — the same
//! algorithm real `rand 0.8` uses for `SmallRng` on 64-bit targets — so
//! statistical quality matches; the exact value sequence is an
//! implementation detail here just as it is upstream ("SmallRng is not a
//! portable generator").

/// A seedable random number generator.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed (expanded via SplitMix64, as upstream).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from the uniform "standard" distribution. Generic
/// over the generator, so sampling inlines into the caller.
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the 53 high bits (upstream's convention).
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// The user-facing generator trait.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Sample a uniformly distributed value.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna) — small, fast, passes BigCrush.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 state expansion, as rand_core does.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl SmallRng {
        /// The raw xoshiro256++ state, for external checkpointing.
        #[inline]
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a previously captured [`state`](Self::state).
        #[inline]
        pub fn from_state(s: [u64; 4]) -> Self {
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = SmallRng::seed_from_u64(9);
        let heads = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }

    #[test]
    fn clone_forks_identically() {
        let mut a = SmallRng::seed_from_u64(1);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
