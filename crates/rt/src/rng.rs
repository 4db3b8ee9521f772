//! Seedable, splittable pseudo-random generation.
//!
//! [`StdRng`] is xoshiro256++ seeded through SplitMix64 — the standard
//! construction for filling all 256 bits of state from a 64-bit seed.
//! The generator is deterministic in the seed and carries an explicit
//! *stream* notion ([`StdRng::stream`]): stream `s` of seed `k` is a
//! statistically independent sequence, so each rank (or each particle
//! batch) can draw from its own stream and the result is bit-identical
//! no matter how many worker threads execute the ranks.
//!
//! The [`Rng`] and [`SeedableRng`] traits mirror the method names of the
//! `rand` crate (`gen`, `gen_range`, `gen_bool`, `shuffle`,
//! `seed_from_u64`) so call sites only change their `use` lines.

/// Golden-ratio increment used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advance `state` and return its next output.
/// Seeds [`StdRng`], and expands `auto@N` chaos specs in `hacc-fault`
/// (same seed, same values, on every platform).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Stream `stream` of seed `seed`: an independent generator for the
    /// same logical seed. Stream 0 equals `seed_from_u64(seed)`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        // Distinct streams perturb the SplitMix64 starting point by a
        // multiple of a second odd constant, so no two streams walk the
        // same seeding sequence.
        let mut st = seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BC03);
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        // xoshiro must not start at the all-zero state.
        let s = if s == [0; 4] { [GOLDEN, 1, 2, 3] } else { s };
        Self { s }
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let out = s0
            .wrapping_add(s3)
            .rotate_left(23)
            .wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        out
    }
}

/// Seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Deterministic construction from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        Self::stream(seed, 0)
    }
}

/// Uniform generation, mirroring the `rand::Rng` surface the workspace
/// uses.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random value of a primitive type (`rand`'s `Standard`
    /// distribution: floats in `[0, 1)`, integers over their full range).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform draw from a half-open range.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types drawable uniformly without extra parameters.
pub trait Standard {
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Standard for f32 {
    #[inline]
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn from_rng<R: Rng>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a uniform value can be drawn from.
///
/// Implemented once, blanket-style, over [`UniformSample`] element types
/// — a single impl per range shape is what lets type inference unify
/// `gen_range(0.0..1.0)` with the surrounding float arithmetic exactly
/// the way `rand` does.
pub trait SampleRange<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

/// Element types uniform draws are defined for.
pub trait UniformSample: Sized {
    /// Uniform in `[lo, hi)`.
    fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform in `[lo, hi]`.
    fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: UniformSample> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: UniformSample + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Unbiased integer draw from `[0, bound)` via Lemire's method with
/// rejection.
#[inline]
fn bounded_u64<R: Rng>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let wide = (rng.next_u64() as u128) * (bound as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformSample for $t {
            #[inline]
            fn sample_half_open<R: Rng>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                // A zero span only occurs for the full 64-bit domain,
                // where every draw is in range.
                let off = if span == 0 {
                    rng.next_u64()
                } else {
                    bounded_u64(rng, span)
                };
                ((lo as $u).wrapping_add(off as $u)) as $t
            }

            #[inline]
            fn sample_inclusive<R: Rng>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                let off = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    bounded_u64(rng, span + 1)
                };
                ((lo as $u).wrapping_add(off as $u)) as $t
            }
        }
    )*};
}
uniform_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            #[inline]
            fn sample_half_open<R: Rng>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "empty range");
                assert!(lo.is_finite() && hi.is_finite(), "non-finite bound");
                loop {
                    let u = rng.next_f64() as $t;
                    let v = lo + u * (hi - lo);
                    // Rounding can land exactly on the open bound when
                    // the span is huge; redraw (vanishingly rare).
                    if v < hi {
                        return v.max(lo);
                    }
                }
            }

            #[inline]
            fn sample_inclusive<R: Rng>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "empty range");
                let u = rng.next_f64() as $t;
                (lo + u * (hi - lo)).clamp(lo, hi)
            }
        }
    )*};
}
uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn independent_streams_do_not_overlap_in_1e6_draws() {
        // One million draws from streams 0 and 1 of the same seed share
        // no value at all (a collision of two independent 64-bit
        // sequences of this length has probability ~5e-8; the test is
        // deterministic for the fixed seed).
        let n = 1_000_000;
        let mut s0 = StdRng::stream(7, 0);
        let mut s1 = StdRng::stream(7, 1);
        let seen: HashSet<u64> = (0..n).map(|_| s0.next_u64()).collect();
        assert_eq!(seen.len(), n, "stream 0 repeated a value");
        let hits = (0..n).filter(|_| seen.contains(&s1.next_u64())).count();
        assert_eq!(hits, 0, "streams 0 and 1 overlap");
    }

    #[test]
    fn stream_zero_is_seed_from_u64() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::stream(99, 0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..100_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.001 && hi > 0.999, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..100_000 {
            let v = r.gen_range(-3.0..7.5);
            assert!((-3.0..7.5).contains(&v));
            let i = r.gen_range(0..17);
            assert!((0..17).contains(&i));
            let u = r.gen_range(5u64..6);
            assert_eq!(u, 5);
        }
    }

    #[test]
    fn gen_range_full_u64_domain() {
        let mut r = StdRng::seed_from_u64(5);
        let mut any_high = false;
        for _ in 0..1000 {
            let v = r.gen_range(0u64..u64::MAX);
            any_high |= v > u64::MAX / 2;
        }
        assert!(any_high, "upper half of the domain never drawn");
    }

    #[test]
    fn min_positive_range_stays_positive() {
        // The Box–Muller call site draws from MIN_POSITIVE..1.0 and
        // takes a log: zero must be impossible.
        let mut r = StdRng::seed_from_u64(6);
        for _ in 0..100_000 {
            let v = r.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn integer_draw_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(8);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = n as f64 / 10.0;
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "bucket {i}: {c}"
            );
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = StdRng::seed_from_u64(9);
        let n = 100_000;
        let heads = (0..n).filter(|_| r.gen_bool(0.25)).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(10);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "identity shuffle");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn rng_usable_through_mut_reference() {
        fn draw<R: Rng>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut r = StdRng::seed_from_u64(11);
        let v = draw(&mut &mut r);
        assert!((0.0..1.0).contains(&v));
    }
}
