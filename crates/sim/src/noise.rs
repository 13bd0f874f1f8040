//! The simulator's noise stream: a counter-based SplitMix64 generator.
//!
//! Every probed cache line used to pay for a ChaCha-based `StdRng`
//! draws even when the replacement policy was plain LRU. The hot path now
//! draws from this stream instead: SplitMix64 is a handful of integer
//! operations per value, and — crucially — it is *counter-based*: the `i`-th
//! value of a stream is a pure function of `(seed, i)` (see [`nth`]), so the
//! sequence a simulation consumes depends only on how many draws happened
//! before, never on host threading or wall-clock. That is what makes results
//! bit-identical for every `TP_THREADS` value: each [`crate::Machine`] owns
//! one stream seeded from the experiment seed, and the sequence of draws is
//! fixed by the sequence of simulated events.
//!
//! Policies that need no randomness (strict LRU, invalid-way fills) consume
//! nothing from the stream.

/// The SplitMix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalising mixer of SplitMix64 (Stafford variant 13).
#[inline]
#[must_use]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th value (0-based) of the stream seeded with `seed` — the
/// closed form of [`NoiseRng::next_u64`]. Exists so tests (and any future
/// parallel consumer) can compute stream values out of order and prove the
/// stream is position-determined.
#[inline]
#[must_use]
pub fn nth(seed: u64, i: u64) -> u64 {
    mix(seed.wrapping_add(GOLDEN.wrapping_mul(i.wrapping_add(1))))
}

/// A deterministic, seedable, counter-based noise stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseRng {
    state: u64,
}

impl NoiseRng {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        NoiseRng { state: seed }
    }

    /// The next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// The next value as a byte (top bits — best-mixed).
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A value uniform in `[0, n)`. The tiny modulo bias (`n` is at most a
    /// few hundred everywhere in the simulator) is far below the modelled
    /// jitter amplitudes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_closed_form() {
        let mut r = NoiseRng::seeded(0xDEAD_BEEF);
        for i in 0..100 {
            assert_eq!(r.next_u64(), nth(0xDEAD_BEEF, i));
        }
    }

    #[test]
    fn seeds_give_distinct_streams() {
        let mut a = NoiseRng::seeded(1);
        let mut b = NoiseRng::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = NoiseRng::seeded(7);
        let mut seen = [false; 6];
        for _ in 0..256 {
            let v = r.below(6);
            assert!(v < 6);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn bytes_are_not_degenerate() {
        let mut r = NoiseRng::seeded(3);
        let mut counts = [0usize; 2];
        for _ in 0..1024 {
            counts[(r.next_u8() & 1) as usize] += 1;
        }
        assert!(counts[0] > 300 && counts[1] > 300, "{counts:?}");
    }
}
