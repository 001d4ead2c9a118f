//! The machine word of the simulated GPU.
//!
//! All memory in the simulator is word-addressed: a [`Word`] is a 32-bit
//! value, matching the word size that the paper's micro-benchmarks stress
//! (scratchpad locations are "word-sized", Sec. 3.2). Floating point values
//! are stored as IEEE-754 bit patterns and manipulated by the `F*` ALU
//! instructions.

/// A 32-bit machine word. Memory, registers, and immediates all hold words.
pub type Word = u32;

/// Reinterpret a word as an `f32` (bit-level, never lossy).
#[inline]
pub fn to_f32(w: Word) -> f32 {
    f32::from_bits(w)
}

/// Reinterpret an `f32` as a word (bit-level, never lossy).
#[inline]
pub fn from_f32(f: f32) -> Word {
    f.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip() {
        for f in [0.0f32, 1.5, -2.25, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(to_f32(from_f32(f)), f);
        }
    }

    #[test]
    fn f32_nan_bits_preserved() {
        let bits = 0x7fc0_0001u32;
        assert!(to_f32(bits).is_nan());
        assert_eq!(from_f32(to_f32(bits)), bits);
    }
}
