//! Stressing access sequences σ ∈ `(ld|st)+`.
//!
//! Section 3.3 of the paper tunes, per chip, the sequence of load/store
//! instructions that the body of a stressing thread's loop executes. This
//! module provides the sequence type, its paper-style compact notation
//! (`ld3 st ld` denotes three loads, a store, then a load), enumeration of
//! all sequences up to a maximum length (63 sequences for N = 5), and the
//! extended *transition signature* ([`AccessSeq::signature8`]) the
//! simulator's contention model reads.

use std::fmt;
use std::str::FromStr;

/// A single stressing access: a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Acc {
    /// A load (`ld`) from the stressed scratchpad location.
    Ld,
    /// A store (`st`) to the stressed scratchpad location.
    St,
}

impl fmt::Display for Acc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Acc::Ld => write!(f, "ld"),
            Acc::St => write!(f, "st"),
        }
    }
}

/// An access sequence σ: a non-empty run of loads and stores executed on
/// every iteration of a stressing thread's loop.
///
/// # Examples
///
/// ```
/// use wmm_sim::seq::{Acc, AccessSeq};
/// let s: AccessSeq = "ld st2 ld".parse().unwrap();
/// assert_eq!(s.accs(), &[Acc::Ld, Acc::St, Acc::St, Acc::Ld]);
/// assert_eq!(s.to_string(), "ld st2 ld");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessSeq {
    accs: Vec<Acc>,
}

impl AccessSeq {
    /// Create a sequence from raw accesses.
    ///
    /// # Panics
    ///
    /// Panics if `accs` is empty — σ matches `(ld|st)+`.
    pub fn new(accs: Vec<Acc>) -> Self {
        assert!(!accs.is_empty(), "access sequence must be non-empty");
        AccessSeq { accs }
    }

    /// The accesses, in loop-body order.
    pub fn accs(&self) -> &[Acc] {
        &self.accs
    }

    /// Number of accesses in the loop body.
    pub fn len(&self) -> usize {
        self.accs.len()
    }

    /// Always false: sequences are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of loads in the sequence.
    pub fn loads(&self) -> usize {
        self.accs.iter().filter(|a| **a == Acc::Ld).count()
    }

    /// Number of stores in the sequence.
    pub fn stores(&self) -> usize {
        self.accs.iter().filter(|a| **a == Acc::St).count()
    }

    /// Rotate the sequence left by `n` positions.
    ///
    /// The paper observed that rotations of a sequence are *not* equivalent
    /// in practice (Sec. 3.3), which the simulator reproduces via the
    /// loop-boundary gap in its transition tracker.
    pub fn rotated(&self, n: usize) -> AccessSeq {
        let len = self.accs.len();
        let mut accs = Vec::with_capacity(len);
        for i in 0..len {
            accs.push(self.accs[(i + n) % len]);
        }
        AccessSeq { accs }
    }

    /// True if `other` is a rotation of `self`.
    pub fn is_rotation_of(&self, other: &AccessSeq) -> bool {
        self.len() == other.len() && (0..self.len()).any(|n| &self.rotated(n) == other)
    }

    /// Enumerate every sequence matching `(ld|st)+` with length ≤ `max_len`.
    ///
    /// For `max_len = 5` this yields the paper's 2^(N+1) − 2 = 62 … — more
    /// precisely 2 + 4 + 8 + 16 + 32 = 62 sequences of length 1–5 plus the
    /// empty-excluded root; the paper counts 63 by the formula 2^(N+1) − 1
    /// including a length-0 placeholder it never runs. We enumerate exactly
    /// the non-empty sequences.
    pub fn enumerate(max_len: usize) -> Vec<AccessSeq> {
        let mut out = Vec::new();
        for len in 1..=max_len {
            for bits in 0..(1u32 << len) {
                let accs = (0..len)
                    .map(|i| if bits >> i & 1 == 1 { Acc::St } else { Acc::Ld })
                    .collect();
                out.push(AccessSeq { accs });
            }
        }
        out
    }

    /// The *transition signature* of the loop body: counts of adjacent
    /// (from, to) access pairs **within one iteration** (the wrap-around
    /// pair is separated by loop-control instructions and is tracked
    /// separately by the memory system's gap heuristic).
    ///
    /// Index order: `[ld→ld, ld→st, st→ld, st→st]`.
    pub fn transition_counts(&self) -> [f64; 4] {
        let mut t = [0.0f64; 4];
        for w in self.accs.windows(2) {
            t[transition_index(w[0], w[1])] += 1.0;
        }
        t
    }

    /// The *extended* signature: intra-iteration transitions plus the
    /// loop-boundary features `[first=ld, first=st, last=ld, last=st]`.
    /// The boundary features are what distinguish rotations (and
    /// coincidentally transition-equivalent sequences such as `ld st2 ld`
    /// vs `st2 ld st`): the loop-control gap makes the first and last
    /// accesses of the body observable to the memory system.
    pub fn signature8(&self) -> [f64; 8] {
        let t = self.transition_counts();
        let mut v = [0.0f64; 8];
        v[..4].copy_from_slice(&t);
        let first = self.accs[0];
        let last = self.accs[self.accs.len() - 1];
        v[4 + usize::from(first == Acc::St)] = 1.0;
        v[6 + usize::from(last == Acc::St)] = 1.0;
        normalize8(v)
    }
}

/// Normalise an 8-vector to unit L2 length (zero vector maps to itself).
pub fn normalize8(v: [f64; 8]) -> [f64; 8] {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm == 0.0 {
        return v;
    }
    let mut out = v;
    for x in &mut out {
        *x /= norm;
    }
    out
}

/// Cosine similarity between two 8-vectors (0 if either is zero).
pub fn cosine8(a: [f64; 8], b: [f64; 8]) -> f64 {
    let na = normalize8(a);
    let nb = normalize8(b);
    na.iter().zip(nb.iter()).map(|(x, y)| x * y).sum()
}

/// Map an adjacent access pair to its index in a transition vector.
#[inline]
pub fn transition_index(from: Acc, to: Acc) -> usize {
    match (from, to) {
        (Acc::Ld, Acc::Ld) => 0,
        (Acc::Ld, Acc::St) => 1,
        (Acc::St, Acc::Ld) => 2,
        (Acc::St, Acc::St) => 3,
    }
}

impl fmt::Display for AccessSeq {
    /// Paper notation: runs are compressed, `ld^x` printed as `ldx`.
    /// `[Ld, St, St, Ld]` displays as `ld st2 ld`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut i = 0;
        while i < self.accs.len() {
            let a = self.accs[i];
            let mut run = 1;
            while i + run < self.accs.len() && self.accs[i + run] == a {
                run += 1;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if run == 1 {
                write!(f, "{a}")?;
            } else {
                write!(f, "{a}{run}")?;
            }
            i += run;
        }
        Ok(())
    }
}

/// Error produced when parsing an access sequence from paper notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSeqError {
    token: String,
}

impl fmt::Display for ParseSeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid access sequence token `{}`", self.token)
    }
}

impl std::error::Error for ParseSeqError {}

impl FromStr for AccessSeq {
    type Err = ParseSeqError;

    /// Parse paper notation, e.g. `"ld3 st ld"` or `"st2 ld2"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut accs = Vec::new();
        for tok in s.split_whitespace() {
            let (kind, count) = if let Some(rest) = tok.strip_prefix("ld") {
                (Acc::Ld, rest)
            } else if let Some(rest) = tok.strip_prefix("st") {
                (Acc::St, rest)
            } else {
                return Err(ParseSeqError {
                    token: tok.to_string(),
                });
            };
            let n: usize = if count.is_empty() {
                1
            } else {
                count.parse().map_err(|_| ParseSeqError {
                    token: tok.to_string(),
                })?
            };
            if n == 0 {
                return Err(ParseSeqError {
                    token: tok.to_string(),
                });
            }
            accs.extend(std::iter::repeat_n(kind, n));
        }
        if accs.is_empty() {
            return Err(ParseSeqError {
                token: s.to_string(),
            });
        }
        Ok(AccessSeq { accs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_compresses_runs() {
        let s = AccessSeq::new(vec![Acc::Ld, Acc::Ld, Acc::Ld, Acc::St, Acc::Ld]);
        assert_eq!(s.to_string(), "ld3 st ld");
        let s = AccessSeq::new(vec![Acc::St, Acc::St, Acc::Ld, Acc::Ld]);
        assert_eq!(s.to_string(), "st2 ld2");
    }

    #[test]
    fn parse_round_trip() {
        for text in ["ld", "st", "ld st2 ld", "ld4 st", "st2 ld3", "ld st"] {
            let s: AccessSeq = text.parse().unwrap();
            assert_eq!(s.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("xy".parse::<AccessSeq>().is_err());
        assert!("".parse::<AccessSeq>().is_err());
        assert!("ld0".parse::<AccessSeq>().is_err());
        assert!("ldx".parse::<AccessSeq>().is_err());
    }

    #[test]
    fn enumerate_counts_match_paper() {
        // N = 5 gives 62 non-empty sequences (paper quotes 2^{N+1}-1 = 63,
        // counting the empty word, which cannot be run).
        assert_eq!(AccessSeq::enumerate(5).len(), 62);
        assert_eq!(AccessSeq::enumerate(1).len(), 2);
    }

    #[test]
    fn enumerate_is_unique() {
        let seqs = AccessSeq::enumerate(5);
        let mut set: Vec<_> = seqs.iter().map(|s| s.accs().to_vec()).collect();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), seqs.len());
    }

    #[test]
    fn rotation_detection() {
        let a: AccessSeq = "ld st2 ld".parse().unwrap();
        let b: AccessSeq = "st2 ld2".parse().unwrap();
        assert!(a.is_rotation_of(&b), "paper notes these are rotations");
        let c: AccessSeq = "ld2 st2".parse().unwrap();
        assert!(a.is_rotation_of(&c));
        let d: AccessSeq = "ld st ld st".parse().unwrap();
        assert!(!a.is_rotation_of(&d));
    }

    #[test]
    fn signature8_distinguishes_transition_twins() {
        // `ld st2 ld` and `st2 ld st` share a transition multiset but
        // differ in boundary features.
        let a: AccessSeq = "ld st2 ld".parse().unwrap();
        let b: AccessSeq = "st2 ld st".parse().unwrap();
        assert_eq!(a.transition_counts(), b.transition_counts());
        assert_ne!(a.signature8(), b.signature8());
        let c = cosine8(a.signature8(), b.signature8());
        assert!(c < 0.7, "cos = {c}");
    }

    #[test]
    fn signature8_self_cosine_is_one() {
        for s in AccessSeq::enumerate(4) {
            let sig = s.signature8();
            assert!((cosine8(sig, sig) - 1.0).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn signature_distinguishes_rotations() {
        // `ld4 st` and `ld3 st ld` are rotations but have distinct
        // intra-iteration transition counts (the wrap transition is
        // excluded).
        let a: AccessSeq = "ld4 st".parse().unwrap();
        let b: AccessSeq = "ld3 st ld".parse().unwrap();
        assert!(a.is_rotation_of(&b));
        assert_ne!(a.transition_counts(), b.transition_counts());
        assert_ne!(a.signature8(), b.signature8());
    }

    #[test]
    fn loads_and_stores_counted() {
        let s: AccessSeq = "ld3 st ld".parse().unwrap();
        assert_eq!(s.loads(), 4);
        assert_eq!(s.stores(), 1);
    }
}
