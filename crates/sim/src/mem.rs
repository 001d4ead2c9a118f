//! Global memory and the channel-contention model.
//!
//! Global memory is a flat array of words. Every word belongs to a *line*
//! (a critical-patch-sized region, Sec. 3.2) and every line maps to a
//! *memory channel* (`line % channels`). The simulator tracks, per
//! channel, decaying read/write pressure and the recent pattern of
//! back-to-back same-thread accesses (the *transition profile*). From
//! these it computes the contention factor χ ∈ [0, 1] that amplifies a
//! chip's reorder probabilities — the mechanism by which stressing a
//! scratchpad region provokes weak behaviours in application locations
//! that share its channel, while leaving the application's possible
//! behaviours unchanged when idle.
//!
//! Beside the channels, one decayed all-channel `global_pressure` feeds
//! the GTX 980's LB broadband quirk ([`Chip::lb_broadband`]), and nothing
//! else reads it. So [`MemSystem::note_access`] keeps it only on chips
//! that have the quirk; on every other chip it stays 0 and an issue costs
//! no decay (`exp`) for it. Skipping it changes no result, because
//! [`MemSystem::chi`] reads it only under the quirk; a `MemSystem` is
//! meant to serve one chip, as it does for a run.

use crate::chip::{Chip, ReorderKind};
use crate::seq::normalize8;
use crate::word::Word;

/// Maximum channels any chip profile may declare.
pub const MAX_CHANNELS: usize = 16;

/// Decaying per-channel contention state.
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    /// Read pressure (decayed count of recent loads).
    r: f64,
    /// Write pressure (decayed count of recent stores).
    w: f64,
    /// Transition profile: decayed counts of back-to-back same-thread
    /// accesses, indexed `[ld→ld, ld→st, st→ld, st→st]`.
    tr: [f64; 4],
    /// Loop-boundary profile: decayed counts of first/last accesses of a
    /// loop body, indexed `[first=ld, first=st, last=ld, last=st]`.
    fl: [f64; 4],
    /// Turn of the last update (for lazy exponential decay).
    last_turn: u64,
}

impl Channel {
    #[inline]
    fn decay_to(&mut self, turn: u64, tau: f64) {
        if turn > self.last_turn {
            let f = (-((turn - self.last_turn) as f64) / tau).exp();
            self.r *= f;
            self.w *= f;
            for t in &mut self.tr {
                *t *= f;
            }
            for t in &mut self.fl {
                *t *= f;
            }
            self.last_turn = turn;
        }
    }
}

/// The global memory image plus per-channel contention trackers.
#[derive(Debug, Clone)]
pub struct MemSystem {
    mem: Vec<Word>,
    channels: [Channel; MAX_CHANNELS],
    /// Decayed global (all-channel) pressure, for the LB broadband quirk;
    /// kept only on chips that have it.
    global_pressure: f64,
    global_last_turn: u64,
}

/// An out-of-bounds global access, reported as a run fault (the paper
/// itself found out-of-bounds queue accesses in two case studies this
/// way, Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobError {
    /// The offending word address.
    pub addr: u32,
    /// The size of the memory space.
    pub len: u32,
}

impl std::fmt::Display for OobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-bounds global access at word {} (memory has {} words)",
            self.addr, self.len
        )
    }
}

impl std::error::Error for OobError {}

impl MemSystem {
    /// Create a zeroed memory of `words` words.
    pub fn new(words: u32) -> Self {
        MemSystem {
            mem: vec![0; words as usize],
            channels: [Channel::default(); MAX_CHANNELS],
            global_pressure: 0.0,
            global_last_turn: 0,
        }
    }

    /// Create a memory of `words` words starting from an existing image
    /// (truncated or zero-extended to fit). Used to carry memory across
    /// kernel phases of a multi-kernel application.
    pub fn from_image(mut image: Vec<Word>, words: u32) -> Self {
        image.resize(words as usize, 0);
        MemSystem {
            mem: image,
            channels: [Channel::default(); MAX_CHANNELS],
            global_pressure: 0.0,
            global_last_turn: 0,
        }
    }

    /// Number of words.
    pub fn len(&self) -> u32 {
        self.mem.len() as u32
    }

    /// True if the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Read a word.
    ///
    /// # Errors
    ///
    /// Returns [`OobError`] if `addr` is out of range.
    #[inline]
    pub fn read(&self, addr: u32) -> Result<Word, OobError> {
        self.mem.get(addr as usize).copied().ok_or(OobError {
            addr,
            len: self.len(),
        })
    }

    /// Write a word.
    ///
    /// # Errors
    ///
    /// Returns [`OobError`] if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: u32, value: Word) -> Result<(), OobError> {
        let len = self.len();
        match self.mem.get_mut(addr as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(OobError { addr, len }),
        }
    }

    /// The full memory image (for post-condition checks).
    pub fn image(&self) -> &[Word] {
        &self.mem
    }

    /// Take ownership of the memory image, leaving an empty one.
    pub fn take_image(&mut self) -> Vec<Word> {
        std::mem::take(&mut self.mem)
    }

    /// Record an access *issue* on `channel` ([`Chip::channel_of`] of its
    /// address) for the contention trackers.
    ///
    /// `transition` is `Some((from_is_store, to_is_store))` when the same
    /// thread issued its previous access to the same channel within the
    /// loop-boundary gap (see `exec`), i.e. the accesses are back-to-back
    /// in the instruction stream. The all-channel pressure is bumped too,
    /// but only on chips with [`Chip::lb_broadband`], its only reader.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not below [`MAX_CHANNELS`].
    #[inline]
    pub fn note_access(
        &mut self,
        chip: &Chip,
        channel: u32,
        is_store: bool,
        transition: Option<(bool, bool)>,
        turn: u64,
    ) {
        let c = &mut self.channels[channel as usize];
        c.decay_to(turn, chip.pressure_tau);
        if is_store {
            c.w += 1.0;
        } else {
            c.r += 1.0;
        }
        if let Some((from, to)) = transition {
            let idx = match (from, to) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            };
            c.tr[idx] += 1.0;
        }
        // Global pressure (lazy decay), which only the LB broadband
        // quirk reads.
        if chip.lb_broadband.is_none() {
            return;
        }
        if turn > self.global_last_turn {
            let f = (-((turn - self.global_last_turn) as f64) / chip.pressure_tau).exp();
            self.global_pressure *= f;
            self.global_last_turn = turn;
        }
        self.global_pressure += 1.0;
    }

    /// Record a loop-boundary event: the thread's previous access (on
    /// `prev_channel`, a store iff `prev_is_store`) was the *last* access
    /// of a loop body, and the new access (on `channel`) is the *first* of
    /// the next. Detected by the executor via the instruction-count gap.
    ///
    /// # Panics
    ///
    /// Panics if either channel is not below [`MAX_CHANNELS`].
    #[inline]
    pub fn note_boundary(
        &mut self,
        chip: &Chip,
        prev_channel: u32,
        prev_is_store: bool,
        channel: u32,
        is_store: bool,
        turn: u64,
    ) {
        let c = &mut self.channels[prev_channel as usize];
        c.decay_to(turn, chip.pressure_tau);
        c.fl[2 + usize::from(prev_is_store)] += 1.0;
        let c = &mut self.channels[channel as usize];
        c.decay_to(turn, chip.pressure_tau);
        c.fl[usize::from(is_store)] += 1.0;
    }

    /// χ for one channel: the gated contention factor described in the
    /// module docs. Zero on an idle channel; approaches 1 when the channel
    /// sees a saturating, well-mixed access pattern that resonates with
    /// the chip's preferred sequence.
    fn channel_chi(&mut self, chip: &Chip, kind: ReorderKind, ch: usize, turn: u64) -> f64 {
        let c = &mut self.channels[ch];
        c.decay_to(turn, chip.pressure_tau);
        let half = chip.pressure_half;
        let rhat = c.r / (c.r + half);
        let what = c.w / (c.w + half);
        if rhat <= 0.0 || what <= 0.0 {
            return 0.0;
        }
        // Geometric mix gate: both loads and stores must be present, with
        // a per-chip read bias (pure-store stress ranks bottom on every
        // chip in Tab. 3 — the gate enforces that). The 1.5 exponent makes
        // the gate fall off steeply as stress spreads thin over many
        // locations — the dilution behind Fig. 4's U-shaped spread curve.
        let gate =
            (rhat.powf(chip.read_bias) * what.powf(1.0 - chip.read_bias)).powf(chip.gate_exp);
        // Over-concentration throttle: a channel whose raw pressure far
        // exceeds the overload knee is serialising its requesters, which
        // reduces (not raises) its ability to provoke reorderings.
        let total = c.r + c.w;
        let throttle = 1.0 / (1.0 + (total / chip.overload_pressure).powi(2));
        let mut profile = [0.0f64; 8];
        profile[..4].copy_from_slice(&c.tr);
        profile[4..].copy_from_slice(&c.fl);
        let profile = normalize8(profile);
        let cos: f64 = profile
            .iter()
            .zip(chip.resonance.iter())
            .map(|(a, b)| a * b)
            .sum();
        let k = kind.idx();
        // Cubing the cosine sharpens the resonance: sequences close to
        // the chip's preferred pattern are rewarded steeply, which is
        // what makes the Pareto winner of the sequence search stable.
        let resonance = cos.max(0.0).powi(3);
        let inner = chip.k_const
            + chip.k_resonance * resonance
            + chip.k_read[k] * rhat
            + chip.k_write[k] * what;
        (gate * throttle * inner).clamp(0.0, 1.0)
    }

    /// Saturated global pressure in [0, 1).
    fn global_sat(&mut self, chip: &Chip, turn: u64) -> f64 {
        if turn > self.global_last_turn {
            let f = (-((turn - self.global_last_turn) as f64) / chip.pressure_tau).exp();
            self.global_pressure *= f;
            self.global_last_turn = turn;
        }
        let half = chip.pressure_half * chip.channels as f64;
        self.global_pressure / (self.global_pressure + half)
    }

    /// The contention factor χ ∈ [0, 1] for a candidate reordering of two
    /// accesses at `addr_old` and `addr_young`, applying the chip's quirk
    /// rules (Sec. 3.2's GTX 980 observations).
    pub fn chi(
        &mut self,
        chip: &Chip,
        kind: ReorderKind,
        addr_old: u32,
        addr_young: u32,
        turn: u64,
    ) -> f64 {
        let ch_a = chip.channel_of(addr_old) as usize;
        let ch_b = chip.channel_of(addr_young) as usize;
        let chi_a = self.channel_chi(chip, kind, ch_a, turn);
        let chi_b = if ch_b == ch_a {
            chi_a
        } else {
            self.channel_chi(chip, kind, ch_b, turn)
        };
        // Stressing either communication channel is effective (patch
        // finding stresses a single location); covering both is better —
        // which is why a spread of two wins the spread search.
        let mut chi = 0.55 * chi_a.max(chi_b) + 0.45 * chi_a.min(chi_b);
        let dist = addr_old.abs_diff(addr_young);
        // 980 quirk: MP-kind stress response requires widely separated
        // locations.
        if matches!(kind, ReorderKind::StSt | ReorderKind::LdLd)
            && chip.mp_min_dist_words > 0
            && dist < chip.mp_min_dist_words
        {
            chi *= 0.05;
        }
        // 980 quirk: LB responds to stress on *any* channel for a band of
        // distances.
        if kind == ReorderKind::LdSt {
            if let Some((lo, hi)) = chip.lb_broadband {
                if dist >= lo && dist < hi {
                    let g = self.global_sat(chip, turn);
                    chi = chi.max(0.5 * g);
                }
            }
        }
        chi.clamp(0.0, 1.0)
    }

    /// Effective reorder probability for a candidate bypass.
    pub fn reorder_prob(
        &mut self,
        chip: &Chip,
        kind: ReorderKind,
        addr_old: u32,
        addr_young: u32,
        turn: u64,
    ) -> f64 {
        let k = kind.idx();
        let chi = self.chi(chip, kind, addr_old, addr_young, turn);
        let ambient = if matches!(kind, ReorderKind::StSt | ReorderKind::LdLd) {
            chip.ambient_mp
        } else {
            0.0
        };
        (chip.reorder.base[k] + ambient + chip.reorder.gain[k] * chi).clamp(0.0, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> Chip {
        Chip::by_short("Titan").unwrap()
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = MemSystem::new(16);
        m.write(3, 0xdead_beef).unwrap();
        assert_eq!(m.read(3).unwrap(), 0xdead_beef);
        assert_eq!(m.read(4).unwrap(), 0);
    }

    #[test]
    fn oob_detected() {
        let mut m = MemSystem::new(4);
        assert!(m.read(4).is_err());
        assert!(m.write(100, 1).is_err());
        let e = m.read(9).unwrap_err();
        assert_eq!(e, OobError { addr: 9, len: 4 });
        assert!(e.to_string().contains("word 9"));
    }

    #[test]
    fn idle_channel_has_zero_chi() {
        let chip = titan();
        let mut m = MemSystem::new(1024);
        let chi = m.chi(&chip, ReorderKind::StSt, 0, 64, 0);
        assert_eq!(chi, 0.0);
    }

    #[test]
    fn native_probability_is_base_rate() {
        let chip = titan();
        let mut m = MemSystem::new(1024);
        let p = m.reorder_prob(&chip, ReorderKind::StSt, 0, 64, 10);
        assert!((p - chip.reorder.base[0]).abs() < 1e-12);
    }

    #[test]
    fn mixed_stress_raises_chi_on_matching_channel() {
        let chip = titan();
        let mut m = MemSystem::new(4096);
        // Saturate channel 0 with the chip's preferred pattern
        // (ld st2 ld, back-to-back transitions), at the density many
        // stressing threads produce (several accesses per turn), with
        // loop-boundary events.
        let pat = [false, true, true, false];
        let mut prev: Option<bool> = None;
        for step in 0..20_000u64 {
            let turn = step / 8;
            let is_store = pat[(step % 4) as usize];
            let tr = prev.map(|p| (p, is_store));
            m.note_access(&chip, 0, is_store, tr, turn);
            if step % 4 == 3 {
                m.note_boundary(&chip, 0, is_store, 0, false, turn);
                prev = None;
            } else {
                prev = Some(is_store);
            }
        }
        let turn_end = 20_000 / 8;
        // x on channel 0, y on channel 1: chi should clearly exceed the
        // idle level (the single-thread synthetic stream here is far
        // weaker than real stressing blocks, so the absolute value is
        // modest).
        let chi = m.chi(&chip, ReorderKind::StSt, 0, 64, turn_end);
        assert!(chi > 0.05, "chi = {chi}");
        // A pair on completely different channels sees nothing.
        let chi_far = m.chi(&chip, ReorderKind::StSt, 2 * 32, 3 * 32, turn_end);
        assert!(chi_far < chi / 10.0, "chi_far = {chi_far} vs chi = {chi}");
    }

    #[test]
    fn pure_store_stress_is_gated_out() {
        let chip = titan();
        let mut m = MemSystem::new(4096);
        let mut prev: Option<bool> = None;
        for turn in 0..2000u64 {
            m.note_access(&chip, 0, true, prev.map(|p| (p, true)), turn);
            prev = Some(true);
        }
        let chi = m.chi(&chip, ReorderKind::StSt, 0, 64, 2000);
        assert!(chi < 0.01, "pure stores must not boost: chi = {chi}");
    }

    #[test]
    fn pressure_decays() {
        let chip = titan();
        let mut m = MemSystem::new(4096);
        let mut prev: Option<bool> = None;
        for turn in 0..1000u64 {
            let is_store = turn % 2 == 1;
            m.note_access(&chip, 0, is_store, prev.map(|p| (p, is_store)), turn);
            prev = Some(is_store);
        }
        let hot = m.chi(&chip, ReorderKind::StSt, 0, 64, 1000);
        let cold = m.chi(
            &chip,
            ReorderKind::StSt,
            0,
            64,
            1000 + 50 * chip.pressure_tau as u64,
        );
        assert!(hot > 0.0);
        assert!(cold < hot * 0.05, "hot {hot} cold {cold}");
    }

    #[test]
    fn mp_min_dist_quirk_suppresses_close_pairs() {
        let chip = Chip::by_short("980").unwrap();
        let mut m = MemSystem::new(4096);
        let mut prev: Option<bool> = None;
        // Saturate every channel so both pairs see stress.
        for turn in 0..4000u64 {
            let is_store = turn % 5 == 4; // ld4 st-ish
            let channel = chip.channel_of(((turn / 5) % 8) as u32 * 64);
            m.note_access(&chip, channel, is_store, prev.map(|p| (p, is_store)), turn);
            prev = if turn % 5 == 4 { None } else { Some(is_store) };
        }
        let near = m.chi(&chip, ReorderKind::StSt, 0, 128, 4000);
        let far = m.chi(&chip, ReorderKind::StSt, 0, 512, 4000);
        assert!(far > near * 2.0, "near {near} far {far}");
    }

    #[test]
    fn lb_broadband_quirk_reads_global_pressure() {
        /// Loads and stores on channels 5–7 only, none of them a channel
        /// of the pairs below on either chip.
        fn stressed(chip: &Chip) -> MemSystem {
            let mut m = MemSystem::new(4096);
            for turn in 0..2000u64 {
                m.note_access(chip, 5 + (turn % 3) as u32, turn % 2 == 1, None, turn);
            }
            m
        }
        let gtx980 = Chip::by_short("980").unwrap();
        let titan = titan();
        for chip in [&gtx980, &titan] {
            assert!([0, 64, 128].iter().all(|&a| chip.channel_of(a) < 5));
        }
        // 64 words apart, inside the 980's band [64, 128): χ comes from
        // the traffic on the other channels alone.
        let idle = MemSystem::new(4096).chi(&gtx980, ReorderKind::LdSt, 0, 64, 2000);
        assert_eq!(idle, 0.0);
        let mut m = stressed(&gtx980);
        let in_band = m.chi(&gtx980, ReorderKind::LdSt, 0, 64, 2000);
        assert!(in_band > 0.0, "in band: chi = {in_band}");
        let out_of_band = m.chi(&gtx980, ReorderKind::LdSt, 0, 128, 2000);
        assert_eq!(out_of_band, 0.0);
        let on_titan = stressed(&titan).chi(&titan, ReorderKind::LdSt, 0, 64, 2000);
        assert_eq!(on_titan, 0.0);
    }

    #[test]
    fn take_image_empties() {
        let mut m = MemSystem::new(8);
        m.write(1, 7).unwrap();
        let img = m.take_image();
        assert_eq!(img[1], 7);
        assert!(m.is_empty());
    }
}
