//! Per-SM incoherent L1 caches: staleness parameters and runtime state.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::word::Word;

/// How much cross-SM write pressure stretches a stale line's lifetime:
/// `ttl_eff = ttl_turns * (1 + TTL_PRESSURE_SCALE * chi)`. Under heavy
/// remote write traffic the L1 has no bandwidth to refresh, so stale
/// lines survive longer (pressure-coupled eviction).
const TTL_PRESSURE_SCALE: f64 = 3.0;

/// Ceiling on the stale-hit probability, matching the reorder-rate
/// clamp of the in-flight window.
const MAX_STALE_PROB: f64 = 0.95;

/// Per-chip knobs of the incoherent-L1 weakness channel.
///
/// A chip whose rates are all zero has a *coherent* L1: the channel is
/// structurally off and the execution engine never touches any L1
/// state (nor its RNG) for it — the legacy path, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L1Params {
    /// Pressure-independent stale-hit probability floor.
    pub stale_base: f64,
    /// Stale-hit probability gained per unit of cross-SM write
    /// pressure χ (saturating, see [`L1System::stale_candidate`]).
    pub stale_gain: f64,
    /// Capacity of the stale-line store, in words. Oldest entries are
    /// evicted first when a chip-wide write burst overflows it.
    pub words: u32,
    /// Base lifetime of a stale line, in scheduler turns.
    pub ttl_turns: u64,
    /// Half-saturation constant of the write-pressure curve.
    pub pressure_half: f64,
    /// Pressure below which staleness never manifests: a handful of
    /// writes (a litmus test's own traffic, a quiet app) refreshes
    /// through L2 fast enough to stay coherent in practice.
    pub pressure_floor: f64,
    /// Exponential decay constant of per-SM write pressure, in turns.
    pub pressure_tau: f64,
}

impl L1Params {
    /// Can this L1 ever serve a stale value?
    pub fn weak(&self) -> bool {
        self.stale_base > 0.0 || self.stale_gain > 0.0
    }
}

/// One potentially stale line: the pre-write value a remote SM's L1
/// may still hold after a write completed.
#[derive(Debug, Clone, Copy)]
struct StaleEntry {
    /// The overwritten value.
    old: Word,
    /// Home SM of the writing block (its own L1 was updated).
    writer_sm: u32,
    /// Monotonic creation stamp, compared against per-SM clear epochs.
    seq: u64,
    /// Scheduler turn of the write's completion, for TTL eviction.
    turn: u64,
}

/// The stale store's hasher: one multiplication of the word address by
/// a 64-bit odd constant, with the well-mixed high half rotated into
/// the low bits that pick a bucket. Iteration order never matters (the
/// FIFO rebuild sorts by `seq`), and the store holds at most
/// [`L1Params::words`] entries, so SipHash's defence against crafted
/// keys buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n);
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
    }
}

/// Runtime L1 state of one run: the stale-line store, per-SM
/// invalidation epochs, and per-SM decaying write pressure.
///
/// Only allocated for runs on chips whose [`L1Params::weak`] is true.
/// All bookkeeping is deterministic; the only randomness in the
/// channel is the single stale-hit draw the execution engine makes
/// when [`L1System::stale_candidate`] returns a positive probability.
#[derive(Debug, Clone)]
pub struct L1System {
    params: L1Params,
    /// Address → youngest stale entry for that address.
    entries: HashMap<u32, StaleEntry, BuildHasherDefault<AddrHasher>>,
    /// FIFO of (addr, seq) for capacity eviction; stale pairs whose
    /// seq no longer matches the live entry are skipped lazily.
    fifo: VecDeque<(u32, u64)>,
    /// Per-SM clear epoch: entries with `seq <= cleared_at[sm]` are
    /// invisible to SM `sm` (a device fence refreshed its L1).
    cleared_at: Vec<u64>,
    /// Per-SM decaying count of completed global writes.
    write_pressure: Vec<f64>,
    /// Turn the pressure vector was last decayed to.
    pressure_turn: u64,
    /// Monotonic stamp source; turn values collide within a scheduler
    /// round, sequence numbers cannot.
    seq: u64,
}

impl L1System {
    /// Fresh, empty L1 state for a chip with `total_sms` SMs.
    pub fn new(total_sms: u32, params: L1Params) -> Self {
        L1System {
            params,
            entries: HashMap::default(),
            fifo: VecDeque::new(),
            cleared_at: vec![0; total_sms as usize],
            write_pressure: vec![0.0; total_sms as usize],
            pressure_turn: 0,
            seq: 0,
        }
    }

    /// Empty the state for a new run, keeping the allocations: behaves
    /// exactly like a fresh [`L1System::new`] with the same SM count and
    /// parameters.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.fifo.clear();
        self.cleared_at.fill(0);
        self.write_pressure.fill(0.0);
        self.pressure_turn = 0;
        self.seq = 0;
    }

    /// Decay all per-SM pressure counters to `turn`.
    fn decay_to(&mut self, turn: u64) {
        if turn <= self.pressure_turn {
            return;
        }
        let dt = (turn - self.pressure_turn) as f64;
        let f = (-dt / self.params.pressure_tau).exp();
        for w in &mut self.write_pressure {
            *w *= f;
            if *w < 1e-9 {
                *w = 0.0;
            }
        }
        self.pressure_turn = turn;
    }

    /// Saturating cross-SM write pressure seen by `reader_sm`: the sum
    /// of every *other* SM's decayed write counter, gated by the floor.
    fn chi(&mut self, reader_sm: u32, turn: u64) -> f64 {
        self.decay_to(turn);
        let remote: f64 = self
            .write_pressure
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != reader_sm as usize)
            .map(|(_, w)| w)
            .sum();
        if remote < self.params.pressure_floor {
            0.0
        } else {
            remote / (remote + self.params.pressure_half)
        }
    }

    /// Record a completed global write by a block homed on
    /// `writer_sm`: every other SM's L1 may now hold the pre-write
    /// value `old`. The writing SM's own line is updated in place
    /// (invalidation-on-own-write), which
    /// [`stale_candidate`](L1System::stale_candidate) encodes by never
    /// serving an entry back to its own writer.
    pub fn record_write(&mut self, addr: u32, old: Word, writer_sm: u32, turn: u64) {
        self.decay_to(turn);
        self.write_pressure[writer_sm as usize] += 1.0;
        self.seq += 1;
        let seq = self.seq;
        self.entries.insert(
            addr,
            StaleEntry {
                old,
                writer_sm,
                seq,
                turn,
            },
        );
        self.fifo.push_back((addr, seq));
        // Capacity eviction, oldest first; superseded FIFO pairs are
        // dropped without touching the live entry.
        let words = self.params.words as usize;
        while self.entries.len() > words {
            match self.fifo.pop_front() {
                Some((a, s)) => {
                    if self.entries.get(&a).is_some_and(|e| e.seq == s) {
                        self.entries.remove(&a);
                    }
                }
                None => break,
            }
        }
        // Rewrites of resident addresses leave superseded pairs behind
        // that eviction would only skip. Dropping them early changes no
        // eviction order and bounds the FIFO. Every live entry has
        // exactly one pair, pushed in `seq` order, so the pairs that
        // survive are the entries sorted by `seq` (at most `words`).
        if self.fifo.len() > 2 * words {
            self.fifo.clear();
            self.fifo
                .extend(self.entries.iter().map(|(&a, e)| (a, e.seq)));
            self.fifo
                .make_contiguous()
                .sort_unstable_by_key(|&(_, s)| s);
        }
    }

    /// A device fence completed on `sm`: its L1 refreshes, so every
    /// stale entry recorded so far becomes invisible to that SM.
    pub fn note_fence(&mut self, sm: u32) {
        self.cleared_at[sm as usize] = self.seq;
    }

    /// May a global load by a block homed on `reader_sm` hit a stale
    /// line at `addr`? Returns the stale value and the hit probability
    /// when a live, visible, remote-written entry exists and the
    /// probability is positive; `None` otherwise (the caller then
    /// reads fresh memory and, crucially, draws no randomness).
    pub fn stale_candidate(&mut self, addr: u32, reader_sm: u32, turn: u64) -> Option<(Word, f64)> {
        let e = *self.entries.get(&addr)?;
        if e.writer_sm == reader_sm || e.seq <= self.cleared_at[reader_sm as usize] {
            return None;
        }
        let chi = self.chi(reader_sm, turn);
        let ttl_eff =
            (self.params.ttl_turns as f64 * (1.0 + TTL_PRESSURE_SCALE * chi)).round() as u64;
        if turn.saturating_sub(e.turn) > ttl_eff {
            self.entries.remove(&addr);
            return None;
        }
        let p = (self.params.stale_base + self.params.stale_gain * chi).clamp(0.0, MAX_STALE_PROB);
        if p > 0.0 {
            Some((e.old, p))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> L1Params {
        L1Params {
            stale_base: 0.0,
            stale_gain: 0.6,
            words: 4,
            ttl_turns: 1000,
            pressure_half: 48.0,
            pressure_floor: 24.0,
            pressure_tau: 96.0,
        }
    }

    /// Drive pressure above the floor with remote writes on SM 1.
    fn pressurize(l1: &mut L1System, turn: u64) {
        for i in 0..40 {
            l1.record_write(900 + i, 0, 1, turn);
        }
    }

    #[test]
    fn all_zero_rates_are_coherent() {
        let p = L1Params {
            stale_base: 0.0,
            stale_gain: 0.0,
            ..params()
        };
        assert!(!p.weak());
        let mut l1 = L1System::new(4, p);
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        assert_eq!(l1.stale_candidate(7, 0, 11), None, "p stays zero");
    }

    #[test]
    fn below_pressure_floor_never_serves_stale() {
        let mut l1 = L1System::new(4, params());
        l1.record_write(7, 5, 1, 10);
        assert_eq!(
            l1.stale_candidate(7, 0, 11),
            None,
            "a single write is far below the pressure floor"
        );
    }

    #[test]
    fn remote_reader_sees_stale_under_pressure() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        let (old, p) = l1.stale_candidate(7, 0, 11).expect("stale candidate");
        assert_eq!(old, 5, "the pre-write value is served");
        assert!(p > 0.1 && p <= MAX_STALE_PROB, "p = {p}");
    }

    #[test]
    fn own_sm_reads_fresh() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 2, 10);
        assert_eq!(
            l1.stale_candidate(7, 2, 11),
            None,
            "invalidation-on-own-write: the writer's SM is coherent with itself"
        );
        assert!(l1.stale_candidate(7, 0, 11).is_some(), "but peers are not");
    }

    #[test]
    fn fence_clears_the_issuing_sm_only() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        l1.note_fence(0);
        assert_eq!(l1.stale_candidate(7, 0, 11), None, "SM 0 refreshed");
        assert!(
            l1.stale_candidate(7, 2, 11).is_some(),
            "SM 2's L1 is still stale"
        );
        // A write after the fence is visible to SM 0 again.
        l1.record_write(7, 6, 1, 12);
        let (old, _) = l1.stale_candidate(7, 0, 13).expect("new entry");
        assert_eq!(old, 6);
    }

    #[test]
    fn ttl_evicts_old_entries() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        assert!(l1.stale_candidate(7, 0, 50).is_some(), "young enough");
        // Far past ttl_eff even at maximal pressure coupling:
        // 1000 * (1 + 3).
        assert_eq!(l1.stale_candidate(7, 0, 10 + 4001), None, "expired");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10); // also overflows the 4-word store
        l1.record_write(1, 11, 1, 10);
        l1.record_write(2, 12, 1, 10);
        l1.record_write(3, 13, 1, 10);
        l1.record_write(4, 14, 1, 10);
        l1.record_write(5, 15, 1, 10);
        assert_eq!(l1.stale_candidate(1, 0, 11), None, "addr 1 evicted");
        assert!(l1.stale_candidate(5, 0, 11).is_some(), "addr 5 resident");
    }

    #[test]
    fn rewrites_keep_the_fifo_bounded() {
        let mut l1 = L1System::new(4, params());
        for i in 0..1000 {
            l1.record_write(7 + i % 3, i, 1, 10);
            assert!(l1.fifo.len() <= 2 * 4 + 1, "fifo {}", l1.fifo.len());
        }
        // Eviction order is unchanged: the six writes below push out
        // the three rewritten addresses first, oldest first.
        for a in 100..106 {
            l1.record_write(a, 0, 1, 10);
        }
        assert_eq!(l1.entries.len(), 4);
        assert!((7..10)
            .chain(100..102)
            .all(|a| !l1.entries.contains_key(&a)));
    }

    #[test]
    fn reset_behaves_like_a_fresh_system() {
        let mut used = L1System::new(4, params());
        pressurize(&mut used, 10);
        used.record_write(7, 5, 1, 10);
        used.note_fence(2);
        used.reset();
        let mut fresh = L1System::new(4, params());
        for l1 in [&mut used, &mut fresh] {
            assert_eq!(l1.stale_candidate(7, 0, 11), None);
            pressurize(l1, 20);
            l1.record_write(8, 6, 1, 20);
        }
        assert_eq!(
            used.stale_candidate(8, 2, 21),
            fresh.stale_candidate(8, 2, 21)
        );
        assert!(used.stale_candidate(8, 2, 21).is_some());
    }

    #[test]
    fn rewrite_supersedes_the_old_entry() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        l1.record_write(7, 9, 3, 10);
        let (old, _) = l1.stale_candidate(7, 0, 11).expect("entry");
        assert_eq!(old, 9, "the youngest pre-write value wins");
        assert_eq!(
            l1.stale_candidate(7, 3, 11),
            None,
            "the latest writer's SM is coherent"
        );
    }

    #[test]
    fn pressure_decays_back_to_coherence() {
        let mut l1 = L1System::new(4, params());
        pressurize(&mut l1, 10);
        l1.record_write(7, 5, 1, 10);
        assert!(l1.stale_candidate(7, 0, 11).is_some());
        // Long after the burst, pressure decays below the floor.
        assert_eq!(l1.stale_candidate(7, 0, 10 + 800), None);
    }
}
