//! Per-chip microarchitectural profiles.
//!
//! The paper studies seven NVIDIA GPUs (Tab. 1). Each chip exhibits a
//! different weak-memory personality: which reorderings occur, how often,
//! with what sensitivity to memory-system contention, and with what
//! structural quirks (critical patch size, effective access sequences, the
//! GTX 980's ambient-MP noise). NVIDIA has never documented the
//! microarchitectural causes, so these profiles *encode the paper's
//! observations as parameters* and let the black-box tuning pipeline
//! rediscover them, exactly as the paper's methodology does on silicon.
//!
//! The profile parameters fall into three groups:
//!
//! 1. **Structure**: patch (cache-line) size in words, memory channel
//!    and SM counts, occupancy, in-flight window depth.
//! 2. **Reordering**: per-[`ReorderKind`] base probability (native runs)
//!    and stress gain (how strongly channel contention amplifies the
//!    reordering), plus contention-model coefficients.
//! 3. **Cost**: instruction timing, fence stall, clock and power for the
//!    runtime/energy study of Sec. 6.

use crate::seq::AccessSeq;
use crate::topology::L1Params;

/// Streaming multiprocessors on every chip (the ~50× scaling of
/// [`Chip::max_concurrent_threads`]). A launched block's home SM, whose
/// private L1 [`Chip::l1`] parameterises, is its launch index modulo
/// `SMS`. More than one, so a two-block litmus test spans two L1s.
pub const SMS: u32 = 8;
const _: () = assert!(SMS > 1);

/// The three NVIDIA architectures spanned by Tab. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Tesla C2050 / C2075.
    Fermi,
    /// GTX 770, Tesla K20, GTX Titan, Quadro K5200.
    Kepler,
    /// GTX 980.
    Maxwell,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Arch::Fermi => "Fermi",
            Arch::Kepler => "Kepler",
            Arch::Maxwell => "Maxwell",
        };
        write!(f, "{s}")
    }
}

/// The four single-thread reorderings the memory model can exhibit,
/// classified by the kinds of the (older, younger) operation pair, with
/// the litmus idiom each one witnesses:
///
/// * `StSt` — a younger store becomes visible before an older store
///   (message-passing, writer side);
/// * `LdLd` — a younger load reads memory before an older load
///   (message-passing, reader side);
/// * `StLd` — a younger load completes before an older store
///   (store buffering);
/// * `LdSt` — a younger store becomes visible before an older load
///   completes (load buffering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorderKind {
    /// Store–store reordering (MP writer side).
    StSt = 0,
    /// Load–load reordering (MP reader side).
    LdLd = 1,
    /// Store–load reordering (SB).
    StLd = 2,
    /// Load–store reordering (LB).
    LdSt = 3,
}

impl ReorderKind {
    /// All four kinds, in index order.
    pub const ALL: [ReorderKind; 4] = [
        ReorderKind::StSt,
        ReorderKind::LdLd,
        ReorderKind::StLd,
        ReorderKind::LdSt,
    ];

    /// The index used into the per-kind parameter arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Per-kind reorder probabilities: `base` applies natively; under stress
/// the probability becomes `base + gain * chi` where `chi ∈ [0, 1]` is the
/// contention factor computed by the memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderRates {
    /// Native (unstressed) per-opportunity probability, per kind.
    pub base: [f64; 4],
    /// Stress amplification, per kind.
    pub gain: [f64; 4],
}

/// A complete chip profile. Construct via [`Chip::all`] or
/// [`Chip::by_short`]; fields are public because the profile is a passive
/// parameter record consumed throughout the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    /// Marketing name, e.g. `"GTX Titan"`.
    pub name: &'static str,
    /// The paper's short name, e.g. `"Titan"`.
    pub short: &'static str,
    /// Architecture generation.
    pub arch: Arch,
    /// Release year (Tab. 1).
    pub released: u16,

    // -- structure --------------------------------------------------------
    /// Critical patch size in words (Tab. 2): accesses within one patch
    /// (line) are never reordered with each other.
    pub patch_words: u32,
    /// Number of memory channels; a line maps to channel
    /// `line % channels`. Contention is tracked per channel.
    pub channels: u32,
    /// Maximum concurrently-resident threads (scaled down ~50× from real
    /// occupancies so a run simulates in microseconds).
    pub max_concurrent_threads: u32,
    /// L2 cache size in words, scaled with occupancy — the scratchpad
    /// size the `cache-str` strategy allocates (Sec. 4.2).
    pub l2_scaled_words: u32,
    /// Per-thread in-flight memory window depth.
    pub window: usize,
    /// Probability that the window head completes on a given drain turn.
    pub drain_q: f64,
    /// The per-SM L1 staleness channel. All-zero rates mean the L1 is
    /// *coherent*: global loads always see the latest completed store and
    /// the execution engine skips the channel entirely (the pre-topology
    /// behaviour, bit for bit). The Tesla-class Fermi boards (C2075,
    /// C2050) ship incoherent L1s — the paper's structural explanation
    /// for `CoRR` going weak on them.
    pub l1: L1Params,

    // -- reordering -------------------------------------------------------
    /// Base and stress-amplified reorder probabilities for global-space
    /// accesses.
    pub reorder: ReorderRates,
    /// Base and stress-amplified reorder probabilities for *shared-space*
    /// accesses — the second level of the scope hierarchy. Shared memory
    /// is per-block, so its contention factor comes from the block's own
    /// shared-memory traffic (see `exec`), not from the global channel
    /// trackers. All-zero rates mean the chip's shared memory is strongly
    /// ordered and shared accesses complete immediately, exactly as they
    /// did before the scoped relaxation engine existed.
    pub shared_reorder: ReorderRates,
    /// Half-saturation constant of the per-block shared-memory pressure
    /// (the shared analogue of [`Chip::pressure_half`], much smaller
    /// because a single block's scratchpad traffic is far lighter than a
    /// memory channel's).
    pub shared_pressure_half: f64,
    /// Raw per-block shared pressure below which the shared contention
    /// factor is exactly zero. A scoped litmus test's own handful of
    /// accesses can never reach the floor, so without dedicated
    /// shared-space stressing the shared χ is identically zero and
    /// (with zero shared base rates) scoped shapes cannot go weak.
    pub shared_pressure_floor: f64,
    /// Weight of the access-sequence resonance (signature cosine) in chi.
    pub k_resonance: f64,
    /// Constant mix-gated term in chi.
    pub k_const: f64,
    /// Per-kind weight of saturated read pressure in chi.
    pub k_read: [f64; 4],
    /// Per-kind weight of saturated write pressure in chi.
    pub k_write: [f64; 4],
    /// Read-bias β of the geometric pressure mix `r̂^β · ŵ^(1−β)`:
    /// chips preferring load-heavy stress sequences have β > ½.
    pub read_bias: f64,
    /// Exponent applied to the pressure mix: controls how steeply
    /// effectiveness falls as stress spreads over more locations (the
    /// sharpness of Fig. 4's U-shape; the 980's curve is the sharpest).
    pub gate_exp: f64,
    /// Pressure half-saturation constant (`x̂ = x / (x + half)`).
    pub pressure_half: f64,
    /// Over-concentration knee: when a channel's total pressure exceeds
    /// this, effectiveness is throttled (too many threads serialising on
    /// one location) — why a spread of one loses to a spread of two.
    pub overload_pressure: f64,
    /// Exponential decay time-constant of channel pressure, in scheduler
    /// turns.
    pub pressure_tau: f64,
    /// The access sequence this chip resonates with (Tab. 2's most
    /// effective sequence; calibration target).
    pub preferred_seq: AccessSeq,
    /// Unit-normalised extended signature of `preferred_seq` (see
    /// [`AccessSeq::signature8`]).
    pub resonance: [f64; 8],

    // -- quirks (GTX 980; Sec. 3.2) ---------------------------------------
    /// Ambient MP-kind reorder probability added regardless of stress.
    pub ambient_mp: f64,
    /// MP-kind contention boost is suppressed when the two locations are
    /// closer than this many words (980: 256).
    pub mp_min_dist_words: u32,
    /// LB-kind boost applies broadband (any stressed channel) when the
    /// location distance in words falls in this half-open range.
    pub lb_broadband: Option<(u32, u32)>,

    // -- cost model (Sec. 6) ----------------------------------------------
    /// Turns a device fence stalls at the window head before completing.
    pub fence_stall: u32,
    /// Turns a block fence stalls (cheaper than a device fence).
    pub block_fence_stall: u32,
    /// Simulated core clock, GHz (converts cycles to milliseconds).
    pub clock_ghz: f64,
    /// Board power draw while a kernel runs, watts.
    pub power_watts: f64,
    /// Whether NVML power queries are supported (K5200, Titan, K20, C2075
    /// only — Sec. 6); energy is only reported for these chips.
    pub supports_power: bool,
}

impl Chip {
    /// The seven chips of Tab. 1, in the paper's order (newest first).
    pub fn all() -> Vec<Chip> {
        vec![
            gtx_980(),
            k5200(),
            titan(),
            k20(),
            gtx_770(),
            c2075(),
            c2050(),
        ]
    }

    /// Look a chip up by its paper short name (`"980"`, `"K5200"`,
    /// `"Titan"`, `"K20"`, `"770"`, `"C2075"`, `"C2050"`).
    pub fn by_short(short: &str) -> Option<Chip> {
        Chip::all().into_iter().find(|c| c.short == short)
    }

    /// The memory line ("patch") containing a word address.
    #[inline]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr / self.patch_words
    }

    /// The channel a word address maps to.
    #[inline]
    pub fn channel_of(&self, addr: u32) -> u32 {
        self.line_channel(self.line_of(addr))
    }

    /// The channel a line maps to: [`Chip::channel_of`] for a caller that
    /// already holds the address's line.
    #[inline]
    pub(crate) fn line_channel(&self, line: u32) -> u32 {
        line % self.channels
    }

    /// The paper's tuned systematic-stress parameters for this chip
    /// (Tab. 2): (critical patch size, most effective sequence, spread).
    pub fn paper_tuning(&self) -> (u32, AccessSeq, u32) {
        (self.patch_words, self.preferred_seq.clone(), 2)
    }

    /// True if this chip's shared memory is weakly ordered: any nonzero
    /// shared-space reorder rate routes shared accesses through the
    /// in-flight window. When false, shared accesses complete immediately
    /// (the pre-scoped-engine behaviour, bit for bit).
    pub fn shared_weak(&self) -> bool {
        self.shared_reorder
            .base
            .iter()
            .chain(self.shared_reorder.gain.iter())
            .any(|&r| r > 0.0)
    }

    /// True if this chip's per-SM L1s are incoherent: any nonzero
    /// staleness rate makes global loads consult the home SM's L1,
    /// which may serve a stale line. When false, the execution engine
    /// allocates no L1 state and draws no L1 randomness — loads read
    /// straight from memory (the pre-topology behaviour, bit for bit).
    pub fn l1_weak(&self) -> bool {
        self.l1.weak()
    }

    /// This chip with every weak-memory knob zeroed: global *and*
    /// shared-space reorder matrices, the incoherent-L1 staleness
    /// rates, plus the 980's ambient-MP quirk. Under the resulting
    /// profile the simulator is sequentially consistent in both memory
    /// spaces and every L1 is coherent — the canonical way to build an
    /// SC control chip (hand-zeroing only `reorder` would leave the
    /// shared-space matrix and the L1 channel live).
    pub fn sequentially_consistent(mut self) -> Chip {
        self.reorder = ReorderRates {
            base: [0.0; 4],
            gain: [0.0; 4],
        };
        self.shared_reorder = ReorderRates {
            base: [0.0; 4],
            gain: [0.0; 4],
        };
        self.l1.stale_base = 0.0;
        self.l1.stale_gain = 0.0;
        self.ambient_mp = 0.0;
        self
    }
}

fn seq(s: &str) -> AccessSeq {
    s.parse().expect("chip profile sequence literal")
}

fn resonance_of(s: &AccessSeq) -> [f64; 8] {
    s.signature8()
}

/// Shared Kepler-generation defaults; per-chip constructors adjust.
#[allow(clippy::too_many_arguments)]
fn base_chip(
    name: &'static str,
    short: &'static str,
    arch: Arch,
    released: u16,
    patch_words: u32,
    preferred: &str,
) -> Chip {
    let preferred_seq = seq(preferred);
    let resonance = resonance_of(&preferred_seq);
    Chip {
        name,
        short,
        arch,
        released,
        patch_words,
        channels: 8,
        max_concurrent_threads: 512,
        l2_scaled_words: match arch {
            Arch::Fermi => 1536,
            Arch::Kepler => 3072,
            Arch::Maxwell => 4096,
        },
        window: 6,
        drain_q: 0.30,
        // Coherent L1 by default: zero staleness rates. The structural
        // knobs (capacity, TTL, pressure curve) are shared across chips;
        // only the Fermi Tesla boards switch the rates on.
        l1: L1Params {
            stale_base: 0.0,
            stale_gain: 0.0,
            words: 512,
            ttl_turns: 4000,
            pressure_half: 48.0,
            pressure_floor: 24.0,
            pressure_tau: 96.0,
        },
        reorder: ReorderRates {
            base: [3e-5, 2e-5, 6e-5, 1.5e-5],
            gain: [0.60, 0.48, 0.68, 0.40],
        },
        // Shared-space relaxation: zero base rates (a quiescent block's
        // scratchpad never reorders on its own) with stress gains below
        // the global ones — intra-block forwarding paths are shorter.
        shared_reorder: ReorderRates {
            base: [0.0; 4],
            gain: [0.50, 0.40, 0.55, 0.32],
        },
        shared_pressure_half: 48.0,
        shared_pressure_floor: 24.0,
        k_resonance: 0.80,
        k_const: 0.12,
        k_read: [0.00, 0.10, 0.08, 0.03],
        k_write: [0.10, 0.00, 0.03, 0.08],
        read_bias: 0.5,
        gate_exp: 2.2,
        pressure_half: 280.0,
        overload_pressure: 1400.0,
        pressure_tau: 96.0,
        preferred_seq,
        resonance,
        ambient_mp: 0.0,
        mp_min_dist_words: 0,
        lb_broadband: None,
        fence_stall: 14,
        block_fence_stall: 4,
        clock_ghz: 0.85,
        power_watts: 200.0,
        supports_power: false,
    }
}

fn gtx_980() -> Chip {
    let mut c = base_chip("GTX 980", "980", Arch::Maxwell, 2014, 64, "ld4 st");
    c.read_bias = 0.78; // Maxwell resonates with load-heavy stress.
    c.gate_exp = 2.8; // sharp spread peak (Fig. 4, left)
    c.reorder.base = [1.2e-5, 1.0e-5, 3e-5, 1.2e-5];
    c.reorder.gain = [0.40, 0.30, 0.50, 0.44];
    c.shared_reorder.gain = [0.34, 0.28, 0.38, 0.26]; // Maxwell's tighter SMEM pipe
    c.ambient_mp = 6e-4;
    c.mp_min_dist_words = 256;
    c.lb_broadband = Some((64, 128));
    c.fence_stall = 10;
    c.clock_ghz = 1.13;
    c.power_watts = 165.0;
    c
}

fn k5200() -> Chip {
    let mut c = base_chip("Quadro K5200", "K5200", Arch::Kepler, 2014, 32, "ld3 st ld");
    c.read_bias = 0.68;
    c.fence_stall = 12;
    c.clock_ghz = 0.77;
    c.power_watts = 150.0;
    c.supports_power = true;
    c
}

fn titan() -> Chip {
    let mut c = base_chip("GTX Titan", "Titan", Arch::Kepler, 2013, 32, "ld st2 ld");
    // Titan revealed errors most frequently in the paper's hardening runs
    // (Sec. 5.2): slightly higher stress gains.
    c.reorder.gain = [0.72, 0.56, 0.76, 0.48];
    c.fence_stall = 12;
    c.clock_ghz = 0.84;
    c.power_watts = 250.0;
    c.supports_power = true;
    c
}

fn k20() -> Chip {
    let mut c = base_chip("Tesla K20", "K20", Arch::Kepler, 2013, 32, "ld st2 ld");
    c.fence_stall = 16;
    c.clock_ghz = 0.71;
    c.power_watts = 225.0;
    c.supports_power = true;
    c
}

fn gtx_770() -> Chip {
    let mut c = base_chip("GTX 770", "770", Arch::Kepler, 2013, 32, "st2 ld2");
    // The 770 shows native errors (cbe-ht, Tab. 5) and finds off-by-one
    // fences (Sec. 5.2): elevated base rates and a shallow window.
    c.reorder.base = [4e-4, 6e-5, 3e-4, 3e-5];
    c.read_bias = 0.45;
    c.window = 3;
    c.fence_stall = 40;
    c.clock_ghz = 1.05;
    c.power_watts = 230.0;
    c
}

fn c2075() -> Chip {
    let mut c = base_chip("Tesla C2075", "C2075", Arch::Fermi, 2011, 64, "ld st");
    // Fermi: native ls-bh errors observed (Tab. 5); fences very costly;
    // the oldest shared-memory datapath relaxes the most under pressure.
    c.reorder.base = [2e-4, 5e-5, 2e-4, 2.5e-5];
    c.shared_reorder.gain = [0.58, 0.46, 0.64, 0.38];
    // Fermi's per-SM L1s are incoherent: under cross-SM write pressure a
    // global load may hit a stale line, which is what flips CoRR weak on
    // the Tesla boards (zero stale_base keeps native runs coherent — the
    // channel is pressure-provoked, like every other stress channel).
    c.l1.stale_gain = 0.60;
    c.fence_stall = 60;
    c.clock_ghz = 0.57;
    c.power_watts = 225.0;
    c.supports_power = true;
    c
}

fn c2050() -> Chip {
    let mut c = base_chip("Tesla C2050", "C2050", Arch::Fermi, 2010, 64, "ld st");
    c.reorder.base = [1.2e-4, 4e-5, 1.5e-4, 2e-5];
    c.shared_reorder.gain = [0.58, 0.46, 0.64, 0.38];
    c.l1.stale_gain = 0.55; // incoherent L1, slightly tamer than the C2075
    c.fence_stall = 60;
    c.clock_ghz = 0.57;
    c.power_watts = 238.0;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_chips_match_table_1() {
        let chips = Chip::all();
        assert_eq!(chips.len(), 7);
        let shorts: Vec<&str> = chips.iter().map(|c| c.short).collect();
        assert_eq!(
            shorts,
            vec!["980", "K5200", "Titan", "K20", "770", "C2075", "C2050"]
        );
    }

    #[test]
    fn patch_sizes_match_table_2() {
        for (short, patch) in [
            ("980", 64),
            ("K5200", 32),
            ("Titan", 32),
            ("K20", 32),
            ("770", 32),
            ("C2075", 64),
            ("C2050", 64),
        ] {
            assert_eq!(Chip::by_short(short).unwrap().patch_words, patch, "{short}");
        }
    }

    #[test]
    fn sequences_match_table_2() {
        for (short, s) in [
            ("980", "ld4 st"),
            ("K5200", "ld3 st ld"),
            ("Titan", "ld st2 ld"),
            ("K20", "ld st2 ld"),
            ("770", "st2 ld2"),
            ("C2075", "ld st"),
            ("C2050", "ld st"),
        ] {
            assert_eq!(
                Chip::by_short(short).unwrap().preferred_seq.to_string(),
                s,
                "{short}"
            );
        }
    }

    #[test]
    fn power_support_matches_section_6() {
        // "Only K5200, Titan, K20, and C2075 support power queries."
        for c in Chip::all() {
            let expect = matches!(c.short, "K5200" | "Titan" | "K20" | "C2075");
            assert_eq!(c.supports_power, expect, "{}", c.short);
        }
    }

    #[test]
    fn line_and_channel_mapping() {
        let c = Chip::by_short("Titan").unwrap();
        assert_eq!(c.patch_words, 32);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(31), 0);
        assert_eq!(c.line_of(32), 1);
        assert_eq!(c.channel_of(0), 0);
        assert_eq!(c.channel_of(32), 1);
        assert_eq!(c.channel_of(32 * 8), 0);
    }

    #[test]
    fn resonance_is_unit_or_zero() {
        for c in Chip::all() {
            let n: f64 = c.resonance.iter().map(|x| x * x).sum();
            assert!((n - 1.0).abs() < 1e-9, "{}: {:?}", c.short, c.resonance);
        }
    }

    #[test]
    fn fermi_fences_cost_more_than_kepler() {
        let k20 = Chip::by_short("K20").unwrap();
        let c2075 = Chip::by_short("C2075").unwrap();
        assert!(c2075.fence_stall > k20.fence_stall);
    }

    #[test]
    fn by_short_unknown_is_none() {
        assert!(Chip::by_short("H100").is_none());
    }

    #[test]
    fn every_chip_relaxes_shared_memory_under_stress_only() {
        // Per-space matrix: every profile has zero shared base rates
        // (quiescent shared memory is strongly ordered) but nonzero
        // shared stress gains, so shared weakness is stress-provoked.
        for c in Chip::all() {
            assert!(c.shared_weak(), "{}", c.short);
            assert_eq!(c.shared_reorder.base, [0.0; 4], "{}", c.short);
            assert!(
                c.shared_reorder.gain.iter().all(|&g| g > 0.0),
                "{}",
                c.short
            );
            // Intra-block forwarding is shorter than the global path.
            for (s, g) in c.shared_reorder.gain.iter().zip(c.reorder.gain.iter()) {
                assert!(s < g, "{}: shared gain {s} >= global gain {g}", c.short);
            }
            assert!(c.shared_pressure_floor > 0.0, "{}", c.short);
        }
    }

    #[test]
    fn sequentially_consistent_zeroes_both_spaces() {
        for c in Chip::all() {
            let sc = c.sequentially_consistent();
            assert_eq!(sc.reorder.base, [0.0; 4], "{}", sc.short);
            assert_eq!(sc.reorder.gain, [0.0; 4], "{}", sc.short);
            assert_eq!(sc.shared_reorder.base, [0.0; 4], "{}", sc.short);
            assert_eq!(sc.shared_reorder.gain, [0.0; 4], "{}", sc.short);
            assert_eq!(sc.ambient_mp, 0.0, "{}", sc.short);
            assert!(!sc.shared_weak(), "{}", sc.short);
            assert_eq!(sc.l1.stale_base, 0.0, "{}", sc.short);
            assert_eq!(sc.l1.stale_gain, 0.0, "{}", sc.short);
            assert!(!sc.l1_weak(), "{}", sc.short);
        }
    }

    #[test]
    fn only_fermi_teslas_have_incoherent_l1s() {
        // The paper's structural story: CoRR goes weak on the Tesla
        // boards because their per-SM L1s are incoherent; the Kepler
        // and Maxwell consumer/HPC parts read-coherently through L2.
        for c in Chip::all() {
            let expect = matches!(c.short, "C2075" | "C2050");
            assert_eq!(c.l1_weak(), expect, "{}", c.short);
            // Like the shared channel, staleness is stress-provoked
            // only: zero base rate on every profile.
            assert_eq!(c.l1.stale_base, 0.0, "{}", c.short);
            assert!(c.l1.pressure_floor > 0.0, "{}", c.short);
        }
        let c2075 = Chip::by_short("C2075").unwrap();
        let c2050 = Chip::by_short("C2050").unwrap();
        assert!(c2075.l1.stale_gain > c2050.l1.stale_gain);
    }

    #[test]
    fn paper_tuning_spread_is_two() {
        for c in Chip::all() {
            assert_eq!(c.paper_tuning().2, 2, "{}", c.short);
        }
    }

    #[test]
    fn quirks_limited_to_980() {
        for c in Chip::all() {
            if c.short != "980" {
                assert_eq!(c.ambient_mp, 0.0);
                assert_eq!(c.mp_min_dist_words, 0);
                assert!(c.lb_broadband.is_none());
            }
        }
        let m = Chip::by_short("980").unwrap();
        assert!(m.ambient_mp > 0.0);
        assert_eq!(m.mp_min_dist_words, 256);
    }
}
