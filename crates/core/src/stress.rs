//! Memory stressing strategies (Sec. 3 and Sec. 4.2).
//!
//! All strategies target a *scratchpad*: a region of global memory
//! completely disjoint from the application's data, accessed by stressing
//! blocks completely disjoint from the application's blocks — so the set
//! of possible application behaviours is unchanged.
//!
//! Four strategies are evaluated in the paper:
//!
//! * [`StressStrategy::None`] (`no-str`) — run natively;
//! * [`StressStrategy::Random`] (`rand-str`) — each stressing access picks
//!   a random scratchpad location and a random load/store;
//! * [`StressStrategy::CacheSized`] (`cache-str`) — an L2-cache-sized
//!   scratchpad swept with a load + store per location;
//! * [`StressStrategy::Systematic`] (`sys-str`) — the paper's tuned
//!   strategy: stress the first location of `spread` randomly chosen
//!   critical-patch-sized regions, with the chip's most effective access
//!   sequence.
//!
//! One further strategy targets the *structural* relaxation channel the
//! chip topology adds:
//!
//! * [`StressStrategy::L1`] (`l1-str`) — write-only scratchpad traffic.
//!   Pure stores are gated out of the channel contention factor (χ needs
//!   a load/store mix), so this strategy provokes almost no in-flight
//!   reordering; what it does do is complete a torrent of global writes
//!   from stressing blocks homed on *other* SMs, driving the cross-SM
//!   write pressure that makes incoherent L1s serve stale lines
//!   (`CoRR` & friends on the Tesla-class chips). A clean single-channel
//!   probe: coherent-L1 chips are essentially blind to it.
//!
//! Every strategy (and every location-table entry) above targets
//! **global** memory: stressing blocks live in their own blocks, and a
//! block's `Space::Shared` scratch is unreachable from outside it.
//! *Shared-space* stress therefore takes a different route entirely —
//! [`SharedStress`], attached to [`StressArtifacts`], turns the idle
//! non-zero lanes of an intra-block litmus kernel into shared-scratchpad
//! hammers (see `wmm_litmus::LitmusInstance::with_shared_stress`). That
//! intra-block pressure feeds the per-block shared contention factor χ,
//! which is what makes the scoped catalogue shapes (`MP.shared`,
//! `SB.shared`, …) observably weak — while their `+fence_block` twins
//! and the single-location `CoRR.shared` stay forbidden-outcome-free.

use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use wmm_sim::chip::Chip;
use wmm_sim::exec::{KernelGroup, Role};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::{BinOp, Program};
use wmm_sim::seq::{Acc, AccessSeq};
use wmm_sim::Word;

/// The scratchpad region stressing threads target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scratchpad {
    /// First word of the scratchpad (keep line-aligned).
    pub base: u32,
    /// Scratchpad size in words.
    pub words: u32,
    /// Base of a small table region used to pass per-run stress locations
    /// to the kernel (disjoint from the scratchpad and the application).
    pub table_base: u32,
}

impl Scratchpad {
    /// A scratchpad of `words` words at `base`, with the location table
    /// immediately before it.
    ///
    /// # Panics
    ///
    /// Panics if there is no room for the table below `base`.
    pub fn new(base: u32, words: u32) -> Self {
        assert!(base >= 64, "need room for the location table below base");
        Scratchpad {
            base,
            words,
            table_base: base - 64,
        }
    }

    /// Words of global memory a launch must provide to cover this
    /// scratchpad.
    pub fn required_words(&self) -> u32 {
        self.base + self.words
    }
}

/// Parameters of the systematic (tuned) stress — Tab. 2's columns.
///
/// `Eq`/`Hash` are structural (the access sequence and the two word
/// counts), so two strategies tuned to the same parameters — whatever
/// chip produced them — key to the same artifact-cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystematicParams {
    /// The chip's critical patch size in words.
    pub patch_words: u32,
    /// The most effective access sequence.
    pub seq: AccessSeq,
    /// How many patch-sized regions to stress simultaneously.
    pub spread: u32,
}

impl SystematicParams {
    /// The paper's published tuning for a chip (Tab. 2).
    pub fn from_paper(chip: &Chip) -> Self {
        let (patch_words, seq, spread) = chip.paper_tuning();
        SystematicParams {
            patch_words,
            seq,
            spread,
        }
    }
}

/// Intra-block shared-memory stressing: how hard the idle lanes of a
/// scoped litmus block hammer a shared scratchpad. Unlike the global
/// strategies this is not a separate kernel group — shared memory is
/// per-block, so the stress rides inside the test kernel itself
/// (injected by `LitmusInstance::with_shared_stress`), and it only
/// applies to intra-block instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedStress {
    /// Scratchpad size in shared words (placed past the test's own
    /// shared locations).
    pub words: u32,
    /// Load+store sweep iterations per stressing lane.
    pub iters: u32,
}

impl SharedStress {
    /// The prefix shared-stress environment/column names carry (e.g.
    /// `shm+sys-str+`) — one definition so `Environment::name()` and the
    /// suite column labels (which CI's checks match against) cannot
    /// diverge.
    pub const NAME_PREFIX: &'static str = "shm+";

    /// The default shared-stress configuration of the suite's
    /// shared-stress environments: enough lanes-by-iterations pressure
    /// to saturate the per-block shared contention factor for the whole
    /// test window.
    pub fn standard() -> Self {
        SharedStress {
            words: 64,
            iters: 60,
        }
    }
}

/// A memory stressing strategy.
///
/// `Eq`/`Hash` compare the strategy's *structure* (for `sys-str`, the
/// full [`SystematicParams`]), not its display name: `sys-str` tuned
/// for the Titan and `sys-str` tuned for the GTX 980 print identically
/// but hash — and cache — separately, while chips that share Tab. 2
/// tuning (Titan and K20) compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StressStrategy {
    /// `no-str`: no stressing blocks at all.
    None,
    /// `rand-str`: random location, random access kind, every iteration.
    Random,
    /// `cache-str`: sweep an L2-sized scratchpad with a load and store per
    /// location.
    CacheSized,
    /// `sys-str`: the tuned strategy of Sec. 3.
    Systematic(SystematicParams),
    /// `l1-str`: write-only scratchpad traffic driving cross-SM L1 write
    /// pressure — the structural (incoherent-L1) relaxation channel's
    /// stress. See the module docs.
    L1,
}

impl StressStrategy {
    /// The paper's name for the strategy (`no-str`, `rand-str`,
    /// `cache-str`, `sys-str`), or `l1-str` for the structural L1
    /// channel's write-only stress.
    pub fn short(&self) -> &'static str {
        match self {
            StressStrategy::None => "no-str",
            StressStrategy::Random => "rand-str",
            StressStrategy::CacheSized => "cache-str",
            StressStrategy::Systematic(_) => "sys-str",
            StressStrategy::L1 => "l1-str",
        }
    }
}

/// A fully instantiated stress configuration for one run: kernel groups
/// plus the memory initialisation they need.
#[derive(Debug, Clone, Default)]
pub struct StressSetup {
    /// Stressing kernel groups (empty for `no-str`).
    pub groups: Vec<KernelGroup>,
    /// Global-memory initialisation (the location table).
    pub init: Vec<(u32, Word)>,
}

/// Per-environment stress artifacts, built **once** and reused across
/// every run of a campaign.
///
/// Compiling a stressing kernel per run is the historic hot-path cost:
/// a campaign of `C` executions under `sys-str` used to emit `C`
/// identical `Program`s. The kernel of the systematic and cache-sized
/// strategies depends only on environment-level constants (scratchpad,
/// access sequence, spread, iteration count), so this type compiles it
/// at construction and [`StressArtifacts::make`] merely re-instantiates
/// the cheap per-run parts — the location table drawn from the run's RNG
/// and the kernel-group thread count.
///
/// `make` draws exactly the values (in exactly the order) a fresh set of
/// artifacts built for every run would draw, so cached and uncached
/// campaigns are bit-for-bit identical.
///
/// The `rand-str` kernel bakes a fresh in-kernel PRNG seed into the
/// program every run, so it is the one strategy whose kernel cannot be
/// cached; its `make` still rebuilds per run (documented cost of that
/// strategy, not of this API).
#[derive(Debug, Clone)]
pub struct StressArtifacts {
    pad: Scratchpad,
    iters: u32,
    kind: ArtifactKind,
    /// Optional intra-block shared-space stress, applied by the campaign
    /// facade to intra-block litmus instances (see [`SharedStress`]).
    shared: Option<SharedStress>,
}

#[derive(Debug, Clone)]
enum ArtifactKind {
    /// `no-str`: nothing to launch.
    None,
    /// `rand-str`: the kernel embeds a per-run seed; rebuilt per run.
    Random,
    /// `cache-str`: one fixed kernel, no per-run state at all.
    Fixed { program: Arc<Program> },
    /// `sys-str`: one fixed kernel; the location table is drawn per run.
    Systematic {
        program: Arc<Program>,
        regions: u32,
        spread: u32,
        patch_words: u32,
    },
    /// Systematic stress pinned to explicit locations (the tuning
    /// micro-benchmarks' `⟨T_d, σ@L⟩`): kernel *and* table are fixed.
    Pinned {
        program: Arc<Program>,
        init: Vec<(u32, Word)>,
        spread: u32,
    },
}

impl StressArtifacts {
    /// Artifacts for the native environment (`no-str`): nothing is ever
    /// launched.
    pub fn none() -> Self {
        StressArtifacts {
            pad: Scratchpad::new(64, 0),
            iters: 0,
            kind: ArtifactKind::None,
            shared: None,
        }
    }

    /// Build the artifacts for a strategy on a chip: compile whatever is
    /// compilable once, record what must be drawn per run.
    pub fn for_strategy(
        chip: &Chip,
        strategy: &StressStrategy,
        pad: Scratchpad,
        iters: u32,
    ) -> Self {
        let kind = match strategy {
            StressStrategy::None => ArtifactKind::None,
            StressStrategy::Random => ArtifactKind::Random,
            StressStrategy::CacheSized => {
                let words = pad.words.min(chip.l2_scaled_words).max(1);
                ArtifactKind::Fixed {
                    program: Arc::new(cache_stress_kernel(pad, words, iters)),
                }
            }
            StressStrategy::Systematic(p) => {
                let regions = (pad.words / p.patch_words).max(1);
                let spread = p.spread.clamp(1, regions).min(64);
                ArtifactKind::Systematic {
                    program: Arc::new(systematic_stress_kernel(pad, &p.seq, spread, iters)),
                    regions,
                    spread,
                    patch_words: p.patch_words,
                }
            }
            // Like `cache-str`, the L1 stress kernel depends only on
            // environment-level constants: compiled once, nothing drawn
            // per run.
            StressStrategy::L1 => ArtifactKind::Fixed {
                program: Arc::new(l1_stress_kernel(pad, iters)),
            },
        };
        StressArtifacts {
            pad,
            iters,
            kind,
            shared: None,
        }
    }

    /// Artifacts for systematic stress pinned to explicit scratchpad
    /// locations (word offsets within the pad). Kernel and location
    /// table are both environment-level constants here.
    ///
    /// # Panics
    ///
    /// Panics if `rel_locations` is empty or any location exceeds the
    /// pad.
    pub fn pinned(pad: Scratchpad, seq: &AccessSeq, rel_locations: &[u32], iters: u32) -> Self {
        assert!(!rel_locations.is_empty(), "need at least one location");
        for &l in rel_locations {
            assert!(l < pad.words, "location {l} outside scratchpad");
        }
        let spread = rel_locations.len() as u32;
        StressArtifacts {
            pad,
            iters,
            kind: ArtifactKind::Pinned {
                program: Arc::new(systematic_stress_kernel(pad, seq, spread, iters)),
                init: Self::table_for(pad, rel_locations),
                spread,
            },
            shared: None,
        }
    }

    /// Re-pin already-built pinned artifacts to a different location set
    /// of the same size, reusing the compiled kernel (the location sweep
    /// of patch finding visits hundreds of location sets that all share
    /// one kernel).
    ///
    /// # Panics
    ///
    /// Panics if these artifacts are not pinned, the location count
    /// changes (the spread is baked into the kernel), or a location
    /// exceeds the pad.
    pub fn with_locations(&self, rel_locations: &[u32]) -> Self {
        let ArtifactKind::Pinned {
            program, spread, ..
        } = &self.kind
        else {
            panic!("with_locations requires pinned artifacts");
        };
        assert_eq!(
            *spread,
            rel_locations.len() as u32,
            "location count is baked into the pinned kernel"
        );
        for &l in rel_locations {
            assert!(l < self.pad.words, "location {l} outside scratchpad");
        }
        StressArtifacts {
            pad: self.pad,
            iters: self.iters,
            kind: ArtifactKind::Pinned {
                program: Arc::clone(program),
                init: Self::table_for(self.pad, rel_locations),
                spread: *spread,
            },
            shared: self.shared,
        }
    }

    /// Whether this is the native environment (no stressing blocks —
    /// callers skip their per-run thread-count draw, as the legacy
    /// native campaigns did). Intra-block shared stress is orthogonal:
    /// it rides inside the test kernel, not in stressing blocks.
    pub fn is_native(&self) -> bool {
        matches!(self.kind, ArtifactKind::None)
    }

    /// Attach (or clear) intra-block shared-space stress: campaigns
    /// apply it to intra-block litmus instances by injecting stressing
    /// lanes into the test kernel (inter-block instances and application
    /// workloads are unaffected — their blocks have no idle lanes to
    /// repurpose). Takes an `Option` so every environment-to-artifacts
    /// construction site forwards the axis with one unconditional call —
    /// no site can forget the `Some` branch and silently drop it.
    pub fn with_shared_stress(mut self, shared: Option<SharedStress>) -> Self {
        self.shared = shared;
        self
    }

    /// The attached intra-block shared-space stress, if any.
    pub fn shared_stress(&self) -> Option<SharedStress> {
        self.shared
    }

    /// Instantiate one run's stressing blocks.
    ///
    /// * `threads` — total stressing threads to launch (the paper
    ///   randomises this per run; see [`litmus_stress_threads`] and
    ///   [`app_stress_blocks`]). Systematic and pinned stress launch at
    ///   least 32 threads per location, distributed round-robin.
    ///
    /// Draws from `rng` only what the strategy needs per run (nothing
    /// for `no-str`, `cache-str` and pinned; the kernel seed for
    /// `rand-str`; the location picks for `sys-str`), so a campaign
    /// over cached artifacts is bit-identical to one rebuilding them
    /// per run.
    pub fn make(&self, threads: u32, rng: &mut SmallRng) -> StressSetup {
        match &self.kind {
            ArtifactKind::None => StressSetup::default(),
            ArtifactKind::Random => {
                let program = random_stress_kernel(self.pad, self.iters, rng.gen());
                StressSetup {
                    groups: groups_for(Arc::new(program), threads),
                    init: Vec::new(),
                }
            }
            ArtifactKind::Fixed { program } => StressSetup {
                groups: groups_for(Arc::clone(program), threads),
                init: Vec::new(),
            },
            ArtifactKind::Systematic {
                program,
                regions,
                spread,
                patch_words,
            } => {
                // Choose `spread` distinct regions; stress the first
                // location of each (stressing multiple locations of one
                // patch is redundant, Sec. 3.3).
                let mut picks: Vec<u32> = Vec::with_capacity(*spread as usize);
                while picks.len() < *spread as usize {
                    let r = rng.gen_range(0..*regions);
                    if !picks.contains(&r) {
                        picks.push(r);
                    }
                }
                let locations: Vec<u32> = picks.iter().map(|&r| r * patch_words).collect();
                StressSetup {
                    groups: groups_for(Arc::clone(program), threads.max(spread * 32)),
                    init: Self::table_for(self.pad, &locations),
                }
            }
            ArtifactKind::Pinned {
                program,
                init,
                spread,
            } => StressSetup {
                groups: groups_for(Arc::clone(program), threads.max(spread * 32)),
                init: init.clone(),
            },
        }
    }

    /// The location table passing per-run stress targets to the kernel.
    fn table_for(pad: Scratchpad, rel_locations: &[u32]) -> Vec<(u32, Word)> {
        rel_locations
            .iter()
            .enumerate()
            .map(|(i, &l)| (pad.table_base + i as u32, pad.base + l))
            .collect()
    }
}

fn groups_for(program: Arc<Program>, threads: u32) -> Vec<KernelGroup> {
    let tpb = 64;
    let blocks = threads.div_ceil(tpb).max(1);
    vec![KernelGroup {
        program,
        blocks,
        threads_per_block: tpb,
        role: Role::Stress,
    }]
}

/// The systematic stressing kernel: each thread reads its target location
/// from the table (indexed by global thread id modulo the spread, so
/// threads spread evenly across locations) and hammers it with the access
/// sequence in a loop.
fn systematic_stress_kernel(pad: Scratchpad, seq: &AccessSeq, spread: u32, iters: u32) -> Program {
    let mut b = KernelBuilder::new(format!("sys-str[{seq}]x{spread}"));
    let gtid = b.global_tid();
    let m = b.const_(spread);
    let slot = b.rem_u(gtid, m);
    let tbase = b.const_(pad.table_base);
    let taddr = b.add(tbase, slot);
    let loc = b.load_global(taddr);
    let val = b.const_(0xabcd);
    let i = b.reg();
    b.assign_const(i, 0);
    let n = b.const_(iters);
    let one = b.const_(1);
    b.while_(
        |b| b.lt_u(i, n),
        |b| {
            for acc in seq.accs() {
                match acc {
                    Acc::Ld => {
                        let _ = b.load_global(loc);
                    }
                    Acc::St => b.store_global(loc, val),
                }
            }
            b.bin_into(i, BinOp::Add, i, one);
        },
    );
    b.finish().expect("stress kernel is valid by construction")
}

/// The `rand-str` kernel: an in-kernel xorshift PRNG picks a fresh
/// location and access kind every iteration (standing in for the paper's
/// use of `curand`).
fn random_stress_kernel(pad: Scratchpad, iters: u32, seed: u32) -> Program {
    let mut b = KernelBuilder::new("rand-str");
    let gtid = b.global_tid();
    let seed_r = b.const_(seed | 1);
    let state = b.reg();
    b.bin_into(state, BinOp::Xor, gtid, seed_r);
    let one = b.const_(1);
    let state1 = b.add(state, one); // avoid the all-zero fixed point
    let base = b.const_(pad.base);
    let words = b.const_(pad.words.max(1));
    let val = b.const_(0x5117);
    let i = b.reg();
    b.assign_const(i, 0);
    let n = b.const_(iters);
    let c13 = b.const_(13);
    let c17 = b.const_(17);
    let c5 = b.const_(5);
    b.while_(
        |b| b.lt_u(i, n),
        |b| {
            // xorshift32
            let t1 = b.bin(BinOp::Shl, state1, c13);
            b.bin_into(state1, BinOp::Xor, state1, t1);
            let t2 = b.bin(BinOp::Shr, state1, c17);
            b.bin_into(state1, BinOp::Xor, state1, t2);
            let t3 = b.bin(BinOp::Shl, state1, c5);
            b.bin_into(state1, BinOp::Xor, state1, t3);
            let off = b.rem_u(state1, words);
            let addr = b.add(base, off);
            let bit = b.and(state1, one);
            b.if_else(
                bit,
                |b| b.store_global(addr, val),
                |b| {
                    let _ = b.load_global(addr);
                },
            );
            b.bin_into(i, BinOp::Add, i, one);
        },
    );
    b.finish().expect("stress kernel is valid by construction")
}

/// The `cache-str` kernel: each block sweeps the (L2-sized) scratchpad,
/// performing a load then a store at every location.
fn cache_stress_kernel(pad: Scratchpad, words: u32, iters: u32) -> Program {
    let mut b = KernelBuilder::new("cache-str");
    let tid = b.tid();
    let base = b.const_(pad.base);
    let words_r = b.const_(words);
    let dim = b.block_dim();
    let outer = b.reg();
    b.assign_const(outer, 0);
    // Scale the outer trip count so total accesses roughly match the
    // systematic strategy's budget.
    let outer_n = b.const_(iters.div_ceil(words / 64 + 1).max(1));
    let one = b.const_(1);
    let j = b.reg();
    b.while_(
        |b| b.lt_u(outer, outer_n),
        |b| {
            b.assign(j, tid);
            b.while_(
                |b| b.lt_u(j, words_r),
                |b| {
                    let addr = b.add(base, j);
                    let v = b.load_global(addr);
                    b.store_global(addr, v);
                    b.bin_into(j, BinOp::Add, j, dim);
                },
            );
            b.bin_into(outer, BinOp::Add, outer, one);
        },
    );
    b.finish().expect("stress kernel is valid by construction")
}

/// The `l1-str` kernel: each thread hammers **stores** at a fixed
/// thread-spread location. Write-only on purpose — pure-store traffic
/// does not feed the load/store channel contention factor, so the only
/// thing this kernel moves is the per-SM write-pressure meter of
/// incoherent L1s (the structural staleness channel).
fn l1_stress_kernel(pad: Scratchpad, iters: u32) -> Program {
    let mut b = KernelBuilder::new("l1-str");
    let gtid = b.global_tid();
    let words = b.const_(pad.words.max(1));
    let off = b.rem_u(gtid, words);
    let base = b.const_(pad.base);
    let addr = b.add(base, off);
    let val = b.const_(0x11c4);
    let i = b.reg();
    b.assign_const(i, 0);
    let n = b.const_(iters);
    let one = b.const_(1);
    b.while_(
        |b| b.lt_u(i, n),
        |b| {
            b.store_global(addr, val);
            b.bin_into(i, BinOp::Add, i, one);
        },
    );
    b.finish().expect("stress kernel is valid by construction")
}

/// The paper's per-run stressing-thread count for litmus tuning: a random
/// total in [50%, 100%] of the chip's concurrent capacity, minus the test
/// threads (Sec. 3.2).
pub fn litmus_stress_threads(chip: &Chip, rng: &mut SmallRng) -> u32 {
    let cap = chip.max_concurrent_threads;
    let target = rng.gen_range(cap / 2..=cap);
    target.saturating_sub(64).max(64)
}

/// The paper's per-run stressing-block count for application testing: a
/// random count in [15%, 50%] of the application's block count
/// (Sec. 4.2), converted to threads of 64.
pub fn app_stress_blocks(app_blocks: u32, rng: &mut SmallRng) -> u32 {
    let lo = (app_blocks * 15).div_ceil(100).max(1);
    let hi = (app_blocks * 50).div_ceil(100).max(lo);
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn chip() -> Chip {
        Chip::by_short("Titan").unwrap()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn none_strategy_is_empty() {
        let s = StressArtifacts::for_strategy(
            &chip(),
            &StressStrategy::None,
            Scratchpad::new(2048, 2048),
            100,
        )
        .make(256, &mut rng());
        assert!(s.groups.is_empty());
        assert!(s.init.is_empty());
    }

    #[test]
    fn systematic_builds_table_of_region_starts() {
        let c = chip();
        let pad = Scratchpad::new(2048, 2048);
        let p = SystematicParams::from_paper(&c);
        let s = StressArtifacts::for_strategy(&c, &StressStrategy::Systematic(p.clone()), pad, 100)
            .make(256, &mut rng());
        assert_eq!(s.init.len(), p.spread as usize);
        for &(addr, loc) in &s.init {
            assert!(addr >= pad.table_base && addr < pad.base);
            assert!(loc >= pad.base && loc < pad.base + pad.words);
            assert_eq!((loc - pad.base) % p.patch_words, 0, "region-aligned");
        }
        // Distinct regions.
        let mut locs: Vec<Word> = s.init.iter().map(|&(_, l)| l).collect();
        locs.sort_unstable();
        locs.dedup();
        assert_eq!(locs.len(), p.spread as usize);
        assert_eq!(s.groups.len(), 1);
        assert!(s.groups[0].blocks * s.groups[0].threads_per_block >= 256);
    }

    #[test]
    fn strategies_produce_runnable_kernels() {
        use wmm_sim::exec::{Gpu, LaunchSpec, Role};
        let c = chip();
        let pad = Scratchpad::new(2048, c.l2_scaled_words);
        for strat in [
            StressStrategy::Random,
            StressStrategy::CacheSized,
            StressStrategy::Systematic(SystematicParams::from_paper(&c)),
            StressStrategy::L1,
        ] {
            let s = StressArtifacts::for_strategy(&c, &strat, pad, 20).make(128, &mut rng());
            assert_eq!(s.groups.len(), 1, "{}", strat.short());
            // Run the stress kernel *as an app* so the run completes.
            let mut groups = s.groups.clone();
            groups[0].role = Role::App;
            let spec = LaunchSpec {
                groups,
                global_words: pad.required_words(),
                shared_words: 0,
                init_image: Vec::new(),
                init: s.init.clone(),
                max_turns: 4_000_000,
                randomize_ids: false,
            };
            let mut gpu = Gpu::new(c.clone());
            let r = gpu.run(&spec, 5);
            assert!(r.status.is_completed(), "{}: {:?}", strat.short(), r.status);
            assert!(r.instructions > 1000, "{}", strat.short());
        }
    }

    #[test]
    fn litmus_thread_counts_in_band() {
        let c = chip();
        let mut r = rng();
        for _ in 0..100 {
            let t = litmus_stress_threads(&c, &mut r);
            assert!(t >= 64);
            assert!(t <= c.max_concurrent_threads);
        }
    }

    #[test]
    fn app_stress_blocks_in_band() {
        let mut r = rng();
        for _ in 0..100 {
            let b = app_stress_blocks(8, &mut r);
            assert!((1..=4).contains(&b), "got {b}");
        }
    }

    #[test]
    fn reused_artifacts_match_fresh_artifacts_run_by_run() {
        // Instantiating runs off one cached artifact set must equal
        // building fresh artifacts for every run.
        let c = chip();
        let pad = Scratchpad::new(2048, 2048);
        for strat in [
            StressStrategy::None,
            StressStrategy::Random,
            StressStrategy::CacheSized,
            StressStrategy::Systematic(SystematicParams::from_paper(&c)),
            StressStrategy::L1,
        ] {
            let cached = StressArtifacts::for_strategy(&c, &strat, pad, 30);
            for run in 0..4u64 {
                let mut r1 = SmallRng::seed_from_u64(run * 7 + 1);
                let mut r2 = r1.clone();
                let a = cached.make(300, &mut r1);
                let b = StressArtifacts::for_strategy(&c, &strat, pad, 30).make(300, &mut r2);
                assert_eq!(a.init, b.init, "{} run {run}", strat.short());
                assert_eq!(a.groups.len(), b.groups.len());
                for (ga, gb) in a.groups.iter().zip(&b.groups) {
                    assert_eq!(ga.blocks, gb.blocks, "{}", strat.short());
                    assert_eq!(
                        ga.program.to_string(),
                        gb.program.to_string(),
                        "{} run {run}",
                        strat.short()
                    );
                }
                // The RNG streams must stay in lockstep too.
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{}", strat.short());
            }
        }
    }

    #[test]
    fn cached_kernels_are_shared_not_rebuilt() {
        let c = chip();
        let pad = Scratchpad::new(2048, 2048);
        let art = StressArtifacts::for_strategy(
            &c,
            &StressStrategy::Systematic(SystematicParams::from_paper(&c)),
            pad,
            40,
        );
        let a = art.make(256, &mut rng());
        let b = art.make(256, &mut rng());
        assert!(
            Arc::ptr_eq(&a.groups[0].program, &b.groups[0].program),
            "systematic kernel must be compiled once and shared"
        );
    }

    #[test]
    fn with_locations_reuses_the_pinned_kernel() {
        let pad = Scratchpad::new(2048, 2048);
        let seq: AccessSeq = "st ld".parse().unwrap();
        let base = StressArtifacts::pinned(pad, &seq, &[0], 40);
        let moved = base.with_locations(&[96]);
        let a = base.make(128, &mut rng());
        let b = moved.make(128, &mut rng());
        assert!(Arc::ptr_eq(&a.groups[0].program, &b.groups[0].program));
        assert_eq!(b.init, vec![(pad.table_base, pad.base + 96)]);
        // ...and matches a directly pinned build.
        let direct = StressArtifacts::pinned(pad, &seq, &[96], 40).make(128, &mut rng());
        assert_eq!(b.init, direct.init);
        assert_eq!(b.groups[0].blocks, direct.groups[0].blocks);
    }

    #[test]
    #[should_panic(expected = "location count")]
    fn with_locations_rejects_spread_change() {
        let pad = Scratchpad::new(2048, 2048);
        let seq: AccessSeq = "st".parse().unwrap();
        let _ = StressArtifacts::pinned(pad, &seq, &[0], 40).with_locations(&[0, 64]);
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(StressStrategy::None.short(), "no-str");
        assert_eq!(StressStrategy::Random.short(), "rand-str");
        assert_eq!(StressStrategy::CacheSized.short(), "cache-str");
        let p = SystematicParams::from_paper(&chip());
        assert_eq!(StressStrategy::Systematic(p).short(), "sys-str");
        assert_eq!(StressStrategy::L1.short(), "l1-str");
    }
}
