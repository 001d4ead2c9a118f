//! # wmm-litmus — the weak-memory litmus runtime for the simulated GPU
//!
//! Generic litmus *instances* — a kernel, a memory layout, a set of
//! [observers](Observer) and the SC-reachable outcome set that defines
//! the weak predicate — plus the single-execution machinery
//! ([`run_instance`]) and the deterministic [`parallel`] layer that the
//! unified campaign facade in `wmm-core` (`wmm_core::campaign`) drives
//! to run them repeatedly and histogram the outcomes.
//!
//! Instances are *constructed* elsewhere: the `wmm-gen` crate enumerates
//! the classic communication-cycle shapes (MP, LB, SB, IRIW, …),
//! parameterised by the distance `d` between communication locations the
//! way Sec. 3 of the paper requires, and derives each instance's
//! `allowed` set with an exhaustive sequential-consistency oracle. This
//! crate deliberately contains no shape catalogue and no hardcoded weak
//! predicates — an outcome is weak exactly when it is absent from the
//! instance's SC set.

pub mod outcome;
pub mod parallel;
pub mod runner;

pub use outcome::{Histogram, LitmusOutcome};
pub use runner::{run_instance, StressParts};

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use wmm_sim::exec::{KernelGroup, LaunchSpec, Role, RunResult};
use wmm_sim::ir::Program;

/// Observer slots reserved after `result_base` (bounds the number of
/// reads a generated test may observe; the sync counter lives past them).
pub const MAX_OBSERVERS: u32 = 8;

/// Where the test threads of an instance sit relative to each other —
/// the paper's *scope* axis: weak behaviours depend on whether the
/// communicating threads share a block (and hence can communicate
/// through `Space::Shared`) or live in distinct blocks and communicate
/// through global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Placement {
    /// Every test thread is lane 0 of its own block — the classic
    /// inter-block layout; all communication is through global memory.
    InterBlock,
    /// All test threads share one block (test thread `t` is lane 0 of
    /// warp `t`), so the instance may communicate through the block's
    /// shared memory.
    IntraBlock,
}

impl Placement {
    /// The column label used by suite output (`"inter"` / `"intra"`).
    pub fn short(&self) -> &'static str {
        match self {
            Placement::InterBlock => "inter",
            Placement::IntraBlock => "intra",
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short())
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            _ if s.eq_ignore_ascii_case("inter") => Ok(Placement::InterBlock),
            _ if s.eq_ignore_ascii_case("intra") => Ok(Placement::IntraBlock),
            other => Err(format!("unknown placement {other:?} (inter|intra)")),
        }
    }
}

/// Where one observed value of an outcome vector comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Observer {
    /// The value stored by the test's `k`-th read (in thread-major
    /// program order), written by the kernel to `result_base + k`.
    Reg(u32),
    /// The final memory value of communication location `k` (read from
    /// the drained memory image at [`LitmusLayout::loc_addr`]). Used by
    /// write-only shapes (2+2W, CoWW) and mixed shapes (S, R) whose
    /// outcome depends on which write to a location lands last.
    FinalMem(u32),
}

impl Observer {
    /// A short label for table and histogram output: `r{k}` for register
    /// observers, `m{k}` for final-memory observers.
    pub fn label(&self) -> String {
        match self {
            Observer::Reg(k) => format!("r{k}"),
            Observer::FinalMem(k) => format!("m{k}"),
        }
    }
}

/// Memory layout of a litmus instance.
///
/// Communication location `k` sits at `comm_base + k·max(d, 1)` — so at
/// `distance = 0` the locations are adjacent words (same line on every
/// chip), and the distance between consecutive locations is `d` words
/// otherwise, exactly the parameterisation the paper's plots sweep. The
/// observed read values are written to `result_base..result_base + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitmusLayout {
    /// Address of the first communication location (keep it line-aligned
    /// so "distance below the patch size" means "same line", as in the
    /// paper's plots).
    pub comm_base: u32,
    /// Distance `d` in words between consecutive communication locations.
    pub distance: u32,
    /// Where observed read values are stored after the test.
    pub result_base: u32,
    /// Total words of global memory in the launch (must cover the
    /// scratchpad any stressing blocks target).
    pub global_words: u32,
}

impl LitmusLayout {
    /// A standard layout: communication at word 0, results at word 1024,
    /// and `global_words` words of memory overall.
    pub fn standard(distance: u32, global_words: u32) -> Self {
        LitmusLayout {
            comm_base: 0,
            distance,
            result_base: 1024,
            global_words,
        }
    }

    /// Address of communication location `k`.
    pub fn loc_addr(&self, k: u32) -> u32 {
        self.comm_base + k * self.distance.max(1)
    }

    /// Address of the start-alignment counter the test threads
    /// rendezvous on before racing, past the observer slots.
    pub fn sync_addr(&self) -> u32 {
        self.result_base + MAX_OBSERVERS
    }
}

/// A ready-to-run litmus test: program, layout, launch skeleton,
/// observers, and the SC-reachable outcome set its weak predicate is
/// derived from.
#[derive(Debug, Clone)]
pub struct LitmusInstance {
    /// The test's name (e.g. `"MP"`, `"IRIW"`), used in diagnostics.
    pub name: String,
    /// The memory layout.
    pub layout: LitmusLayout,
    /// The kernel (thread layout per [`LitmusInstance::placement`]).
    pub program: Arc<Program>,
    /// Number of test threads.
    pub threads: u32,
    /// Number of communication locations the kernel touches.
    pub locations: u32,
    /// Whether the test threads occupy distinct blocks or share one.
    pub placement: Placement,
    /// Words of per-block shared memory the launch must provide (0 for
    /// instances that only communicate through global memory).
    pub shared_words: u32,
    /// Where each entry of the outcome vector is observed.
    pub observers: Vec<Observer>,
    /// The set of outcome vectors reachable under sequential
    /// consistency. An observed outcome is *weak* iff it is not in this
    /// set — the predicate is derived, never hardcoded.
    pub allowed: Arc<BTreeSet<Vec<u32>>>,
}

impl LitmusInstance {
    /// Assemble an instance from parts — among them the thread placement
    /// and the per-block shared-memory budget scoped instances need —
    /// checking layout invariants.
    ///
    /// # Panics
    ///
    /// Panics if any of the `locations` communication locations reaches
    /// the result region, memory is too small, an observer references a
    /// location outside `locations`, or there are more register
    /// observers than [`MAX_OBSERVERS`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_placement(
        name: impl Into<String>,
        layout: LitmusLayout,
        program: Program,
        threads: u32,
        locations: u32,
        observers: Vec<Observer>,
        allowed: BTreeSet<Vec<u32>>,
        placement: Placement,
        shared_words: u32,
    ) -> Self {
        assert!(threads >= 1, "a litmus test needs at least one thread");
        assert!(
            locations >= 1,
            "a litmus test touches at least one location"
        );
        assert!(
            layout.loc_addr(locations - 1) < layout.result_base,
            "communication locations must sit below the result region"
        );
        for o in &observers {
            match o {
                Observer::Reg(k) => {
                    assert!(*k < MAX_OBSERVERS, "observer register {k} out of range")
                }
                Observer::FinalMem(k) => {
                    assert!(*k < locations, "observed location {k} out of range")
                }
            }
        }
        assert!(
            layout.global_words > layout.sync_addr(),
            "global memory too small for layout"
        );
        LitmusInstance {
            name: name.into(),
            layout,
            program: Arc::new(program),
            threads,
            locations,
            placement,
            shared_words,
            observers,
            allowed: Arc::new(allowed),
        }
    }

    /// Read this instance's outcome vector back from a finished run:
    /// register observers from the result region, final-memory
    /// observers from the drained memory image.
    pub fn observe(&self, result: &RunResult) -> Vec<u32> {
        self.observers
            .iter()
            .map(|o| match o {
                Observer::Reg(k) => result.word(self.layout.result_base + k),
                Observer::FinalMem(k) => result.word(self.layout.loc_addr(*k)),
            })
            .collect()
    }

    /// Is this outcome vector weak, i.e. unreachable under SC?
    pub fn is_weak(&self, obs: &[u32]) -> bool {
        !self.allowed.contains(obs)
    }

    /// A copy of this instance whose kernel's idle lanes hammer a
    /// `words`-word shared scratchpad for `iters` iterations — the
    /// intra-block analogue of launching global stressing blocks. Shared
    /// memory is unreachable from other blocks, so shared-space stress
    /// must ride inside the test's own block: the emitted intra-block
    /// kernels activate only lane 0 of each warp, and this derivation
    /// (via [`wmm_sim::ir::transform::with_lane_shared_stress`]) turns
    /// the remaining 31 lanes per warp into stressing threads. The
    /// scratchpad starts past the instance's own shared locations, so
    /// outcomes can shift only through contention, never through data
    /// interference.
    ///
    /// # Panics
    ///
    /// Panics on an inter-block instance: its non-zero lanes idle in
    /// *separate* blocks, whose shared traffic cannot pressure anything
    /// the test observes.
    pub fn with_shared_stress(&self, words: u32, iters: u32) -> LitmusInstance {
        assert_eq!(
            self.placement,
            Placement::IntraBlock,
            "shared-space stress requires an intra-block instance"
        );
        let program = wmm_sim::ir::transform::with_lane_shared_stress(
            &self.program,
            self.shared_words,
            words,
            iters,
        );
        LitmusInstance {
            program: Arc::new(program),
            shared_words: self.shared_words + words.max(1),
            ..self.clone()
        }
    }

    /// Labels for the outcome vector entries, observer order.
    pub fn labels(&self) -> Vec<String> {
        self.observers.iter().map(Observer::label).collect()
    }

    /// Render a histogram with this instance's weak outcomes flagged.
    pub fn display_histogram(&self, h: &Histogram) -> String {
        h.display_flagged(&self.labels(), |obs| self.is_weak(obs))
    }

    /// The launch spec for this instance plus any stressing groups and
    /// the memory initialisation they require (e.g. a stress-location
    /// table). Under [`Placement::InterBlock`] the test launches as
    /// `threads` blocks of one warp each with lane 0 active (the paper's
    /// layout — all communication inter-block, through global memory);
    /// under [`Placement::IntraBlock`] it launches as one block of
    /// `threads` warps, test thread `t` being lane 0 of warp `t`, so the
    /// threads may also communicate through the block's shared memory.
    pub fn launch(
        &self,
        stress: Vec<KernelGroup>,
        init: Vec<(u32, wmm_sim::Word)>,
        randomize_ids: bool,
    ) -> LaunchSpec {
        let (blocks, threads_per_block) = match self.placement {
            Placement::InterBlock => (self.threads, 32),
            Placement::IntraBlock => (1, self.threads * 32),
        };
        let mut groups = vec![KernelGroup {
            program: Arc::clone(&self.program),
            blocks,
            threads_per_block,
            role: Role::App,
        }];
        groups.extend(stress);
        LaunchSpec {
            groups,
            global_words: self.layout.global_words,
            shared_words: self.shared_words,
            init_image: Vec::new(),
            init,
            max_turns: 400_000,
            randomize_ids,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A hand-assembled MP instance for this crate's unit tests (the
    //! real construction path lives in `wmm-gen`; duplicating one tiny
    //! kernel here keeps the crate graph acyclic).

    use super::*;
    use wmm_sim::ir::builder::KernelBuilder;

    /// Build MP under `layout` with its SC set written out longhand.
    pub fn mp_instance(layout: LitmusLayout) -> LitmusInstance {
        let mut b = KernelBuilder::new("litmus-MP-test");
        let tid = b.tid();
        let zero = b.const_(0);
        let is_lane0 = b.eq(tid, zero);
        b.if_(is_lane0, |b| {
            let sync = b.const_(layout.sync_addr());
            let one = b.const_(1);
            let two = b.const_(2);
            let _ = b.atomic_add_global(sync, one);
            b.while_(
                |b| {
                    let seen = b.load_global(sync);
                    b.ne(seen, two)
                },
                |_| {},
            );
            let bid = b.bid();
            let zero = b.const_(0);
            let is_t0 = b.eq(bid, zero);
            let x = b.const_(layout.loc_addr(0));
            let y = b.const_(layout.loc_addr(1));
            let one = b.const_(1);
            let res0 = b.const_(layout.result_base);
            let res1 = b.const_(layout.result_base + 1);
            b.if_else(
                is_t0,
                |b| {
                    b.store_global(x, one);
                    b.store_global(y, one);
                },
                |b| {
                    let r0 = b.load_global(y);
                    let r1 = b.load_global(x);
                    b.store_global(res0, r0);
                    b.store_global(res1, r1);
                },
            );
        });
        let program = b.finish().expect("test kernel is valid");
        let allowed: BTreeSet<Vec<u32>> =
            [vec![0, 0], vec![0, 1], vec![1, 1]].into_iter().collect();
        LitmusInstance::with_placement(
            "MP",
            layout,
            program,
            2,
            2,
            vec![Observer::Reg(0), Observer::Reg(1)],
            allowed,
            Placement::InterBlock,
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_predicate_is_set_complement() {
        let inst = testutil::mp_instance(LitmusLayout::standard(64, 4096));
        assert!(inst.is_weak(&[1, 0]));
        assert!(!inst.is_weak(&[1, 1]));
        assert!(!inst.is_weak(&[0, 0]));
        assert!(!inst.is_weak(&[0, 1]));
        // Garbage values are not SC-reachable either.
        assert!(inst.is_weak(&[2, 2]));
    }

    #[test]
    fn layout_distance_zero_is_adjacent() {
        let l = LitmusLayout::standard(0, 4096);
        assert_eq!(l.loc_addr(1), 1);
        assert_eq!(l.loc_addr(2), 2);
        let l = LitmusLayout::standard(64, 4096);
        assert_eq!(l.loc_addr(1), 64);
        assert_eq!(l.loc_addr(2), 128);
    }

    #[test]
    fn sync_counter_sits_past_observer_slots() {
        let l = LitmusLayout::standard(32, 4096);
        assert_eq!(l.sync_addr(), l.result_base + MAX_OBSERVERS);
    }

    #[test]
    fn observer_labels() {
        assert_eq!(Observer::Reg(0).label(), "r0");
        assert_eq!(Observer::FinalMem(1).label(), "m1");
    }

    #[test]
    fn placement_parses_and_displays() {
        assert_eq!("inter".parse::<Placement>().unwrap(), Placement::InterBlock);
        assert_eq!("INTRA".parse::<Placement>().unwrap(), Placement::IntraBlock);
        assert!("warp".parse::<Placement>().is_err());
        assert_eq!(Placement::IntraBlock.to_string(), "intra");
    }

    #[test]
    fn launch_geometry_follows_placement() {
        let inst = testutil::mp_instance(LitmusLayout::standard(64, 4096));
        assert_eq!(inst.placement, Placement::InterBlock);
        let spec = inst.launch(Vec::new(), Vec::new(), false);
        assert_eq!(spec.groups[0].blocks, 2);
        assert_eq!(spec.groups[0].threads_per_block, 32);
        assert_eq!(spec.shared_words, 0);

        let mut intra = inst.clone();
        intra.placement = Placement::IntraBlock;
        intra.shared_words = 128;
        let spec = intra.launch(Vec::new(), Vec::new(), false);
        assert_eq!(spec.groups[0].blocks, 1);
        assert_eq!(spec.groups[0].threads_per_block, 64);
        assert_eq!(spec.shared_words, 128);
    }

    #[test]
    #[should_panic(expected = "global memory too small")]
    fn undersized_memory_rejected() {
        let l = LitmusLayout {
            comm_base: 0,
            distance: 2,
            result_base: 1024,
            global_words: 1030,
        };
        let _ = testutil::mp_instance(l);
    }
}
