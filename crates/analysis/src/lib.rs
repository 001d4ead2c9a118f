//! # wmm-analysis — static scoped-communication analyzer
//!
//! A static counterpart to the dynamic litmus campaigns: it abstracts a
//! [`Program`] per thread with a lightweight abstract interpretation
//! ([`absint`]), builds a cross-thread conflict graph from the launch
//! geometry, and runs Shasha–Snir delay-set detection ([`delay`]) to
//! find the program-order pairs a weak memory model may break.
//!
//! Results ([`report`]) come in three forms:
//!
//! * **warnings** — one per unfenced critical cycle, annotated with the
//!   minimal fence level that orders it (`block` when the communication
//!   is provably intra-block shared-space, `device` otherwise);
//! * **verdicts** — per fence site: `Required(Device)`,
//!   `DemotableToBlock`, or `RemovalCandidate`, consumed by the scoped
//!   empirical fence-insertion search in `wmm-core`;
//! * **quiet certificates** — an analysis with zero warnings certifies
//!   that every delay pair is already ordered by a fence or barrier.
//!
//! ## Soundness contract
//!
//! For litmus instances the analysis threads are *exact*: one model per
//! test thread with its concrete `tid`/`bid`, so the conflict graph
//! over-approximates nothing it shouldn't and misses nothing — every
//! weak behavior the dynamic suite can observe corresponds to a
//! warning (`tests/static_dynamic_agreement.rs` enforces this over the
//! whole shape catalogue). The contract is per chip: on chips whose
//! SM-private L1s are incoherent, same-address global load-load pairs
//! can go weak structurally, so given such a chip the entry points
//! ([`analyze_litmus`], [`analyze_program`]) add the L1 read-read
//! channel instead of coherence-exempting those pairs. For
//! applications, callers choose a bounded set of representative
//! threads; the result is a heuristic (still conservative per modeled
//! thread) rather than a proof.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod delay;
pub mod report;

pub use absint::{AbsVal, ThreadAbs, ThreadCtx};
pub use delay::{delay_edges, l1_read_read_edges, DelayEdge, Event, ThreadModel};
pub use report::{summarize, DelayWarning, ProgramAnalysis, SiteReport, Verdict};

use wmm_litmus::{LitmusInstance, Placement};
use wmm_sim::chip::Chip;
use wmm_sim::ir::FenceLevel;
use wmm_sim::Program;

/// One analysis thread's identity within the launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadRep {
    /// Logical block id.
    pub bid: u32,
    /// Logical thread id within the block.
    pub tid: u32,
}

/// A program plus the launch geometry to analyze it under.
#[derive(Debug, Clone)]
pub struct AnalysisInput<'a> {
    /// The kernel.
    pub program: &'a Program,
    /// The threads to model (exact for litmus, representative for
    /// apps).
    pub reps: Vec<ThreadRep>,
    /// Threads per block of the launch.
    pub block_dim: u32,
    /// Blocks of the launch.
    pub grid_dim: u32,
}

fn models_for(input: &AnalysisInput<'_>) -> Vec<ThreadModel> {
    input
        .reps
        .iter()
        .map(|r| {
            ThreadModel::build(
                input.program,
                ThreadCtx {
                    tid: r.tid,
                    bid: r.bid,
                    block_dim: input.block_dim,
                    grid_dim: input.grid_dim,
                },
            )
        })
        .collect()
}

/// Analyze a program under a launch geometry. With no chip, the
/// analysis is chip-independent: the delay set every chip's in-flight
/// reordering can break, with same-address pairs coherence-exempt. On
/// a chip whose SM-private L1s are incoherent (`chip.l1_weak()`), the
/// incoherent-L1 read-read edges ([`l1_read_read_edges`]) join the
/// delay set, so same-address global load-load pairs warn instead; on
/// every other chip the result is the chip-independent one.
pub fn analyze_program(input: &AnalysisInput<'_>, chip: Option<&Chip>) -> ProgramAnalysis {
    let models = models_for(input);
    let mut edges = delay_edges(input.program, &models);
    if chip.is_some_and(Chip::l1_weak) {
        edges.extend(l1_read_read_edges(input.program, &models));
    }
    summarize(input.program, &edges)
}

/// The exact analysis threads for a litmus instance: the lane-0 test
/// threads the emitted kernel gates on, one per litmus thread.
pub fn litmus_reps(placement: Placement, threads: u32) -> (Vec<ThreadRep>, u32, u32) {
    match placement {
        Placement::InterBlock => (
            (0..threads).map(|t| ThreadRep { bid: t, tid: 0 }).collect(),
            32,
            threads,
        ),
        Placement::IntraBlock => (
            (0..threads)
                .map(|t| ThreadRep {
                    bid: 0,
                    tid: 32 * t,
                })
                .collect(),
            32 * threads,
            1,
        ),
    }
}

/// Analyze a litmus instance with exact per-test-thread models,
/// chip-independently or on `chip` (see [`analyze_program`]).
pub fn analyze_litmus(li: &LitmusInstance, chip: Option<&Chip>) -> ProgramAnalysis {
    let (reps, block_dim, grid_dim) = litmus_reps(li.placement, li.threads);
    let input = AnalysisInput {
        program: li.program.as_ref(),
        reps,
        block_dim,
        grid_dim,
    };
    analyze_program(&input, chip)
}

/// Relative runtime cost of one fence at the given level. A device
/// fence drains the window against global traffic; a block fence only
/// synchronises within the block, which every chip table prices far
/// cheaper (`block_fence_stall` vs `fence_stall`).
pub fn fence_cost(level: FenceLevel) -> u64 {
    match level {
        FenceLevel::Block => 1,
        FenceLevel::Device => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_gen::Shape;
    use wmm_litmus::LitmusLayout;
    use wmm_sim::ir::Space;
    use wmm_sim::KernelBuilder;

    fn instance(shape: Shape) -> LitmusInstance {
        shape.instance(LitmusLayout::standard(64, 2048))
    }

    #[test]
    fn mp_warns_at_device_level() {
        let a = analyze_litmus(&instance(Shape::Mp), None);
        assert!(!a.quiet(), "MP communicates weakly through global memory");
        assert_eq!(a.max_warning_level(), Some(FenceLevel::Device));
        // Both the writer pair and the reader pair warn.
        assert!(a.warnings.len() >= 2, "{:?}", a.warnings);
    }

    #[test]
    fn mp_fences_is_certified_quiet() {
        let a = analyze_litmus(&instance(Shape::MpFences), None);
        assert!(a.quiet(), "fenced MP must be quiet: {:?}", a.warnings);
        assert!(a.ordered_edges >= 2, "the fences order the delay pairs");
    }

    #[test]
    fn scoped_mp_is_demotable_to_block() {
        let a = analyze_litmus(&instance(Shape::MpShared), None);
        assert!(!a.quiet());
        assert_eq!(
            a.max_warning_level(),
            Some(FenceLevel::Block),
            "intra-block shared communication needs only block fences: {:?}",
            a.warnings
        );
        assert!(
            a.sites
                .iter()
                .any(|s| s.verdict == Verdict::DemotableToBlock),
            "{:?}",
            a.sites
        );
    }

    #[test]
    fn coherence_shapes_are_quiet() {
        for shape in [Shape::CoRR, Shape::CoWW, Shape::CoAdd, Shape::CoRRShared] {
            let a = analyze_litmus(&instance(shape), None);
            assert!(
                a.quiet(),
                "{shape:?} is same-location only, no delay: {:?}",
                a.warnings
            );
        }
    }

    #[test]
    fn corr_warns_only_on_incoherent_l1_chips() {
        let li = instance(Shape::CoRR);
        // Chip-independently, CoRR stays coherence-exempt...
        assert!(analyze_litmus(&li, None).quiet());
        // ...and on coherent-L1 chips the chip-aware form agrees.
        let k20 = Chip::by_short("K20").unwrap();
        assert!(analyze_litmus(&li, Some(&k20)).quiet());
        // On an incoherent-L1 Tesla the load-load pair joins the delay
        // set, at device level (the fence that refreshes the L1).
        let c2075 = Chip::by_short("C2075").unwrap();
        let a = analyze_litmus(&li, Some(&c2075));
        assert!(!a.quiet(), "stale L1 lines break CoRR on C2075");
        assert_eq!(a.max_warning_level(), Some(FenceLevel::Device));
        // Zeroing the staleness rates removes the channel again.
        assert!(analyze_litmus(&li, Some(&c2075.clone().sequentially_consistent())).quiet());
    }

    #[test]
    fn corr_fence_is_quiet_even_on_incoherent_l1_chips() {
        let c2075 = Chip::by_short("C2075").unwrap();
        let a = analyze_litmus(&instance(Shape::CoRRFence), Some(&c2075));
        assert!(a.quiet(), "{:?}", a.warnings);
        assert!(a.ordered_edges >= 1, "the fence orders the read-read pair");
    }

    #[test]
    fn intra_block_shared_corr_stays_quiet_on_incoherent_l1_chips() {
        // CoRR.shared reads shared memory — no L1 in that path — and an
        // intra-block global pair would share a home SM anyway.
        let c2075 = Chip::by_short("C2075").unwrap();
        let a = analyze_litmus(&instance(Shape::CoRRShared), Some(&c2075));
        assert!(a.quiet(), "{:?}", a.warnings);
    }

    #[test]
    fn rendezvous_sync_never_warns() {
        // Every emitted kernel rendezvouses through an atomic counter;
        // those same-address pairs must not produce spurious warnings.
        let li = instance(Shape::Mp);
        let a = analyze_litmus(&li, None);
        let sync = li.layout.sync_addr();
        let (reps, block_dim, grid_dim) = litmus_reps(li.placement, li.threads);
        let models: Vec<ThreadModel> = reps
            .iter()
            .map(|r| {
                ThreadModel::build(
                    li.program.as_ref(),
                    ThreadCtx {
                        tid: r.tid,
                        bid: r.bid,
                        block_dim,
                        grid_dim,
                    },
                )
            })
            .collect();
        for w in &a.warnings {
            for m in &models {
                for i in [w.from, w.to] {
                    if !m.abs.reachable[i] {
                        continue;
                    }
                    if let Some(addr) = m.abs.addr_at[i].as_ref().and_then(AbsVal::as_singleton) {
                        assert_ne!(addr, sync, "sync access in warning {w}");
                    }
                }
            }
        }
    }

    /// Both warps write then read across the block; a barrier between
    /// the halves orders everything.
    fn cross_warp_kernel(with_barrier: bool) -> wmm_sim::Program {
        let mut b = KernelBuilder::new("xwarp");
        let tid = b.tid();
        let flip = b.const_(32);
        let other = b.bin(wmm_sim::ir::BinOp::Xor, tid, flip);
        let one = b.const_(1);
        b.store_shared(tid, one);
        if with_barrier {
            b.barrier();
        }
        let v = b.load_shared(other);
        b.store_global(tid, v);
        b.finish().unwrap()
    }

    #[test]
    fn barrier_orders_shared_exchange() {
        let mk = |with_barrier| {
            let p = cross_warp_kernel(with_barrier);
            let input = AnalysisInput {
                program: &p,
                reps: vec![ThreadRep { bid: 0, tid: 0 }, ThreadRep { bid: 0, tid: 32 }],
                block_dim: 64,
                grid_dim: 1,
            };
            analyze_program(&input, None)
        };
        let bare = mk(false);
        assert!(!bare.quiet(), "unsynchronised cross-warp exchange warns");
        assert_eq!(bare.max_warning_level(), Some(FenceLevel::Block));
        let fenced = mk(true);
        assert!(fenced.quiet(), "{:?}", fenced.warnings);
        assert!(fenced.ordered_edges >= 1);
    }

    #[test]
    fn inter_block_shared_accesses_do_not_conflict() {
        // The same kernel run across two blocks: shared memory is
        // per-block, so the exchange cannot conflict and stays quiet.
        let p = cross_warp_kernel(false);
        let input = AnalysisInput {
            program: &p,
            reps: vec![ThreadRep { bid: 0, tid: 0 }, ThreadRep { bid: 1, tid: 0 }],
            block_dim: 32,
            grid_dim: 2,
        };
        let a = analyze_program(&input, None);
        let shared_warning = a
            .warnings
            .iter()
            .any(|w| w.from_space == Space::Shared && w.to_space == Space::Shared);
        assert!(!shared_warning, "{:?}", a.warnings);
    }

    #[test]
    fn fence_costs_prefer_block() {
        assert!(fence_cost(FenceLevel::Block) < fence_cost(FenceLevel::Device));
    }
}
