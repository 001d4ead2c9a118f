//! Static analysis glue for applications: pick representative threads
//! from an [`AppSpec`]'s launch geometry and run the
//! scoped-communication analyzer per phase.
//!
//! Litmus instances are analyzed exactly (one model per test thread,
//! see [`wmm_analysis::analyze_litmus`]); applications launch hundreds
//! of threads, so we model a bounded set of *representatives* — the
//! corner threads of the id space (first/last block, first/second/
//! middle/last thread) — which covers every role selection the
//! kernels in this repository perform (`tid == 0`, `global_tid`
//! striding, warp-0 leaders, last-thread reducers). The result is a
//! conservative report over the modeled threads, not a whole-launch
//! proof; the dynamic campaign remains the ground truth.

use crate::app::{AppSpec, FenceSite};
use wmm_analysis::{analyze_program, AnalysisInput, ProgramAnalysis, ThreadRep, Verdict};
use wmm_sim::ir::FenceLevel;

/// Representative threads for a `blocks × tpb` launch: the corner
/// cases of the id space, deduplicated.
pub fn representatives(blocks: u32, tpb: u32) -> Vec<ThreadRep> {
    let mut out: Vec<ThreadRep> = Vec::new();
    let bids = [0, blocks.saturating_sub(1)];
    let tids = [0, 1, tpb / 2, tpb / 2 + 1, tpb.saturating_sub(1)];
    for &bid in &bids {
        for &tid in &tids {
            if tid < tpb {
                let r = ThreadRep { bid, tid };
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
    }
    out
}

/// The per-phase analyses of one application spec.
#[derive(Debug, Clone)]
pub struct SpecAnalysis {
    /// One report per phase, in phase order.
    pub phases: Vec<ProgramAnalysis>,
}

impl SpecAnalysis {
    /// Quiet certificate: no phase warns.
    pub fn quiet(&self) -> bool {
        self.phases.iter().all(ProgramAnalysis::quiet)
    }

    /// The verdict for a phase-qualified fence site.
    pub fn verdict_of(&self, site: FenceSite) -> Option<Verdict> {
        self.phases.get(site.0).and_then(|a| a.verdict_of(site.1))
    }

    /// The analyzer-chosen initial fence level for a site: `Required`
    /// keeps its level, `DemotableToBlock` starts at `Device` (the
    /// demotion is *tried*, not assumed), and a `RemovalCandidate`
    /// starts at the cheapest rung admissible for its space.
    pub fn initial_level(&self, site: FenceSite) -> FenceLevel {
        let Some(phase) = self.phases.get(site.0) else {
            return FenceLevel::Device;
        };
        let shared = phase
            .sites
            .iter()
            .find(|s| s.index == site.1)
            .map(|s| s.space == wmm_sim::ir::Space::Shared)
            .unwrap_or(false);
        match self.verdict_of(site) {
            Some(Verdict::Required(l)) => l,
            Some(Verdict::DemotableToBlock) => FenceLevel::Device,
            Some(Verdict::RemovalCandidate) | None => {
                if shared {
                    FenceLevel::Block
                } else {
                    FenceLevel::Device
                }
            }
        }
    }
}

/// Analyze every phase of `spec` under representative threads.
pub fn analyze_spec(spec: &AppSpec) -> SpecAnalysis {
    let phases = spec
        .phases
        .iter()
        .map(|phase| {
            let input = AnalysisInput {
                program: &phase.program,
                reps: representatives(phase.blocks, phase.threads_per_block),
                block_dim: phase.threads_per_block,
                grid_dim: phase.blocks,
            };
            analyze_program(&input, None)
        })
        .collect();
    SpecAnalysis { phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representatives_cover_corners_without_duplicates() {
        let reps = representatives(4, 32);
        assert!(reps.contains(&ThreadRep { bid: 0, tid: 0 }));
        assert!(reps.contains(&ThreadRep { bid: 3, tid: 31 }));
        assert!(reps.contains(&ThreadRep { bid: 0, tid: 16 }));
        let mut dedup = reps.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), reps.len());
        // Degenerate launches collapse cleanly.
        let tiny = representatives(1, 1);
        assert_eq!(tiny, vec![ThreadRep { bid: 0, tid: 0 }]);
    }
}
