//! Analysis results: delay warnings, per-site verdicts, quiet
//! certificates.

use std::collections::BTreeMap;
use std::fmt;

use crate::delay::DelayEdge;
use wmm_sim::ir::{FenceLevel, Program, Space};

/// One warning: an unfenced delay pair, aggregated over all analysis
/// threads that exhibit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayWarning {
    /// First access of the pair (the natural fence site).
    pub from: usize,
    /// Second access of the pair.
    pub to: usize,
    /// Space of the first access.
    pub from_space: Space,
    /// Space of the second access.
    pub to_space: Space,
    /// Minimal fence level that orders the pair (strongest over all
    /// threads exhibiting it).
    pub level: FenceLevel,
    /// Analysis threads that exhibit the unfenced pair.
    pub threads: Vec<usize>,
}

impl fmt::Display for DelayWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay {}#{} -> {}#{}: unfenced critical cycle, minimal fence = {} (threads {:?})",
            self.from_space.name(),
            self.from,
            self.to_space.name(),
            self.to,
            self.level.name(),
            self.threads,
        )
    }
}

/// Static verdict for one fence site (a memory-access instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Some delay pair starting here needs the given level.
    Required(FenceLevel),
    /// Delay pairs start here, but all of them are intra-block
    /// shared-space: a block fence suffices.
    DemotableToBlock,
    /// No delay pair starts here; a fence after this access orders
    /// nothing the memory model can break.
    RemovalCandidate,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Required(l) => write!(f, "Required({l:?})"),
            Verdict::DemotableToBlock => write!(f, "DemotableToBlock"),
            Verdict::RemovalCandidate => write!(f, "RemovalCandidate"),
        }
    }
}

/// The verdict for one memory-access instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Instruction index of the access (a `fence_sites` site).
    pub index: usize,
    /// The access's memory space.
    pub space: Space,
    /// The static verdict.
    pub verdict: Verdict,
}

impl fmt::Display for SiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site #{} ({}): {}",
            self.index,
            self.space.name(),
            self.verdict
        )
    }
}

/// The full analysis of one program under a launch geometry.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Unfenced delay pairs, one warning per distinct (from, to).
    pub warnings: Vec<DelayWarning>,
    /// Verdicts, one per memory-access instruction, in program order.
    pub sites: Vec<SiteReport>,
    /// Distinct delay pairs already ordered by fences/barriers in every
    /// thread that exhibits them — the evidence behind a quiet
    /// certificate on a fenced program.
    pub ordered_edges: usize,
}

impl ProgramAnalysis {
    /// Quiet certificate: no unfenced critical cycle anywhere.
    pub fn quiet(&self) -> bool {
        self.warnings.is_empty()
    }

    /// The strongest fence level any warning demands, if any warn.
    pub fn max_warning_level(&self) -> Option<FenceLevel> {
        if self.warnings.is_empty() {
            None
        } else if self.warnings.iter().any(|w| w.level == FenceLevel::Device) {
            Some(FenceLevel::Device)
        } else {
            Some(FenceLevel::Block)
        }
    }

    /// The verdict for the access at instruction `inst`, if it is one.
    pub fn verdict_of(&self, inst: usize) -> Option<Verdict> {
        self.sites
            .iter()
            .find(|s| s.index == inst)
            .map(|s| s.verdict)
    }
}

/// Fold raw delay edges into warnings, ordered-edge counts, and
/// per-site verdicts for `p`.
pub fn summarize(p: &Program, edges: &[DelayEdge]) -> ProgramAnalysis {
    // Group by (from, to). A pair warns when any thread exhibits it
    // unfenced; it counts as ordered when every exhibiting thread has
    // it fenced.
    let mut groups: BTreeMap<(usize, usize), (FenceLevel, Vec<usize>, bool)> = BTreeMap::new();
    for e in edges {
        let g = groups
            .entry((e.from, e.to))
            .or_insert((FenceLevel::Block, Vec::new(), true));
        if e.level == FenceLevel::Device {
            g.0 = FenceLevel::Device;
        }
        if !e.fenced {
            g.2 = false;
            if !g.1.contains(&e.thread) {
                g.1.push(e.thread);
            }
        }
    }
    let mut warnings = Vec::new();
    let mut ordered_edges = 0;
    for ((from, to), (level, threads, all_fenced)) in &groups {
        if *all_fenced {
            ordered_edges += 1;
        } else {
            warnings.push(DelayWarning {
                from: *from,
                to: *to,
                from_space: p.insts[*from]
                    .space()
                    .expect("delay endpoints are accesses"),
                to_space: p.insts[*to].space().expect("delay endpoints are accesses"),
                level: *level,
                threads: threads.clone(),
            });
        }
    }

    // Per-site verdicts consider all structural delay pairs (fenced or
    // not): the verdict says what a fence after the site must order,
    // independent of whether the program already carries one.
    let sites = p
        .memory_access_indices()
        .into_iter()
        .map(|i| {
            let mut any = false;
            let mut needs_device = false;
            for e in edges.iter().filter(|e| e.from == i) {
                any = true;
                needs_device |= e.level == FenceLevel::Device;
            }
            let verdict = if !any {
                Verdict::RemovalCandidate
            } else if needs_device {
                Verdict::Required(FenceLevel::Device)
            } else {
                Verdict::DemotableToBlock
            };
            SiteReport {
                index: i,
                space: p.insts[i].space().expect("sites are accesses"),
                verdict,
            }
        })
        .collect();

    ProgramAnalysis {
        warnings,
        sites,
        ordered_edges,
    }
}
