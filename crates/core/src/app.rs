//! Application specifications and the fencing transformations over them.
//!
//! A GPU application in this framework is a sequence of kernel *phases*
//! (most case studies have one; `ls-bh` has three) over one global memory
//! image, plus a functional post-condition. The testing environment runs
//! the phases in order, carrying memory across phases, with stressing
//! blocks and thread randomisation injected per phase.
//!
//! The paper's three fencing strategies are program transformations over
//! an [`AppSpec`]:
//!
//! * [`AppSpec::strip`] — remove all fences (how the `-nf` variants were
//!   manufactured, Sec. 4.1);
//! * [`AppSpec::with_leveled_fences`] — insert a fence at a chosen level
//!   (`block`/`device`) after each of a chosen subset of memory accesses
//!   (`emp fences`, the output of the hardening search);
//! * [`AppSpec::with_all_fences`] — a device fence after every access
//!   (`cons fences`, Sec. 6).

use wmm_sim::ir::{transform, FenceLevel, Program};
use wmm_sim::Word;

/// One kernel phase: a program plus its launch geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// The kernel.
    pub program: Program,
    /// Blocks in the grid.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Words of shared memory per block.
    pub shared_words: u32,
}

/// A complete application: phases, memory, and run limits.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Short name, e.g. `"cbe-dot"`.
    pub name: String,
    /// Kernel phases, run in order over the same global memory.
    pub phases: Vec<Phase>,
    /// Words of global memory the application itself uses. The harness
    /// appends the stressing scratchpad after this.
    pub global_words: u32,
    /// Initial memory contents.
    pub init: Vec<(u32, Word)>,
    /// Per-phase scheduler-turn budget (the 30 s timeout analogue).
    pub max_turns_per_phase: u64,
}

/// A fence site within an application: `(phase index, instruction index)`
/// in the *fence-free* form of the program.
pub type FenceSite = (usize, usize);

impl AppSpec {
    /// Total fences currently present across all phases.
    pub fn fence_count(&self) -> usize {
        self.phases.iter().map(|p| p.program.fence_count()).sum()
    }

    /// Remove every fence (the `-nf` manufacturing step).
    pub fn strip(&self) -> AppSpec {
        let mut out = self.clone();
        for p in &mut out.phases {
            p.program = transform::strip_fences(&p.program);
        }
        out
    }

    /// All candidate fence sites of the fence-free form: one after every
    /// memory access (global *and* shared), across phases.
    ///
    /// # Panics
    ///
    /// Panics if this spec still contains fences — sites are only
    /// meaningful on the stripped form (call [`AppSpec::strip`] first).
    pub fn fence_sites(&self) -> Vec<FenceSite> {
        assert_eq!(
            self.fence_count(),
            0,
            "fence sites are defined on the fence-free program"
        );
        let mut out = Vec::new();
        for (pi, p) in self.phases.iter().enumerate() {
            for idx in transform::fence_sites(&p.program) {
                out.push((pi, idx));
            }
        }
        out
    }

    /// Insert a fence of the chosen level after each listed site. The
    /// hardening search places cheap block fences this way where the
    /// communication is provably intra-block.
    ///
    /// # Panics
    ///
    /// Panics if this spec still contains fences, or a site is out of
    /// range.
    pub fn with_leveled_fences(&self, sites: &[(FenceSite, FenceLevel)]) -> AppSpec {
        assert_eq!(
            self.fence_count(),
            0,
            "fences are inserted into the fence-free program"
        );
        let mut out = self.clone();
        for (pi, p) in out.phases.iter_mut().enumerate() {
            let local: Vec<(usize, FenceLevel)> = sites
                .iter()
                .filter(|((sp, _), _)| *sp == pi)
                .map(|&((_, idx), level)| (idx, level))
                .collect();
            if !local.is_empty() {
                p.program = transform::with_leveled_fences(&p.program, &local);
            }
        }
        out
    }

    /// The conservative strategy: a fence after every access.
    pub fn with_all_fences(&self) -> AppSpec {
        let stripped = if self.fence_count() > 0 {
            self.strip()
        } else {
            self.clone()
        };
        let sites: Vec<(FenceSite, FenceLevel)> = stripped
            .fence_sites()
            .into_iter()
            .map(|site| (site, FenceLevel::Device))
            .collect();
        stripped.with_leveled_fences(&sites)
    }
}

/// An application under test: a spec plus its functional post-condition
/// (Tab. 4's third column). Implemented by every case study in
/// `wmm-apps`.
pub trait Application: Sync {
    /// The paper's short name (e.g. `"cbe-dot"`): the spec's name.
    fn name(&self) -> &str {
        &self.spec().name
    }

    /// The application as shipped (the original variants of `sdk-red`,
    /// `cub-scan` and `ls-bh` contain fences; the rest are fence-free).
    fn spec(&self) -> &AppSpec;

    /// Check the post-condition against the final memory image.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation for an erroneous run.
    fn check(&self, memory: &[Word]) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::ir::builder::KernelBuilder;

    fn two_phase_spec() -> AppSpec {
        let mut b = KernelBuilder::new("p0");
        let a = b.const_(0);
        let v = b.const_(1);
        b.store_global(a, v);
        b.fence_device();
        b.store_global(a, v);
        let p0 = b.finish().unwrap();

        let mut b = KernelBuilder::new("p1");
        let a = b.const_(1);
        let v = b.load_global(a);
        b.store_global(a, v);
        let p1 = b.finish().unwrap();

        AppSpec {
            name: "t".into(),
            phases: vec![
                Phase {
                    program: p0,
                    blocks: 1,
                    threads_per_block: 32,
                    shared_words: 0,
                },
                Phase {
                    program: p1,
                    blocks: 2,
                    threads_per_block: 32,
                    shared_words: 0,
                },
            ],
            global_words: 64,
            init: vec![],
            max_turns_per_phase: 100_000,
        }
    }

    #[test]
    fn strip_removes_all_fences() {
        let s = two_phase_spec();
        assert_eq!(s.fence_count(), 1);
        let stripped = s.strip();
        assert_eq!(stripped.fence_count(), 0);
    }

    #[test]
    fn sites_span_phases() {
        let s = two_phase_spec().strip();
        let sites = s.fence_sites();
        // Phase 0 has two stores, phase 1 a load and a store.
        assert_eq!(sites.len(), 4);
        assert!(sites.iter().any(|&(p, _)| p == 0));
        assert!(sites.iter().any(|&(p, _)| p == 1));
    }

    #[test]
    fn with_leveled_fences_inserts_subset() {
        let s = two_phase_spec().strip();
        let sites = s.fence_sites();
        let f = s.with_leveled_fences(&[
            (sites[0], FenceLevel::Device),
            (sites[1], FenceLevel::Block),
        ]);
        assert_eq!(f.fence_count(), 2);
    }

    #[test]
    fn with_all_fences_covers_every_site() {
        let s = two_phase_spec();
        let all = s.with_all_fences();
        assert_eq!(all.fence_count(), 4);
        // Idempotent in count: stripping and refencing yields the same.
        assert_eq!(all.strip().with_all_fences().fence_count(), 4);
    }

    #[test]
    #[should_panic(expected = "fence-free")]
    fn sites_on_fenced_spec_panic() {
        let _ = two_phase_spec().fence_sites();
    }
}
