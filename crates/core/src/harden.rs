//! Empirical fence insertion — Algorithm 1 (Sec. 5).
//!
//! One search, two starting sets. The search starts from a fence after
//! every memory access and repeatedly removes fences — first halving the
//! set (*binary reduction*), then one at a time (*linear reduction*) —
//! using the testing environment to check, empirically, whether each
//! removal introduces errors. It converges to a set of fences that is
//! *empirically stable* (no errors over a long campaign) and minimal in
//! the sense that removing any single fence exposed errors during
//! reduction. If the final stability check fails, the whole reduction
//! restarts with a doubled per-check iteration count, exactly as in
//! Alg. 1. Every tested candidate feeds a Pareto front over (residual
//! errors, total fence cost).
//!
//! * [`empirical_fence_insertion`] is the paper's Alg. 1: every site
//!   starts at device level.
//! * [`empirical_fence_insertion_scoped`] seeds the search with the
//!   static scoped-communication analyzer (`wmm-analysis`): each site
//!   starts at its verdict's level, and before any removal a demotion
//!   pass tries the cheap `fence_block()` rung at every site the
//!   analyzer proves intra-block.

use crate::analyze::analyze_spec;
use crate::app::{Application, FenceSite};
use crate::env::{AppHarness, Environment};
use wmm_analysis::{fence_cost, Verdict};
use wmm_sim::chip::Chip;
use wmm_sim::ir::FenceLevel;

/// Configuration of empirical fence insertion.
#[derive(Debug, Clone)]
pub struct HardenConfig {
    /// Initial per-check iteration count `I` (the paper uses 32).
    pub initial_iters: u32,
    /// Executions of the final empirical-stability check (the paper's
    /// "repeatedly executed for one hour").
    pub stable_runs: u32,
    /// Give up after this many doubling rounds.
    pub max_rounds: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Worker threads (0 ⇒ all cores).
    pub parallelism: usize,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            initial_iters: 32,
            stable_runs: 300,
            max_rounds: 4,
            base_seed: 0xface,
            parallelism: 0,
        }
    }
}

/// A fence site paired with the level to place there.
pub type LeveledFenceSite = (FenceSite, FenceLevel);

/// Total relative cost of a leveled fence set (`fence_block` is priced
/// cheaper than a device fence, see [`wmm_analysis::fence_cost`]).
pub fn leveled_set_cost(fences: &[LeveledFenceSite]) -> u64 {
    fences.iter().map(|&(_, l)| fence_cost(l)).sum()
}

/// One candidate fence set the search actually tested.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The leveled fence set.
    pub fences: Vec<LeveledFenceSite>,
    /// Errors observed while checking it.
    pub errors: u32,
    /// Total fence cost of the set.
    pub cost: u64,
}

/// The outcome of empirical fence insertion.
#[derive(Debug, Clone)]
pub struct HardenResult {
    /// The initial fence set: one per memory access, at its starting
    /// level.
    pub initial: Vec<LeveledFenceSite>,
    /// The surviving (empirically required) fence set with levels.
    pub fences: Vec<LeveledFenceSite>,
    /// Whether the final set passed the empirical stability check.
    pub converged: bool,
    /// Doubling rounds used.
    pub rounds: u32,
    /// Total application executions spent.
    pub executions: u64,
    /// The Pareto front over (errors, cost) of every candidate set the
    /// search tested, via [`crate::tuning::pareto::pareto_min_front`].
    pub pareto: Vec<Candidate>,
    /// Wall-clock time spent.
    pub elapsed: std::time::Duration,
}

impl HardenResult {
    /// Total fence cost of the surviving set.
    pub fn fence_cost(&self) -> u64 {
        leveled_set_cost(&self.fences)
    }

    /// Cost of the same surviving sites fenced at device level — the
    /// baseline the two-rung hierarchy is measured against.
    pub fn device_baseline_cost(&self) -> u64 {
        self.fences.len() as u64 * fence_cost(FenceLevel::Device)
    }

    /// Demotions that stuck: surviving block fences at sites that
    /// started at device level.
    pub fn demotions(&self) -> usize {
        self.fences
            .iter()
            .filter(|&&(site, level)| {
                level == FenceLevel::Block && self.initial.contains(&(site, FenceLevel::Device))
            })
            .count()
    }
}

/// Internal driver: owns the counters shared by the reduction passes.
struct Reducer<'a> {
    chip: &'a Chip,
    app: &'a dyn Application,
    env: Environment,
    cfg: &'a HardenConfig,
    demotable: &'a [FenceSite],
    executions: u64,
    candidates: Vec<Candidate>,
}

impl<'a> Reducer<'a> {
    /// `CheckApplication(A, F, I)`: run `A + F` for `iters` executions;
    /// true iff no errors are observed. Every check is recorded as a
    /// candidate, and the `n`-th check runs at seed `base_seed · 31 + n`.
    fn check(&mut self, fences: &[LeveledFenceSite], iters: u32) -> bool {
        let spec = self.app.spec().with_leveled_fences(fences);
        let harness = AppHarness::with_spec(self.chip, self.app, spec);
        let seed = self
            .cfg
            .base_seed
            .wrapping_mul(31)
            .wrapping_add(self.candidates.len() as u64 + 1);
        let result = harness.campaign(&self.env, iters, seed, self.cfg.parallelism);
        self.executions += u64::from(result.runs);
        self.candidates.push(Candidate {
            fences: fences.to_vec(),
            errors: result.errors,
            cost: leveled_set_cost(fences),
        });
        !result.any_error()
    }

    /// Try every analyzer-sanctioned demotion (demotable sites currently
    /// fenced at device level) before any removal.
    fn demotion_pass(
        &mut self,
        mut fences: Vec<LeveledFenceSite>,
        iters: u32,
    ) -> Vec<LeveledFenceSite> {
        for i in 0..fences.len() {
            let (site, level) = fences[i];
            if level != FenceLevel::Device || !self.demotable.contains(&site) {
                continue;
            }
            let mut candidate = fences.clone();
            candidate[i].1 = FenceLevel::Block;
            if self.check(&candidate, iters) {
                fences = candidate;
            }
        }
        fences
    }

    /// `BinaryReduction(A, F, I)`: repeatedly try to discard half the
    /// remaining fences.
    fn binary_reduction(
        &mut self,
        mut fences: Vec<LeveledFenceSite>,
        iters: u32,
    ) -> Vec<LeveledFenceSite> {
        while fences.len() > 1 {
            let mid = fences.len() / 2;
            // SplitFences: fences are kept sorted by program location;
            // F1 is the first half, F2 the second.
            let without_first = fences[mid..].to_vec();
            if self.check(&without_first, iters) {
                fences = without_first;
                continue;
            }
            let without_second = fences[..mid].to_vec();
            if self.check(&without_second, iters) {
                fences = without_second;
                continue;
            }
            return fences;
        }
        fences
    }

    /// `LinearReduction(A, F, I)`: try to remove fences one at a time.
    fn linear_reduction(
        &mut self,
        mut kept: Vec<LeveledFenceSite>,
        iters: u32,
    ) -> Vec<LeveledFenceSite> {
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if self.check(&candidate, iters) {
                kept = candidate; // fence removed; do not advance
            } else {
                i += 1;
            }
        }
        kept
    }
}

/// Alg. 1 from `initial`, testing under `sys-str+`: each round demotes
/// what it can among the `demotable` sites, reduces, and ends in the
/// stability check; a failed check doubles the per-check iterations.
fn insert_fences(
    chip: &Chip,
    app: &dyn Application,
    cfg: &HardenConfig,
    initial: Vec<LeveledFenceSite>,
    demotable: &[FenceSite],
) -> HardenResult {
    let start = std::time::Instant::now();
    let mut reducer = Reducer {
        chip,
        app,
        env: Environment::sys_str_plus(chip),
        cfg,
        demotable,
        executions: 0,
        candidates: Vec::new(),
    };
    let mut iters = cfg.initial_iters;
    let mut rounds = 0;
    let (fences, converged) = loop {
        rounds += 1;
        let fd = reducer.demotion_pass(initial.clone(), iters);
        let fb = reducer.binary_reduction(fd, iters);
        let fl = reducer.linear_reduction(fb, iters);
        // EmpiricallyStable(A, F): the long final check.
        if reducer.check(&fl, cfg.stable_runs) {
            break (fl, true);
        }
        if rounds >= cfg.max_rounds {
            break (fl, false);
        }
        iters *= 2; // Alg. 1, line 5
    };
    let points: Vec<[u64; 2]> = reducer
        .candidates
        .iter()
        .map(|c| [u64::from(c.errors), c.cost])
        .collect();
    let pareto = crate::tuning::pareto::pareto_min_front(&points)
        .into_iter()
        .map(|i| reducer.candidates[i].clone())
        .collect();
    HardenResult {
        initial,
        fences,
        converged,
        rounds,
        executions: reducer.executions,
        pareto,
        elapsed: start.elapsed(),
    }
}

/// Empirical fence insertion (Alg. 1) for `app` on `chip`, testing under
/// `sys-str+`, from a device fence after every memory access. The
/// application must be fence-free (strip it first for the shipped
/// `sdk-red`/`cub-scan`/`ls-bh`).
///
/// # Panics
///
/// Panics if `app`'s spec still contains fences.
pub fn empirical_fence_insertion(
    chip: &Chip,
    app: &dyn Application,
    cfg: &HardenConfig,
) -> HardenResult {
    let initial = app
        .spec()
        .fence_sites()
        .into_iter()
        .map(|site| (site, FenceLevel::Device))
        .collect();
    insert_fences(chip, app, cfg, initial, &[])
}

/// Analyzer-seeded scoped fence insertion: Alg. 1 started from the
/// static scoped-communication analyzer's verdicts.
///
/// The initial set covers every memory access — shared included — at
/// its verdict's level: `Required` sites keep their proven level,
/// `DemotableToBlock` sites start at device (the demotion is tried
/// empirically, not assumed), and `RemovalCandidate` sites start at the
/// cheapest rung admissible for their space. Each round's demotion pass
/// tries device → block at the `DemotableToBlock` sites before the
/// removal reductions.
///
/// # Panics
///
/// Panics if `app`'s spec still contains fences.
pub fn empirical_fence_insertion_scoped(
    chip: &Chip,
    app: &dyn Application,
    cfg: &HardenConfig,
) -> HardenResult {
    let sites = app.spec().fence_sites();
    let analysis = analyze_spec(app.spec());
    let initial = sites
        .iter()
        .map(|&site| (site, analysis.initial_level(site)))
        .collect();
    let demotable: Vec<FenceSite> = sites
        .into_iter()
        .filter(|&site| analysis.verdict_of(site) == Some(Verdict::DemotableToBlock))
        .collect();
    insert_fences(chip, app, cfg, initial, &demotable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppSpec;
    use crate::env::tests::lock_counter;
    use wmm_sim::Word;

    #[test]
    fn insertion_finds_small_stable_set() {
        let chip = Chip::by_short("Titan").unwrap();
        let app = lock_counter();
        let cfg = HardenConfig {
            initial_iters: 24,
            stable_runs: 60,
            max_rounds: 3,
            base_seed: 5,
            parallelism: 0,
        };
        let r = empirical_fence_insertion(&chip, &app, &cfg);
        assert!(r.initial.len() >= 4);
        assert!(
            r.fences.len() < r.initial.len(),
            "reduction removed nothing: {r:?}"
        );
        // Pinned absolutely: the fence between the critical-section
        // store and the unlock, found in one round.
        assert_eq!(r.fences, [((0, 15), FenceLevel::Device)], "{r:?}");
        assert!(r.converged, "{r:?}");
        assert_eq!((r.rounds, r.executions), (1, 156), "{r:?}");
        // The surviving set must keep the application stable.
        let spec = app.spec().with_leveled_fences(&r.fences);
        let h = AppHarness::with_spec(&chip, &app, spec);
        let check = h.campaign(&Environment::sys_str_plus(&chip), 60, 99, 0);
        assert_eq!(check.errors, 0, "{check:?}");
    }

    #[test]
    fn scoped_insertion_reduces_the_lock_counter_too() {
        // The lock counter is all-global: the scoped search must behave
        // like Alg. 1 there — no block fences, but the same stable
        // reduction — while exercising the verdict-seeded initial set
        // and the Pareto bookkeeping.
        let chip = Chip::by_short("Titan").unwrap();
        let app = lock_counter();
        let cfg = HardenConfig {
            initial_iters: 24,
            stable_runs: 60,
            max_rounds: 3,
            base_seed: 5,
            parallelism: 0,
        };
        let r = empirical_fence_insertion_scoped(&chip, &app, &cfg);
        assert!(r.converged, "{r:?}");
        assert!(r.fences.len() < r.initial.len());
        assert!(
            r.fences.iter().all(|&(_, l)| l == FenceLevel::Device),
            "no shared accesses, so no block rung: {:?}",
            r.fences
        );
        assert_eq!(
            r.fence_cost(),
            r.device_baseline_cost(),
            "all-device sets meet the baseline exactly"
        );
        // The front always contains a zero-error candidate (the search
        // only returns converged sets it has checked).
        assert!(r.pareto.iter().any(|c| c.errors == 0), "{:?}", r.pareto);
        // Pinned absolutely: the same set and search as Alg. 1's.
        assert_eq!(r.fences, [((0, 15), FenceLevel::Device)], "{r:?}");
        assert_eq!(r.demotions(), 0, "{r:?}");
        assert_eq!((r.rounds, r.executions), (1, 156), "{r:?}");
        let front: Vec<(u32, u64)> = r.pareto.iter().map(|c| (c.errors, c.cost)).collect();
        assert_eq!(front, [(0, 4), (3, 0), (0, 4)], "{:?}", r.pareto);
    }

    #[test]
    #[should_panic(expected = "fence-free")]
    fn fenced_input_rejected() {
        let chip = Chip::by_short("K20").unwrap();
        let fenced = lock_counter().spec().with_all_fences();
        struct Fenced(AppSpec);
        impl crate::app::Application for Fenced {
            fn name(&self) -> &str {
                "fenced"
            }
            fn spec(&self) -> &AppSpec {
                &self.0
            }
            fn check(&self, _: &[Word]) -> Result<(), String> {
                Ok(())
            }
        }
        let _ = empirical_fence_insertion(&chip, &Fenced(fenced), &HardenConfig::default());
    }
}
