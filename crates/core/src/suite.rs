//! The generated-suite campaign runner.
//!
//! Campaigns every generated litmus shape across a grid of chips ×
//! stress strategies × distances through the unified
//! [`Campaign`](crate::campaign::Campaign) facade. A column is a plain
//! [`SuiteStrategy`] value: an [`EnvKind`] plus its iteration count.
//! The stress artifacts of each `(chip, strategy)` column are built
//! **once** and shared, as the cache's `Arc`, by every cell (and every
//! run) in that column.

use crate::cache::ArtifactCache;
use crate::campaign::CampaignBuilder;
use crate::env::{EnvKind, Environment};
use crate::stress::Scratchpad;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_litmus::{Histogram, LitmusLayout, Placement};
use wmm_sim::chip::Chip;
use wmm_sim::ir::{FenceLevel, Space};

/// A suite column: the [`EnvKind`] it runs (its name is the column
/// name; the systematic strategy's parameters are resolved per chip,
/// Tab. 2), its thread-randomisation toggle and its stressing-loop
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteStrategy {
    /// The environment this column runs.
    pub env: EnvKind,
    /// Whether thread ids are randomised (the `+`/`-` suffix).
    pub randomize: bool,
    /// Stressing-loop iterations per stressing thread.
    pub iters: u32,
}

impl From<EnvKind> for SuiteStrategy {
    /// The column for `env` at [`EnvKind::litmus_iters`].
    fn from(env: EnvKind) -> Self {
        SuiteStrategy {
            env,
            randomize: env != EnvKind::Native,
            iters: env.litmus_iters(),
        }
    }
}

impl SuiteStrategy {
    /// The native column: no stressing blocks, no randomisation.
    pub fn native() -> Self {
        EnvKind::Native.into()
    }

    /// The paper's tuned systematic environment, `sys-str+` (Tab. 2
    /// parameters per chip).
    pub fn sys_str_plus(iters: u32) -> Self {
        SuiteStrategy {
            iters,
            ..EnvKind::SysStrPlus.into()
        }
    }

    /// The random-stress baseline with randomisation, `rand-str+`.
    pub fn rand_str_plus(iters: u32) -> Self {
        SuiteStrategy {
            iters,
            ..EnvKind::RandStrPlus.into()
        }
    }

    /// The shared-stress column `shm+sys-str+`: the tuned systematic
    /// global stress plus intra-block shared-space stress. Inter-block
    /// rows behave exactly as under `sys-str+`; intra-block rows gain
    /// shared-scratchpad stressing lanes — the column under which the
    /// scoped shapes go observably weak while their `+fence_block`
    /// twins stay at zero.
    pub fn shared_sys_str_plus(iters: u32) -> Self {
        SuiteStrategy {
            iters,
            ..EnvKind::ShmSysStrPlus.into()
        }
    }

    /// The structural-channel column `l1-str+`: write-only cross-SM
    /// stress feeding incoherent-L1 write pressure (see
    /// [`StressStrategy::L1`](crate::stress::StressStrategy::L1)). The
    /// column under which `CoRR`-style same-address read pairs go
    /// observably weak on Tesla-class (incoherent-L1) chips while their
    /// `+fence` twins and the coherent-L1 chips stay at zero.
    pub fn l1_str_plus(iters: u32) -> Self {
        SuiteStrategy {
            iters,
            ..EnvKind::L1StrPlus.into()
        }
    }

    /// The [`Environment`] this column realises on `chip` — the
    /// structural key under which its artifacts are shared (see
    /// [`ArtifactCache`]).
    pub fn environment(&self, chip: &Chip) -> Environment {
        self.env.environment(chip)
    }
}

/// The litmus scratchpad: the one stress target of every litmus
/// campaign (the suite's default, every litmus job, `repro trace` and
/// the analyzer's shape targets), so a suite cell, its job and its
/// trace run the same launches whichever chips ride along.
pub fn litmus_pad() -> Scratchpad {
    Scratchpad::new(2048, 6144)
}

/// Suite campaign configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Distances `d` each shape is instantiated at.
    pub distances: Vec<u32>,
    /// Executions per cell (the paper's `C`).
    pub execs: u32,
    /// The scratchpad the strategies stress ([`litmus_pad`] by
    /// default); every launch provides `pad.required_words()` words of
    /// global memory.
    pub pad: Scratchpad,
    /// Base seed; each cell derives its own seed from its coordinates,
    /// so results are independent of cell iteration order.
    pub base_seed: u64,
    /// Worker threads per cell campaign (0 ⇒ all cores). Histograms are
    /// bit-identical for every value (see [`crate::campaign`]).
    pub workers: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            distances: vec![64],
            execs: 32,
            pad: litmus_pad(),
            base_seed: 2016,
            workers: 0,
        }
    }
}

/// The static analyzer's verdict on one suite row's litmus instance,
/// computed once per `(shape, distance)` from the exact per-test-thread
/// models (see [`wmm_analysis::analyze_litmus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticVerdict {
    /// Unfenced delay warnings on the instance's program.
    pub warnings: usize,
    /// The strongest fence level any warning demands (`None` ⇒ quiet).
    pub level: Option<FenceLevel>,
}

impl StaticVerdict {
    /// Quiet certificate: no unfenced critical cycle.
    pub fn quiet(&self) -> bool {
        self.warnings == 0
    }

    /// Compute the verdict for one litmus instance on a specific chip:
    /// on incoherent-L1 chips the analyzer adds the structural
    /// read-read channel, so `CoRR`-style rows warn there while staying
    /// quiet on coherent chips (see
    /// [`wmm_analysis::analyze_litmus_on_chip`]).
    pub fn of_chip(inst: &wmm_litmus::LitmusInstance, chip: &Chip) -> StaticVerdict {
        let a = wmm_analysis::analyze_litmus_on_chip(inst, chip);
        StaticVerdict {
            warnings: a.warnings.len(),
            level: a.max_warning_level(),
        }
    }
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.level {
            None => write!(f, "quiet"),
            Some(level) => write!(f, "warn({})", level.name()),
        }
    }
}

/// One cell of the suite matrix: a shape at a distance, on a chip,
/// under a strategy.
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// The generated shape.
    pub shape: Shape,
    /// The instantiation distance.
    pub distance: u32,
    /// The shape's thread placement (`inter` — one block per thread —
    /// or `intra` — one block, communicating through shared memory).
    pub placement: Placement,
    /// The memory spaces the shape's events exercise (global first), so
    /// downstream tooling can select scoped/mixed rows without parsing
    /// shape names.
    pub spaces: Vec<Space>,
    /// Chip short name.
    pub chip: String,
    /// Strategy name.
    pub strategy: String,
    /// The outcome histogram (weak = outside the derived SC set).
    pub hist: Histogram,
    /// The static analyzer's verdict on this row's instance **on this
    /// row's chip** (incoherent-L1 chips add the structural read-read
    /// channel): quiet, or warning with the strongest fence level the
    /// delay set demands.
    pub static_verdict: StaticVerdict,
}

impl SuiteCell {
    /// Weak outcomes as a fraction of total.
    pub fn weak_rate(&self) -> f64 {
        self.hist.weak_rate()
    }
}

/// The campaign seed of one suite cell: `base_seed` mixed with the
/// cell's coordinates, i.e. the shape's index in the suite's shape list,
/// the distance, the chip's index and the column's index. Chaining one
/// [`mix_seed`] per coordinate cannot collide for any in-range values,
/// unlike a polynomial pack.
pub fn cell_seed(base_seed: u64, shape: usize, distance: u32, chip: usize, column: usize) -> u64 {
    [
        shape as u64,
        u64::from(distance),
        chip as u64,
        column as u64,
    ]
    .into_iter()
    .fold(base_seed, mix_seed)
}

/// Campaign every `shape × distance × chip × strategy` cell and return
/// the matrix in that (row-major) order.
///
/// Stress artifacts are built once per `(chip, strategy)` column and
/// shared across all of that column's cells and runs.
///
/// Deterministic in `(shapes, cfg, chips, strategies)`: each cell's
/// campaign seed is [`cell_seed`], derived from the cell's coordinates
/// alone, and campaigns are worker-count-independent, so the result is
/// bit-identical for every `cfg.workers`.
pub fn run_suite(
    shapes: &[Shape],
    chips: &[Chip],
    strategies: &[SuiteStrategy],
    cfg: &SuiteConfig,
) -> Vec<SuiteCell> {
    run_suite_with_cache(shapes, chips, strategies, cfg, &ArtifactCache::new())
}

/// [`run_suite`] over a caller-supplied [`ArtifactCache`]: each
/// `(chip, strategy)` column's artifacts are looked up per cell and
/// built at most once — by this suite *or by anything else sharing the
/// cache* (the campaign server seeds its soak runs this way). The
/// cache's build counter is the exactly-once-compilation hook the tests
/// assert on; results are identical to [`run_suite`]'s whether a lookup
/// hits or builds.
pub fn run_suite_with_cache(
    shapes: &[Shape],
    chips: &[Chip],
    strategies: &[SuiteStrategy],
    cfg: &SuiteConfig,
    cache: &ArtifactCache,
) -> Vec<SuiteCell> {
    let mut cells = Vec::new();
    for (si, shape) in shapes.iter().enumerate() {
        for &d in &cfg.distances {
            let inst = shape.instance(LitmusLayout::standard(d, cfg.pad.required_words()));
            for (ci, chip) in chips.iter().enumerate() {
                // Per-chip: incoherent-L1 chips grow the delay set.
                let static_verdict = StaticVerdict::of_chip(&inst, chip);
                for (ki, strat) in strategies.iter().enumerate() {
                    let artifacts = cache.get(chip, &strat.environment(chip), cfg.pad, strat.iters);
                    let hist = CampaignBuilder::new(chip)
                        .stress(artifacts)
                        .randomize_ids(strat.randomize)
                        .count(cfg.execs)
                        .base_seed(cell_seed(cfg.base_seed, si, d, ci, ki))
                        .parallelism(cfg.workers)
                        .build()
                        .run_litmus(&inst);
                    cells.push(SuiteCell {
                        shape: *shape,
                        distance: d,
                        placement: shape.placement(),
                        spaces: shape.spaces(),
                        chip: chip.short.to_string(),
                        strategy: strat.env.name().to_string(),
                        hist,
                        static_verdict: static_verdict.clone(),
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strong_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    #[test]
    fn native_suite_on_sc_chip_has_no_weak_outcomes() {
        let cfg = SuiteConfig {
            execs: 12,
            ..Default::default()
        };
        let cells = run_suite(
            &Shape::ALL,
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        assert_eq!(cells.len(), Shape::ALL.len());
        for c in &cells {
            assert_eq!(c.hist.weak(), 0, "{} on SC chip: {}", c.shape, c.hist);
            assert_eq!(c.hist.total(), u64::from(cfg.execs));
        }
    }

    #[test]
    fn suite_is_worker_count_independent() {
        let chips = [Chip::by_short("Titan").unwrap()];
        let shapes = [Shape::Mp, Shape::Iriw, Shape::CoWW];
        let base = SuiteConfig {
            execs: 16,
            ..Default::default()
        };
        let runs: Vec<Vec<SuiteCell>> = [1usize, 2, 8]
            .into_iter()
            .map(|w| {
                let cfg = SuiteConfig {
                    workers: w,
                    ..base.clone()
                };
                run_suite(&shapes, &chips, &[SuiteStrategy::native()], &cfg)
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].len(), other.len());
            for (a, b) in runs[0].iter().zip(other.iter()) {
                assert_eq!(a.hist, b.hist, "{} {}", a.shape, a.strategy);
            }
        }
    }

    #[test]
    fn static_column_matches_the_catalogue() {
        let cfg = SuiteConfig {
            execs: 4,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpFences, Shape::MpShared, Shape::CoRR],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let verdict = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .unwrap()
                .static_verdict
                .clone()
        };
        assert_eq!(verdict(Shape::Mp).level, Some(FenceLevel::Device));
        assert!(verdict(Shape::MpFences).quiet());
        assert_eq!(verdict(Shape::MpShared).level, Some(FenceLevel::Block));
        assert!(verdict(Shape::CoRR).quiet(), "coherence-only shape");
        assert_eq!(verdict(Shape::Mp).to_string(), "warn(device)");
        assert_eq!(verdict(Shape::MpShared).to_string(), "warn(block)");
        assert_eq!(verdict(Shape::MpFences).to_string(), "quiet");
    }

    #[test]
    fn cells_carry_the_shape_placement() {
        let cfg = SuiteConfig {
            execs: 8,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpShared, Shape::MpCas],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let placement_of = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .map(|c| c.placement)
                .unwrap()
        };
        assert_eq!(placement_of(Shape::Mp), Placement::InterBlock);
        assert_eq!(placement_of(Shape::MpShared), Placement::IntraBlock);
        assert_eq!(placement_of(Shape::MpCas), Placement::InterBlock);
    }

    #[test]
    fn suite_compiles_each_column_exactly_once() {
        // The full 5-column × 28-shape matrix on one chip: the cache's
        // build counter must read exactly one compile per column, every
        // other cell a hit.
        let chips = [Chip::by_short("Titan").unwrap()];
        let strategies = [
            SuiteStrategy::native(),
            SuiteStrategy::sys_str_plus(40),
            SuiteStrategy::rand_str_plus(40),
            SuiteStrategy::shared_sys_str_plus(40),
            SuiteStrategy::l1_str_plus(40),
        ];
        let cfg = SuiteConfig {
            execs: 2,
            ..Default::default()
        };
        let cache = ArtifactCache::new();
        let cells = run_suite_with_cache(&Shape::ALL, &chips, &strategies, &cfg, &cache);
        assert_eq!(cells.len(), Shape::ALL.len() * strategies.len());
        let s = cache.stats();
        assert_eq!(
            s.builds as usize,
            strategies.len(),
            "one compile per column"
        );
        assert_eq!(s.entries, strategies.len());
        assert_eq!(s.hits, (cells.len() - strategies.len()) as u64);
    }

    #[test]
    fn warm_cache_does_not_change_suite_results() {
        let chips = [Chip::by_short("K20").unwrap()];
        let shapes = [Shape::Mp, Shape::Sb];
        let strategies = [SuiteStrategy::sys_str_plus(40)];
        let cfg = SuiteConfig {
            execs: 12,
            ..Default::default()
        };
        let cache = ArtifactCache::new();
        let cold = run_suite_with_cache(&shapes, &chips, &strategies, &cfg, &cache);
        let warm = run_suite_with_cache(&shapes, &chips, &strategies, &cfg, &cache);
        assert_eq!(cache.stats().builds, 1, "second pass must be all hits");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.hist, b.hist, "{} {}", a.shape, a.strategy);
        }
    }

    #[test]
    fn strategy_names_carry_the_suffix() {
        assert_eq!(SuiteStrategy::native().env.name(), "no-str-");
        assert_eq!(SuiteStrategy::sys_str_plus(40).env.name(), "sys-str+");
        assert_eq!(SuiteStrategy::rand_str_plus(40).env.name(), "rand-str+");
        assert_eq!(
            SuiteStrategy::shared_sys_str_plus(40).env.name(),
            "shm+sys-str+"
        );
        assert_eq!(SuiteStrategy::l1_str_plus(40).env.name(), "l1-str+");
    }

    #[test]
    fn l1_column_flips_corr_on_incoherent_l1_chips_only() {
        let shapes = [Shape::CoRR, Shape::CoRRFence];
        let chips = [
            Chip::by_short("C2075").unwrap(),
            Chip::by_short("K20").unwrap(),
        ];
        let cfg = SuiteConfig {
            execs: 24,
            ..Default::default()
        };
        let cells = run_suite(&shapes, &chips, &[SuiteStrategy::l1_str_plus(40)], &cfg);
        let cell = |shape, chip: &str| {
            cells
                .iter()
                .find(|c| c.shape == shape && c.chip == chip)
                .unwrap()
        };
        // The structural channel: weak CoRR on the incoherent-L1 Tesla,
        // and the static column warns there (at device level).
        let corr = cell(Shape::CoRR, "C2075");
        assert!(corr.hist.weak() > 0, "CoRR under l1-str+: {}", corr.hist);
        assert_eq!(corr.static_verdict.level, Some(FenceLevel::Device));
        // The device fence refreshes the reader's L1: twin at zero, and
        // certified quiet.
        let twin = cell(Shape::CoRRFence, "C2075");
        assert_eq!(twin.hist.weak(), 0, "{}", twin.hist);
        assert!(twin.static_verdict.quiet());
        // Coherent-L1 chips are blind to the column, dynamically and
        // statically.
        let k20 = cell(Shape::CoRR, "K20");
        assert_eq!(k20.hist.weak(), 0, "{}", k20.hist);
        assert!(k20.static_verdict.quiet());
    }

    #[test]
    fn cells_carry_the_spaces_axis() {
        let cfg = SuiteConfig {
            execs: 4,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpShared, Shape::MpMixed],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let spaces_of = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .map(|c| c.spaces.clone())
                .unwrap()
        };
        assert_eq!(spaces_of(Shape::Mp), vec![Space::Global]);
        assert_eq!(spaces_of(Shape::MpShared), vec![Space::Shared]);
        assert_eq!(
            spaces_of(Shape::MpMixed),
            vec![Space::Global, Space::Shared]
        );
    }

    #[test]
    fn sc_chip_stays_strong_even_under_shared_stress() {
        // Regression for the SC guard: sequentially_consistent() zeroes
        // the shared-space matrix too, so the scoped and mixed rows show
        // zero weak outcomes at intra-block placement even under the
        // shared-stress column that makes them go weak on real chips.
        let shapes: Vec<Shape> = Shape::SCOPED
            .into_iter()
            .chain(Shape::SCOPED_FENCED)
            .chain(Shape::MIXED)
            .collect();
        let cfg = SuiteConfig {
            execs: 16,
            ..Default::default()
        };
        let cells = run_suite(
            &shapes,
            &[strong_chip()],
            &[SuiteStrategy::shared_sys_str_plus(40)],
            &cfg,
        );
        for c in &cells {
            assert_eq!(c.placement, Placement::IntraBlock, "{}", c.shape);
            assert_eq!(c.hist.weak(), 0, "{} on SC chip: {}", c.shape, c.hist);
        }
    }
}
