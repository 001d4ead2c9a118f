//! The unified campaign API: one execution path for every
//! repeat-the-experiment loop in the workspace.
//!
//! The paper's core loop — *run a test `C` times under an environment
//! and count bad outcomes* — used to be implemented separately by the
//! litmus runner, the application harness, the generated-suite runner
//! and the tuning sweeps, each with its own config struct and each
//! re-emitting its stressing kernels on every run. This module folds
//! them into one facade:
//!
//! * [`Workload`] — the thing executed per run: build a launch, observe
//!   the result, classify it. Implemented by [`LitmusWorkload`] (any
//!   [`LitmusInstance`]) and by
//!   [`AppHarness`](crate::env::AppHarness) (any
//!   [`Application`](crate::app::Application) variant).
//! * [`CampaignBuilder`] → [`Campaign`] — owns the chip, the stress
//!   artifacts, the execution count, the base seed and the worker
//!   count; executes on the deterministic parallel layer
//!   ([`wmm_litmus::parallel`]) and folds per-run verdicts into the
//!   workload's summary ([`Histogram`] for litmus,
//!   [`CampaignResult`](crate::env::CampaignResult) for applications).
//!
//! Stress artifacts ([`StressArtifacts`]) are built **once per
//! environment** — kernel `Program`s compiled up front, location tables
//! and thread counts instantiated per run from the run's own RNG — so
//! campaigns no longer pay a kernel emission per execution.
//!
//! # Determinism
//!
//! Run `i` derives *all* of its randomness from
//! [`mix_seed`]`(base_seed, i)`: the per-run stress instantiation, the
//! launch seed, everything. Summaries are folded per worker and merged
//! commutatively, so any worker count — including `0` ("all cores") on
//! machines with different core counts — reports bit-identical results.
//! Workers claim run indices dynamically in chunks (see
//! [`wmm_litmus::parallel`]), each reusing one simulator instance.
//!
//! ```
//! use wmm_core::campaign::CampaignBuilder;
//! use wmm_core::env::Environment;
//! use wmm_gen::Shape;
//! use wmm_litmus::LitmusLayout;
//! use wmm_core::stress::Scratchpad;
//! use wmm_sim::chip::Chip;
//!
//! let chip = Chip::by_short("K20").unwrap();
//! let pad = Scratchpad::new(2048, 2048);
//! let inst = Shape::Mp.instance(LitmusLayout::standard(64, pad.required_words()));
//! let hist = CampaignBuilder::new(&chip)
//!     .environment(&Environment::sys_str_plus(&chip), pad, 40)
//!     .count(40)
//!     .base_seed(7)
//!     .build()
//!     .run_litmus(&inst);
//! assert_eq!(hist.total(), 40);
//! ```

use crate::cache::ArtifactKey;
use crate::env::Environment;
use crate::stress::{litmus_stress_threads, StressArtifacts};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wmm_litmus::runner::{mix_seed, run_instance};
use wmm_litmus::{Histogram, LitmusInstance, LitmusOutcome};
use wmm_sim::chip::Chip;
use wmm_sim::exec::Gpu;

/// Per-run context handed to a [`Workload`]: the campaign's chip, its
/// prepared stress artifacts and the thread-randomisation toggle.
pub struct RunCtx<'a> {
    /// The chip the campaign runs on.
    pub chip: &'a Chip,
    /// Stress artifacts shared by every run of the campaign.
    pub stress: &'a StressArtifacts,
    /// Whether thread ids are randomised (the environment's `+`/`-`).
    pub randomize_ids: bool,
}

/// One unit of repeatable work: build a launch under an environment,
/// observe the result, classify it.
///
/// Implementations must be deterministic in `(self, ctx, rng)` — every
/// run draws all of its randomness from the `rng` it is handed (seeded
/// by the campaign from `(base_seed, index)` alone) — and `fold`/`merge`
/// must be commutative so shard order cannot influence the summary.
pub trait Workload: Sync {
    /// The classification of one run.
    type Verdict: Send;
    /// The campaign-level aggregate of verdicts.
    type Summary: Send;

    /// A fresh, empty summary.
    fn summary(&self) -> Self::Summary;

    /// Execute one run on a reusable simulator.
    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> Self::Verdict;

    /// Fold one verdict into a summary.
    fn fold(&self, into: &mut Self::Summary, verdict: Self::Verdict);

    /// Merge a worker's shard into the aggregate (commutative).
    fn merge(&self, into: &mut Self::Summary, shard: Self::Summary);
}

/// A [`LitmusInstance`] as a campaign workload: each run launches the
/// instance alongside freshly instantiated stressing blocks sized per
/// Sec. 3.2 ([`litmus_stress_threads`]) and records the observed outcome
/// vector into a [`Histogram`].
pub struct LitmusWorkload<'a>(pub &'a LitmusInstance);

impl Workload for LitmusWorkload<'_> {
    type Verdict = LitmusOutcome;
    type Summary = Histogram;

    fn summary(&self) -> Histogram {
        Histogram::new()
    }

    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> LitmusOutcome {
        let stress = if ctx.stress.is_native() {
            // Native campaigns draw nothing before the launch seed.
            (Vec::new(), Vec::new())
        } else {
            let threads = litmus_stress_threads(ctx.chip, rng);
            let s = ctx.stress.make(threads, rng);
            (s.groups, s.init)
        };
        let seed = rng.gen();
        run_instance(gpu, self.0, stress, ctx.randomize_ids, seed)
    }

    fn fold(&self, into: &mut Histogram, verdict: LitmusOutcome) {
        into.record(verdict);
    }

    fn merge(&self, into: &mut Histogram, shard: Histogram) {
        into.merge(&shard);
    }
}

/// 64-bit FNV-1a, the workspace's stable digest for campaign summaries
/// and soak reports: tiny, dependency-free, and — unlike `DefaultHasher`
/// — pinned, so digests written into committed JSON stay comparable
/// across toolchains and runs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold a byte stream into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A type-erased campaign summary: what a job-queue engine hands back
/// when the jobs it drains mix litmus campaigns (summarised by a
/// [`Histogram`]) and application campaigns (summarised by a
/// [`CampaignResult`](crate::env::CampaignResult)). [`Workload`] keeps
/// its associated `Summary` type for the strongly-typed one-shot paths;
/// this enum is the boundary type of the server's job results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryValue {
    /// A litmus campaign's outcome histogram.
    Litmus(Histogram),
    /// An application campaign's verdict counts.
    App(crate::env::CampaignResult),
}

impl SummaryValue {
    /// The litmus histogram, if this summary is one.
    pub fn as_litmus(&self) -> Option<&Histogram> {
        match self {
            SummaryValue::Litmus(h) => Some(h),
            SummaryValue::App(_) => None,
        }
    }

    /// The application campaign result, if this summary is one.
    pub fn as_app(&self) -> Option<&crate::env::CampaignResult> {
        match self {
            SummaryValue::Litmus(_) => None,
            SummaryValue::App(r) => Some(r),
        }
    }

    /// A stable 64-bit digest of the summary's contents ([`Fnv64`] over
    /// the histogram's sorted outcome vectors, or the campaign result's
    /// counters). Equal summaries digest equal on every platform, so
    /// soak reports can compare runs by digest alone.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv64::new();
        match self {
            SummaryValue::Litmus(h) => {
                f.write(b"litmus");
                f.write_u64(h.total());
                f.write_u64(h.weak());
                for (obs, n) in h.iter() {
                    f.write_u64(obs.len() as u64);
                    for &v in obs {
                        f.write_u64(u64::from(v));
                    }
                    f.write_u64(n);
                }
            }
            SummaryValue::App(r) => {
                f.write(b"app");
                for v in [
                    r.runs,
                    r.errors,
                    r.postcondition_failures,
                    r.timeouts,
                    r.faults,
                ] {
                    f.write_u64(u64::from(v));
                }
            }
        }
        f.finish()
    }
}

/// Builder for a [`Campaign`]: chip, environment (as prepared stress
/// artifacts plus the randomisation toggle), execution count, base seed
/// and parallelism.
#[derive(Clone)]
pub struct CampaignBuilder<'a> {
    chip: &'a Chip,
    stress: Arc<StressArtifacts>,
    randomize_ids: bool,
    count: u32,
    base_seed: u64,
    parallelism: usize,
}

impl<'a> CampaignBuilder<'a> {
    /// A native campaign on `chip`: no stress, no randomisation,
    /// 100 executions, seed 0, all cores.
    pub fn new(chip: &'a Chip) -> Self {
        CampaignBuilder {
            chip,
            stress: Arc::new(StressArtifacts::none()),
            randomize_ids: false,
            count: 100,
            base_seed: 0,
            parallelism: 0,
        }
    }

    /// Configure from an [`Environment`]: builds the strategy's stress
    /// artifacts once for the given scratchpad and iteration count
    /// ([`ArtifactKey::build`]), and takes the environment's
    /// randomisation toggle and (if any) its intra-block shared-space
    /// stress.
    pub fn environment(
        self,
        env: &Environment,
        pad: crate::stress::Scratchpad,
        iters: u32,
    ) -> Self {
        let stress = ArtifactKey::new(self.chip, env, pad, iters).build();
        self.stress(stress).randomize_ids(env.randomize)
    }

    /// Use pre-built stress artifacts (e.g. pinned tuning stress), or
    /// share an [`ArtifactCache`](crate::cache::ArtifactCache) entry by
    /// handing over its `Arc`.
    pub fn stress(mut self, artifacts: impl Into<Arc<StressArtifacts>>) -> Self {
        self.stress = artifacts.into();
        self
    }

    /// Toggle thread-id randomisation (the environment's `+` suffix).
    pub fn randomize_ids(mut self, on: bool) -> Self {
        self.randomize_ids = on;
        self
    }

    /// Number of executions (the paper's `C`).
    pub fn count(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// Seed from which each run's randomness is derived.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Worker threads (0 ⇒ all available cores). Results are
    /// bit-identical for every value.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Finalise into a runnable [`Campaign`].
    pub fn build(self) -> Campaign<'a> {
        Campaign {
            chip: self.chip,
            stress: self.stress,
            randomize_ids: self.randomize_ids,
            count: self.count,
            base_seed: self.base_seed,
            parallelism: self.parallelism,
        }
    }
}

/// A configured campaign, ready to execute any [`Workload`]. Construct
/// through [`CampaignBuilder`]; a campaign can be reused for several
/// workloads (its artifacts are built once).
pub struct Campaign<'a> {
    chip: &'a Chip,
    stress: Arc<StressArtifacts>,
    randomize_ids: bool,
    count: u32,
    base_seed: u64,
    parallelism: usize,
}

impl<'a> Campaign<'a> {
    /// The chip this campaign runs on.
    pub fn chip(&self) -> &Chip {
        self.chip
    }

    /// The configured execution count.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Run `i` of `workload` on `gpu`, folded into `acc` after
    /// `observe` sees its verdict. Every run draws all of its randomness
    /// from `mix_seed(base_seed, i)` alone, so no run depends on which
    /// worker or simulator executes it.
    fn step<W: Workload>(
        &self,
        workload: &W,
        gpu: &mut Gpu,
        acc: &mut W::Summary,
        i: u64,
        observe: impl FnOnce(&W::Verdict),
    ) {
        let ctx = RunCtx {
            chip: self.chip,
            stress: &self.stress,
            randomize_ids: self.randomize_ids,
        };
        let mut rng = SmallRng::seed_from_u64(mix_seed(self.base_seed, i));
        let verdict = workload.run_once(gpu, &ctx, &mut rng);
        observe(&verdict);
        workload.fold(acc, verdict);
    }

    /// Execute the workload `count` times and return the folded summary.
    pub fn run<W: Workload>(&self, workload: &W) -> W::Summary {
        let jobs = self.count as usize;
        let workers = wmm_litmus::parallel::resolve_workers(self.parallelism, jobs);
        let shards = wmm_litmus::parallel::parallel_fold(
            workers,
            jobs,
            || (Gpu::new(self.chip.clone()), workload.summary()),
            |(gpu, acc), i| self.step(workload, gpu, acc, i as u64, |_| {}),
        );
        let mut out = workload.summary();
        for (_, shard) in shards {
            workload.merge(&mut out, shard);
        }
        out
    }

    /// The instance this campaign actually executes for `inst`: when the
    /// campaign's artifacts carry intra-block shared-space stress and
    /// the instance is intra-block, the stress lanes are injected into
    /// the kernel once per campaign (shared memory is per-block, so the
    /// stress must ride inside the test's own block); inter-block
    /// instances ignore the shared axis. Callers constructing a
    /// [`LitmusWorkload`] by hand for [`Campaign::run`] should route
    /// through this (or use [`Campaign::run_litmus`], which does) so the
    /// shared-stress axis is never silently dropped.
    pub fn litmus_instance(&self, inst: &LitmusInstance) -> Option<LitmusInstance> {
        match (self.stress.shared_stress(), inst.placement) {
            (Some(s), wmm_litmus::Placement::IntraBlock) => {
                Some(inst.with_shared_stress(s.words, s.iters))
            }
            _ => None,
        }
    }

    /// Convenience: campaign a litmus instance into its outcome
    /// histogram, applying any intra-block shared-space stress the
    /// campaign's artifacts carry (see [`Campaign::litmus_instance`]).
    pub fn run_litmus(&self, inst: &LitmusInstance) -> Histogram {
        self.on_litmus(inst, |workload| self.run(workload))
    }

    /// [`Campaign::run_litmus`], replayed **sequentially** with a
    /// per-run observer: `observe(i, &outcome)` fires for run `i` in
    /// index order before the outcome is folded — the hook `repro
    /// trace` builds its event log on. Each run is the same step as in
    /// [`Campaign::run`], so the returned histogram is bit-identical to
    /// [`Campaign::run_litmus`] at any worker count; only the
    /// observation order is fixed here.
    pub fn run_litmus_observed(
        &self,
        inst: &LitmusInstance,
        mut observe: impl FnMut(u64, &LitmusOutcome),
    ) -> Histogram {
        self.on_litmus(inst, |workload| {
            let mut gpu = Gpu::new(self.chip.clone());
            let mut hist = workload.summary();
            for i in 0..u64::from(self.count) {
                self.step(workload, &mut gpu, &mut hist, i, |out| observe(i, out));
            }
            hist
        })
    }

    /// `go` over the litmus workload this campaign executes for `inst`
    /// (see [`Campaign::litmus_instance`]).
    fn on_litmus<R>(&self, inst: &LitmusInstance, go: impl FnOnce(&LitmusWorkload) -> R) -> R {
        let stressed = self.litmus_instance(inst);
        go(&LitmusWorkload(stressed.as_ref().unwrap_or(inst)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stress::Scratchpad;
    use wmm_gen::Shape;
    use wmm_litmus::LitmusLayout;

    fn strong_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    #[test]
    fn observed_replay_matches_the_parallel_campaign() {
        let chip = Chip::by_short("Titan").unwrap();
        let inst = Shape::Mp.instance(LitmusLayout::standard(64, 4096));
        let c = CampaignBuilder::new(&chip)
            .count(40)
            .base_seed(0xAB)
            .parallelism(4)
            .build();
        let parallel = c.run_litmus(&inst);
        let mut seen = Vec::new();
        let observed = c.run_litmus_observed(&inst, |i, out| seen.push((i, out.clone())));
        assert_eq!(
            observed, parallel,
            "sequential replay must be bit-identical"
        );
        assert_eq!(seen.len(), 40);
        for (k, (i, out)) in seen.iter().enumerate() {
            assert_eq!(k as u64, *i, "observer fires in index order");
            if out.weak {
                assert!(
                    observed.provenance(&out.obs).is_some(),
                    "weak outcome without a provenance entry"
                );
            }
        }
    }

    #[test]
    fn no_weak_outcomes_under_sequential_consistency() {
        let chip = strong_chip();
        let inst = Shape::Mp.instance(LitmusLayout::standard(64, 4096));
        let h = CampaignBuilder::new(&chip)
            .count(200)
            .base_seed(7)
            .build()
            .run_litmus(&inst);
        assert_eq!(h.weak(), 0, "MP: {h}");
        assert_eq!(h.total(), 200);
    }

    #[test]
    fn outcomes_are_interleavings_under_sc() {
        // Under SC, MP can produce (0,0), (1,1), (0,1) but never (1,0).
        let chip = strong_chip();
        let inst = Shape::Mp.instance(LitmusLayout::standard(64, 4096));
        let h = CampaignBuilder::new(&chip)
            .count(300)
            .base_seed(3)
            .build()
            .run_litmus(&inst);
        assert_eq!(h.count(&[1, 0]), 0);
        // The scheduler's randomness should produce at least two
        // distinct interleaving outcomes across 300 runs.
        assert!(h.iter().count() >= 2, "{h}");
    }

    #[test]
    fn scoped_and_rmw_workloads_run_through_the_facade() {
        // A scoped (intra-block, shared-memory) instance and an RMW
        // cycle both campaign through the unified path; on the
        // SC-forced chip neither may go weak, and the RMW instance's
        // outcomes must all respect atomicity (CoAdd: olds {0,1}, final
        // 2).
        let chip = strong_chip();
        for shape in [Shape::MpShared, Shape::CoAdd] {
            let inst = shape.instance(LitmusLayout::standard(64, 4096));
            let h = CampaignBuilder::new(&chip)
                .count(60)
                .base_seed(13)
                .build()
                .run_litmus(&inst);
            assert_eq!(h.weak(), 0, "{shape}: {h}");
            assert_eq!(h.total(), 60);
        }
    }

    #[test]
    fn campaigns_are_deterministic_across_worker_counts() {
        let chip = Chip::by_short("Titan").unwrap();
        let inst = Shape::Mp.instance(LitmusLayout::standard(32, 4096));
        let run = |workers| {
            CampaignBuilder::new(&chip)
                .count(64)
                .base_seed(11)
                .parallelism(workers)
                .build()
                .run_litmus(&inst)
        };
        let a = run(4);
        assert_eq!(a, run(4));
        assert_eq!(a, run(1));
    }

    #[test]
    fn stressed_campaign_reuses_artifacts_and_stays_deterministic() {
        let chip = Chip::by_short("K20").unwrap();
        let pad = Scratchpad::new(2048, 2048);
        let inst = Shape::Mp.instance(LitmusLayout::standard(64, pad.required_words()));
        let env = Environment::sys_str_plus(&chip);
        let run = |workers| {
            CampaignBuilder::new(&chip)
                .environment(&env, pad, 40)
                .count(48)
                .base_seed(5)
                .parallelism(workers)
                .build()
                .run_litmus(&inst)
        };
        let a = run(1);
        assert_eq!(a.total(), 48);
        assert!(
            a.weak() > 0,
            "sys-str+ should provoke weak MP outcomes: {a}"
        );
        assert_eq!(a, run(2));
        assert_eq!(a, run(8));
    }
}
