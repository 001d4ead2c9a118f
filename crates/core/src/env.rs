//! Testing environments and the application test harness (Sec. 4).
//!
//! An [`Environment`] pairs a stressing strategy with the thread
//! randomisation toggle; the paper evaluates eight (`{no,sys,rand,cache}-str`
//! × `{+,-}`). [`EnvKind`] names the five the generated suite and the
//! campaign server run, and is the one table from those names to an
//! [`Environment`]. The [`AppHarness`] runs an application repeatedly
//! under an environment — injecting per-run stressing blocks sized per
//! Sec. 4.2 — and counts erroneous runs, applying the paper's
//! *effectiveness* criterion (errors in more than 5% of executions).

use crate::app::{AppSpec, Application};
use crate::cache::ArtifactKey;
use crate::campaign::{CampaignBuilder, RunCtx, Workload};
use crate::stress::{
    app_stress_blocks, Scratchpad, SharedStress, StressArtifacts, StressStrategy, SystematicParams,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;
use wmm_sim::chip::Chip;
use wmm_sim::exec::{Gpu, KernelGroup, LaunchSpec, Role, RunStatus};
use wmm_sim::Word;

/// A testing environment: a stressing strategy plus thread randomisation,
/// plus (for scoped litmus workloads) optional intra-block shared-space
/// stress — the second axis of the scope hierarchy.
///
/// `Eq`/`Hash` are fully structural, so environments can key shared
/// caches (see [`crate::cache::ArtifactCache`]): two environments
/// compare equal exactly when they carry the same strategy parameters,
/// regardless of how they were constructed or what
/// [`Environment::name`] prints (`sys-str+` tuned for the Titan and for
/// the GTX 980 share a name but are *not* equal).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Environment {
    /// The (global-memory) stressing strategy.
    pub stress: StressStrategy,
    /// Whether thread ids are randomised (the `+` suffix, Sec. 3.5).
    pub randomize: bool,
    /// Intra-block shared-space stress: the idle lanes of an intra-block
    /// litmus kernel hammer a shared scratchpad, feeding the per-block
    /// shared contention factor. `None` for all of the paper's Tab. 5
    /// environments (their names are pinned); applies only to
    /// intra-block litmus instances.
    pub shared: Option<SharedStress>,
}

impl Environment {
    /// The paper's name: strategy plus `+`/`-`, e.g. `"sys-str+"`;
    /// shared-stress environments carry a `shm+` prefix.
    pub fn name(&self) -> String {
        let base = format!(
            "{}{}",
            self.stress.short(),
            if self.randomize { "+" } else { "-" }
        );
        if self.shared.is_some() {
            format!("{}{base}", SharedStress::NAME_PREFIX)
        } else {
            base
        }
    }

    /// The most effective environment of Sec. 4.3: tuned systematic
    /// stress with thread randomisation.
    pub fn sys_str_plus(chip: &Chip) -> Environment {
        Environment {
            stress: StressStrategy::Systematic(SystematicParams::from_paper(chip)),
            randomize: true,
            shared: None,
        }
    }

    /// The scoped-suite environment `shm+sys-str+`: the tuned systematic
    /// global stress *plus* intra-block shared-space stress, so both
    /// levels of the hierarchy are under pressure at once.
    pub fn shared_sys_str_plus(chip: &Chip) -> Environment {
        Environment {
            shared: Some(SharedStress::standard()),
            ..Environment::sys_str_plus(chip)
        }
    }

    /// The structural-channel environment `l1-str+`: write-only
    /// cross-SM stress (feeding incoherent-L1 write pressure rather than
    /// in-flight-window contention) with thread randomisation. Not one
    /// of the paper's Tab. 5 columns — [`Environment::all_eight`] stays
    /// the paper's eight — but a suite column of its own, because the
    /// staleness channel it provokes is invisible to every load/store-mix
    /// strategy.
    pub fn l1_str_plus() -> Environment {
        Environment {
            stress: StressStrategy::L1,
            randomize: true,
            shared: None,
        }
    }

    /// Native execution, no randomisation (`no-str-`).
    pub fn native() -> Environment {
        Environment {
            stress: StressStrategy::None,
            randomize: false,
            shared: None,
        }
    }

    /// The eight environments of Tab. 5, in the paper's column order:
    /// `no-str-`, `no-str+`, `sys-str-`, `sys-str+`, `rand-str-`,
    /// `rand-str+`, `cache-str-`, `cache-str+`.
    ///
    /// Exactly eight, by design: extensions beyond the paper (the
    /// `shm+…` scoped environments, the structural
    /// [`Environment::l1_str_plus`]) are separate suite columns and do
    /// not grow this pinned list.
    pub fn all_eight(chip: &Chip) -> Vec<Environment> {
        let sys = StressStrategy::Systematic(SystematicParams::from_paper(chip));
        let mut out = Vec::new();
        for stress in [
            StressStrategy::None,
            sys,
            StressStrategy::Random,
            StressStrategy::CacheSized,
        ] {
            for randomize in [false, true] {
                out.push(Environment {
                    stress: stress.clone(),
                    randomize,
                    shared: None,
                });
            }
        }
        out
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The five environments the generated suite campaigns and a job can
/// request — the four columns of the generated-suite evaluation plus the
/// native baseline. A closed enum (rather than a free-form
/// [`Environment`]) keeps suite columns and job specs textual, hashable
/// and chip-portable: the tuned parameters are resolved per chip by
/// [`EnvKind::environment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// `no-str-`: native execution.
    Native,
    /// `sys-str+`: tuned systematic stress + thread randomisation.
    SysStrPlus,
    /// `rand-str+`: random stress + thread randomisation.
    RandStrPlus,
    /// `shm+sys-str+`: tuned systematic stress + intra-block
    /// shared-space stress.
    ShmSysStrPlus,
    /// `l1-str+`: write-only cross-SM stress (the structural channel).
    L1StrPlus,
}

impl EnvKind {
    /// All five, in the suite's column order.
    pub const ALL: [EnvKind; 5] = [
        EnvKind::Native,
        EnvKind::SysStrPlus,
        EnvKind::RandStrPlus,
        EnvKind::ShmSysStrPlus,
        EnvKind::L1StrPlus,
    ];

    /// The column/environment name (`no-str-`, `sys-str+`, …).
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::Native => "no-str-",
            EnvKind::SysStrPlus => "sys-str+",
            EnvKind::RandStrPlus => "rand-str+",
            EnvKind::ShmSysStrPlus => "shm+sys-str+",
            EnvKind::L1StrPlus => "l1-str+",
        }
    }

    /// Stressing-loop iterations for litmus campaigns (0 for native —
    /// the suite columns' calibration).
    pub fn litmus_iters(self) -> u32 {
        match self {
            EnvKind::Native => 0,
            _ => 40,
        }
    }

    /// Resolve to a concrete [`Environment`] on `chip` (the systematic
    /// strategy's parameters are per-chip, Tab. 2).
    pub fn environment(self, chip: &Chip) -> Environment {
        match self {
            EnvKind::Native => Environment::native(),
            EnvKind::SysStrPlus => Environment::sys_str_plus(chip),
            EnvKind::RandStrPlus => Environment {
                stress: StressStrategy::Random,
                randomize: true,
                shared: None,
            },
            EnvKind::ShmSysStrPlus => Environment::shared_sys_str_plus(chip),
            EnvKind::L1StrPlus => Environment::l1_str_plus(),
        }
    }
}

impl fmt::Display for EnvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl FromStr for EnvKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EnvKind::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = EnvKind::ALL.iter().map(|e| e.name()).collect();
                format!(
                    "unknown environment {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// How one application execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict {
    /// Completed and the post-condition held.
    Pass,
    /// Completed but the post-condition failed (a functional error —
    /// under weak-memory-free execution this indicates a data race bug;
    /// under stress, typically a weak-memory error).
    PostConditionFailed(String),
    /// A phase exceeded its turn budget (the paper's 30 s timeout; weak
    /// behaviours can break termination conditions).
    Timeout,
    /// Barrier divergence was detected.
    Divergence,
    /// An out-of-bounds access was detected.
    Fault(String),
}

impl RunVerdict {
    /// Every non-`Pass` verdict counts as an erroneous run.
    pub fn is_error(&self) -> bool {
        *self != RunVerdict::Pass
    }
}

/// The outcome of one application execution under an environment.
#[derive(Debug, Clone)]
pub struct AppRunOutcome {
    /// The verdict.
    pub verdict: RunVerdict,
    /// Scheduler turns spent in application phases (the kernel-time
    /// analogue used by the cost study).
    pub app_turns: u64,
    /// Simulated kernel runtime, summed over phases, in milliseconds.
    pub runtime_ms: f64,
    /// Estimated energy over phases, if the chip supports power queries.
    pub energy_j: Option<f64>,
}

/// Aggregate results of a testing campaign (the paper's "execute
/// repeatedly for one hour" is a fixed execution budget here).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Executions performed.
    pub runs: u32,
    /// Erroneous executions (any non-pass verdict).
    pub errors: u32,
    /// Of which: post-condition failures.
    pub postcondition_failures: u32,
    /// Of which: timeouts.
    pub timeouts: u32,
    /// Of which: barrier divergences or faults.
    pub faults: u32,
}

impl CampaignResult {
    /// Fraction of erroneous runs.
    pub fn error_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.errors) / f64::from(self.runs)
        }
    }

    /// The paper's effectiveness criterion: errors in more than 5% of
    /// executions.
    pub fn effective(&self) -> bool {
        self.error_rate() > 0.05
    }

    /// Whether any error was observed at all.
    pub fn any_error(&self) -> bool {
        self.errors > 0
    }
}

/// Runs one application variant under testing environments on one chip.
///
/// Construction measures the native kernel duration once and sizes the
/// stressing loop so stress runs roughly 10× as long as the kernel under
/// test (Sec. 4.2).
pub struct AppHarness<'a> {
    chip: &'a Chip,
    app: &'a dyn Application,
    spec: AppSpec,
    pad: Scratchpad,
    stress_iters: u32,
}

impl<'a> AppHarness<'a> {
    /// Harness for the application exactly as shipped.
    pub fn new(chip: &'a Chip, app: &'a dyn Application) -> Self {
        Self::with_spec(chip, app, app.spec().clone())
    }

    /// Harness for a program variant (e.g. a fencing variant produced by
    /// [`AppSpec::with_leveled_fences`]) checked against the same
    /// post-condition.
    pub fn with_spec(chip: &'a Chip, app: &'a dyn Application, spec: AppSpec) -> Self {
        // Scratchpad after the app's memory, line-aligned generously.
        let base = (spec.global_words + 127) / 64 * 64 + 64;
        let words = 2048u32.max(chip.l2_scaled_words);
        let pad = Scratchpad::new(base, words);
        let mut h = AppHarness {
            chip,
            app,
            spec,
            pad,
            stress_iters: 0,
        };
        // One native run to size the stressing loops.
        let native = h.run_once(&Environment::native(), 0);
        let est_warps = 16u64;
        let per_iter = 8u64; // accesses + loop control
        let turns = native.app_turns.max(1);
        h.stress_iters = (10 * turns / (per_iter * est_warps)).clamp(60, 8_000) as u32;
        h
    }

    /// The scratchpad this harness stresses.
    pub fn scratchpad(&self) -> Scratchpad {
        self.pad
    }

    /// The spec under test.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// The calibrated stressing-loop iteration count this harness sizes
    /// its stress kernels to (stress runs roughly 10× the kernel under
    /// test, Sec. 4.2). Exposed so artifact caches can key app
    /// campaigns on exactly the `(pad, iters)` this harness would build.
    pub fn calibrated_iters(&self) -> u32 {
        self.stress_iters.max(60)
    }

    /// Build the stress artifacts for running this application under
    /// `env`: the strategy's kernels compiled once, sized to this
    /// harness's scratchpad and calibrated stressing-loop length.
    pub fn artifacts(&self, env: &Environment) -> StressArtifacts {
        ArtifactKey::new(self.chip, env, self.pad, self.calibrated_iters()).build()
    }

    /// Execute the application once under `env` with a deterministic
    /// seed, running all phases and checking the post-condition.
    ///
    /// One-shot convenience: builds the environment's stress artifacts
    /// for this single run. Campaign loops go through
    /// [`AppHarness::campaign`] (or a [`Campaign`](crate::campaign::Campaign)
    /// directly), which builds them once for all runs.
    pub fn run_once(&self, env: &Environment, seed: u64) -> AppRunOutcome {
        let mut gpu = Gpu::new(self.chip.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        self.run_with(&mut gpu, &self.artifacts(env), env.randomize, &mut rng)
    }

    /// The shared per-run body: execute all phases with stressing blocks
    /// instantiated from the prepared artifacts, checking the
    /// post-condition at the end.
    fn run_with(
        &self,
        gpu: &mut Gpu,
        stress: &StressArtifacts,
        randomize_ids: bool,
        rng: &mut SmallRng,
    ) -> AppRunOutcome {
        let mut image: Vec<Word> = Vec::new();
        let mut app_turns = 0u64;
        let mut runtime_ms = 0.0f64;
        let mut energy_j: Option<f64> = self.chip.supports_power.then_some(0.0);
        let total_app_blocks: u32 = self.spec.phases.iter().map(|p| p.blocks).sum();
        for (pi, phase) in self.spec.phases.iter().enumerate() {
            let stress_threads = app_stress_blocks(total_app_blocks.max(2), rng) * 64;
            let setup = stress.make(stress_threads, rng);
            let mut groups = vec![KernelGroup {
                program: std::sync::Arc::new(phase.program.clone()),
                blocks: phase.blocks,
                threads_per_block: phase.threads_per_block,
                role: Role::App,
            }];
            groups.extend(setup.groups);
            let mut init = setup.init;
            if pi == 0 {
                init.extend(self.spec.init.iter().copied());
            }
            let spec = LaunchSpec {
                groups,
                global_words: self.pad.required_words(),
                shared_words: phase.shared_words,
                init_image: std::mem::take(&mut image),
                init,
                max_turns: self.spec.max_turns_per_phase,
                randomize_ids,
            };
            let result = gpu.run(&spec, rng.gen());
            app_turns += result.app_turns;
            runtime_ms += result.runtime_ms;
            if let (Some(acc), Some(e)) = (energy_j.as_mut(), result.energy_j) {
                *acc += e;
            }
            match result.status {
                RunStatus::Completed => {}
                RunStatus::TimedOut => {
                    return AppRunOutcome {
                        verdict: RunVerdict::Timeout,
                        app_turns,
                        runtime_ms,
                        energy_j,
                    }
                }
                RunStatus::BarrierDivergence => {
                    return AppRunOutcome {
                        verdict: RunVerdict::Divergence,
                        app_turns,
                        runtime_ms,
                        energy_j,
                    }
                }
                RunStatus::OutOfBounds(e) => {
                    return AppRunOutcome {
                        verdict: RunVerdict::Fault(e.to_string()),
                        app_turns,
                        runtime_ms,
                        energy_j,
                    }
                }
            }
            image = result.memory;
        }
        let verdict = match self.app.check(&image) {
            Ok(()) => RunVerdict::Pass,
            Err(msg) => RunVerdict::PostConditionFailed(msg),
        };
        AppRunOutcome {
            verdict,
            app_turns,
            runtime_ms,
            energy_j,
        }
    }

    /// Run a campaign of `runs` executions under `env`, in parallel, and
    /// aggregate the verdicts — a thin shim over the unified
    /// [`Campaign`](crate::campaign::Campaign) facade, with this
    /// harness as the [`Workload`]. The environment's stress artifacts
    /// are built once and shared by all runs.
    ///
    /// Deterministic in `(self, env, base_seed)`: run `i` is seeded by
    /// [`mix_seed`](wmm_litmus::runner::mix_seed)`(base_seed, i)` alone,
    /// so any `parallelism` (`0` = all cores) yields the same
    /// [`CampaignResult`]. Workers pull run indices dynamically from a
    /// shared queue ([`wmm_litmus::parallel`]), so long-running
    /// erroneous executions don't leave the other workers idle.
    pub fn campaign(
        &self,
        env: &Environment,
        runs: u32,
        base_seed: u64,
        parallelism: usize,
    ) -> CampaignResult {
        CampaignBuilder::new(self.chip)
            .stress(self.artifacts(env))
            .randomize_ids(env.randomize)
            .count(runs)
            .base_seed(base_seed)
            .parallelism(parallelism)
            .build()
            .run(self)
    }
}

/// An application harness is a campaign [`Workload`]: each run executes
/// every phase under the campaign's environment and is classified by a
/// [`RunVerdict`], folded into a [`CampaignResult`].
impl Workload for AppHarness<'_> {
    type Verdict = RunVerdict;
    type Summary = CampaignResult;

    fn summary(&self) -> CampaignResult {
        CampaignResult::default()
    }

    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> RunVerdict {
        self.run_with(gpu, ctx.stress, ctx.randomize_ids, rng)
            .verdict
    }

    fn fold(&self, into: &mut CampaignResult, verdict: RunVerdict) {
        into.runs += 1;
        if verdict.is_error() {
            into.errors += 1;
        }
        match verdict {
            RunVerdict::PostConditionFailed(_) => into.postcondition_failures += 1,
            RunVerdict::Timeout => into.timeouts += 1,
            RunVerdict::Divergence | RunVerdict::Fault(_) => into.faults += 1,
            RunVerdict::Pass => {}
        }
    }

    fn merge(&self, into: &mut CampaignResult, shard: CampaignResult) {
        into.runs += shard.runs;
        into.errors += shard.errors;
        into.postcondition_failures += shard.postcondition_failures;
        into.timeouts += shard.timeouts;
        into.faults += shard.faults;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::Phase;
    use wmm_sim::ir::builder::KernelBuilder;

    /// A miniature lock-protected accumulator: every thread takes a
    /// global spinlock and adds 1 to a cell non-atomically. The idiom of
    /// the paper's running example (Fig. 1), so it is weak-memory-buggy
    /// by design. Shared with `harden`'s tests.
    pub(crate) struct LockCounter {
        spec: AppSpec,
        expected: u32,
    }

    pub(crate) fn lock_counter() -> LockCounter {
        let mut b = KernelBuilder::new("lock-counter");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        b.if_(is0, |b| {
            let lock = b.const_(0);
            let cell = b.const_(128); // different line from the lock
            b.spin_lock(lock);
            let v = b.load_global(cell);
            let one = b.const_(1);
            let v1 = b.add(v, one);
            b.store_global(cell, v1);
            b.unlock(lock);
        });
        let program = b.finish().unwrap();
        let blocks = 8;
        LockCounter {
            spec: AppSpec {
                name: "lock-counter".into(),
                phases: vec![Phase {
                    program,
                    blocks,
                    threads_per_block: 32,
                    shared_words: 0,
                }],
                global_words: 192,
                init: vec![],
                max_turns_per_phase: 2_000_000,
            },
            expected: blocks,
        }
    }

    impl Application for LockCounter {
        fn name(&self) -> &str {
            "lock-counter"
        }
        fn spec(&self) -> &AppSpec {
            &self.spec
        }
        fn check(&self, memory: &[Word]) -> Result<(), String> {
            if memory[128] == self.expected {
                Ok(())
            } else {
                Err(format!(
                    "counter = {}, expected {}",
                    memory[128], self.expected
                ))
            }
        }
    }

    #[test]
    fn environment_names_match_paper() {
        let chip = Chip::by_short("K20").unwrap();
        let names: Vec<String> = Environment::all_eight(&chip)
            .iter()
            .map(Environment::name)
            .collect();
        assert_eq!(
            names,
            vec![
                "no-str-",
                "no-str+",
                "sys-str-",
                "sys-str+",
                "rand-str-",
                "rand-str+",
                "cache-str-",
                "cache-str+"
            ]
        );
        // Extensions stay out of the paper's pinned eight.
        assert_eq!(Environment::l1_str_plus().name(), "l1-str+");
        assert!(!names.contains(&"l1-str+".to_string()));
    }

    #[test]
    fn env_kinds_match_suite_column_names() {
        let names: Vec<&str> = EnvKind::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "no-str-",
                "sys-str+",
                "rand-str+",
                "shm+sys-str+",
                "l1-str+"
            ]
        );
        for kind in EnvKind::ALL {
            assert_eq!(kind.name().parse::<EnvKind>().unwrap(), kind);
        }
    }

    #[test]
    fn native_runs_mostly_pass() {
        let chip = Chip::by_short("K20").unwrap();
        let app = lock_counter();
        let h = AppHarness::new(&chip, &app);
        let r = h.campaign(&Environment::native(), 60, 5, 0);
        assert_eq!(r.runs, 60);
        assert!(r.error_rate() < 0.05, "native error rate too high: {:?}", r);
    }

    #[test]
    fn sys_str_plus_provokes_errors_in_buggy_app() {
        let chip = Chip::by_short("K20").unwrap();
        let app = lock_counter();
        let h = AppHarness::new(&chip, &app);
        let r = h.campaign(&Environment::sys_str_plus(&chip), 120, 7, 0);
        assert!(
            r.effective(),
            "sys-str+ should be effective on the lock counter: {:?}",
            r
        );
    }

    #[test]
    fn conservative_fences_suppress_errors() {
        let chip = Chip::by_short("K20").unwrap();
        let app = lock_counter();
        let fenced = app.spec().with_all_fences();
        let h = AppHarness::with_spec(&chip, &app, fenced);
        let r = h.campaign(&Environment::sys_str_plus(&chip), 120, 9, 0);
        assert_eq!(r.errors, 0, "cons fences must suppress all errors: {r:?}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let chip = Chip::by_short("Titan").unwrap();
        let app = lock_counter();
        let h = AppHarness::new(&chip, &app);
        let env = Environment::sys_str_plus(&chip);
        let a = h.campaign(&env, 40, 3, 4);
        let b = h.campaign(&env, 40, 3, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn effectiveness_threshold_is_five_percent() {
        let r = CampaignResult {
            runs: 100,
            errors: 5,
            ..Default::default()
        };
        assert!(!r.effective(), "exactly 5% is not 'more than 5%'");
        let r = CampaignResult {
            runs: 100,
            errors: 6,
            ..Default::default()
        };
        assert!(r.effective());
    }
}
