//! The `app-serve` workload: a batch of application campaigns served by
//! the campaign engine.
//!
//! The batch is the ten Tab. 4 applications plus `shm-pipe`, under each
//! of the five job environments, on the Titan and the C2075, at three
//! seeds. The extra seeds are what make the engine's artifact cache
//! hit: every application keys its own scratchpad, so a single-seed
//! batch would build every entry and hit none.
//!
//! Setup parses the generated job text and starts an engine with one
//! worker; the pass is a closed loop with one client, which submits a
//! job, drains its result and only then submits the next. Each job's
//! latency is the reference CPU time (see `clock`) from its submit to
//! its drained result. The traced pass replays every job's campaign on the same
//! single thread, through `AppHarness::new`, the real `Campaign::run`
//! and a spanned rebuild of the harness's phase loop.

use crate::trace::{Sink, Span};
use crate::clock::{CpuTime, RefTimer};
use crate::{attempted, failed, Bench, Metrics, Pass, Scale, WORKERS};
use gpu_wmm::apps::{all_apps, app_by_name};
use gpu_wmm::core::app::Application;
use gpu_wmm::core::cache::ArtifactCache;
use gpu_wmm::core::campaign::{CampaignBuilder, RunCtx, SummaryValue, Workload};
use gpu_wmm::core::env::{AppHarness, CampaignResult, RunVerdict};
use gpu_wmm::core::stress::app_stress_blocks;
use gpu_wmm::litmus::runner::mix_seed;
use gpu_wmm::server::engine::{Engine, EngineConfig};
use gpu_wmm::server::job::{parse_jobs, EnvKind, JobSpec, WorkloadSpec};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::{Gpu, KernelGroup, LaunchSpec, Role, RunStatus};
use gpu_wmm::sim::Word;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

const CHIPS: [&str; 2] = ["Titan", "C2075"];
const SEEDS_PER_KEY: usize = 3;

/// Server-layer numbers of one engine batch.
#[derive(Debug, Clone, Copy)]
struct Served {
    parse_us_per_job: f64,
    submit_us_per_job: f64,
    queue_wait_ms_p50: f64,
    busy_frac: f64,
    cache_hit_rate: f64,
    artifact_builds: f64,
    artifact_build_ms: f64,
}

/// The `app-serve` workload.
pub struct AppServe {
    text: String,
    /// The parsed batch and a started engine, from the last setup.
    ready: Option<(Vec<JobSpec>, Engine)>,
    parse_s: f64,
    served: Vec<Served>,
    calibrate_ms: Vec<f64>,
    sink: Sink,
}

impl AppServe {
    /// The batch for `seed`; `tiny` runs one execution per job.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let runs = if scale == Scale::Full { 4 } else { 1 };
        let mut names: Vec<String> = all_apps().iter().map(|a| a.name().to_string()).collect();
        names.push("shm-pipe".to_string());
        let mut text = String::new();
        for (ai, name) in names.iter().enumerate() {
            for (ei, env) in EnvKind::ALL.into_iter().enumerate() {
                for (ci, chip) in CHIPS.into_iter().enumerate() {
                    for k in 0..SEEDS_PER_KEY {
                        let job_seed = [ai, ei, ci, k]
                            .into_iter()
                            .fold(seed, |s, x| mix_seed(s, x as u64));
                        writeln!(text, "app {chip} {env} {name} {runs} {job_seed}")
                            .expect("writing to a String cannot fail");
                    }
                }
            }
        }
        AppServe {
            text,
            ready: None,
            parse_s: 0.0,
            served: Vec::new(),
            calibrate_ms: Vec::new(),
            sink: Sink::default(),
        }
    }

    fn jobs(&self) -> usize {
        self.text.lines().count()
    }
}

/// Check one job's summary against its spec and digest it.
fn check(spec: &JobSpec, summary: &SummaryValue) -> u64 {
    match summary.as_app() {
        Some(r) if r.runs == spec.execs => {}
        Some(r) => failed(1, &format!("{spec}: {} runs", r.runs)),
        None => failed(1, &format!("{spec}: not an application summary")),
    }
    summary.digest()
}

impl Bench for AppServe {
    fn setup(&mut self) -> f64 {
        self.ready = None;
        let t = RefTimer::start();
        let specs = parse_jobs(&self.text);
        self.parse_s = t.elapsed_s();
        let engine = Engine::start(EngineConfig {
            workers: WORKERS,
            job_parallelism: 1,
        });
        let setup_s = t.elapsed_s();
        match specs {
            Ok(specs) => self.ready = Some((specs, engine)),
            Err(e) => failed(0, &format!("job text does not parse: {e}")),
        }
        setup_s
    }

    fn pass(&mut self) -> Pass {
        let mut out = Pass::default();
        let jobs = self.jobs();
        attempted(jobs as u64);
        let Some((specs, engine)) = self.ready.take() else {
            failed(jobs as u64, "no engine");
            out.digests = vec![0; jobs];
            return out;
        };
        let wall = Instant::now();
        let (mut submit_s, mut busy_ms) = (0.0, 0.0);
        for (i, spec) in specs.into_iter().enumerate() {
            let t = RefTimer::start();
            let submit = CpuTime::now();
            let submitted = engine.submit(spec);
            submit_s += submit.elapsed_s();
            let drained = submitted.and_then(|_| engine.drain());
            let ref_s = t.elapsed_s();
            out.ref_s += ref_s;
            out.job_ms.push(ref_s * 1e3);
            match drained.as_deref() {
                Ok([r]) => {
                    busy_ms += r.latency_ms;
                    out.runs += r.summary.as_app().map_or(0, |a| u64::from(a.runs));
                    out.digests.push(check(&r.spec, &r.summary));
                }
                Ok(results) => {
                    failed(1, &format!("job {i}: drain returned {} results", results.len()));
                    out.digests.push(0);
                }
                Err(e) => {
                    failed(1, &format!("job {i}: {e}"));
                    out.digests.push(0);
                }
            }
        }
        let wall_s = wall.elapsed().as_secs_f64();
        let cache = engine.cache_stats();
        let compile = engine.compile_times();
        let queue_wait = engine.metrics();
        self.served.push(Served {
            parse_us_per_job: self.parse_s * 1e6 / jobs as f64,
            submit_us_per_job: submit_s * 1e6 / jobs as f64,
            queue_wait_ms_p50: queue_wait
                .span("queue_wait")
                .map_or(0.0, |h| h.percentile_us(0.5) as f64 / 1e3),
            busy_frac: busy_ms / (wall_s * 1e3),
            cache_hit_rate: cache.hit_rate(),
            artifact_builds: cache.builds as f64,
            artifact_build_ms: (compile.mean_us() * compile.count()) as f64 / 1e3,
        });
        out
    }

    fn traced_pass(&mut self) -> Pass {
        let mut out = Pass::default();
        let jobs = self.jobs();
        attempted(jobs as u64);
        let Some((specs, engine)) = self.ready.take() else {
            failed(jobs as u64, "no parsed batch");
            out.digests = vec![0; jobs];
            return out;
        };
        drop(engine);
        let cache = ArtifactCache::new();
        let sink = &self.sink;
        for spec in &specs {
            let t = RefTimer::start();
            let r = catch_unwind(AssertUnwindSafe(|| replay(spec, &cache, sink)));
            let ref_s = t.elapsed_s();
            out.ref_s += ref_s;
            out.job_ms.push(ref_s * 1e3);
            match r {
                Ok(Ok((summary, calibrate_ms))) => {
                    self.calibrate_ms.push(calibrate_ms);
                    out.runs += summary.as_app().map_or(0, |a| u64::from(a.runs));
                    out.digests.push(check(spec, &summary));
                }
                Ok(Err(e)) => {
                    failed(1, &format!("{spec}: {e}"));
                    out.digests.push(0);
                }
                Err(_) => {
                    failed(1, &format!("{spec}: replay panicked"));
                    out.digests.push(0);
                }
            }
        }
        out
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let median =
            |f: fn(&Served) -> f64| crate::median(&self.served.iter().map(f).collect::<Vec<_>>());
        m.set("server.parse_us_per_job", median(|s| s.parse_us_per_job));
        m.set("server.submit_us_per_job", median(|s| s.submit_us_per_job));
        m.set("server.queue_wait_ms_p50", median(|s| s.queue_wait_ms_p50));
        m.set("server.busy_frac", median(|s| s.busy_frac));
        m.set("core.cache_hit_rate", median(|s| s.cache_hit_rate));
        m.set("core.artifact_builds", median(|s| s.artifact_builds));
        m.set("core.artifact_build_ms", median(|s| s.artifact_build_ms));
        m.set("apps.calibrate_ms", crate::median(&self.calibrate_ms));
        let t = self.sink.totals();
        t.sim_metrics("sim", m);
        m.set(
            "core.stress_make_us_per_run",
            t.us_per_run(Span::StressMake),
        );
        m.set(
            "core.campaign_self_us_per_run",
            t.campaign_self_us_per_run(),
        );
        m.set("apps.launch_us_per_run", t.us_per_run(Span::Launch));
        m.set("apps.check_us_per_run", t.us_per_run(Span::Check));
    }

    fn workers(&self) -> String {
        format!("engine_workers={WORKERS} job_parallelism=1")
    }
}

/// Replay one job the way `JobSpec::execute` runs it, with the
/// harness's phase loop spanned. Returns the summary and the
/// calibration (`AppHarness::new`) time in ms.
fn replay(
    spec: &JobSpec,
    cache: &ArtifactCache,
    sink: &Sink,
) -> Result<(SummaryValue, f64), String> {
    let chip = Chip::by_short(&spec.chip).ok_or("unknown chip")?;
    let WorkloadSpec::App { name } = &spec.workload else {
        return Err("not an application job".into());
    };
    let app = app_by_name(name).ok_or("unknown application")?;
    let env = spec.env.environment(&chip);
    let t = Instant::now();
    let harness = AppHarness::new(&chip, app.as_ref());
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let artifacts = cache.get(
        &chip,
        &env,
        harness.scratchpad(),
        harness.calibrated_iters(),
    );
    let campaign = CampaignBuilder::new(&chip)
        .stress((*artifacts).clone())
        .randomize_ids(env.randomize)
        .count(spec.execs)
        .base_seed(spec.seed)
        .parallelism(WORKERS)
        .build();
    let t = Instant::now();
    let result = campaign.run(&TracedApp {
        harness: &harness,
        app: app.as_ref(),
        sink,
    });
    sink.campaign(t.elapsed());
    Ok((SummaryValue::App(result), calibrate_ms))
}

/// The application harness's per-run phase loop, rebuilt from public
/// calls with a span around each. It draws from the run's RNG exactly
/// what `AppHarness`'s own run does, in the same order, and folds
/// through the harness itself, so its results are bit-identical.
struct TracedApp<'a> {
    harness: &'a AppHarness<'a>,
    app: &'a dyn Application,
    sink: &'a Sink,
}

impl TracedApp<'_> {
    fn verdict(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> RunVerdict {
        let sink = self.sink;
        let spec = self.harness.spec();
        let global_words = self.harness.scratchpad().required_words();
        let total_app_blocks: u32 = spec.phases.iter().map(|p| p.blocks).sum();
        let mut image: Vec<Word> = Vec::new();
        for (pi, phase) in spec.phases.iter().enumerate() {
            let setup = sink.time(Span::StressMake, || {
                let threads = app_stress_blocks(total_app_blocks.max(2), rng) * 64;
                ctx.stress.make(threads, rng)
            });
            let launch = sink.time(Span::Launch, || {
                let mut groups = vec![KernelGroup {
                    program: Arc::new(phase.program.clone()),
                    blocks: phase.blocks,
                    threads_per_block: phase.threads_per_block,
                    role: Role::App,
                }];
                groups.extend(setup.groups);
                let mut init = setup.init;
                if pi == 0 {
                    init.extend(spec.init.iter().copied());
                }
                LaunchSpec {
                    groups,
                    global_words,
                    shared_words: phase.shared_words,
                    init_image: std::mem::take(&mut image),
                    init,
                    max_turns: spec.max_turns_per_phase,
                    randomize_ids: ctx.randomize_ids,
                }
            });
            let seed = rng.gen();
            let result = sink.time(Span::Sim, || gpu.run(&launch, seed));
            sink.launched(&result);
            match result.status {
                RunStatus::Completed => {}
                RunStatus::TimedOut => return RunVerdict::Timeout,
                RunStatus::BarrierDivergence => return RunVerdict::Divergence,
                RunStatus::OutOfBounds(e) => return RunVerdict::Fault(e.to_string()),
            }
            image = result.memory;
        }
        sink.time(Span::Check, || match self.app.check(&image) {
            Ok(()) => RunVerdict::Pass,
            Err(msg) => RunVerdict::PostConditionFailed(msg),
        })
    }
}

impl Workload for TracedApp<'_> {
    type Verdict = RunVerdict;
    type Summary = CampaignResult;

    fn summary(&self) -> CampaignResult {
        self.harness.summary()
    }

    fn run_once(&self, gpu: &mut Gpu, ctx: &RunCtx<'_>, rng: &mut SmallRng) -> RunVerdict {
        let v = self.verdict(gpu, ctx, rng);
        self.sink.run_done();
        v
    }

    fn fold(&self, into: &mut CampaignResult, verdict: RunVerdict) {
        self.sink
            .time(Span::Fold, || self.harness.fold(into, verdict));
    }

    fn merge(&self, into: &mut CampaignResult, shard: CampaignResult) {
        self.sink
            .time(Span::Fold, || self.harness.merge(into, shard));
    }
}
