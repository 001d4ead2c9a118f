//! The campaign engine: a batch of jobs run on the parallel layer.
//!
//! [`Engine::submit`] validates a [`JobSpec`] and appends it to the
//! pending batch under a dense submission id. [`Engine::drain`] takes
//! the whole batch and maps it through [`parallel_map`], the same
//! deterministic layer every campaign and tuning sweep runs on: each
//! worker claims the next jobs, executes their full campaigns (inner
//! parallelism is per job, [`EngineConfig::job_parallelism`]), and the
//! map returns exactly one outcome per job, in submission order. A job
//! that panics becomes that job's error, so a batch always drains.
//! Stress artifacts are shared across jobs through one
//! [`ArtifactCache`] owned by the engine — the point of batching: a
//! thousand jobs against five environments compile stress kernels five
//! times, and application jobs run each application's native
//! calibration once per chip, however many environments and seeds they
//! span.
//!
//! [`serve`] is the one batch path both front ends take (`repro serve`
//! and the soak): it serves a job list through a fresh engine, one
//! simulator per job, and returns a [`Batch`]: the results, the cache
//! counters, the wall-clock spans and the deterministic weakness totals,
//! whose `Display` is the summary both print.
//!
//! Determinism: a result depends only on its spec (see [`job`](crate::job)),
//! so neither the number of workers nor which worker happens to claim a
//! job can change any histogram, and [`Engine::drain`] returns results
//! in submission order, making the whole batch reproducible.

use crate::job::JobSpec;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;
use wmm_core::cache::{ArtifactCache, CacheStats};
use wmm_core::campaign::SummaryValue;
use wmm_litmus::parallel::{parallel_map, resolve_workers};
use wmm_obs::{ChannelCounts, LatencyHistogram, MetricsRegistry, Provenance};

/// Engine sizing.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads [`Engine::drain`] runs a batch on (0 ⇒ all cores;
    /// never more than the batch has jobs). One worker runs the batch
    /// on the draining thread.
    pub workers: usize,
    /// Inner campaign parallelism per job (0 ⇒ all cores). The soak
    /// harness keeps this at 1 — throughput comes from job-level
    /// concurrency, and one simulator per worker keeps the measurement
    /// honest.
    pub job_parallelism: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            job_parallelism: 1,
        }
    }
}

/// One completed job: the spec it ran, its summary, and how long it
/// spent executing (queue wait excluded).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Submission id (dense, starting at 0).
    pub id: u64,
    /// The spec that produced this result.
    pub spec: JobSpec,
    /// The campaign summary (histogram or app verdict counts).
    pub summary: SummaryValue,
    /// Wall-clock execution latency in milliseconds. The one
    /// non-deterministic field — excluded from every digest.
    pub latency_ms: f64,
}

/// Submitted jobs not yet drained, in submission order.
#[derive(Default)]
struct Pending {
    next_id: u64,
    jobs: Vec<(u64, JobSpec, Instant)>,
}

/// The campaign engine. Submit jobs, then [`drain`](Engine::drain) to
/// run the batch and take its results. Nothing runs between the two:
/// a job submitted and never drained is dropped with the engine.
pub struct Engine {
    config: EngineConfig,
    pending: Mutex<Pending>,
    cache: ArtifactCache,
    /// Wall-clock telemetry: `queue_wait` / `execute` span histograms.
    /// Observation only — results and digests never read this.
    metrics: Mutex<MetricsRegistry>,
}

impl Engine {
    /// An engine with an empty batch and an empty artifact cache.
    pub fn start(config: EngineConfig) -> Engine {
        Engine {
            config,
            pending: Mutex::default(),
            cache: ArtifactCache::new(),
            metrics: Mutex::default(),
        }
    }

    /// Validate a job and add it to the pending batch; returns its
    /// submission id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        spec.validate()?;
        let mut pending = self.pending.lock().expect("engine batch poisoned");
        let id = pending.next_id;
        pending.next_id += 1;
        pending.jobs.push((id, spec, Instant::now()));
        Ok(id)
    }

    /// Run every job submitted since the last drain and return their
    /// results in submission order. Specs are validated at submission,
    /// so no job is expected to fail; one that does (or panics) still
    /// lets the rest of the batch run, and then fails the whole drain,
    /// naming the first failed job.
    pub fn drain(&self) -> Result<Vec<JobResult>, String> {
        self.drain_with(|spec| spec.execute(self.config.job_parallelism, Some(&self.cache)))
    }

    /// [`drain`](Engine::drain) with `run` in place of the campaign
    /// (tests substitute a job that panics).
    fn drain_with(
        &self,
        run: impl Fn(&JobSpec) -> Result<SummaryValue, String> + Sync,
    ) -> Result<Vec<JobResult>, String> {
        let batch = std::mem::take(&mut self.pending.lock().expect("engine batch poisoned").jobs);
        let workers = resolve_workers(self.config.workers, batch.len());
        let outcomes = parallel_map(workers, batch.len(), |i| {
            let (_, spec, submitted) = &batch[i];
            let queue_wait = submitted.elapsed();
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| run(spec)))
                .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))));
            let executed = started.elapsed();
            let mut m = self.metrics.lock().expect("engine metrics poisoned");
            m.record_span("queue_wait", queue_wait);
            m.record_span("execute", executed);
            outcome.map(|summary| (summary, executed.as_secs_f64() * 1e3))
        });
        let mut results = Vec::with_capacity(batch.len());
        let mut errors = Vec::new();
        for ((id, spec, _), outcome) in batch.into_iter().zip(outcomes) {
            match outcome {
                Ok((summary, latency_ms)) => results.push(JobResult {
                    id,
                    spec,
                    summary,
                    latency_ms,
                }),
                Err(e) => errors.push((id, e)),
            }
        }
        if let Some((id, e)) = errors.first() {
            return Err(format!(
                "{} job(s) failed; first: job {id}: {e}",
                errors.len()
            ));
        }
        Ok(results)
    }

    /// The shared artifact cache's counters and its calibration runs.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the engine's wall-clock telemetry: `queue_wait` and
    /// `execute` span histograms (microseconds), one sample per drained
    /// job. Values are machine-dependent.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics
            .lock()
            .expect("engine metrics poisoned")
            .clone()
    }

    /// Snapshot of the shared cache's wall-clock artifact-compile
    /// latency histogram.
    pub fn compile_times(&self) -> LatencyHistogram {
        self.cache.compile_times()
    }
}

/// One served batch: its results and what serving them cost.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The results, in submission order.
    pub results: Vec<JobResult>,
    /// Worker threads the batch ran on (the requested count resolved:
    /// 0 ⇒ all cores, never more than the batch has jobs).
    pub workers: usize,
    /// Wall-clock seconds from the first submission to the drained
    /// batch.
    pub elapsed_sec: f64,
    /// The artifact cache's counters.
    pub cache: CacheStats,
    /// Wall-clock per-job queue wait.
    pub queue_wait: LatencyHistogram,
    /// Wall-clock per-job execute span.
    pub execute: LatencyHistogram,
    /// Wall-clock artifact-compile span, one sample per cache build.
    pub compile: LatencyHistogram,
    /// Weakness-channel totals over every litmus result
    /// (deterministic, like the results).
    pub channels: ChannelCounts,
    /// Weak-run attribution summed over every litmus result; its total
    /// is the batch's weak-outcome count (deterministic).
    pub provenance: Provenance,
}

/// Serve `jobs` through a fresh engine on `workers` threads (0 ⇒ all
/// cores), one simulator per job, and summarise the batch. An `Err`
/// names the first job that failed validation or execution.
pub fn serve(jobs: Vec<JobSpec>, workers: usize) -> Result<Batch, String> {
    let workers = resolve_workers(workers, jobs.len());
    let engine = Engine::start(EngineConfig {
        workers,
        job_parallelism: 1,
    });
    let started = Instant::now();
    for job in jobs {
        engine.submit(job)?;
    }
    let results = engine.drain()?;
    let elapsed_sec = started.elapsed().as_secs_f64();
    let mut channels = ChannelCounts::default();
    let mut provenance = Provenance::default();
    for h in results.iter().filter_map(|r| r.summary.as_litmus()) {
        channels.add(h.channels());
        provenance.add(&h.provenance_total());
    }
    let spans = engine.metrics();
    let span = |name| spans.span(name).cloned().unwrap_or_default();
    Ok(Batch {
        workers,
        elapsed_sec,
        cache: engine.cache_stats(),
        queue_wait: span("queue_wait"),
        execute: span("execute"),
        compile: engine.compile_times(),
        channels,
        provenance,
        results,
    })
}

impl Batch {
    /// How many results are litmus campaigns.
    pub fn litmus_jobs(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.summary.as_litmus().is_some())
            .count()
    }

    /// How many results are application campaigns.
    pub fn app_jobs(&self) -> usize {
        self.results.len() - self.litmus_jobs()
    }

    /// Sustained throughput over the whole batch (infinite when the
    /// clock saw no time pass).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_sec > 0.0 {
            self.results.len() as f64 / self.elapsed_sec
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for Batch {
    /// The three summary lines: counts, time and cache; the wall-clock
    /// spans; the deterministic weakness totals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cache, apps) = (&self.cache, self.app_jobs());
        writeln!(
            f,
            "{} jobs ({} litmus, {apps} app) on {} workers in {:.2}s ({:.1} jobs/sec); \
             artifact cache: {} builds, {} hits ({:.1}% hit rate); calibrations: {} for {apps} app jobs",
            self.results.len(),
            self.litmus_jobs(),
            self.workers,
            self.elapsed_sec,
            self.jobs_per_sec(),
            cache.builds,
            cache.hits,
            cache.hit_rate() * 100.0,
            cache.calibrations,
        )?;
        writeln!(
            f,
            "spans (wall-clock): queue_wait {}; execute {}; compile {}",
            self.queue_wait, self.execute, self.compile
        )?;
        write!(
            f,
            "weakness channels (deterministic): {}; provenance: {}",
            self.channels, self.provenance
        )
    }
}

/// The text a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EnvKind, WorkloadSpec};
    use wmm_gen::Shape;

    fn litmus_job(shape: Shape, env: EnvKind, seed: u64) -> JobSpec {
        JobSpec {
            chip: "Titan".into(),
            env,
            workload: WorkloadSpec::Litmus {
                shape,
                distance: 64,
            },
            execs: 8,
            seed,
        }
    }

    #[test]
    fn drained_results_come_back_in_submission_order() {
        let engine = Engine::start(EngineConfig {
            workers: 3,
            job_parallelism: 1,
        });
        let specs: Vec<JobSpec> = [Shape::Mp, Shape::Sb, Shape::Lb, Shape::CoWW, Shape::Iriw]
            .into_iter()
            .enumerate()
            .map(|(i, s)| litmus_job(s, EnvKind::SysStrPlus, i as u64))
            .collect();
        for s in &specs {
            engine.submit(s.clone()).unwrap();
        }
        let results = engine.drain().unwrap();
        assert_eq!(results.len(), specs.len());
        for (i, (r, s)) in results.iter().zip(&specs).enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(&r.spec, s);
            assert_eq!(r.summary.as_litmus().unwrap().total(), 8);
        }
    }

    #[test]
    fn one_batch_one_build_per_environment() {
        let engine = Engine::start(EngineConfig {
            workers: 4,
            job_parallelism: 1,
        });
        for seed in 0..12 {
            engine
                .submit(litmus_job(Shape::Mp, EnvKind::SysStrPlus, seed))
                .unwrap();
            engine
                .submit(litmus_job(Shape::Sb, EnvKind::RandStrPlus, seed))
                .unwrap();
        }
        engine.drain().unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.builds, 2, "one build per distinct environment");
        assert_eq!(stats.hits, 22);
        // Telemetry: one queue-wait and one execute sample per job, one
        // compile sample per build.
        let m = engine.metrics();
        assert_eq!(m.span("queue_wait").unwrap().count(), 24);
        assert_eq!(m.span("execute").unwrap().count(), 24);
        assert_eq!(engine.compile_times().count(), 2);
    }

    #[test]
    fn application_jobs_calibrate_once_per_chip_and_application() {
        for workers in [1, 3] {
            let engine = Engine::start(EngineConfig {
                workers,
                job_parallelism: 1,
            });
            let mut jobs = 0;
            for name in ["cbe-dot", "shm-pipe"] {
                for chip in ["Titan", "C2075"] {
                    for env in [EnvKind::Native, EnvKind::SysStrPlus, EnvKind::L1StrPlus] {
                        engine
                            .submit(JobSpec {
                                chip: chip.into(),
                                env,
                                workload: WorkloadSpec::App { name: name.into() },
                                execs: 1,
                                seed: jobs,
                            })
                            .unwrap();
                        jobs += 1;
                    }
                }
            }
            assert_eq!(engine.drain().unwrap().len(), 12);
            let stats = engine.cache_stats();
            assert_eq!(stats.calibrations, 4, "{workers} workers");
            assert_eq!(stats.lookups(), 12, "one artifact lookup per job");
        }
    }

    #[test]
    fn invalid_jobs_are_rejected_at_submission() {
        let engine = Engine::start(EngineConfig::default());
        let mut bad = litmus_job(Shape::Mp, EnvKind::Native, 0);
        bad.chip = "NoSuchChip".into();
        assert!(engine.submit(bad).is_err());
        assert_eq!(engine.drain().unwrap().len(), 0);
    }

    #[test]
    fn out_of_layout_distance_is_refused_and_the_batch_still_drains() {
        // These distances push MP's second location past the result
        // region; once admitted, such a job panicked its worker and left
        // `drain` waiting forever.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            job_parallelism: 1,
        });
        let valid = litmus_job(Shape::Mp, EnvKind::SysStrPlus, 1);
        for distance in [8192, u32::MAX] {
            let mut bad = litmus_job(Shape::Mp, EnvKind::SysStrPlus, 1);
            bad.workload = WorkloadSpec::Litmus {
                shape: Shape::Mp,
                distance,
            };
            assert!(engine.submit(bad).is_err(), "distance {distance}");
        }
        engine.submit(valid.clone()).unwrap();
        let results = engine.drain().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].spec, valid);
    }

    #[test]
    fn a_panicking_job_fails_the_drain_and_the_batch_still_runs() {
        for workers in [1, 3] {
            let engine = Engine::start(EngineConfig {
                workers,
                job_parallelism: 1,
            });
            for seed in 0..5 {
                engine
                    .submit(litmus_job(Shape::Mp, EnvKind::Native, seed))
                    .unwrap();
            }
            let err = engine
                .drain_with(|spec| {
                    assert_ne!(spec.seed, 2, "injected failure");
                    spec.execute(1, None)
                })
                .unwrap_err();
            assert!(err.starts_with("1 job(s) failed; first: job 2: "), "{err}");
            assert!(
                err.contains("panicked: ") && err.contains("injected failure"),
                "{err}"
            );
            let executed = engine.metrics().span("execute").unwrap().count();
            assert_eq!(executed, 5, "{workers} workers");
            let next = litmus_job(Shape::Sb, EnvKind::Native, 7);
            assert_eq!(engine.submit(next.clone()).unwrap(), 5);
            let results = engine.drain().unwrap();
            assert_eq!(results.len(), 1);
            assert_eq!((results[0].id, &results[0].spec), (5, &next));
        }
    }

    #[test]
    fn serve_summarises_the_batch_at_any_worker_count() {
        // CoRR on the incoherent-L1 C2075 under `l1-str+` fires the L1
        // channel on nearly every run, so the totals cannot pass at zero.
        let jobs = crate::job::parse_jobs(
            "litmus Titan sys-str+ MP 64 8 1; litmus C2075 l1-str+ CoRR 64 24 2; \
             litmus Titan no-str- SB 64 8 3; app Titan no-str- shm-pipe 2 4",
        )
        .unwrap();
        let one = serve(jobs.clone(), 1).unwrap();
        let three = serve(jobs.clone(), 3).unwrap();
        assert_eq!((one.workers, three.workers), (1, 3));
        for batch in [&one, &three] {
            let specs: Vec<&JobSpec> = batch.results.iter().map(|r| &r.spec).collect();
            assert_eq!(specs, jobs.iter().collect::<Vec<_>>(), "submission order");
            assert_eq!((batch.litmus_jobs(), batch.app_jobs()), (3, 1));
            assert_eq!((batch.queue_wait.count(), batch.execute.count()), (4, 4));
            assert_eq!(batch.compile.count(), batch.cache.builds);
            assert_eq!(batch.cache.calibrations, 1);
        }
        let digests =
            |b: &Batch| -> Vec<u64> { b.results.iter().map(|r| r.summary.digest()).collect() };
        assert_eq!(digests(&one), digests(&three));
        assert_eq!(
            (one.channels, one.provenance),
            (three.channels, three.provenance)
        );
        assert!(one.channels.l1_stale > 0, "{}", one.channels);
        let weak: u64 = one
            .results
            .iter()
            .filter_map(|r| r.summary.as_litmus())
            .map(|h| h.weak())
            .sum();
        assert_eq!(one.provenance.total(), weak);
        let summary = one.to_string();
        assert!(
            summary.starts_with("4 jobs (3 litmus, 1 app) on 1 workers in "),
            "{summary}"
        );
        assert!(
            summary.contains("; calibrations: 1 for 1 app jobs\n"),
            "{summary}"
        );
        assert_eq!(summary.lines().count(), 3, "{summary}");
    }

    #[test]
    fn drain_can_be_repeated_across_batches() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            job_parallelism: 1,
        });
        engine
            .submit(litmus_job(Shape::Mp, EnvKind::Native, 1))
            .unwrap();
        let first = engine.drain().unwrap();
        assert_eq!(first.len(), 1);
        engine
            .submit(litmus_job(Shape::Sb, EnvKind::Native, 2))
            .unwrap();
        let second = engine.drain().unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id, 1, "ids keep counting across batches");
    }
}
