//! The campaign engine: a job queue drained by a fixed worker pool.
//!
//! Submitted [`JobSpec`]s queue FIFO; each of the pool's workers pops
//! the next job, executes its full campaign (inner parallelism is per
//! job, [`EngineConfig::job_parallelism`]), and records a [`JobResult`]
//! under the job's submission id. Stress artifacts are shared across
//! jobs through one [`ArtifactCache`] owned by the engine — the point
//! of batching: a thousand jobs against five environments compile
//! stress kernels five times.
//!
//! Determinism: a result depends only on its spec (see [`job`](crate::job)),
//! so neither the number of workers nor which worker happens to claim a
//! job can change any histogram; [`Engine::drain`] orders results by
//! submission id, making the whole batch reproducible.

use crate::job::JobSpec;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use wmm_core::cache::{ArtifactCache, CacheStats};
use wmm_core::campaign::SummaryValue;
use wmm_obs::{LatencyHistogram, MetricsRegistry};

/// Engine sizing.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads draining the queue (clamped to at least 1).
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

struct State {
    queue: VecDeque<(u64, JobSpec, Instant)>,
    results: Vec<JobResult>,
    errors: Vec<(u64, String)>,
    next_id: u64,
    in_flight: usize,
    max_depth: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: work available, or shutdown.
    work: Condvar,
    /// Signals drainers: a job finished.
    done: Condvar,
    cache: ArtifactCache,
    job_parallelism: usize,
    /// Wall-clock telemetry: `queue_wait` / `execute` span histograms
    /// and the `jobs` counter. Observation only — results and digests
    /// never read this.
    metrics: Mutex<MetricsRegistry>,
}

/// The long-running campaign engine. Start it, submit jobs, [`drain`]
/// for the batch's results. Dropping the engine (or calling
/// [`shutdown`]) stops the workers without waiting for the queue to
/// empty — drain first if results matter.
///
/// [`drain`]: Engine::drain
/// [`shutdown`]: Engine::shutdown
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Spawn the worker pool.
    pub fn start(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: Vec::new(),
                errors: Vec::new(),
                next_id: 0,
                in_flight: 0,
                max_depth: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cache: ArtifactCache::new(),
            job_parallelism: config.job_parallelism,
            metrics: Mutex::new(MetricsRegistry::new()),
        });
        let handles = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Engine { shared, handles }
    }

    /// Validate and enqueue a job; returns its submission id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        spec.validate()?;
        let mut st = self.shared.state.lock().expect("engine state poisoned");
        if st.shutdown {
            return Err("engine is shut down".to_string());
        }
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back((id, spec, Instant::now()));
        st.max_depth = st.max_depth.max(st.queue.len());
        drop(st);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Block until the queue is empty and no job is in flight, then
    /// take every accumulated result, ordered by submission id. Errors
    /// from job execution (none are expected — specs are validated at
    /// submission) fail the whole drain.
    pub fn drain(&self) -> Result<Vec<JobResult>, String> {
        let mut st = self.shared.state.lock().expect("engine state poisoned");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.done.wait(st).expect("engine state poisoned");
        }
        let mut results = std::mem::take(&mut st.results);
        let errors = std::mem::take(&mut st.errors);
        drop(st);
        if let Some((id, e)) = errors.first() {
            return Err(format!(
                "{} job(s) failed; first: job {id}: {e}",
                errors.len()
            ));
        }
        results.sort_by_key(|r| r.id);
        Ok(results)
    }

    /// The shared artifact cache's counters (the soak report's
    /// `cache_hit_rate` source).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Snapshot of the engine's wall-clock telemetry: `queue_wait` and
    /// `execute` span histograms (microseconds) plus the `jobs`
    /// counter. Values are machine-dependent; only the counter is
    /// deterministic.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared
            .metrics
            .lock()
            .expect("engine metrics poisoned")
            .clone()
    }

    /// Snapshot of the shared cache's wall-clock artifact-compile
    /// latency histogram.
    pub fn compile_times(&self) -> LatencyHistogram {
        self.shared.cache.compile_times()
    }

    /// High-water mark of the queue depth since start.
    pub fn max_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("engine state poisoned")
            .max_depth
    }

    /// Stop the workers and join them. Queued-but-unstarted jobs are
    /// abandoned; drain first if their results matter.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("engine state poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("engine state poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work.wait(st).expect("engine state poisoned");
            }
        };
        let Some((id, spec, submitted)) = job else {
            return;
        };
        let queue_wait = submitted.elapsed();
        let started = Instant::now();
        let outcome = spec.execute(shared.job_parallelism, Some(&shared.cache));
        let executed = started.elapsed();
        let latency_ms = executed.as_secs_f64() * 1e3;
        {
            let mut m = shared.metrics.lock().expect("engine metrics poisoned");
            m.record_span("queue_wait", queue_wait);
            m.record_span("execute", executed);
            m.incr("jobs", 1);
        }
        let mut st = shared.state.lock().expect("engine state poisoned");
        match outcome {
            Ok(summary) => st.results.push(JobResult {
                id,
                spec,
                summary,
                latency_ms,
            }),
            Err(e) => st.errors.push((id, e)),
        }
        st.in_flight -= 1;
        drop(st);
        shared.done.notify_all();
    }
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
        assert!(engine.max_depth() >= 1);
        // Telemetry: one queue-wait and one execute sample per job, one
        // compile sample per build.
        let m = engine.metrics();
        assert_eq!(m.counter("jobs"), 24);
        assert_eq!(m.span("queue_wait").unwrap().count(), 24);
        assert_eq!(m.span("execute").unwrap().count(), 24);
        assert_eq!(engine.compile_times().count(), 2);
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
