//! The deterministic soak/throughput harness behind `repro soak`.
//!
//! A [`SoakMix`] is a fixed grid of campaign jobs — all 28 generated
//! shapes × chips × the five suite environments, plus application
//! campaigns — seeded from one `SOAK_SEED`: each job's seed derives
//! from its *grid coordinates* (never its submission index), so the
//! same seed always names the same work no matter how the queue is
//! shuffled or how many workers drain it.
//!
//! [`run_soak`] streams the mix through an [`Engine`], then writes a
//! threshold-gated [`SoakReport`]:
//!
//! * **throughput gate** — sustained jobs/sec over the whole batch;
//! * **cache gate** — artifact-cache hit rate (the quick profile keys
//!   hundreds of jobs to a handful of environments, so anything under
//!   0.9 means the shared cache is broken);
//! * **determinism gate** — a sample of jobs spread evenly from the
//!   batch's first job to its last, re-executed standalone (a fresh
//!   cache, no queue, no pool), must reproduce their queued digests bit
//!   for bit. The last job of every standard mix is an application job.
//!
//! The report's `results_digest` covers only job results (id-ordered
//! over spec × summary digest), never wall-clock fields: two runs under
//! one seed produce identical digests on any machine.

use crate::engine::{Engine, EngineConfig, JobResult};
use crate::job::{EnvKind, JobSpec, WorkloadSpec};
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;
use wmm_core::cache::CacheStats;
use wmm_core::campaign::Fnv64;
use wmm_gen::Shape;
use wmm_litmus::parallel::resolve_workers;
use wmm_litmus::runner::mix_seed;
use wmm_obs::{ChannelCounts, Json, LatencyHistogram, Provenance};

/// The three soak intensities, after the exemplar harness shape:
/// `--quick` for CI smoke, `--extended` for nightly runs, `--stress`
/// for the full grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakProfile {
    /// CI smoke: two chips, one distance, small campaigns.
    Quick,
    /// Nightly: three chips, two distances, medium campaigns.
    Extended,
    /// Full grid: four chips, two distances, heavy campaigns.
    Stress,
}

impl SoakProfile {
    /// The profile's flag/report name.
    pub fn name(self) -> &'static str {
        match self {
            SoakProfile::Quick => "quick",
            SoakProfile::Extended => "extended",
            SoakProfile::Stress => "stress",
        }
    }

    /// Default gate thresholds. Throughput floors are calibrated far
    /// below the soak points recorded in `BENCH_soak.json` (the quick
    /// mix sustains about 160 jobs/sec on one worker, against a floor
    /// of 2), so only a collapse — not a slow CI box — trips them. The
    /// cache floor is the artifact cache's contract: five-ish
    /// environments shared across hundreds of jobs.
    pub fn gates(self) -> SoakGates {
        match self {
            SoakProfile::Quick => SoakGates {
                min_jobs_per_sec: 2.0,
                min_cache_hit_rate: 0.9,
                determinism_samples: 7,
            },
            SoakProfile::Extended => SoakGates {
                min_jobs_per_sec: 1.0,
                min_cache_hit_rate: 0.9,
                determinism_samples: 9,
            },
            SoakProfile::Stress => SoakGates {
                min_jobs_per_sec: 0.5,
                min_cache_hit_rate: 0.9,
                determinism_samples: 11,
            },
        }
    }
}

impl fmt::Display for SoakProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl FromStr for SoakProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "quick" => Ok(SoakProfile::Quick),
            "extended" => Ok(SoakProfile::Extended),
            "stress" => Ok(SoakProfile::Stress),
            other => Err(format!(
                "unknown soak profile {other:?} (expected quick, extended or stress)"
            )),
        }
    }
}

/// Gate thresholds a soak run must clear to exit zero.
#[derive(Debug, Clone, Copy)]
pub struct SoakGates {
    /// Minimum sustained jobs/sec over the whole batch.
    pub min_jobs_per_sec: f64,
    /// Minimum artifact-cache hit rate (exclusive: the report fails at
    /// exactly the floor).
    pub min_cache_hit_rate: f64,
    /// How many jobs to re-execute standalone for the determinism gate.
    pub determinism_samples: usize,
}

/// The job grid a soak run submits. [`SoakMix::for_profile`] builds the
/// standard mixes; tests build small custom ones.
#[derive(Debug, Clone)]
pub struct SoakMix {
    /// Chips the litmus grid spans (short names).
    pub litmus_chips: Vec<String>,
    /// Chips the application campaigns span.
    pub app_chips: Vec<String>,
    /// Environments every grid point runs under.
    pub envs: Vec<EnvKind>,
    /// Litmus shapes (all 28 in the standard mixes — intra- and
    /// inter-block placements both come along).
    pub shapes: Vec<Shape>,
    /// Instantiation distances.
    pub distances: Vec<u32>,
    /// Executions per litmus job.
    pub execs: u32,
    /// Applications (short names).
    pub apps: Vec<String>,
    /// Campaign runs per application job.
    pub app_runs: u32,
}

impl SoakMix {
    /// The standard mix for a profile.
    pub fn for_profile(profile: SoakProfile) -> SoakMix {
        let s = |names: &[&str]| names.iter().map(|n| (*n).to_string()).collect();
        match profile {
            SoakProfile::Quick => SoakMix {
                litmus_chips: s(&["Titan", "C2075"]),
                app_chips: s(&["Titan"]),
                envs: EnvKind::ALL.to_vec(),
                shapes: Shape::ALL.to_vec(),
                distances: vec![64],
                execs: 6,
                apps: s(&["shm-pipe", "cbe-dot"]),
                app_runs: 4,
            },
            SoakProfile::Extended => SoakMix {
                litmus_chips: s(&["Titan", "C2075", "980"]),
                app_chips: s(&["Titan", "K20"]),
                envs: EnvKind::ALL.to_vec(),
                shapes: Shape::ALL.to_vec(),
                distances: vec![64, 256],
                execs: 12,
                apps: s(&["shm-pipe", "cbe-dot"]),
                app_runs: 8,
            },
            SoakProfile::Stress => SoakMix {
                litmus_chips: s(&["Titan", "C2075", "980", "K20"]),
                app_chips: s(&["Titan", "K20"]),
                envs: EnvKind::ALL.to_vec(),
                shapes: Shape::ALL.to_vec(),
                distances: vec![64, 256],
                execs: 24,
                apps: s(&["shm-pipe", "cbe-dot"]),
                app_runs: 12,
            },
        }
    }

    /// Expand the grid into concrete jobs. Each job's seed is
    /// [`mix_seed`]-chained from `base_seed` and the job's grid
    /// coordinates (with a leading litmus/app tag), so the list —
    /// seeds included — is a pure function of `(self, base_seed)`, and
    /// shuffling the submission order cannot change any job's work.
    pub fn jobs(&self, base_seed: u64) -> Vec<JobSpec> {
        let mut out = Vec::new();
        for (si, shape) in self.shapes.iter().enumerate() {
            for (di, &distance) in self.distances.iter().enumerate() {
                for (ci, chip) in self.litmus_chips.iter().enumerate() {
                    for (ki, &env) in self.envs.iter().enumerate() {
                        let seed = [0, si as u64, di as u64, ci as u64, ki as u64]
                            .into_iter()
                            .fold(base_seed, mix_seed);
                        out.push(JobSpec {
                            chip: chip.clone(),
                            env,
                            workload: WorkloadSpec::Litmus {
                                shape: *shape,
                                distance,
                            },
                            execs: self.execs,
                            seed,
                        });
                    }
                }
            }
        }
        for (ai, app) in self.apps.iter().enumerate() {
            for (ci, chip) in self.app_chips.iter().enumerate() {
                for (ki, &env) in self.envs.iter().enumerate() {
                    let seed = [1, ai as u64, ci as u64, ki as u64]
                        .into_iter()
                        .fold(base_seed, mix_seed);
                    out.push(JobSpec {
                        chip: chip.clone(),
                        env,
                        workload: WorkloadSpec::App { name: app.clone() },
                        execs: self.app_runs,
                        seed,
                    });
                }
            }
        }
        out
    }
}

/// One soak run's parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The profile (names the standard mix and default gates).
    pub profile: SoakProfile,
    /// The run's base seed (`SOAK_SEED`).
    pub seed: u64,
    /// Engine worker count (0 ⇒ all cores).
    pub workers: usize,
    /// Gate thresholds.
    pub gates: SoakGates,
}

impl SoakConfig {
    /// Defaults for a profile: seed 2016, four workers, the profile's
    /// gates.
    pub fn new(profile: SoakProfile) -> SoakConfig {
        SoakConfig {
            profile,
            seed: 2016,
            workers: 4,
            gates: profile.gates(),
        }
    }

    /// Where this run's report belongs, relative to the directory the
    /// soak runs in: `tests/artifacts/soak/<profile>-seed<seed>/report.json`,
    /// the deterministic, seed-named location CI uploads. Known before
    /// the run, so a caller can make the directory first.
    pub fn report_path(&self) -> PathBuf {
        Path::new("tests/artifacts/soak")
            .join(format!("{}-seed{}", self.profile, self.seed))
            .join("report.json")
    }
}

/// Pass/fail summary of the three gates.
#[derive(Debug, Clone, Copy)]
pub struct GateReport {
    /// The throughput floor applied.
    pub min_jobs_per_sec: f64,
    /// The cache-hit-rate floor applied.
    pub min_cache_hit_rate: f64,
    /// Throughput gate cleared.
    pub throughput_ok: bool,
    /// Cache gate cleared.
    pub cache_ok: bool,
    /// Determinism gate cleared (every sampled job reproduced).
    pub determinism_ok: bool,
    /// All gates cleared.
    pub pass: bool,
}

/// The telemetry block of a [`SoakReport`], split the way the JSON
/// renders it: deterministic channel counters aggregated over every
/// litmus result, and wall-clock span histograms from the engine and
/// the artifact cache.
#[derive(Debug, Clone, Default)]
pub struct SoakMetrics {
    /// Per-channel weakness-event totals over every litmus run in the
    /// batch — deterministic in `(mix, seed)`, like the digest.
    pub channels: ChannelCounts,
    /// Weak-run attribution summed over every litmus job; its total is
    /// the batch's weak-outcome count (deterministic).
    pub provenance: Provenance,
    /// Wall-clock per-job queue wait (machine-dependent).
    pub queue_wait: LatencyHistogram,
    /// Wall-clock per-job execute span (machine-dependent).
    pub execute: LatencyHistogram,
    /// Wall-clock artifact-compile span per cache build
    /// (machine-dependent).
    pub compile: LatencyHistogram,
}

/// Everything a soak run measured. `results_digest` and the
/// determinism fields are deterministic in `(mix, seed)`; the timing
/// fields are the run's actual performance.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Profile name.
    pub profile: String,
    /// The run's base seed.
    pub seed: u64,
    /// Worker threads the engine ran the batch on (the configured
    /// count resolved: 0 ⇒ all cores, never more than the batch's jobs).
    pub workers: usize,
    /// Total jobs executed.
    pub jobs: usize,
    /// Of which litmus campaigns.
    pub litmus_jobs: usize,
    /// Of which application campaigns.
    pub app_jobs: usize,
    /// Wall-clock seconds from first submission to drained.
    pub elapsed_sec: f64,
    /// Sustained throughput over the whole batch.
    pub jobs_per_sec: f64,
    /// Median per-job execution latency (ms).
    pub latency_ms_p50: f64,
    /// 90th-percentile latency (ms).
    pub latency_ms_p90: f64,
    /// 99th-percentile latency (ms).
    pub latency_ms_p99: f64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// FNV-1a digest over (spec, summary-digest) pairs in canonical
    /// (spec-sorted) order, as 16 hex digits.
    pub results_digest: String,
    /// Jobs re-executed standalone for the determinism gate.
    pub determinism_checked: usize,
    /// Of which disagreed with their queued result (must be 0).
    pub determinism_mismatches: usize,
    /// Channel counters and span histograms (see [`SoakMetrics`]).
    pub metrics: SoakMetrics,
    /// Gate outcomes.
    pub gates: GateReport,
}

/// Canonical digest over a batch's results: (spec text, summary digest)
/// pairs sorted by spec, folded through [`Fnv64`]. Sorting makes the
/// digest a function of the *set* of results, so shuffled submission
/// orders agree; specs are unique within a [`SoakMix`] grid.
pub fn results_digest(results: &[JobResult]) -> u64 {
    let mut pairs: Vec<(String, u64)> = results
        .iter()
        .map(|r| (r.spec.to_string(), r.summary.digest()))
        .collect();
    pairs.sort();
    let mut f = Fnv64::new();
    for (spec, digest) in &pairs {
        f.write(spec.as_bytes());
        f.write(&[0]);
        f.write_u64(*digest);
    }
    f.finish()
}

/// The batch indices the determinism gate re-executes: `samples` of
/// `n` (at most `n`), spread evenly over both ends, so the first and the
/// last job are always among them; index 0 alone for one sample.
fn sample_indices(n: usize, samples: usize) -> impl Iterator<Item = usize> {
    let samples = samples.min(n);
    (0..samples).map(move |i| match samples {
        1 => 0,
        _ => i * (n - 1) / (samples - 1),
    })
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Run the profile's standard mix. See [`run_soak_mix`].
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    run_soak_mix(cfg, &SoakMix::for_profile(cfg.profile))
}

/// Run a soak: submit the whole mix, drain it, re-execute a sample of
/// jobs standalone for the determinism gate, and evaluate thresholds.
/// Gate failures are reported in the returned [`SoakReport`] (callers
/// exit nonzero on `!report.gates.pass`); an `Err` is an execution
/// failure, not a gate failure.
pub fn run_soak_mix(cfg: &SoakConfig, mix: &SoakMix) -> Result<SoakReport, String> {
    let jobs = mix.jobs(cfg.seed);
    let litmus_jobs = jobs
        .iter()
        .filter(|j| matches!(j.workload, WorkloadSpec::Litmus { .. }))
        .count();
    let app_jobs = jobs.len() - litmus_jobs;
    let engine = Engine::start(EngineConfig {
        workers: cfg.workers,
        job_parallelism: 1,
    });
    let started = Instant::now();
    for job in &jobs {
        engine.submit(job.clone())?;
    }
    let results = engine.drain()?;
    let elapsed_sec = started.elapsed().as_secs_f64();
    let cache = engine.cache_stats();
    let engine_metrics = engine.metrics();
    let compile = engine.compile_times();

    // Deterministic telemetry: fold every litmus result's channel
    // totals and weak-run attribution (pure counts, so — like the
    // digest — a function of `(mix, seed)` alone).
    let mut channels = ChannelCounts::default();
    let mut provenance = Provenance::default();
    for r in &results {
        if let Some(h) = r.summary.as_litmus() {
            channels.add(h.channels());
            provenance.add(&h.provenance_total());
        }
    }
    let metrics = SoakMetrics {
        channels,
        provenance,
        queue_wait: engine_metrics
            .span("queue_wait")
            .cloned()
            .unwrap_or_default(),
        execute: engine_metrics.span("execute").cloned().unwrap_or_default(),
        compile,
    };

    let mut latencies: Vec<f64> = results.iter().map(|r| r.latency_ms).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

    // Determinism gate: an evenly spaced sample of jobs, re-executed
    // standalone — no queue, no pool, no shared cache — must reproduce
    // the queued digests exactly.
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for i in sample_indices(results.len(), cfg.gates.determinism_samples) {
        let r = &results[i];
        let standalone = r.spec.execute(1, None)?;
        checked += 1;
        if standalone.digest() != r.summary.digest() {
            mismatches += 1;
        }
    }

    let jobs_per_sec = if elapsed_sec > 0.0 {
        results.len() as f64 / elapsed_sec
    } else {
        f64::INFINITY
    };
    let throughput_ok = jobs_per_sec >= cfg.gates.min_jobs_per_sec;
    let cache_ok = cache.hit_rate() > cfg.gates.min_cache_hit_rate;
    let determinism_ok = checked > 0 && mismatches == 0;
    Ok(SoakReport {
        profile: cfg.profile.name().to_string(),
        seed: cfg.seed,
        workers: resolve_workers(cfg.workers, jobs.len()),
        jobs: results.len(),
        litmus_jobs,
        app_jobs,
        elapsed_sec,
        jobs_per_sec,
        latency_ms_p50: percentile(&latencies, 50.0),
        latency_ms_p90: percentile(&latencies, 90.0),
        latency_ms_p99: percentile(&latencies, 99.0),
        cache,
        results_digest: format!("{:016x}", results_digest(&results)),
        determinism_checked: checked,
        determinism_mismatches: mismatches,
        metrics,
        gates: GateReport {
            min_jobs_per_sec: cfg.gates.min_jobs_per_sec,
            min_cache_hit_rate: cfg.gates.min_cache_hit_rate,
            throughput_ok,
            cache_ok,
            determinism_ok,
            pass: throughput_ok && cache_ok && determinism_ok,
        },
    })
}

impl SoakReport {
    /// The report as a JSON document: the run's counts and timings, the
    /// digest, one object per gate, then the deterministic counters
    /// and the wall-clock spans.
    pub fn to_json(&self) -> Json {
        let (gates, metrics, hit_rate) = (&self.gates, &self.metrics, self.cache.hit_rate());
        let latency = Json::Object(vec![
            ("p50", Json::Fixed(self.latency_ms_p50, 3)),
            ("p90", Json::Fixed(self.latency_ms_p90, 3)),
            ("p99", Json::Fixed(self.latency_ms_p99, 3)),
        ]);
        let cache = Json::Object(vec![
            ("builds", self.cache.builds.into()),
            ("hits", self.cache.hits.into()),
            ("entries", self.cache.entries.into()),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
        ]);
        let throughput_gate = Json::Object(vec![
            ("min_jobs_per_sec", Json::Fixed(gates.min_jobs_per_sec, 1)),
            ("jobs_per_sec", Json::Fixed(self.jobs_per_sec, 1)),
            ("ok", gates.throughput_ok.into()),
        ]);
        let cache_gate = Json::Object(vec![
            ("min_hit_rate", Json::Fixed(gates.min_cache_hit_rate, 4)),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
            ("ok", gates.cache_ok.into()),
        ]);
        let determinism_gate = Json::Object(vec![
            ("checked", self.determinism_checked.into()),
            ("mismatches", self.determinism_mismatches.into()),
            ("ok", gates.determinism_ok.into()),
        ]);
        let deterministic = Json::Object(vec![
            ("channels", metrics.channels.to_json()),
            ("provenance", metrics.provenance.to_json()),
        ]);
        let wall_clock_us = Json::Object(vec![
            ("queue_wait", metrics.queue_wait.to_json()),
            ("execute", metrics.execute.to_json()),
            ("compile", metrics.compile.to_json()),
        ]);
        let metrics = vec![
            ("deterministic", deterministic),
            ("wall_clock_us", wall_clock_us),
        ];
        Json::Object(vec![
            ("profile", self.profile.as_str().into()),
            ("seed", self.seed.into()),
            ("workers", self.workers.into()),
            ("jobs", self.jobs.into()),
            ("litmus_jobs", self.litmus_jobs.into()),
            ("app_jobs", self.app_jobs.into()),
            ("elapsed_sec", Json::Fixed(self.elapsed_sec, 3)),
            ("jobs_per_sec", Json::Fixed(self.jobs_per_sec, 1)),
            ("latency_ms", latency),
            ("cache", cache),
            ("results_digest", self.results_digest.as_str().into()),
            ("throughput_gate", throughput_gate),
            ("cache_gate", cache_gate),
            ("determinism_gate", determinism_gate),
            ("metrics", Json::Object(metrics)),
            ("pass", gates.pass.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature mix that keeps unit tests fast while exercising
    /// both workload kinds and several environments.
    fn tiny_mix() -> SoakMix {
        SoakMix {
            litmus_chips: vec!["Titan".to_string()],
            app_chips: vec!["Titan".to_string()],
            envs: vec![EnvKind::Native, EnvKind::SysStrPlus],
            shapes: vec![Shape::Mp, Shape::Sb, Shape::MpShared],
            distances: vec![64],
            execs: 4,
            apps: vec!["shm-pipe".to_string()],
            app_runs: 2,
        }
    }

    fn tiny_cfg(workers: usize) -> SoakConfig {
        SoakConfig {
            profile: SoakProfile::Quick,
            seed: 42,
            workers,
            gates: SoakGates {
                min_jobs_per_sec: 0.001,
                min_cache_hit_rate: 0.0,
                determinism_samples: 3,
            },
        }
    }

    #[test]
    fn mix_expansion_is_deterministic_and_duplicate_free() {
        let mix = tiny_mix();
        let a = mix.jobs(42);
        let b = mix.jobs(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3 * 2 + 2);
        let mut specs: Vec<String> = a.iter().map(|j| j.to_string()).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), a.len(), "specs must be unique");
        // A different base seed reseeds every job.
        let c = mix.jobs(43);
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn standard_profiles_cover_the_advertised_grid() {
        let quick = SoakMix::for_profile(SoakProfile::Quick);
        assert_eq!(quick.shapes.len(), Shape::ALL.len());
        assert_eq!(quick.envs.len(), 5);
        let jobs = quick.jobs(2016);
        let litmus = Shape::ALL.len() * quick.litmus_chips.len() * 5;
        let apps = quick.apps.len() * quick.app_chips.len() * 5;
        assert_eq!(jobs.len(), litmus + apps);
        for job in &jobs {
            job.validate().unwrap();
        }
    }

    #[test]
    fn determinism_sample_spans_the_batch_and_reaches_an_application_job() {
        assert_eq!(sample_indices(10, 1).collect::<Vec<_>>(), [0]);
        assert_eq!(sample_indices(10, 4).collect::<Vec<_>>(), [0, 3, 6, 9]);
        assert_eq!(sample_indices(3, 7).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(sample_indices(0, 7).count(), 0);
        for profile in [
            SoakProfile::Quick,
            SoakProfile::Extended,
            SoakProfile::Stress,
        ] {
            let jobs = SoakMix::for_profile(profile).jobs(2016);
            let samples = profile.gates().determinism_samples;
            let picked: Vec<usize> = sample_indices(jobs.len(), samples).collect();
            assert_eq!(picked.len(), samples, "{profile}");
            assert_eq!(picked.last(), Some(&(jobs.len() - 1)), "{profile}");
            assert!(
                picked
                    .iter()
                    .any(|&i| matches!(jobs[i].workload, WorkloadSpec::App { .. })),
                "{profile}: no application job among {picked:?} of {}",
                jobs.len()
            );
        }
    }

    #[test]
    fn soak_digest_is_reproducible_across_runs_and_worker_counts() {
        let mix = tiny_mix();
        let a = run_soak_mix(&tiny_cfg(1), &mix).unwrap();
        let b = run_soak_mix(&tiny_cfg(1), &mix).unwrap();
        let c = run_soak_mix(&tiny_cfg(3), &mix).unwrap();
        assert_eq!(a.results_digest, b.results_digest);
        assert_eq!(a.results_digest, c.results_digest);
        assert!(a.gates.determinism_ok);
        assert_eq!(a.determinism_mismatches, 0);
        assert_eq!(a.jobs, 8);
    }

    #[test]
    fn impossible_throughput_gate_fails_the_report() {
        let mut cfg = tiny_cfg(2);
        cfg.gates.min_jobs_per_sec = 1e12;
        let report = run_soak_mix(&cfg, &tiny_mix()).unwrap();
        assert!(!report.gates.throughput_ok);
        assert!(!report.gates.pass);
        // ...and the failure is visible on the gate's line.
        assert!(report
            .to_json()
            .render()
            .lines()
            .any(|l| l.starts_with("  \"throughput_gate\": {") && l.contains("\"ok\": false")));
    }

    #[test]
    fn report_json_carries_the_gate_lines() {
        let report = run_soak_mix(&tiny_cfg(2), &tiny_mix()).unwrap();
        let json = report.to_json().render();
        for field in [
            "\"throughput_gate\"",
            "\"cache_gate\"",
            "\"determinism_gate\"",
            "\"results_digest\"",
            "\"metrics\"",
            "\"pass\": true",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        // The metrics entry is a single line separating the
        // deterministic counters from the wall-clock spans.
        let metrics_line = json
            .lines()
            .find(|l| l.contains("\"metrics\""))
            .expect("metrics line");
        assert!(metrics_line.contains("\"deterministic\""));
        assert!(metrics_line.contains("\"channels\""));
        assert!(metrics_line.contains("\"provenance\""));
        assert!(metrics_line.contains("\"wall_clock_us\""));
        assert!(metrics_line.contains("\"queue_wait\""));
    }

    #[test]
    fn soak_channel_counters_are_worker_count_invariant_and_live() {
        let mix = tiny_mix();
        let a = run_soak_mix(&tiny_cfg(1), &mix).unwrap();
        let b = run_soak_mix(&tiny_cfg(3), &mix).unwrap();
        assert_eq!(a.metrics.channels, b.metrics.channels);
        assert_eq!(a.metrics.provenance, b.metrics.provenance);
        // Liveness needs a channel that fires essentially every run —
        // the tiny mix's 4-exec cells are too small for the low-rate
        // window channel. CoRR on the incoherent-L1 Tesla pressures
        // the structural L1 channel on nearly every stressed execution.
        let live_mix = SoakMix {
            litmus_chips: vec!["C2075".to_string()],
            app_chips: vec![],
            envs: vec![EnvKind::L1StrPlus],
            shapes: vec![Shape::CoRR],
            distances: vec![64],
            execs: 24,
            apps: vec![],
            app_runs: 0,
        };
        let live = run_soak_mix(&tiny_cfg(2), &live_mix).unwrap();
        assert!(
            live.metrics.channels.l1_stale > 0,
            "no L1 events: {}",
            live.metrics.channels
        );
        // Wall-clock spans sample every job regardless of worker count.
        assert_eq!(a.metrics.execute.count(), a.jobs as u64);
        assert_eq!(a.metrics.queue_wait.count(), a.jobs as u64);
        assert!(a.metrics.compile.count() > 0);
    }

    /// A report with fixed values, so its rendering can be pinned byte
    /// for byte.
    fn hand_built() -> SoakReport {
        let mut queue_wait = LatencyHistogram::new();
        for us in [0, 5, 120, 4000] {
            queue_wait.record_us(us);
        }
        let mut execute = LatencyHistogram::new();
        for us in [900, 1100, 70000] {
            execute.record_us(us);
        }
        SoakReport {
            profile: "quick".to_string(),
            seed: 2016,
            workers: 2,
            jobs: 290,
            litmus_jobs: 280,
            app_jobs: 10,
            elapsed_sec: 0.89649,
            jobs_per_sec: 323.4876,
            latency_ms_p50: 2.98125,
            latency_ms_p90: 9.6549,
            latency_ms_p99: 63.2424,
            cache: CacheStats {
                hits: 270,
                builds: 20,
                entries: 20,
                calibrations: 10,
            },
            results_digest: "bdb85dc0c70d89bd".to_string(),
            determinism_checked: 7,
            determinism_mismatches: 0,
            metrics: SoakMetrics {
                channels: ChannelCounts {
                    window_global: 24,
                    window_shared: 4198,
                    l1_stale: 202890,
                    fence_inval: 360,
                    atomic_read_through: 2190,
                },
                provenance: Provenance {
                    window_global: 2,
                    window_shared: 5,
                    l1_stale: 35,
                    ..Provenance::default()
                },
                queue_wait,
                execute,
                compile: LatencyHistogram::new(),
            },
            gates: GateReport {
                min_jobs_per_sec: 2.0,
                min_cache_hit_rate: 0.9,
                throughput_ok: true,
                cache_ok: true,
                determinism_ok: true,
                pass: true,
            },
        }
    }

    #[test]
    fn hand_built_report_renders_the_recorded_bytes() {
        let expected = r#"{
  "profile": "quick",
  "seed": 2016,
  "workers": 2,
  "jobs": 290,
  "litmus_jobs": 280,
  "app_jobs": 10,
  "elapsed_sec": 0.896,
  "jobs_per_sec": 323.5,
  "latency_ms": {"p50": 2.981, "p90": 9.655, "p99": 63.242},
  "cache": {"builds": 20, "hits": 270, "entries": 20, "hit_rate": 0.9310},
  "results_digest": "bdb85dc0c70d89bd",
  "throughput_gate": {"min_jobs_per_sec": 2.0, "jobs_per_sec": 323.5, "ok": true},
  "cache_gate": {"min_hit_rate": 0.9000, "hit_rate": 0.9310, "ok": true},
  "determinism_gate": {"checked": 7, "mismatches": 0, "ok": true},
  "metrics": {"deterministic": {"channels": {"window_global": 24, "window_shared": 4198, "l1_stale": 202890, "fence_inval": 360, "atomic_read_through": 2190}, "provenance": {"window_global": 2, "window_shared": 5, "l1_stale": 35, "atomic_read_through": 0, "fence_inval": 0, "unattributed": 0}}, "wall_clock_us": {"queue_wait": {"n": 4, "p50_us": 7, "p90_us": 4000, "p99_us": 4000, "mean_us": 1031, "max_us": 4000}, "execute": {"n": 3, "p50_us": 2047, "p90_us": 70000, "p99_us": 70000, "mean_us": 24000, "max_us": 70000}, "compile": {"n": 0, "p50_us": 0, "p90_us": 0, "p99_us": 0, "mean_us": 0, "max_us": 0}}},
  "pass": true
}
"#;
        assert_eq!(hand_built().to_json().render(), expected);
    }

    #[test]
    fn an_infinite_throughput_renders_as_null() {
        let mut report = hand_built();
        report.jobs_per_sec = f64::INFINITY;
        let json = report.to_json().render();
        assert!(json.contains("\n  \"jobs_per_sec\": null,\n"), "{json}");
        assert!(
            json.contains("\"jobs_per_sec\": null, \"ok\": true}"),
            "{json}"
        );
    }

    #[test]
    fn report_path_is_seed_named() {
        assert_eq!(
            SoakConfig::new(SoakProfile::Quick).report_path(),
            Path::new("tests/artifacts/soak/quick-seed2016/report.json")
        );
    }
}
