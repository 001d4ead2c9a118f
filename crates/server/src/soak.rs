//! The deterministic soak/throughput harness behind `repro soak`.
//!
//! The soak serves one fixed grid of campaign jobs through [`serve`]:
//! all 28 generated shapes on the Titan and the C2075, plus `shm-pipe`
//! and `cbe-dot` on the Titan, each under the five suite environments.
//! Every job's seed derives from the run's base seed and the job's
//! *grid coordinates* (never its submission index), so one seed always
//! names the same work, however the batch is ordered or drained.
//!
//! [`run_soak`] then re-executes a sample of the batch standalone, and
//! three fixed gates judge the [`SoakReport`] ([`GateReport::judge`]):
//!
//! * **throughput** — at least [`MIN_JOBS_PER_SEC`] sustained over the
//!   whole batch, far below what the grid sustains (about 160 jobs/sec
//!   on one worker, see `BENCH_soak.json`), so only a collapse trips it;
//! * **cache** — an artifact-cache hit rate above [`MIN_CACHE_HIT_RATE`]:
//!   the grid keys 290 jobs to 20 artifacts, so anything under it means
//!   the shared cache is broken;
//! * **determinism** — [`DETERMINISM_SAMPLES`] jobs spread evenly from
//!   the batch's first job to its last (an application job), re-executed
//!   standalone (a fresh cache, no queue, no pool), must reproduce their
//!   queued digests bit for bit.
//!
//! The report's `results_digest` covers only job results (spec-sorted
//! spec × summary digest pairs), never wall-clock fields: two runs under
//! one seed produce identical digests on any machine.

use crate::engine::{serve, Batch, JobResult};
use crate::job::{EnvKind, JobSpec, WorkloadSpec};
use wmm_core::campaign::Fnv64;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_obs::Json;

/// The throughput floor, in jobs per second.
pub const MIN_JOBS_PER_SEC: f64 = 2.0;

/// The cache floor (exclusive: a hit rate of exactly this fails).
pub const MIN_CACHE_HIT_RATE: f64 = 0.9;

/// How many jobs the determinism gate re-executes standalone.
pub const DETERMINISM_SAMPLES: usize = 7;

/// The soak's job grid at `seed`: 280 litmus jobs (shape × chip ×
/// environment, 6 executions each), then 10 application jobs (4 runs
/// each). A job's seed is [`mix_seed`]-chained from `seed` through a
/// litmus/app tag and its grid coordinates; the zeros are the
/// coordinates of the grid's one distance and one application chip.
fn grid(seed: u64) -> Vec<JobSpec> {
    let seeded = |coords: &[u64]| coords.iter().fold(seed, |s, &c| mix_seed(s, c));
    let mut jobs = Vec::new();
    for (si, &shape) in Shape::ALL.iter().enumerate() {
        for (ci, chip) in ["Titan", "C2075"].into_iter().enumerate() {
            for (ki, env) in EnvKind::ALL.into_iter().enumerate() {
                jobs.push(JobSpec {
                    chip: chip.to_string(),
                    env,
                    workload: WorkloadSpec::Litmus {
                        shape,
                        distance: 64,
                    },
                    execs: 6,
                    seed: seeded(&[0, si as u64, 0, ci as u64, ki as u64]),
                });
            }
        }
    }
    for (ai, app) in ["shm-pipe", "cbe-dot"].into_iter().enumerate() {
        for (ki, env) in EnvKind::ALL.into_iter().enumerate() {
            jobs.push(JobSpec {
                chip: "Titan".to_string(),
                env,
                workload: WorkloadSpec::App {
                    name: app.to_string(),
                },
                execs: 4,
                seed: seeded(&[1, ai as u64, 0, ki as u64]),
            });
        }
    }
    jobs
}

/// Pass/fail of the three gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReport {
    /// Throughput gate cleared.
    pub throughput_ok: bool,
    /// Cache gate cleared.
    pub cache_ok: bool,
    /// Determinism gate cleared (jobs were checked, and every one
    /// reproduced).
    pub determinism_ok: bool,
}

impl GateReport {
    /// The gate rule over a batch's throughput and cache hit rate and
    /// the determinism sample's counts.
    pub fn judge(
        jobs_per_sec: f64,
        cache_hit_rate: f64,
        checked: usize,
        mismatches: usize,
    ) -> GateReport {
        GateReport {
            throughput_ok: jobs_per_sec >= MIN_JOBS_PER_SEC,
            cache_ok: cache_hit_rate > MIN_CACHE_HIT_RATE,
            determinism_ok: checked > 0 && mismatches == 0,
        }
    }

    /// Every gate cleared.
    pub fn pass(&self) -> bool {
        self.throughput_ok && self.cache_ok && self.determinism_ok
    }
}

/// Everything a soak run measured. The results, the digest and the
/// determinism counts are deterministic in the seed; the timings are
/// the run's actual performance.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The run's base seed.
    pub seed: u64,
    /// The served grid.
    pub batch: Batch,
    /// Jobs re-executed standalone for the determinism gate.
    pub determinism_checked: usize,
    /// Of which disagreed with their queued result (must be 0).
    pub determinism_mismatches: usize,
}

/// Canonical digest over a batch's results: (spec text, summary digest)
/// pairs sorted by spec, folded through [`Fnv64`]. Sorting makes the
/// digest a function of the *set* of results, so shuffled submission
/// orders agree; specs are unique within the soak's grid.
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

/// Serve the grid at `seed` on `workers` threads (0 ⇒ all cores), then
/// re-execute the determinism sample standalone. A failed gate shows in
/// the report ([`SoakReport::gates`]); an `Err` is a run that could not
/// finish.
pub fn run_soak(seed: u64, workers: usize) -> Result<SoakReport, String> {
    let batch = serve(grid(seed), workers)?;
    let (mut checked, mut mismatches) = (0, 0);
    for i in sample_indices(batch.results.len(), DETERMINISM_SAMPLES) {
        let r = &batch.results[i];
        checked += 1;
        if r.spec.execute(1, None)?.digest() != r.summary.digest() {
            mismatches += 1;
        }
    }
    Ok(SoakReport {
        seed,
        batch,
        determinism_checked: checked,
        determinism_mismatches: mismatches,
    })
}

impl SoakReport {
    /// The three gates, judged on this report.
    pub fn gates(&self) -> GateReport {
        GateReport::judge(
            self.batch.jobs_per_sec(),
            self.batch.cache.hit_rate(),
            self.determinism_checked,
            self.determinism_mismatches,
        )
    }

    /// [`results_digest`] of the batch, as 16 hex digits.
    pub fn results_digest(&self) -> String {
        format!("{:016x}", results_digest(&self.batch.results))
    }

    /// The report as a JSON document: the run's counts and timings, the
    /// digest, one object per gate, then the deterministic counters
    /// and the wall-clock spans.
    pub fn to_json(&self) -> Json {
        let (batch, gates) = (&self.batch, self.gates());
        let (cache, hit_rate, jobs_per_sec) =
            (&batch.cache, batch.cache.hit_rate(), batch.jobs_per_sec());
        let mut latencies: Vec<f64> = batch.results.iter().map(|r| r.latency_ms).collect();
        latencies.sort_by(f64::total_cmp);
        let at = |p| Json::Fixed(percentile(&latencies, p), 3);
        let latency = Json::Object(vec![
            ("p50", at(50.0)),
            ("p90", at(90.0)),
            ("p99", at(99.0)),
        ]);
        let cache = Json::Object(vec![
            ("builds", cache.builds.into()),
            ("hits", cache.hits.into()),
            ("entries", cache.entries.into()),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
        ]);
        let throughput_gate = Json::Object(vec![
            ("min_jobs_per_sec", Json::Fixed(MIN_JOBS_PER_SEC, 1)),
            ("jobs_per_sec", Json::Fixed(jobs_per_sec, 1)),
            ("ok", gates.throughput_ok.into()),
        ]);
        let cache_gate = Json::Object(vec![
            ("min_hit_rate", Json::Fixed(MIN_CACHE_HIT_RATE, 4)),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
            ("ok", gates.cache_ok.into()),
        ]);
        let determinism_gate = Json::Object(vec![
            ("checked", self.determinism_checked.into()),
            ("mismatches", self.determinism_mismatches.into()),
            ("ok", gates.determinism_ok.into()),
        ]);
        let deterministic = Json::Object(vec![
            ("channels", batch.channels.to_json()),
            ("provenance", batch.provenance.to_json()),
        ]);
        let wall_clock_us = Json::Object(vec![
            ("queue_wait", batch.queue_wait.to_json()),
            ("execute", batch.execute.to_json()),
            ("compile", batch.compile.to_json()),
        ]);
        let metrics = vec![
            ("deterministic", deterministic),
            ("wall_clock_us", wall_clock_us),
        ];
        Json::Object(vec![
            ("seed", self.seed.into()),
            ("workers", batch.workers.into()),
            ("jobs", batch.results.len().into()),
            ("litmus_jobs", batch.litmus_jobs().into()),
            ("app_jobs", batch.app_jobs().into()),
            ("elapsed_sec", Json::Fixed(batch.elapsed_sec, 3)),
            ("jobs_per_sec", Json::Fixed(jobs_per_sec, 1)),
            ("latency_ms", latency),
            ("cache", cache),
            ("results_digest", self.results_digest().into()),
            ("throughput_gate", throughput_gate),
            ("cache_gate", cache_gate),
            ("determinism_gate", determinism_gate),
            ("metrics", Json::Object(metrics)),
            ("pass", gates.pass().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::parse_jobs;
    use wmm_core::cache::CacheStats;
    use wmm_core::campaign::SummaryValue;
    use wmm_core::env::CampaignResult;
    use wmm_litmus::Histogram;
    use wmm_obs::{ChannelCounts, LatencyHistogram, Provenance};

    #[test]
    fn the_grid_is_deterministic_valid_and_duplicate_free() {
        let a = grid(2016);
        assert_eq!(a, grid(2016));
        let litmus = a
            .iter()
            .filter(|j| matches!(j.workload, WorkloadSpec::Litmus { .. }))
            .count();
        assert_eq!((litmus, a.len() - litmus), (280, 10));
        for job in &a {
            job.validate().unwrap();
        }
        let mut specs: Vec<String> = a.iter().map(|j| j.to_string()).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), a.len(), "specs must be unique");
        // A different base seed reseeds every job.
        assert!(a.iter().zip(grid(2017)).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn the_soak_reproduces_its_pinned_results() {
        let report = run_soak(2016, 2).unwrap();
        let batch = &report.batch;
        assert_eq!(report.results_digest(), "bdb85dc0c70d89bd");
        assert_eq!((batch.litmus_jobs(), batch.app_jobs()), (280, 10));
        assert_eq!((batch.cache.builds, batch.cache.hits), (20, 270));
        assert_eq!(
            (report.determinism_checked, report.determinism_mismatches),
            (7, 0)
        );
        assert!(report.gates().cache_ok && report.gates().determinism_ok);
    }

    #[test]
    fn determinism_sample_spans_the_batch_and_reaches_an_application_job() {
        assert_eq!(sample_indices(10, 1).collect::<Vec<_>>(), [0]);
        assert_eq!(sample_indices(10, 4).collect::<Vec<_>>(), [0, 3, 6, 9]);
        assert_eq!(sample_indices(3, 7).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(sample_indices(0, 7).count(), 0);
        let jobs = grid(2016);
        let picked: Vec<usize> = sample_indices(jobs.len(), DETERMINISM_SAMPLES).collect();
        assert_eq!(picked.len(), DETERMINISM_SAMPLES);
        assert_eq!(picked.last(), Some(&(jobs.len() - 1)));
        assert!(matches!(
            jobs[jobs.len() - 1].workload,
            WorkloadSpec::App { .. }
        ));
    }

    #[test]
    fn each_gate_fails_on_its_side_of_its_floor() {
        let pass = GateReport::judge(2.0, 0.91, 7, 0);
        assert!(pass.pass(), "{pass:?}");
        let slow = GateReport::judge(1.9, 0.91, 7, 0);
        assert!(!slow.throughput_ok && !slow.pass(), "{slow:?}");
        let cold = GateReport::judge(2.0, 0.9, 7, 0);
        assert!(!cold.cache_ok && !cold.pass(), "{cold:?}");
        for (checked, mismatches) in [(0, 0), (7, 1)] {
            let gates = GateReport::judge(2.0, 0.91, checked, mismatches);
            assert!(!gates.determinism_ok && !gates.pass(), "{gates:?}");
        }
    }

    /// A report over a hand-built batch, so its rendering can be pinned
    /// byte for byte.
    fn hand_built() -> SoakReport {
        let specs = parse_jobs(
            "litmus Titan sys-str+ MP 64 6 1; litmus C2075 l1-str+ CoRR 64 6 2; \
             app Titan no-str- shm-pipe 4 3",
        )
        .unwrap();
        let app = CampaignResult {
            runs: 4,
            errors: 1,
            postcondition_failures: 1,
            timeouts: 0,
            faults: 0,
        };
        let summaries = [
            SummaryValue::Litmus(Histogram::new()),
            SummaryValue::Litmus(Histogram::new()),
            SummaryValue::App(app),
        ];
        let results = specs
            .into_iter()
            .zip(summaries)
            .zip([2.98125, 63.2424, 9.6549])
            .enumerate()
            .map(|(id, ((spec, summary), latency_ms))| JobResult {
                id: id as u64,
                spec,
                summary,
                latency_ms,
            })
            .collect();
        let mut queue_wait = LatencyHistogram::new();
        for us in [0, 5, 120, 4000] {
            queue_wait.record_us(us);
        }
        let mut execute = LatencyHistogram::new();
        for us in [900, 1100, 70000] {
            execute.record_us(us);
        }
        SoakReport {
            seed: 2016,
            batch: Batch {
                results,
                workers: 2,
                elapsed_sec: 0.00927,
                cache: CacheStats {
                    hits: 270,
                    builds: 20,
                    entries: 20,
                    calibrations: 10,
                },
                queue_wait,
                execute,
                compile: LatencyHistogram::new(),
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
            },
            determinism_checked: 7,
            determinism_mismatches: 0,
        }
    }

    #[test]
    fn hand_built_report_renders_the_recorded_bytes() {
        let expected = r#"{
  "seed": 2016,
  "workers": 2,
  "jobs": 3,
  "litmus_jobs": 2,
  "app_jobs": 1,
  "elapsed_sec": 0.009,
  "jobs_per_sec": 323.6,
  "latency_ms": {"p50": 9.655, "p90": 63.242, "p99": 63.242},
  "cache": {"builds": 20, "hits": 270, "entries": 20, "hit_rate": 0.9310},
  "results_digest": "195dbdf555c3cb34",
  "throughput_gate": {"min_jobs_per_sec": 2.0, "jobs_per_sec": 323.6, "ok": true},
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
        report.batch.elapsed_sec = 0.0;
        let json = report.to_json().render();
        assert!(json.contains("\n  \"jobs_per_sec\": null,\n"), "{json}");
        assert!(
            json.contains("\"jobs_per_sec\": null, \"ok\": true}"),
            "{json}"
        );
    }

    #[test]
    fn a_failed_gate_shows_on_its_line_and_fails_the_report() {
        let mut report = hand_built();
        report.batch.elapsed_sec = 10.0;
        assert!(!report.gates().throughput_ok);
        let json = report.to_json().render();
        assert!(json
            .lines()
            .any(|l| l.starts_with("  \"throughput_gate\": {") && l.contains("\"ok\": false")));
        assert!(json.ends_with("  \"pass\": false\n}\n"), "{json}");
    }
}
