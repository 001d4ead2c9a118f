//! The deterministic soak behind `repro soak`.
//!
//! The soak serves one fixed grid of campaign jobs through [`serve`]:
//! all 28 generated shapes on the Titan and the C2075, plus `shm-pipe`
//! and `cbe-dot` on the Titan, each under the five suite environments.
//! Every job's seed derives from the run's base seed and the job's
//! *grid coordinates* (never its submission index), so one seed always
//! names the same work, however the batch is ordered or drained.
//!
//! [`results_digest`] covers only job results (spec-sorted spec ×
//! summary digest pairs), never wall-clock fields: two runs under one
//! seed produce identical digests on any machine and at any worker
//! count. The soak judges nothing itself: its results, cache counters
//! and digest are pinned by `the_soak_reproduces_its_pinned_results`,
//! and no automated check bounds its speed: `perfbench` measures that
//! by hand.

use crate::engine::{serve, Batch, JobResult};
use crate::job::{EnvKind, JobSpec, WorkloadSpec};
use wmm_core::campaign::Fnv64;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;

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

/// Serve the grid at `seed` on `workers` threads (0 ⇒ all cores). An
/// `Err` names the first job that failed.
pub fn run_soak(seed: u64, workers: usize) -> Result<Batch, String> {
    serve(grid(seed), workers)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let batch = run_soak(2016, 2).unwrap();
        assert_eq!(results_digest(&batch.results), 0xbdb85dc0c70d89bd);
        assert_eq!((batch.litmus_jobs(), batch.app_jobs()), (280, 10));
        assert_eq!((batch.cache.builds, batch.cache.hits), (20, 270));
        // The grid's first job and its last, an application job, give
        // the same result standalone (a fresh cache, no queue).
        let last = batch.results.last().unwrap();
        assert!(matches!(last.spec.workload, WorkloadSpec::App { .. }));
        for r in [&batch.results[0], last] {
            let alone = r.spec.execute(1, None).unwrap();
            assert_eq!(alone.digest(), r.summary.digest(), "{}", r.spec);
        }
    }
}
