//! `repro serve --jobs <spec>` — batch campaign jobs through the engine.
//!
//! The spec is a path to a job file (one [`JobSpec`] text form per
//! line, `#` comments allowed) or, if no such file exists, inline text
//! with jobs separated by `;`. The whole batch runs through one
//! [`Engine`], so every job against the same chip × environment shares
//! one compiled set of stress artifacts, and every application job on
//! the same chip shares one native calibration run. The summary line
//! counts both.
//!
//! ```text
//! repro serve --jobs 'litmus Titan sys-str+ MP 64 100 7; app K20 sys-str+ cbe-dot 50 7'
//! ```

use std::time::Instant;
use wmm_litmus::parallel::resolve_workers;
use wmm_obs::{ChannelCounts, LatencyHistogram};
use wmm_server::{parse_jobs, Engine, EngineConfig, JobSpec};

/// Read the job list from a file path or inline text.
pub fn load_jobs(spec: &str) -> Result<Vec<JobSpec>, String> {
    let text = match std::fs::read_to_string(spec) {
        Ok(t) => t,
        Err(_) => spec.to_string(),
    };
    let jobs = parse_jobs(&text)?;
    if jobs.is_empty() {
        return Err("no jobs in spec (expected `litmus <chip> <env> <shape> <distance> <execs> <seed>` or `app <chip> <env> <name> <runs> <seed>` lines)".to_string());
    }
    Ok(jobs)
}

/// Run the batch and print per-job results plus engine counters.
pub fn run(spec: &str, workers: usize) -> Result<(), String> {
    let jobs = load_jobs(spec)?;
    println!(
        "engine: {} workers, {} jobs queued\n",
        resolve_workers(workers, jobs.len()),
        jobs.len()
    );
    let engine = Engine::start(EngineConfig {
        workers,
        job_parallelism: 1,
    });
    let started = Instant::now();
    for job in jobs {
        engine.submit(job)?;
    }
    let results = engine.drain()?;
    let elapsed = started.elapsed().as_secs_f64();
    println!("{:>4}  {:<52} {:>10} {:>9}", "id", "job", "result", "ms");
    for r in &results {
        let outcome = match (r.summary.as_litmus(), r.summary.as_app()) {
            (Some(h), _) => format!("{}/{} weak", h.weak(), h.total()),
            (_, Some(c)) => format!("{}/{} err", c.errors, c.runs),
            _ => "-".to_string(),
        };
        println!(
            "{:>4}  {:<52} {:>10} {:>9.2}",
            r.id,
            r.spec.to_string(),
            outcome,
            r.latency_ms
        );
    }
    let stats = engine.cache_stats();
    let app_jobs = results
        .iter()
        .filter(|r| r.summary.as_app().is_some())
        .count();
    println!(
        "\n{} jobs in {:.2}s ({:.1} jobs/sec); artifact cache: {} builds, {} hits ({:.1}% hit rate); calibrations: {} for {} app jobs",
        results.len(),
        elapsed,
        if elapsed > 0.0 {
            results.len() as f64 / elapsed
        } else {
            f64::INFINITY
        },
        stats.builds,
        stats.hits,
        stats.hit_rate() * 100.0,
        stats.calibrations,
        app_jobs
    );
    // Wall-clock span telemetry plus the batch's deterministic
    // weakness-channel totals (the litmus jobs' provenance counters).
    let m = engine.metrics();
    let zero = LatencyHistogram::default();
    println!(
        "spans (wall-clock): queue_wait {}; execute {}; compile {}",
        m.span("queue_wait").unwrap_or(&zero),
        m.span("execute").unwrap_or(&zero),
        engine.compile_times()
    );
    let mut channels = ChannelCounts::default();
    for r in &results {
        if let Some(h) = r.summary.as_litmus() {
            channels.add(h.channels());
        }
    }
    println!("weakness channels (deterministic): {channels}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_specs_load_without_a_file() {
        let jobs =
            load_jobs("litmus Titan sys-str+ MP 64 8 7; app Titan no-str- shm-pipe 2 9").unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].chip, "Titan");
    }

    #[test]
    fn empty_and_malformed_specs_error() {
        assert!(load_jobs("# just a comment").is_err());
        assert!(load_jobs("litmus Titan sys-str+ NOPE 64 8 7").is_err());
    }
}
