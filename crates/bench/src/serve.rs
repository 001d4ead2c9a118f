//! `repro serve --jobs <spec>` — batch campaign jobs through the engine.
//!
//! The spec is a path to a job file (one [`JobSpec`] text form per
//! line, `#` comments allowed) or, if no such file exists, inline text
//! with jobs separated by `;`. The whole batch is served by
//! [`wmm_server::serve`], so every job against the same chip ×
//! environment shares one compiled set of stress artifacts, and every
//! application job on the same chip shares one native calibration run.
//! The summary (the batch's `Display`, as `repro soak` prints it)
//! counts both.
//!
//! ```text
//! repro serve --jobs 'litmus Titan sys-str+ MP 64 100 7; app K20 sys-str+ cbe-dot 50 7'
//! ```

use wmm_server::{parse_jobs, serve, JobSpec};

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

/// Serve the batch and print per-job results plus the batch summary.
pub fn run(spec: &str, workers: usize) -> Result<(), String> {
    let batch = serve(load_jobs(spec)?, workers)?;
    println!("{:>4}  {:<52} {:>10} {:>9}", "id", "job", "result", "ms");
    for r in &batch.results {
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
    println!("\n{batch}");
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
