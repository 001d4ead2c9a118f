//! `repro soak` — serve the soak's seeded job grid.
//!
//! Serves the grid of [`wmm_server::soak`] at `--seed` (default 2016) on
//! `--workers` threads through [`wmm_server::serve`], the batch path
//! `repro serve` takes, and prints the batch summary and the results
//! digest. It writes nothing; the `repro` binary exits 1 when a job
//! fails, as for `repro serve`.

use wmm_server::run_soak;
use wmm_server::soak::results_digest;

/// Serve the grid at `seed` and print the summary and the digest. An
/// `Err` names the first job that failed.
pub fn run(seed: u64, workers: usize) -> Result<(), String> {
    let batch = run_soak(seed, workers)?;
    println!("{batch}");
    println!("results digest: {:016x}", results_digest(&batch.results));
    Ok(())
}
