//! `repro soak` — the deterministic soak/throughput harness.
//!
//! Serves the soak's seeded job grid ([`wmm_server::soak`]) through the
//! campaign engine, prints the batch summary, the results digest and the
//! three gates, and writes the gated report to
//! `tests/artifacts/soak/seed<seed>/report.json` (relative to the current
//! directory; nothing else is written). The base seed is `--seed`
//! (default 2016), as for every other subcommand.
//!
//! Returns whether every gate passed, or the error that stopped the
//! run; the `repro` binary exits 1 on a failed gate and 2 on an error.
//! The report's file is made before the run, so a report that cannot be
//! written stops the soak before it starts.

use crate::JsonFile;
use std::path::PathBuf;
use wmm_server::run_soak;

/// Where the report of a soak at `seed` belongs, relative to the
/// directory the soak runs in: the seed-named location CI uploads.
fn report_path(seed: u64) -> PathBuf {
    PathBuf::from(format!("tests/artifacts/soak/seed{seed}/report.json"))
}

/// Run the soak end to end. Prints the report, writes it, and returns
/// `Ok(true)` iff every gate passed, or `Err` when the report's file
/// cannot be made, the soak run itself fails or the report cannot be
/// written.
pub fn run(seed: u64, workers: usize) -> Result<bool, String> {
    let path = report_path(seed);
    let dir = path.parent().expect("the report sits in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    let out = JsonFile::create(&path).map_err(|e| e.to_string())?;
    println!("soak: seed {seed}");
    let report = run_soak(seed, workers).map_err(|e| format!("soak run failed: {e}"))?;
    let gates = report.gates();
    println!("\n{}", report.batch);
    println!("results digest: {}", report.results_digest());
    println!(
        "gates: throughput {}  cache {}  determinism {} ({} checked, {} mismatches)",
        ok(gates.throughput_ok),
        ok(gates.cache_ok),
        ok(gates.determinism_ok),
        report.determinism_checked,
        report.determinism_mismatches
    );
    out.write(&report.to_json()).map_err(|e| e.to_string())?;
    if gates.pass() {
        println!("soak: PASS");
    } else {
        eprintln!("soak: FAIL (see gate lines in the report)");
    }
    Ok(gates.pass())
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAIL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn report_path_is_seed_named() {
        assert_eq!(
            report_path(2016),
            Path::new("tests/artifacts/soak/seed2016/report.json")
        );
    }
}
