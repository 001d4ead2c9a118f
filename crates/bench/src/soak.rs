//! `repro soak` — the deterministic soak/throughput harness.
//!
//! Streams a profile's seeded job mix (`--quick`, `--extended` or
//! `--stress`; see [`wmm_server::soak`]) through the campaign engine,
//! prints the throughput/latency/cache summary, and writes the gated
//! report to `tests/artifacts/soak/<profile>-seed<seed>/report.json`
//! (relative to the current directory; nothing else is written). The
//! base seed comes from `--seed`, else the `SOAK_SEED` env var, else
//! 2016.
//!
//! Returns whether every gate passed, or the error that stopped the
//! run; the `repro` binary exits 1 on a failed gate and 2 on an error.
//! The report's directory is made before the run, so a report that
//! cannot be written stops the soak before it starts.

use wmm_server::{run_soak, SoakConfig, SoakProfile};

/// Run a soak profile end to end. Prints the report, writes it, and
/// returns `Ok(true)` iff every gate passed, or `Err` when the report's
/// directory cannot be made, the soak run itself fails or the report
/// cannot be written.
pub fn run(profile: SoakProfile, seed: u64, workers: usize) -> Result<bool, String> {
    let mut cfg = SoakConfig::new(profile);
    cfg.seed = seed;
    cfg.workers = workers;
    let path = cfg.report_path();
    let dir = path.parent().expect("the report sits in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    println!("soak --{}: seed {}", profile, cfg.seed);
    let report = run_soak(&cfg).map_err(|e| format!("soak run failed: {e}"))?;
    println!(
        "\n{} jobs ({} litmus, {} app) on {} workers in {:.2}s — {:.1} jobs/sec",
        report.jobs,
        report.litmus_jobs,
        report.app_jobs,
        report.workers,
        report.elapsed_sec,
        report.jobs_per_sec
    );
    println!(
        "latency ms: p50 {:.2}  p90 {:.2}  p99 {:.2}",
        report.latency_ms_p50, report.latency_ms_p90, report.latency_ms_p99
    );
    println!(
        "artifact cache: {} builds, {} hits ({:.1}% hit rate)",
        report.cache.builds,
        report.cache.hits,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "spans (wall-clock): queue_wait {}; execute {}; compile {}",
        report.metrics.queue_wait, report.metrics.execute, report.metrics.compile
    );
    println!(
        "weakness channels (deterministic): {}; provenance: {}",
        report.metrics.channels, report.metrics.provenance
    );
    println!("results digest: {}", report.results_digest);
    println!(
        "gates: throughput {}  cache {}  determinism {} ({} checked, {} mismatches)",
        ok(report.gates.throughput_ok),
        ok(report.gates.cache_ok),
        ok(report.gates.determinism_ok),
        report.determinism_checked,
        report.determinism_mismatches
    );
    crate::write_json(&path, &report.to_json()).map_err(|e| e.to_string())?;
    if report.gates.pass {
        println!("soak: PASS");
    } else {
        eprintln!("soak: FAIL (see gate lines in the report)");
    }
    Ok(report.gates.pass)
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAIL"
    }
}
