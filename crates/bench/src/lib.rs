//! # wmm-bench — the experiment harness
//!
//! One generator per table and figure of the paper's evaluation:
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig3`] | Fig. 3 — patch finding plots (Titan, C2075, 980) |
//! | [`table2`] | Tab. 2 — tuned stressing parameters per chip |
//! | [`table3`] | Tab. 3 — access-sequence ranking snippet (Titan) |
//! | [`fig4`] | Fig. 4 — spread finding curves (980, K20) |
//! | [`table5`] | Tab. 5 — testing-environment effectiveness |
//! | [`table6`] | Tab. 6 — empirical fence insertion results |
//! | [`fig5`] | Fig. 5 — fence runtime/energy cost scatter |
//! | [`running`] | Sec. 1 — the cbe-dot running example |
//! | [`suite`] | generated litmus suite: shapes × chips × the five `EnvKind` columns |
//! | [`analyze`] | static delay-set analyzer over shapes and app kernels |
//! | [`serve`] | `repro serve` — batch jobs through the campaign engine |
//! | [`soak`] | `repro soak` — deterministic soak/throughput harness, gated report under `tests/artifacts/soak/` |
//! | [`trace`] | `repro trace` — replay one campaign with a bounded event log |
//!
//! Every generator takes a [`Scale`] so the half-billion-execution grids
//! of the paper shrink to laptop scale while preserving the shapes; the
//! `repro` binary exposes them as subcommands. None of them is a perf
//! harness: speed is measured by `perfbench/` alone.

pub mod analyze;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod running;
pub mod serve;
pub mod soak;
pub mod suite;
pub mod table2;
pub mod table3;
pub mod table5;
pub mod table6;
pub mod trace;

use std::fmt;
use std::path::Path;
use wmm_core::tuning::TuningConfig;
use wmm_obs::Json;

/// Execution-budget scaling shared by the experiment generators.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Litmus executions per tuning configuration (the paper's C = 1000).
    pub execs: u32,
    /// Application executions per campaign cell (the paper runs "for one
    /// hour", i.e. hundreds to thousands of executions).
    pub app_runs: u32,
    /// Per-check iteration count I for fence insertion (paper: 32).
    pub harden_iters: u32,
    /// Runs of the final empirical-stability check.
    pub harden_stable: u32,
    /// Base seed every subcommand derives its per-campaign seeds from
    /// (the `repro` binary's global `--seed` flag; default 2016).
    pub seed: u64,
    /// Worker threads for campaign layers (0 ⇒ all cores). Set by the
    /// `repro` binary's `--workers` flag or the `WMM_WORKERS` env var;
    /// results are bit-identical for every value.
    pub workers: usize,
}

impl Scale {
    /// Quick defaults: every experiment finishes in minutes on one core.
    pub fn quick() -> Self {
        Scale {
            execs: 32,
            app_runs: 120,
            harden_iters: 24,
            harden_stable: 120,
            seed: 2016,
            workers: 0,
        }
    }

    /// Heavier defaults for overnight runs.
    pub fn full() -> Self {
        Scale {
            execs: 200,
            app_runs: 600,
            harden_iters: 32,
            harden_stable: 600,
            seed: 2016,
            workers: 0,
        }
    }

    /// The tuning pipeline's configuration at this scale: the scaled
    /// defaults at this scale's execution count, seed and worker count.
    pub fn tuning(&self) -> TuningConfig {
        TuningConfig {
            execs: self.execs,
            base_seed: self.seed,
            parallelism: self.workers,
            ..TuningConfig::scaled()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

/// Why a `repro` command failed. Both kinds exit 2; only a bad command
/// line is answered with the usage text.
#[derive(Debug)]
pub enum Failure {
    /// A bad command line: an unknown subcommand, flag or name, or a
    /// missing or unparsable value. The message names the token.
    Usage(String),
    /// A document that could not be written. The message names the path.
    Write(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(msg) | Failure::Write(msg) => f.write_str(msg),
        }
    }
}

/// A bare message is a command-line error.
impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_string())
    }
}

/// Write `doc` to `path` and say so: the one way `repro` writes a JSON
/// document (the `--json PATH` files and the soak report).
pub fn write_json(path: impl AsRef<Path>, doc: &Json) -> Result<(), Failure> {
    let path = path.as_ref();
    std::fs::write(path, doc.render())
        .map_err(|e| Failure::Write(format!("failed to write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Render a histogram bar for plot-style terminal output.
pub fn bar(count: u64, max: u64, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let n = ((count as f64 / max as f64) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0, 10, 10), "");
        assert_eq!(bar(10, 10, 10), "##########");
        assert_eq!(bar(5, 10, 10), "#####");
        assert_eq!(bar(7, 0, 10), "");
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::full().execs > Scale::quick().execs);
        assert!(Scale::full().app_runs > Scale::quick().app_runs);
    }
}
