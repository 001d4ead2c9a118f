//! Tab. 5 — effectiveness of the eight testing environments, per chip.

use crate::Scale;
use wmm_apps::all_apps;
use wmm_core::env::{AppHarness, Environment};
use wmm_sim::chip::Chip;

/// One chip's row: per environment, `(effective count, any-error count)`
/// — the paper's `a / b` cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Chip short name.
    pub chip: String,
    /// Per environment (Tab. 5 column order): environment name,
    /// effective count `a`, error count `b`, and the failing app names.
    pub cells: Vec<(String, u32, u32, Vec<String>)>,
}

/// Evaluate every environment × application for one chip.
pub fn run_chip(chip: &Chip, scale: Scale) -> Row {
    let apps = all_apps();
    let envs = Environment::all_eight(chip);
    let mut cells = Vec::new();
    for env in &envs {
        let mut effective = 0;
        let mut any = 0;
        let mut failing = Vec::new();
        for app in &apps {
            let h = AppHarness::new(chip, app.as_ref());
            let r = h.campaign(env, scale.app_runs, scale.seed, scale.workers);
            if r.any_error() {
                any += 1;
                failing.push(app.name().to_string());
            }
            if r.effective() {
                effective += 1;
            }
        }
        cells.push((env.name(), effective, any, failing));
    }
    Row {
        chip: chip.short.to_string(),
        cells,
    }
}

/// Run the whole table and print it in the paper's layout.
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) -> Vec<Row> {
    let chips = chips.unwrap_or_else(Chip::all);
    println!(
        "Tab. 5: environment effectiveness (cells are a/b: errors in >5% of runs for a\napps, any error for b apps; {} runs per cell; 10 applications)\n",
        scale.app_runs
    );
    let header: Vec<String> = Environment::all_eight(&chips[0])
        .iter()
        .map(Environment::name)
        .collect();
    print!("{:7}", "chip");
    for h in &header {
        print!(" {h:>10}");
    }
    println!();
    let mut rows = Vec::new();
    for chip in &chips {
        let row = run_chip(chip, scale);
        print!("{:7}", row.chip);
        for (_, a, b, _) in &row.cells {
            print!(" {:>10}", format!("{a}/{b}"));
        }
        println!();
        rows.push(row);
    }
    println!("\nExpected shape: sys-str columns dominate every other strategy; no-str");
    println!("shows errors almost nowhere; the fenced sdk-red and cub-scan never fail;");
    println!("their -nf variants and ls-bh (whose fences are insufficient) do fail.");
    rows
}
