//! The Sec. 1 running example: `cbe-dot` on the Tesla K20.
//!
//! "No erroneous behaviour is observed when conducting 1000 executions
//! of the application on a Tesla K20 GPU. [...] Under our testing
//! environment, errors (due to weak memory) appear in 102 out of 1000
//! executions of cbe-dot on the K20."
//!
//! `--chips` runs the same two campaigns on other chips; the paper's
//! counts are quoted beside the K20 only.

use crate::{chips_or, Scale};
use wmm_apps::CbeDot;
use wmm_core::env::{AppHarness, Environment};
use wmm_sim::chip::Chip;

/// Run the example on each chip (the paper's K20 when `chips` is
/// `None`) and print both campaign results.
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) {
    let runs = scale.app_runs.max(200);
    let app = CbeDot::new();
    for (i, chip) in chips_or(chips, &["K20"]).iter().enumerate() {
        let paper = |quote: &str| match chip.short {
            "K20" => format!("   (paper: {quote})"),
            _ => String::new(),
        };
        let h = AppHarness::new(chip, &app);
        if i > 0 {
            println!();
        }
        println!(
            "Running example (Sec. 1): cbe-dot on {}, {} executions\n",
            chip.name, runs
        );
        let native = h.campaign(&Environment::native(), runs, scale.seed, scale.workers);
        println!(
            "native (no-str-): {:>4} / {} erroneous{}",
            native.errors,
            native.runs,
            paper("0 / 1000")
        );
        let sys = h.campaign(
            &Environment::sys_str_plus(chip),
            runs,
            scale.seed + 1,
            scale.workers,
        );
        println!(
            "under sys-str+ :  {:>4} / {} erroneous{}",
            sys.errors,
            sys.runs,
            paper("102 / 1000")
        );
    }
    println!(
        "\nA developer who is not suspicious about weak memory effects might conclude\nthe application is correct — until it runs under the testing environment."
    );
}
