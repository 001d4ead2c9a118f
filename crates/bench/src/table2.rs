//! Tab. 2 — tuned stressing parameters and tuning time, per chip.

use crate::Scale;
use wmm_core::tuning::{tune_chip, ChipTuning};
use wmm_sim::chip::Chip;

/// Run the full pipeline for the requested chips (paper order when
/// `None`) and print the table next to the paper's values.
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) -> Vec<ChipTuning> {
    let chips = chips.unwrap_or_else(Chip::all);
    println!("Tab. 2: stressing parameters and time spent tuning\n");
    println!(
        "{:8} {:>8} {:>8} {:12} {:12} {:>7} {:>7}  {:>10} {:>9}",
        "chip",
        "patch",
        "(paper)",
        "sequence",
        "(paper)",
        "spread",
        "(paper)",
        "executions",
        "time"
    );
    let mut out = Vec::new();
    for chip in &chips {
        let t = tune_chip(chip, &scale.tuning());
        println!(
            "{:8} {:>8} {:>8} {:12} {:12} {:>7} {:>7}  {:>10} {:>8.1}s",
            chip.short,
            t.patch_words,
            chip.patch_words,
            t.seq.to_string(),
            chip.preferred_seq.to_string(),
            t.spread,
            2,
            t.executions,
            t.elapsed.as_secs_f64()
        );
        out.push(t);
    }
    println!("\n(paper columns show Tab. 2's published values; the scaled grids trade");
    println!("some selection stability for a ~1000x smaller execution budget)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::tuning::TuningConfig;

    #[test]
    fn tune_one_runs_on_tiny_budget() {
        let chip = Chip::by_short("Titan").unwrap();
        let mut cfg = TuningConfig::quick();
        cfg.execs = 8;
        cfg.max_spread = 2;
        cfg.max_seq_len = 2;
        let t = tune_chip(&chip, &cfg);
        assert!(t.executions > 0);
        assert!(t.spread >= 1);
    }
}
