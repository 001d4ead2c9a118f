//! Fig. 4 — spread-finding curves (score per spread, per litmus test).

use crate::{bar, Scale};
use wmm_core::tuning::spread;
use wmm_sim::chip::Chip;

/// Generate and print the curve for one chip.
pub fn run_chip(chip: &Chip, scale: Scale) {
    let cfg = scale.tuning();
    println!("== Fig. 4 panel: {} ==", chip.name);
    let scores = spread::score_spreads(&chip.clone(), chip.patch_words, &chip.preferred_seq, &cfg);
    let max = scores
        .entries
        .iter()
        .map(|(_, s)| s.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>7}",
        "spread", "MP", "LB", "SB", "total"
    );
    for (m, s) in &scores.entries {
        let total: u64 = s.iter().sum();
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>7} |{}",
            m,
            s[0],
            s[1],
            s[2],
            total,
            bar(total, max, 30)
        );
    }
    println!(
        "best spread = {} (paper: 2)\n",
        spread::best_spread(&scores)
    );
}

/// Generate and print the figure's two panels (980 and K20).
pub fn run(scale: Scale) {
    println!("Fig. 4: spread finding\n");
    for short in ["980", "K20"] {
        let chip = Chip::by_short(short).expect("paper chip");
        run_chip(&chip, scale);
    }
    println!("Expected shape: scores peak at a spread of 2 and decline as stress spreads");
    println!("thin (the paper notes the K20 curve is shallower than the 980's).");
}
