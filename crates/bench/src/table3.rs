//! Tab. 3 — snippet of access-sequence scores for the GTX Titan.

use crate::Scale;
use wmm_core::tuning::sequence;
use wmm_gen::Shape;
use wmm_sim::chip::Chip;

/// Score all sequences on one chip and print the paper's table shape:
/// top three and bottom three per test, plus the rank of the overall
/// (Pareto) winner in each per-test ranking.
pub fn run(chip_short: &str, scale: Scale) {
    let chip = Chip::by_short(chip_short).expect("chip");
    let cfg = scale.tuning();
    println!("Tab. 3: access-sequence scores for {}\n", chip.name);
    let scores = sequence::score_sequences(&chip, chip.patch_words, &cfg);
    let winner = sequence::most_effective(&scores);
    println!(
        "overall most effective sequence: '{}' (paper: '{}')\n",
        winner.seq, chip.preferred_seq
    );
    for (ti, test) in Shape::TRIO.iter().enumerate() {
        let ranked = scores.ranked_for(*test);
        println!("{test}:");
        for (rank, e) in ranked.iter().take(3).enumerate() {
            println!(
                "  rank {:>2}  {:12} score {}",
                rank + 1,
                e.seq.to_string(),
                e.scores[ti]
            );
        }
        let wrank = ranked
            .iter()
            .position(|e| e.seq == winner.seq)
            .map(|p| p + 1)
            .unwrap_or(0);
        println!(
            "  ...     {:12} rank {} (the overall winner is rarely #1 for any single test)",
            winner.seq.to_string(),
            wrank
        );
        let n = ranked.len();
        for (back, e) in ranked.iter().rev().take(3).rev().enumerate() {
            println!(
                "  rank {:>2}  {:12} score {}",
                n - 2 + back,
                e.seq.to_string(),
                e.scores[ti]
            );
        }
    }
    println!("\nExpected shape: pure-store sequences rank at the bottom for every test;");
    println!("score disparity between top and bottom spans orders of magnitude.");
}
