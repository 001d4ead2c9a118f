//! Tab. 3 — snippets of access-sequence scores, per chip (the paper
//! shows the GTX Titan).

use crate::{chips_or, Scale};
use wmm_core::tuning::sequence;
use wmm_gen::Shape;
use wmm_sim::chip::Chip;
use wmm_sim::seq::AccessSeq;

/// Score all sequences on one chip and print the paper's table shape:
/// top three and bottom three per test, plus the ranks of the overall
/// (Pareto) winner and of the chip's preset sequence (with its score and
/// the ranks its tie spans) in each per-test ranking.
fn run_chip(chip: &Chip, scale: Scale) {
    let cfg = scale.tuning();
    println!("Tab. 3: access-sequence scores for {}\n", chip.name);
    let scores = sequence::score_sequences(chip, chip.patch_words, &cfg);
    let winner = scores.winner();
    println!(
        "overall most effective sequence: '{}' (paper: '{}')\n",
        winner, chip.preferred_seq
    );
    for (ti, test) in Shape::TRIO.iter().enumerate() {
        let ranked = scores.ranked_for(*test);
        let rank_of =
            |seq: &AccessSeq| ranked.iter().position(|e| e.0 == *seq).map_or(0, |p| p + 1);
        println!("{test}:");
        for (rank, e) in ranked.iter().take(3).enumerate() {
            println!(
                "  rank {:>2}  {:12} score {}",
                rank + 1,
                e.0.to_string(),
                e.1[ti]
            );
        }
        println!(
            "  ...     {:12} rank {} (the overall winner is rarely #1 for any single test)",
            winner.to_string(),
            rank_of(winner)
        );
        // `ranked_for` sorts on the score alone, so a place among equal
        // scores is enumeration order: name the ranks the tie spans.
        let preset = &chip.preferred_seq;
        let score = ranked
            .iter()
            .find(|e| e.0 == *preset)
            .map_or(0, |e| e.1[ti]);
        let above = ranked.iter().filter(|e| e.1[ti] > score).count();
        let tied = ranked.iter().filter(|e| e.1[ti] == score).count();
        let span = if tied > 1 {
            format!(", tied over ranks {}-{}", above + 1, above + tied)
        } else {
            String::new()
        };
        println!(
            "  ...     {:12} rank {} score {score}{span} (the chip's preset sequence)",
            preset.to_string(),
            rank_of(preset)
        );
        let n = ranked.len();
        for (back, e) in ranked.iter().rev().take(3).rev().enumerate() {
            println!(
                "  rank {:>2}  {:12} score {}",
                n - 2 + back,
                e.0.to_string(),
                e.1[ti]
            );
        }
    }
}

/// Print the table for each chip (the paper's Titan when `chips` is
/// `None`).
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) {
    for (i, chip) in chips_or(chips, &["Titan"]).iter().enumerate() {
        if i > 0 {
            println!();
        }
        run_chip(chip, scale);
    }
    println!("\nExpected shape: pure-store sequences rank at the bottom for every test;");
    println!("score disparity between top and bottom spans orders of magnitude.");
}
