//! Fig. 3 — patch-finding plots: weak behaviours per stressed location.

use crate::{bar, chips_or, Scale};
use wmm_core::tuning::patch;
use wmm_gen::Shape;
use wmm_sim::chip::Chip;

/// Generate and print the panel for one chip: MP and LB swept at the
/// distances 0, P and 2P for the chip's critical patch size P, all six
/// sweeps in one batch.
fn run_chip(chip: &Chip, scale: Scale) {
    let cfg = scale.tuning();
    println!(
        "== Fig. 3 panel: {} ({}; critical patch size {}) ==",
        chip.name, chip.arch, chip.patch_words
    );
    let p = chip.patch_words;
    let panel = [0, p, 2 * p]
        .map(|d| [(Shape::Mp, d), (Shape::Lb, d)])
        .concat();
    for grid in patch::sweeps(chip, &panel, &cfg) {
        let (test, d) = (grid.test, grid.distance);
        let max = grid.counts.iter().copied().max().unwrap_or(0);
        print!("{test} d={d:<4} |");
        for &c in &grid.counts {
            // One character per sampled location, height-coded.
            let ch = match bar(c, max.max(1), 4).len() {
                0 => {
                    if c > cfg.noise {
                        '.'
                    } else {
                        ' '
                    }
                }
                1 => '_',
                2 => '=',
                3 => '#',
                _ => '#',
            };
            print!("{ch}");
        }
        println!("| max={max}/{}", cfg.execs);
        let patches = patch::epsilon_patches(&grid, cfg.noise);
        if !patches.is_empty() {
            let sizes: Vec<String> = patches
                .iter()
                .map(|p| format!("@{}+{}", p.start, p.size_words))
                .collect();
            println!("          eps-patches: {}", sizes.join(" "));
        }
    }
    println!();
}

/// Generate and print one panel per chip (the paper's Titan, C2075 and
/// 980 when `chips` is `None`).
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) {
    println!("Fig. 3: patch finding (x axis = stressed scratchpad location, 0..256 step 8)\n");
    for chip in chips_or(chips, &["Titan", "C2075", "980"]) {
        run_chip(&chip, scale);
    }
    println!("Expected shape: no weak behaviour for d < patch size; effective patches of");
    println!("size 32 (Kepler) / 64 (Fermi, Maxwell) whose positions shift with d; the 980");
    println!("shows only ambient MP noise at these distances (its MP patches need d >= 256).");
}
