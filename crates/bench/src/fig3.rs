//! Fig. 3 — patch-finding plots: weak behaviours per stressed location.

use crate::{bar, Scale};
use wmm_core::tuning::patch;
use wmm_gen::Shape;
use wmm_sim::chip::Chip;

/// The figure's chips and distance rows: (chip, distances).
pub fn paper_panels() -> Vec<(&'static str, [u32; 3])> {
    vec![
        ("Titan", [0, 32, 64]),
        ("C2075", [0, 64, 128]),
        ("980", [0, 64, 128]),
    ]
}

/// Generate and print the figure for one chip.
pub fn run_chip(chip: &Chip, distances: &[u32], scale: Scale) {
    let mut cfg = scale.tuning();
    cfg.execs = cfg.execs.max(48);
    println!(
        "== Fig. 3 panel: {} ({}; critical patch size {}) ==",
        chip.name, chip.arch, chip.patch_words
    );
    for &d in distances {
        for test in [Shape::Mp, Shape::Lb] {
            let grid = patch::sweep(chip, test, d, &cfg);
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
    }
    println!();
}

/// Generate and print the full figure.
pub fn run(scale: Scale) {
    println!("Fig. 3: patch finding (x axis = stressed scratchpad location, 0..256 step 8)\n");
    for (short, distances) in paper_panels() {
        let chip = Chip::by_short(short).expect("paper chip");
        run_chip(&chip, &distances, scale);
    }
    println!("Expected shape: no weak behaviour for d < patch size; effective patches of");
    println!("size 32 (Kepler) / 64 (Fermi, Maxwell) whose positions shift with d; the 980");
    println!("shows only ambient MP noise at these distances (its MP patches need d >= 256).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_match_figure() {
        let p = paper_panels();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].0, "Titan");
        assert_eq!(p[0].1, [0, 32, 64]);
        assert_eq!(p[1].1, [0, 64, 128]);
    }
}
