//! Patch finding: identifying effective locations to stress (Sec. 3.2).
//!
//! For each litmus test `T`, distance `d` and scratchpad location `l`,
//! run `C` executions of `⟨T_d, l⟩` — the test with stress applied at
//! location `l` — and count weak behaviours. Contiguous runs of locations
//! whose counts exceed the noise threshold ε form *ε-patches*; the patch
//! size that occurs most often, agreed across the three tests, is the
//! chip's **critical patch size**.
//!
//! Patch-finding stress uses the paper's pre-tuning sequence: each
//! stressing thread "stores to and then loads from location l" (`st ld`).
//! [`sweeps`] lists every sampled location of any number of `(test, d)`
//! sweeps as probes of one pinned `st ld` kernel and runs them in one
//! batch.

use super::{weak_counts, Probe, TuningConfig};
use crate::stress::StressArtifacts;
use std::collections::BTreeMap;
use std::sync::Arc;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_sim::chip::Chip;
use wmm_sim::seq::AccessSeq;

/// Weak-behaviour counts over a location sweep for one `(test, d)`.
#[derive(Debug, Clone)]
pub struct PatchGrid {
    /// The litmus test.
    pub test: Shape,
    /// The distance between communication locations.
    pub distance: u32,
    /// Location stride of the sweep.
    pub step: u32,
    /// `counts[i]` = weak behaviours at location `i * step` over
    /// `execs` runs.
    pub counts: Vec<u64>,
}

/// An ε-patch: a maximal contiguous run of effective locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patch {
    /// First location of the run (in words).
    pub start: u32,
    /// Size of the run in words (`samples × step`).
    pub size_words: u32,
}

/// The patch-finding stage's full output.
#[derive(Debug, Clone)]
pub struct PatchReport {
    /// All sweeps performed.
    pub grids: Vec<PatchGrid>,
    /// Patch size concluded per test (None if that test showed no
    /// patches even after the extended-distance probe).
    pub per_test: Vec<(Shape, Option<u32>)>,
    /// The critical patch size, if the tests agree.
    pub critical: Option<u32>,
    /// Whether MP needed the extended-distance probe (the 980 quirk).
    pub used_extended_mp: bool,
    /// Litmus executions spent.
    pub executions: u64,
}

/// Sweep stress location `l` over `0, step, …` for each `(test, d)` of
/// `grid`, one grid per pair in the same order.
///
/// One pinned `st ld` kernel serves every sweep, re-pinned per location.
/// Each location's seed is derived from `(test, d, l)` alone, so the
/// grids are identical for every `cfg.parallelism` and whichever sweeps
/// share the batch.
pub fn sweeps(chip: &Chip, grid: &[(Shape, u32)], cfg: &TuningConfig) -> Vec<PatchGrid> {
    let pad = cfg.scratchpad(chip);
    let seq: AccessSeq = "st ld".parse().expect("literal");
    let artifacts = StressArtifacts::pinned(pad, &seq, &[0], cfg.stress_iters);
    let locations: Vec<u32> = (0..cfg.locations)
        .step_by(cfg.location_step as usize)
        .collect();
    let mut probes = Vec::new();
    for &(test, distance) in grid {
        // Seed index from the full catalogue so any shape can be swept
        // (the trio occupies positions 0..3, keeping legacy seeds intact).
        let t = Shape::ALL.iter().position(|s| *s == test).unwrap() as u64;
        for &l in &locations {
            let at = (t * 1_000_003 + u64::from(distance)) * 1_000_003 + u64::from(l);
            probes.push(Probe {
                stress: Arc::new(artifacts.with_locations(&[l])),
                test,
                distance,
                seed: mix_seed(cfg.base_seed, at),
            });
        }
    }
    let mut weaks = weak_counts(chip, pad, &probes, cfg.execs, cfg.parallelism).into_iter();
    grid.iter()
        .map(|&(test, distance)| PatchGrid {
            test,
            distance,
            step: cfg.location_step,
            counts: weaks.by_ref().take(locations.len()).collect(),
        })
        .collect()
}

/// Extract the ε-patches of a grid: maximal runs of sampled locations
/// with more than `noise` weak behaviours.
pub fn epsilon_patches(grid: &PatchGrid, noise: u64) -> Vec<Patch> {
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, &c) in grid.counts.iter().enumerate() {
        if c > noise {
            run_start.get_or_insert(i);
        } else if let Some(s) = run_start.take() {
            out.push(Patch {
                start: s as u32 * grid.step,
                size_words: (i - s) as u32 * grid.step,
            });
        }
    }
    if let Some(s) = run_start {
        out.push(Patch {
            start: s as u32 * grid.step,
            size_words: (grid.counts.len() - s) as u32 * grid.step,
        });
    }
    out
}

/// Snap an observed patch size to the nearest power of two (sampling at
/// `location_step > 1` quantises sizes).
pub fn snap_size(words: u32) -> u32 {
    if words == 0 {
        return 0;
    }
    let mut best = 8u32;
    let mut best_d = u32::MAX;
    let mut p = 8u32;
    while p <= 256 {
        let d = p.abs_diff(words);
        if d < best_d || (d == best_d && p > best) {
            best = p;
            best_d = d;
        }
        p *= 2;
    }
    best
}

/// The most frequent of `sizes`, ties going to the larger (`None` when
/// there are none).
fn mode(sizes: impl IntoIterator<Item = u32>) -> Option<u32> {
    let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
    for size in sizes {
        *histogram.entry(size).or_insert(0) += 1;
    }
    histogram
        .into_iter()
        .max_by_key(|&(size, n)| (n, size))
        .map(|(size, _)| size)
}

/// The modal (snapped) patch size across a set of grids, if any patches
/// were seen.
pub fn modal_patch_size<'a>(
    grids: impl IntoIterator<Item = &'a PatchGrid>,
    noise: u64,
) -> Option<u32> {
    let patches = grids.into_iter().flat_map(|g| epsilon_patches(g, noise));
    mode(patches.map(|p| snap_size(p.size_words)))
}

/// The full patch-finding stage for one chip: one batch of sweeps over
/// the trio at every patch distance, and a second over the extended
/// distances only when MP shows no patch.
pub fn find_patch_size(chip: &Chip, cfg: &TuningConfig) -> PatchReport {
    let sweep_grid = |tests: &[Shape], distances: &[u32]| {
        let grid: Vec<_> = tests
            .iter()
            .flat_map(|&test| distances.iter().map(move |&d| (test, d)))
            .collect();
        sweeps(chip, &grid, cfg)
    };
    let modal = |grids: &[PatchGrid], test| {
        modal_patch_size(grids.iter().filter(|g| g.test == test), cfg.noise)
    };
    let mut grids = sweep_grid(&Shape::TRIO, &cfg.patch_distances);
    let mut per_test = Shape::TRIO.map(|test| (test, modal(&grids, test))).to_vec();
    // The paper's 980 path: MP patches only emerge at larger distances;
    // probe the extended range.
    let used_extended_mp = per_test[0].1.is_none();
    if used_extended_mp {
        let extra = sweep_grid(&[Shape::Mp], &cfg.extended_distances);
        per_test[0].1 = modal(&extra, Shape::Mp);
        grids.extend(extra);
    }
    // The paper calls P critical when all three tests agree; for
    // judgement-call chips (980) we accept the majority of the observed
    // sizes.
    let critical = mode(per_test.iter().filter_map(|&(_, size)| size));
    let samples = u64::from(cfg.locations.div_ceil(cfg.location_step));
    PatchReport {
        executions: grids.len() as u64 * samples * u64::from(cfg.execs),
        grids,
        per_test,
        critical,
        used_extended_mp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(counts: Vec<u64>, step: u32) -> PatchGrid {
        PatchGrid {
            test: Shape::Mp,
            distance: 64,
            step,
            counts,
        }
    }

    #[test]
    fn no_patches_in_quiet_grid() {
        let g = grid(vec![0, 1, 0, 1, 0], 8);
        assert!(epsilon_patches(&g, 1).is_empty());
    }

    #[test]
    fn single_patch_detected() {
        let g = grid(vec![0, 0, 9, 8, 7, 5, 0, 0], 8);
        let ps = epsilon_patches(&g, 1);
        assert_eq!(
            ps,
            vec![Patch {
                start: 16,
                size_words: 32
            }]
        );
    }

    #[test]
    fn patch_at_end_of_sweep_closed() {
        let g = grid(vec![0, 0, 0, 0, 6, 6, 6, 6], 8);
        let ps = epsilon_patches(&g, 1);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].size_words, 32);
    }

    #[test]
    fn multiple_patches_detected() {
        let g = grid(vec![9, 9, 0, 0, 9, 9, 0, 0], 16);
        let ps = epsilon_patches(&g, 1);
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|p| p.size_words == 32));
    }

    #[test]
    fn noise_threshold_respected() {
        let g = grid(vec![2, 2, 2, 2], 8);
        assert!(epsilon_patches(&g, 3).is_empty());
        assert_eq!(epsilon_patches(&g, 1).len(), 1);
    }

    #[test]
    fn snap_sizes() {
        assert_eq!(snap_size(32), 32);
        assert_eq!(snap_size(24), 32, "ties snap upward");
        assert_eq!(snap_size(40), 32);
        assert_eq!(snap_size(56), 64);
        assert_eq!(snap_size(64), 64);
        assert_eq!(snap_size(300), 256);
    }

    #[test]
    fn modal_size_across_grids() {
        let g1 = grid(vec![9, 9, 9, 9, 0, 0, 0, 0], 8); // 32 words
        let g2 = grid(vec![0, 0, 9, 9, 9, 9, 0, 0], 8); // 32 words
        let g3 = grid(vec![9, 9, 9, 9, 9, 9, 9, 9], 8); // 64 words
        assert_eq!(modal_patch_size([&g1, &g2, &g3], 1), Some(32));
    }
}
