//! Spread search: how many locations to stress simultaneously (Sec. 3.4).
//!
//! With the critical patch size and the most effective access sequence
//! fixed, score each spread `m ∈ 1..=M`: per execution, stress a
//! randomly chosen `m`-subset of the first locations of the `M`
//! patch-sized scratchpad regions, with stressing threads distributed
//! evenly over the chosen locations. The best spread is selected by the
//! same Pareto rule as the sequence stage ([`Scores::winner`]; the paper
//! found 2 on every chip, with a U-shaped score curve — Fig. 4).

use super::{Probe, Scores, TuningConfig};
use crate::stress::{StressArtifacts, StressStrategy, SystematicParams};
use std::sync::Arc;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_sim::chip::Chip;
use wmm_sim::seq::AccessSeq;

/// Seed salt separating this stage's randomness from the other stages.
const SPREAD_STAGE_SALT: u64 = 0x59ead;

/// Score every spread `1..=M`: one probe per (spread, test, distance),
/// all run in one batch. Each spread's systematic kernel is compiled once
/// and shared by its probes (only the per-run location table is drawn
/// from each run's RNG), and each probe's seed depends only on its
/// coordinates, so the scores are identical for every `cfg.parallelism`.
pub fn score_spreads(
    chip: &Chip,
    patch_words: u32,
    seq: &AccessSeq,
    cfg: &TuningConfig,
) -> Scores<u32> {
    // The paper's scratchpad for this stage has exactly M regions.
    let mut pad = cfg.scratchpad(chip);
    pad.words = pad.words.min(patch_words * cfg.max_spread).max(patch_words);
    // Densify the distance grid: this stage sums scores over distances
    // (Sec. 3.4) and has few configurations, so extra distances buy
    // variance reduction cheaply.
    let mut distances = cfg.distances.clone();
    for extra in [96, 160] {
        if !distances.contains(&extra) {
            distances.push(extra);
        }
    }
    let candidates = (1..=cfg.max_spread)
        .map(|m| {
            let strategy = StressStrategy::Systematic(SystematicParams {
                patch_words,
                seq: seq.clone(),
                spread: m,
            });
            let artifacts = StressArtifacts::for_strategy(chip, &strategy, pad, cfg.stress_iters);
            let artifacts = Arc::new(artifacts);
            let mut probes = Vec::new();
            for (ti, &test) in Shape::TRIO.iter().enumerate() {
                for &d in &distances {
                    let at = (u64::from(m) * 31 + ti as u64) * 1_000_003 + u64::from(d);
                    probes.push(Probe {
                        stress: Arc::clone(&artifacts),
                        test,
                        distance: d,
                        seed: mix_seed(cfg.base_seed ^ SPREAD_STAGE_SALT, at),
                    });
                }
            }
            (m, probes)
        })
        .collect();
    // This stage has far fewer configurations than the location/sequence
    // sweeps (the paper compensates with its much denser distance grid),
    // so spend more executions per spread for a stable curve.
    Scores::measure(chip, pad, candidates, cfg.execs * 10, cfg.parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_spread_picks_pareto_winner() {
        let scores = Scores {
            entries: vec![
                (1, [5, 5, 5]),
                (2, [9, 8, 9]),
                (3, [6, 9, 6]),
                (4, [2, 2, 2]),
            ],
            executions: 0,
        };
        assert_eq!(*scores.winner(), 2);
    }

    #[test]
    fn u_shape_with_clear_peak() {
        let scores = Scores {
            entries: (1..=8u32)
                .map(|m| {
                    let v = 10u64.saturating_sub((i64::from(m) - 2).unsigned_abs() * 2);
                    (m, [v, v, v])
                })
                .collect(),
            executions: 0,
        };
        assert_eq!(*scores.winner(), 2);
    }
}
