//! Access-sequence search (Sec. 3.3).
//!
//! Enumerate every σ ∈ (ld|st)+ with |σ| ≤ N, score each against the
//! three litmus tests — summing weak behaviours over all distances and
//! patch-aligned stressing locations — and select the maximally
//! effective sequence ([`Scores::winner`]: Pareto optimal, two-of-three
//! tie-break).

use super::{Probe, Scores, TuningConfig};
use crate::stress::StressArtifacts;
use std::sync::Arc;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_sim::chip::Chip;
use wmm_sim::seq::AccessSeq;

/// Seed salt separating this stage's randomness from the other stages.
const SEQ_STAGE_SALT: u64 = 0x5e9;

/// Score every sequence up to the configured length.
///
/// Stress is applied at the first location of each critical-patch-sized
/// region (`{l : P | l}` — "stressing multiple locations in a patch is
/// not worthwhile").
///
/// This is the most expensive tuning stage (62 sequences × 3 tests ×
/// distances × regions at `N = 5`): one probe per (sequence, test,
/// distance, region), all run in one batch. Each sequence's pinned
/// stress kernel is compiled once and re-pinned per probe, and each
/// probe's seed depends only on its coordinates, so the scores are
/// identical for every `cfg.parallelism`.
pub fn score_sequences(chip: &Chip, patch_words: u32, cfg: &TuningConfig) -> Scores<AccessSeq> {
    let pad = cfg.scratchpad(chip);
    let region_starts: Vec<u32> = (0..cfg.locations)
        .step_by(patch_words.max(1) as usize)
        .collect();
    let candidates = AccessSeq::enumerate(cfg.max_seq_len)
        .into_iter()
        .enumerate()
        .map(|(si, seq)| {
            let artifacts = StressArtifacts::pinned(pad, &seq, &[0], cfg.stress_iters);
            let mut probes = Vec::new();
            for (ti, &test) in Shape::TRIO.iter().enumerate() {
                for &d in &cfg.distances {
                    for &l in &region_starts {
                        let at = ((si as u64 * 31 + ti as u64) * 1_000_003 + u64::from(d))
                            * 1_000_003
                            + u64::from(l);
                        probes.push(Probe {
                            stress: Arc::new(artifacts.with_locations(&[l])),
                            test,
                            distance: d,
                            seed: mix_seed(cfg.base_seed ^ SEQ_STAGE_SALT, at),
                        });
                    }
                }
            }
            (seq, probes)
        })
        .collect();
    Scores::measure(chip, pad, candidates, cfg.execs, cfg.parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: &str, scores: [u64; 3]) -> (AccessSeq, [u64; 3]) {
        (s.parse().unwrap(), scores)
    }

    #[test]
    fn winner_is_pareto_two_of_three() {
        let scores = Scores {
            entries: vec![
                entry("ld", [10, 2, 3]),
                entry("st", [1, 1, 1]),
                entry("ld st", [9, 9, 9]),
                entry("st ld", [2, 10, 2]),
            ],
            executions: 0,
        };
        assert_eq!(scores.winner().to_string(), "ld st");
    }

    #[test]
    fn ranked_for_orders_descending() {
        let scores = Scores {
            entries: vec![
                entry("ld", [1, 0, 0]),
                entry("st", [5, 0, 0]),
                entry("ld st", [3, 0, 0]),
            ],
            executions: 0,
        };
        let ranked = scores.ranked_for(Shape::Mp);
        let names: Vec<String> = ranked.iter().map(|e| e.0.to_string()).collect();
        assert_eq!(names, vec!["st", "ld st", "ld"]);
    }
}
