//! The per-chip tuning pipeline of Sec. 3.
//!
//! Three stages, each a micro-benchmark campaign over the MP/LB/SB litmus
//! tests, mirroring the paper's ~half-billion-execution study (scaled
//! down by default; [`TuningConfig::paper`] restores the full grid):
//!
//! 1. [`patch`] — find the chip's *critical patch size* by sweeping the
//!    stressed scratchpad location and detecting ε-patches (Sec. 3.2);
//! 2. [`sequence`] — rank every access sequence σ ∈ (ld|st)+ with |σ| ≤ N
//!    and select the maximally effective one by Pareto optimality with
//!    the two-of-three tie-break (Sec. 3.3);
//! 3. [`spread`] — select how many patch-sized regions to stress
//!    simultaneously (Sec. 3.4).
//!
//! Each stage lists its grid as *probes*, one `⟨T_d, stress@l⟩` campaign
//! each, seeded from the probe's coordinates alone, for one probe runner,
//! the only place Sec. 3 batches campaigns. The sequence and spread
//! stages total their counts per candidate in one [`Scores`] table.
//!
//! [`tune_chip`] chains the stages, feeding each stage's output to the
//! next, and yields a Tab. 2 row.

pub mod pareto;
pub mod patch;
pub mod sequence;
pub mod spread;

use crate::stress::{Scratchpad, StressArtifacts};
use std::sync::Arc;
use wmm_gen::Shape;
use wmm_litmus::{LitmusInstance, LitmusLayout};
use wmm_sim::chip::Chip;
use wmm_sim::seq::AccessSeq;

/// Shared configuration of the tuning campaigns.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// Distances `d` used by the patch-finding sweep.
    pub patch_distances: Vec<u32>,
    /// Extended distances probed when MP shows no patches (the paper's
    /// "extra experiments" for the GTX 980, Sec. 3.2).
    pub extended_distances: Vec<u32>,
    /// Distances used by the sequence and spread stages.
    pub distances: Vec<u32>,
    /// Scratchpad locations swept by patch finding: `0, step, 2·step, …`
    /// up to `locations` (exclusive).
    pub locations: u32,
    /// Stride of the location sweep (1 = the paper's full grid).
    pub location_step: u32,
    /// Executions per configuration (the paper's `C`).
    pub execs: u32,
    /// Noise threshold ε for ε-patch detection, fixed per preset (the
    /// paper's 3 at C = 1000, 1 in `scaled()` and `quick()`): nothing
    /// scales it with `execs` (the ROADMAP's closed-loop Tab. 2 item
    /// replaces this rule).
    pub noise: u64,
    /// Maximum access-sequence length `N`.
    pub max_seq_len: usize,
    /// Maximum spread `M`.
    pub max_spread: u32,
    /// Stressing-loop iterations per stressing thread.
    pub stress_iters: u32,
    /// Base seed for all campaigns.
    pub base_seed: u64,
    /// Worker threads (0 ⇒ all cores). The probe runner parallelises
    /// across a stage's probes, each probe's campaign sequential on its
    /// worker; results are identical for every value of this knob
    /// because each probe's seed depends only on its coordinates.
    pub parallelism: usize,
}

impl TuningConfig {
    /// The paper's full grid: D = 256, L = 256 (step 1), C = 1000,
    /// ε = 3, N = 5, M = 64. Roughly half a billion executions per chip —
    /// use only for long offline runs.
    pub fn paper() -> Self {
        TuningConfig {
            patch_distances: (0..256).collect(),
            extended_distances: (256..384).collect(),
            distances: (0..256).step_by(16).collect(),
            locations: 256,
            location_step: 1,
            execs: 1000,
            noise: 3,
            max_seq_len: 5,
            max_spread: 64,
            stress_iters: 40,
            base_seed: 0x6e75,
            parallelism: 0,
        }
    }

    /// Scaled-down defaults used by the experiment harness: the same
    /// shapes at ~1/1000 of the execution count.
    pub fn scaled() -> Self {
        TuningConfig {
            patch_distances: vec![0, 8, 16, 32, 48, 64, 96, 128],
            extended_distances: vec![256, 288, 320],
            distances: vec![32, 64],
            locations: 256,
            location_step: 8,
            execs: 80,
            noise: 1,
            max_seq_len: 5,
            max_spread: 16,
            stress_iters: 40,
            base_seed: 2016,
            parallelism: 0,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn quick() -> Self {
        TuningConfig {
            patch_distances: vec![0, 32, 64],
            extended_distances: vec![256],
            distances: vec![64],
            locations: 128,
            location_step: 16,
            execs: 24,
            noise: 1,
            max_seq_len: 3,
            max_spread: 4,
            stress_iters: 30,
            base_seed: 7,
            parallelism: 0,
        }
    }

    /// The scratchpad all tuning campaigns target: after the litmus
    /// layout, sized for the location sweep and the spread stage.
    pub fn scratchpad(&self, chip: &Chip) -> Scratchpad {
        let words = self
            .locations
            .max(self.max_spread * chip.patch_words)
            .max(chip.l2_scaled_words);
        Scratchpad::new(2048, words)
    }
}

/// One `⟨T_d, stress@l⟩` campaign of a tuning stage: litmus test `test`
/// at distance `distance` under the stage's stress, its runs drawn from
/// base seed `seed`.
struct Probe {
    stress: Arc<StressArtifacts>,
    test: Shape,
    distance: u32,
    seed: u64,
}

/// Weak behaviours of each probe over `execs` runs, in probe order, on
/// `workers` threads (0 ⇒ all cores) with each probe's runs in sequence
/// on its worker. Each `(test, distance)` instance, laid out past `pad`,
/// is built once for every probe at it.
fn weak_counts(
    chip: &Chip,
    pad: Scratchpad,
    probes: &[Probe],
    execs: u32,
    workers: usize,
) -> Vec<u64> {
    let mut insts: Vec<(Shape, u32, LitmusInstance)> = Vec::new();
    for p in probes {
        if !insts.iter().any(|i| (i.0, i.1) == (p.test, p.distance)) {
            let layout = LitmusLayout::standard(p.distance, pad.required_words());
            insts.push((p.test, p.distance, p.test.instance(layout)));
        }
    }
    let workers = wmm_litmus::parallel::resolve_workers(workers, probes.len());
    wmm_litmus::parallel::parallel_map(workers, probes.len(), |k| {
        let probe = &probes[k];
        let (.., inst) = insts
            .iter()
            .find(|i| (i.0, i.1) == (probe.test, probe.distance))
            .expect("every probe's instance is built above");
        crate::campaign::CampaignBuilder::new(chip)
            .stress(Arc::clone(&probe.stress))
            .count(execs)
            .base_seed(probe.seed)
            .parallelism(1)
            .build()
            .run_litmus(inst)
            .weak()
    })
}

/// The score table of the sequence and spread stages: each candidate (an
/// access sequence, a spread) with its weak totals per test.
#[derive(Debug, Clone)]
pub struct Scores<C> {
    /// `(candidate, weak totals in [`Shape::TRIO`] order)`, in the order
    /// the stage enumerates its candidates.
    pub entries: Vec<(C, [u64; 3])>,
    /// Litmus executions spent.
    pub executions: u64,
}

impl<C> Scores<C> {
    /// Run every candidate's probes in one batch and total each
    /// candidate's weak behaviours per test.
    fn measure(
        chip: &Chip,
        pad: Scratchpad,
        candidates: Vec<(C, Vec<Probe>)>,
        execs: u32,
        workers: usize,
    ) -> Self {
        let mut entries = Vec::new();
        let mut probes = Vec::new();
        let mut owners = Vec::new();
        for (i, (candidate, list)) in candidates.into_iter().enumerate() {
            entries.push((candidate, [0; 3]));
            owners.extend(list.iter().map(|p| (i, trio_index(p.test))));
            probes.extend(list);
        }
        let weaks = weak_counts(chip, pad, &probes, execs, workers);
        for ((i, k), weak) in owners.into_iter().zip(weaks) {
            entries[i].1[k] += weak;
        }
        Scores {
            entries,
            executions: probes.len() as u64 * u64::from(execs),
        }
    }

    /// The maximally effective candidate: Pareto optimal, then the
    /// paper's two-of-three tie-break ([`pareto::select_winner`]).
    ///
    /// # Panics
    ///
    /// Panics if there are no candidates.
    pub fn winner(&self) -> &C {
        let scores: Vec<[u64; 3]> = self.entries.iter().map(|e| e.1).collect();
        &self.entries[pareto::select_winner(&scores)].0
    }

    /// Entries ranked by score for one test, best first (Tab. 3's
    /// per-test ranking); equal scores keep enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `test` is not one of [`Shape::TRIO`].
    pub fn ranked_for(&self, test: Shape) -> Vec<&(C, [u64; 3])> {
        let k = trio_index(test);
        let mut v: Vec<&(C, [u64; 3])> = self.entries.iter().collect();
        v.sort_by(|a, b| b.1[k].cmp(&a.1[k]));
        v
    }
}

/// The index of `test`'s score: its place in [`Shape::TRIO`].
fn trio_index(test: Shape) -> usize {
    Shape::TRIO
        .iter()
        .position(|&t| t == test)
        .expect("scores are indexed by the Fig. 2 trio")
}

/// The outcome of the full pipeline for one chip: a row of Tab. 2.
#[derive(Debug, Clone)]
pub struct ChipTuning {
    /// Chip short name.
    pub chip: String,
    /// Critical patch size in words.
    pub patch_words: u32,
    /// Most effective access sequence.
    pub seq: AccessSeq,
    /// Most effective spread.
    pub spread: u32,
    /// Litmus executions spent.
    pub executions: u64,
    /// Wall-clock time spent tuning.
    pub elapsed: std::time::Duration,
}

/// Run the full tuning pipeline (patch → sequence → spread) for a chip.
pub fn tune_chip(chip: &Chip, cfg: &TuningConfig) -> ChipTuning {
    let start = std::time::Instant::now();
    let mut executions = 0u64;

    let patch_report = patch::find_patch_size(chip, cfg);
    executions += patch_report.executions;
    let patch_words = patch_report.critical.unwrap_or(chip.patch_words);

    let seq_scores = sequence::score_sequences(chip, patch_words, cfg);
    executions += seq_scores.executions;
    let seq = seq_scores.winner().clone();

    let spread_scores = spread::score_spreads(chip, patch_words, &seq, cfg);
    executions += spread_scores.executions;
    let spread = *spread_scores.winner();

    ChipTuning {
        chip: chip.short.to_string(),
        patch_words,
        seq,
        spread,
        executions,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratchpad_covers_spread_stage() {
        let chip = Chip::by_short("C2075").unwrap();
        let cfg = TuningConfig::scaled();
        let pad = cfg.scratchpad(&chip);
        assert!(pad.words >= cfg.max_spread * chip.patch_words);
        assert!(pad.words >= cfg.locations);
    }

    #[test]
    fn paper_config_matches_section_3() {
        let cfg = TuningConfig::paper();
        assert_eq!(cfg.patch_distances.len(), 256);
        assert_eq!(cfg.locations, 256);
        assert_eq!(cfg.location_step, 1);
        assert_eq!(cfg.execs, 1000);
        assert_eq!(cfg.noise, 3);
        assert_eq!(cfg.max_seq_len, 5);
        assert_eq!(cfg.max_spread, 64);
    }
}
