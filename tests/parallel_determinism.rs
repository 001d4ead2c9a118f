//! Determinism of the parallel campaign layer: the same base seed must
//! yield bit-identical aggregates no matter how many worker threads the
//! work is sharded across. Run `i` of every campaign derives its
//! randomness from `(base_seed, i)` alone and aggregation is
//! commutative, so 1-, 2- and 8-worker runs must agree exactly.

use gpu_wmm::core::campaign::CampaignBuilder;
use gpu_wmm::core::stress::{Scratchpad, StressArtifacts, StressStrategy};
use gpu_wmm::core::tuning::patch::find_patch_size;
use gpu_wmm::core::tuning::sequence::score_sequences;
use gpu_wmm::core::tuning::spread::score_spreads;
use gpu_wmm::core::tuning::TuningConfig;
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::{Histogram, LitmusInstance, LitmusLayout};
use wmm_litmus::parallel::{parallel_fold, parallel_map};
use wmm_sim::chip::Chip;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const DISTANCES: [u32; 3] = [0, 64, 128];

fn native_histogram(
    chip: &Chip,
    inst: &LitmusInstance,
    parallelism: usize,
    base_seed: u64,
) -> Histogram {
    CampaignBuilder::new(chip)
        .count(48)
        .base_seed(base_seed)
        .parallelism(parallelism)
        .build()
        .run_litmus(inst)
}

/// MP/LB/SB at several distances, native (unstressed): every worker
/// count reports the identical histogram — not just the same totals but
/// the same per-outcome counts.
#[test]
fn campaign_native_is_worker_count_invariant() {
    let chip = Chip::by_short("Titan").unwrap();
    for test in Shape::TRIO {
        for d in DISTANCES {
            let inst = test.instance(LitmusLayout::standard(d, 4096));
            let reference = native_histogram(&chip, &inst, WORKER_COUNTS[0], 0xC0FFEE);
            assert_eq!(reference.total(), 48);
            for workers in &WORKER_COUNTS[1..] {
                let h = native_histogram(&chip, &inst, *workers, 0xC0FFEE);
                assert_eq!(
                    h, reference,
                    "{test} d={d}: {workers}-worker histogram diverged from 1-worker"
                );
            }
        }
    }
}

/// The same invariance under stress, where the per-run stress blocks
/// themselves come from the per-run RNG: systematic stress pinned to one
/// location (its kernel compiled once per campaign, not per run),
/// `rand-str+` (a kernel built per run from a per-run seed) and
/// `cache-str-` (one fixed kernel, no thread-id randomisation).
#[test]
fn campaign_stressed_is_worker_count_invariant() {
    let chip = Chip::by_short("K20").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let stresses = [
        (
            "pinned sys-str+",
            StressArtifacts::pinned(pad, &chip.preferred_seq, &[0], 40),
            true,
        ),
        (
            "rand-str+",
            StressArtifacts::for_strategy(&chip, &StressStrategy::Random, pad, 40),
            true,
        ),
        (
            "cache-str-",
            StressArtifacts::for_strategy(&chip, &StressStrategy::CacheSized, pad, 40),
            false,
        ),
    ];
    for (name, artifacts, randomize) in &stresses {
        for test in Shape::TRIO {
            for d in [16, 64] {
                let inst = test.instance(LitmusLayout::standard(d, pad.required_words()));
                let run = |parallelism: usize| {
                    CampaignBuilder::new(&chip)
                        .stress(artifacts.clone())
                        .randomize_ids(*randomize)
                        .count(32)
                        .base_seed(0xBEEF ^ d as u64)
                        .parallelism(parallelism)
                        .build()
                        .run_litmus(&inst)
                };
                let reference = run(1);
                for workers in &WORKER_COUNTS[1..] {
                    assert_eq!(
                        run(*workers),
                        reference,
                        "{test} d={d} under {name}: histogram diverged at {workers} workers"
                    );
                }
            }
        }
    }
}

/// The new placement axis stays bit-identical across worker counts too:
/// one scoped (intra-block, shared-memory) and one RMW workload, native
/// and under pinned systematic stress, at 1/2/8 workers.
#[test]
fn campaign_scoped_and_rmw_are_worker_count_invariant() {
    let chip = Chip::by_short("Titan").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let artifacts = StressArtifacts::pinned(pad, &chip.preferred_seq, &[0], 40);
    for test in [Shape::MpShared, Shape::MpCas] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        for stressed in [false, true] {
            let run = |parallelism: usize| {
                let mut b = CampaignBuilder::new(&chip)
                    .count(48)
                    .base_seed(0x5C09ED)
                    .parallelism(parallelism);
                if stressed {
                    b = b.stress(artifacts.clone()).randomize_ids(true);
                }
                b.build().run_litmus(&inst)
            };
            let reference = run(WORKER_COUNTS[0]);
            assert_eq!(reference.total(), 48);
            for workers in &WORKER_COUNTS[1..] {
                assert_eq!(
                    run(*workers),
                    reference,
                    "{test} (stressed={stressed}): histogram diverged at {workers} workers"
                );
            }
        }
    }
}

/// The scoped relaxation engine stays bit-identical across worker
/// counts: scoped, block-fenced and mixed-scope shapes campaigned under
/// intra-block shared-space stress (stress lanes injected into the test
/// kernel, shared contention tracked per block) at 1/2/8 workers.
#[test]
fn campaign_shared_stressed_is_worker_count_invariant() {
    use gpu_wmm::core::campaign::CampaignBuilder;
    use gpu_wmm::core::env::Environment;
    let chip = Chip::by_short("Titan").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let env = Environment::shared_sys_str_plus(&chip);
    for test in [
        Shape::MpShared,
        Shape::SbShared,
        Shape::MpSharedFence,
        Shape::MpMixed,
        Shape::Isa2Scoped,
    ] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        let run = |parallelism: usize| {
            CampaignBuilder::new(&chip)
                .environment(&env, pad, 40)
                .count(32)
                .base_seed(0x5C0FED)
                .parallelism(parallelism)
                .build()
                .run_litmus(&inst)
        };
        let reference = run(WORKER_COUNTS[0]);
        assert_eq!(reference.total(), 32);
        for workers in &WORKER_COUNTS[1..] {
            assert_eq!(
                run(*workers),
                reference,
                "{test}: shared-stressed histogram diverged at {workers} workers"
            );
        }
    }
}

/// The structural L1 channel stays bit-identical across worker counts:
/// the per-run staleness draws in the load path come from the same
/// per-run RNG stream as everything else, so campaigning CoRR and its
/// fenced twin on an incoherent-L1 Tesla under `l1-str+` must agree
/// exactly at 1/2/8 workers — including the weak (stale-read) outcomes.
#[test]
fn campaign_l1_stressed_is_worker_count_invariant() {
    use gpu_wmm::core::env::Environment;
    let chip = Chip::by_short("C2075").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let env = Environment::l1_str_plus();
    for test in [Shape::CoRR, Shape::CoRRFence, Shape::Mp] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        let run = |parallelism: usize| {
            CampaignBuilder::new(&chip)
                .environment(&env, pad, 40)
                .count(32)
                .base_seed(0x11CA)
                .parallelism(parallelism)
                .build()
                .run_litmus(&inst)
        };
        let reference = run(WORKER_COUNTS[0]);
        assert_eq!(reference.total(), 32);
        for workers in &WORKER_COUNTS[1..] {
            assert_eq!(
                run(*workers),
                reference,
                "{test}: L1-stressed histogram diverged at {workers} workers"
            );
        }
    }
}

/// The provenance telemetry obeys the same law as the histograms it
/// tags: per-channel counters and the per-weak-outcome attribution fold
/// commutatively over runs, so 1-, 2- and 8-worker campaigns report
/// bit-identical channel totals — all-window on a coherent-L1 Kepler
/// under `sys-str+`, and with the structural `l1_stale` channel live on
/// the incoherent-L1 Tesla under `l1-str+`.
#[test]
fn provenance_counters_are_worker_count_invariant() {
    use gpu_wmm::core::env::Environment;
    let pad = Scratchpad::new(2048, 2048);
    let titan = Chip::by_short("Titan").unwrap();
    let c2075 = Chip::by_short("C2075").unwrap();
    let cases = [
        (&titan, Environment::sys_str_plus(&titan), Shape::Mp),
        (&c2075, Environment::l1_str_plus(), Shape::CoRR),
    ];
    for (chip, env, shape) in cases {
        let inst = shape.instance(LitmusLayout::standard(64, pad.required_words()));
        let run = |parallelism: usize| {
            CampaignBuilder::new(chip)
                .environment(&env, pad, 40)
                .count(96)
                .base_seed(0x0B5)
                .parallelism(parallelism)
                .build()
                .run_litmus(&inst)
        };
        let reference = run(WORKER_COUNTS[0]);
        assert!(
            reference.weak() > 0,
            "{shape} on {}: provenance comparison is vacuous: {reference}",
            chip.short
        );
        // Every weak outcome's attribution sums exactly to its count.
        for (obs, n) in reference.iter() {
            if let Some(p) = reference.provenance(obs) {
                assert_eq!(p.total(), n, "{shape}: breakdown must sum to the count");
            }
        }
        assert_eq!(reference.provenance_total().total(), reference.weak());
        for workers in &WORKER_COUNTS[1..] {
            let h = run(*workers);
            assert_eq!(
                h.channels(),
                reference.channels(),
                "{shape} on {}: channel counters diverged at {workers} workers",
                chip.short
            );
            assert_eq!(
                h.provenance_total(),
                reference.provenance_total(),
                "{shape} on {}: provenance diverged at {workers} workers",
                chip.short
            );
            assert_eq!(h, reference);
        }
    }
    // The channel split matches each case's physics: the Kepler relaxes
    // through the store window only; the Tesla's CoRR weakness is the
    // structural stale-L1 channel.
    let mp = {
        let inst = Shape::Mp.instance(LitmusLayout::standard(64, pad.required_words()));
        CampaignBuilder::new(&titan)
            .environment(&Environment::sys_str_plus(&titan), pad, 40)
            .count(96)
            .base_seed(0x0B5)
            .build()
            .run_litmus(&inst)
    };
    assert!(mp.channels().window_global > 0);
    assert_eq!(mp.channels().l1_stale, 0);
    assert_eq!(mp.provenance_total().l1_stale, 0);
    let corr = {
        let inst = Shape::CoRR.instance(LitmusLayout::standard(64, pad.required_words()));
        CampaignBuilder::new(&c2075)
            .environment(&Environment::l1_str_plus(), pad, 40)
            .count(96)
            .base_seed(0x0B5)
            .build()
            .run_litmus(&inst)
    };
    assert!(corr.channels().l1_stale > 0);
    assert!(corr.provenance_total().l1_stale > 0);
}

/// Zero cost when off: on chips where every weakness channel is
/// structurally disabled the channel counters read exactly zero — the
/// telemetry never invents activity.
#[test]
fn channel_counters_vanish_when_every_channel_is_off() {
    use gpu_wmm::core::env::Environment;
    let pad = Scratchpad::new(2048, 2048);
    // An SC chip has no store window and no stale L1: every counter
    // stays pinned at zero even under systematic stress.
    let sc = Chip::by_short("K20").unwrap().sequentially_consistent();
    let env = Environment::sys_str_plus(&sc);
    for test in [Shape::Mp, Shape::MpShared, Shape::MpCas] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        let h = CampaignBuilder::new(&sc)
            .environment(&env, pad, 40)
            .count(32)
            .base_seed(3)
            .build()
            .run_litmus(&inst);
        assert_eq!(h.weak(), 0, "{test} on SC chip: {h}");
        assert!(
            h.channels().is_zero(),
            "{test} on SC chip: counters invented activity: {:?}",
            h.channels()
        );
        assert_eq!(h.provenance_total().total(), 0);
    }
    // Zeroed staleness knobs disengage the L1 entirely: the three
    // structural counters read exactly zero while the window channel
    // still counts.
    let mut coherent = Chip::by_short("C2075").unwrap();
    coherent.l1.stale_base = 0.0;
    coherent.l1.stale_gain = 0.0;
    let env = Environment::l1_str_plus();
    for test in [Shape::CoRR, Shape::MpCas] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        let h = CampaignBuilder::new(&coherent)
            .environment(&env, pad, 40)
            .count(32)
            .base_seed(0x11CA)
            .build()
            .run_litmus(&inst);
        let c = h.channels();
        assert_eq!(c.l1_stale, 0, "{test}: stale hits on a disengaged L1");
        assert_eq!(
            c.fence_inval, 0,
            "{test}: fence invalidations without an L1"
        );
        assert_eq!(
            c.atomic_read_through, 0,
            "{test}: atomic read-throughs without an L1"
        );
        assert_eq!(h.provenance_total().l1_stale, 0);
    }
}

/// Sec. 3's tuning stages seed each probe from its coordinates alone:
/// one worker and three report the same patch grids and sizes and the
/// same sequence and spread scores (at the chip's preset patch and
/// sequence).
#[test]
fn tuning_stages_are_worker_count_invariant() {
    let chip = Chip::by_short("C2075").unwrap();
    let stages = |parallelism| {
        let cfg = TuningConfig {
            execs: 2,
            max_seq_len: 2,
            max_spread: 2,
            parallelism,
            ..TuningConfig::quick()
        };
        let patch = find_patch_size(&chip, &cfg);
        let grids: Vec<_> = patch
            .grids
            .into_iter()
            .map(|g| (g.test, g.distance, g.counts))
            .collect();
        let seqs = score_sequences(&chip, chip.patch_words, &cfg).entries;
        let spreads = score_spreads(&chip, chip.patch_words, &chip.preferred_seq, &cfg).entries;
        (grids, patch.per_test, patch.critical, seqs, spreads)
    };
    let one = stages(1);
    assert!(
        one.3.iter().any(|(_, s)| s.iter().any(|&n| n > 0)),
        "no weak run: vacuous"
    );
    assert_eq!(stages(3), one);
}

/// Different seeds must not produce identical streams (sanity check that
/// the invariance above isn't vacuous).
#[test]
fn different_seeds_differ() {
    let chip = Chip::by_short("Titan").unwrap();
    let inst = Shape::Mp.instance(LitmusLayout::standard(64, 4096));
    let a = native_histogram(&chip, &inst, 2, 1);
    let b = native_histogram(&chip, &inst, 2, 2);
    // Totals always match (same count); the outcome distribution should
    // not be bit-identical for independent seeds.
    assert_eq!(a.total(), b.total());
    assert_ne!(a, b, "seeds 1 and 2 produced identical 48-run histograms");
}

/// The raw primitives: map preserves index order, fold partitions the
/// index space, for every worker count.
#[test]
fn primitives_are_worker_count_invariant() {
    let expected: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
    for workers in WORKER_COUNTS {
        let got = parallel_map(workers, 500, |i| (i as u64).wrapping_mul(0x9E3779B9));
        assert_eq!(got, expected);
        let folded: u64 = parallel_fold(
            workers,
            500,
            || 0u64,
            |acc, i| *acc = acc.wrapping_add(expected[i]),
        )
        .into_iter()
        .fold(0u64, u64::wrapping_add);
        assert_eq!(
            folded,
            expected.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        );
    }
}
