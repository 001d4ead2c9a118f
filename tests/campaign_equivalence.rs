//! Old-vs-new equivalence: the unified `Campaign` facade must reproduce
//! the pre-redesign campaign loops **bit for bit**.
//!
//! The legacy paths (the deleted `wmm_litmus::run_many` and the
//! `AppHarness::campaign` that rebuilt stress kernels per run) are
//! restated here as plain sequential loops over exactly the primitives
//! they used — `mix_seed`-derived per-run RNGs, stress artifacts built
//! afresh for every run, `run_instance`/`run_once` — and compared
//! against the new facade at 1, 2 and 8 workers. Any drift in per-run
//! seeding, RNG draw order or artifact caching shows up as a histogram
//! mismatch.

use gpu_wmm::core::app::{AppSpec, Application, Phase};
use gpu_wmm::core::campaign::CampaignBuilder;
use gpu_wmm::core::env::{AppHarness, CampaignResult, Environment, RunVerdict};
use gpu_wmm::core::stress::{litmus_stress_threads, Scratchpad, StressArtifacts, StressStrategy};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::runner::{mix_seed, run_instance};
use gpu_wmm::litmus::{Histogram, LitmusInstance, LitmusLayout, StressParts};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::Gpu;
use gpu_wmm::sim::ir::builder::KernelBuilder;
use gpu_wmm::sim::Word;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The pre-redesign litmus campaign: sequential, per-run stress
/// construction through the caller's closure, per-run seed stream
/// `seed(mix_seed(base, i)) → make_stress → launch seed`.
fn legacy_litmus_campaign(
    chip: &Chip,
    inst: &LitmusInstance,
    make_stress: impl Fn(&mut SmallRng) -> StressParts,
    count: u32,
    base_seed: u64,
    randomize_ids: bool,
) -> Histogram {
    let mut gpu = Gpu::new(chip.clone());
    let mut h = Histogram::new();
    for i in 0..u64::from(count) {
        let mut rng = SmallRng::seed_from_u64(mix_seed(base_seed, i));
        let stress = make_stress(&mut rng);
        let seed = rng.gen();
        h.record(run_instance(&mut gpu, inst, stress, randomize_ids, seed));
    }
    h
}

/// Every litmus environment of the suite default (native, sys-str+,
/// rand-str+) plus cache-str-: histograms from the facade are
/// bit-identical to the legacy loop, for MP/LB/SB plus one scoped
/// (intra-block, shared-memory) and one RMW shape, at every worker
/// count — so the placement axis cannot drift the per-run seeding.
#[test]
fn litmus_campaigns_match_the_legacy_path_bit_for_bit() {
    let chip = Chip::by_short("K20").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let envs = [
        Environment::native(),
        Environment::sys_str_plus(&chip),
        Environment {
            stress: StressStrategy::Random,
            randomize: true,
            shared: None,
        },
        Environment {
            stress: StressStrategy::CacheSized,
            randomize: false,
            shared: None,
        },
    ];
    let shapes = [
        Shape::Mp,
        Shape::Lb,
        Shape::Sb,
        Shape::MpShared,
        Shape::MpSharedFence,
        Shape::MpMixed,
        Shape::MpCas,
    ];
    for test in shapes {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        for (ei, env) in envs.iter().enumerate() {
            let base_seed = 0x5EED ^ ((ei as u64) << 8);
            let legacy = legacy_litmus_campaign(
                &chip,
                &inst,
                |rng| {
                    if env.stress == StressStrategy::None {
                        (Vec::new(), Vec::new())
                    } else {
                        let threads = litmus_stress_threads(&chip, rng);
                        let s = StressArtifacts::for_strategy(&chip, &env.stress, pad, 40)
                            .make(threads, rng);
                        (s.groups, s.init)
                    }
                },
                32,
                base_seed,
                env.randomize,
            );
            assert_eq!(legacy.total(), 32);
            for workers in WORKER_COUNTS {
                let new = CampaignBuilder::new(&chip)
                    .environment(env, pad, 40)
                    .count(32)
                    .base_seed(base_seed)
                    .parallelism(workers)
                    .build()
                    .run_litmus(&inst);
                assert_eq!(
                    new,
                    legacy,
                    "{test} under {}: facade diverged from the legacy path at {workers} workers",
                    env.name()
                );
            }
        }
    }
}

/// The shared-stress environment takes the same per-run seed stream:
/// the facade derives the stress-lane instance once per campaign, so a
/// legacy loop over the *same derived instance* under plain systematic
/// stress must be bit-identical at every worker count.
#[test]
fn shared_stress_campaigns_match_the_legacy_path_bit_for_bit() {
    use gpu_wmm::core::stress::SharedStress;
    let chip = Chip::by_short("Titan").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let env = Environment::shared_sys_str_plus(&chip);
    let SharedStress { words, iters } = env.shared.unwrap();
    for test in [Shape::MpShared, Shape::Isa2Scoped] {
        let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
        let derived = inst.with_shared_stress(words, iters);
        let base_seed = 0x5ba6ed;
        let legacy = legacy_litmus_campaign(
            &chip,
            &derived,
            |rng| {
                let threads = litmus_stress_threads(&chip, rng);
                let s =
                    StressArtifacts::for_strategy(&chip, &env.stress, pad, 40).make(threads, rng);
                (s.groups, s.init)
            },
            32,
            base_seed,
            env.randomize,
        );
        assert!(
            legacy.weak() > 0 || test == Shape::Isa2Scoped,
            "{test}: comparison is vacuous without weak outcomes: {legacy}"
        );
        for workers in WORKER_COUNTS {
            let new = CampaignBuilder::new(&chip)
                .environment(&env, pad, 40)
                .count(32)
                .base_seed(base_seed)
                .parallelism(workers)
                .build()
                .run_litmus(&inst);
            assert_eq!(
                new, legacy,
                "{test} under shm+sys-str+: facade diverged at {workers} workers"
            );
        }
    }
}

/// The structural L1 path takes the same per-run seed stream: under
/// `l1-str+` on the incoherent-L1 C2075 (extra staleness draws live in
/// the load path) and on the same chip with the staleness knobs zeroed
/// (`Run.l1` disengaged, the pre-topology load path verbatim), the
/// facade is bit-identical to the sequential legacy loop at every
/// worker count.
#[test]
fn l1_stress_campaigns_match_the_legacy_path_bit_for_bit() {
    let pad = Scratchpad::new(2048, 2048);
    let env = Environment::l1_str_plus();
    let incoherent = Chip::by_short("C2075").unwrap();
    let mut coherent = incoherent.clone();
    coherent.l1.stale_base = 0.0;
    coherent.l1.stale_gain = 0.0;
    assert!(incoherent.l1_weak() && !coherent.l1_weak());
    for chip in [incoherent, coherent] {
        for test in [Shape::CoRR, Shape::CoRRFence, Shape::Mp] {
            let inst = test.instance(LitmusLayout::standard(64, pad.required_words()));
            let base_seed = 0x11CA;
            let legacy = legacy_litmus_campaign(
                &chip,
                &inst,
                |rng| {
                    let threads = litmus_stress_threads(&chip, rng);
                    let s = StressArtifacts::for_strategy(&chip, &env.stress, pad, 40)
                        .make(threads, rng);
                    (s.groups, s.init)
                },
                32,
                base_seed,
                env.randomize,
            );
            assert_eq!(legacy.total(), 32);
            for workers in WORKER_COUNTS {
                let new = CampaignBuilder::new(&chip)
                    .environment(&env, pad, 40)
                    .count(32)
                    .base_seed(base_seed)
                    .parallelism(workers)
                    .build()
                    .run_litmus(&inst);
                assert_eq!(
                    new,
                    legacy,
                    "{test} under l1-str+ (l1_weak={}): facade diverged at {workers} workers",
                    chip.l1_weak()
                );
            }
        }
    }
}

/// Zero-cost when off: on chips where every weakness channel is
/// structurally disabled the provenance counters read exactly zero —
/// the telemetry never invents activity on the legacy bit-identical
/// paths.
#[test]
fn channel_counters_vanish_when_every_channel_is_off() {
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
    // Zeroed staleness knobs disengage the L1 entirely (the legacy
    // pre-topology load path, bit for bit): the three structural
    // counters read exactly zero while the window channel still counts.
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

/// A miniature lock-protected accumulator (the idiom of the paper's
/// Fig. 1 running example): weak-memory-buggy by design, so stressed
/// campaigns produce a mix of verdicts worth comparing.
struct LockCounter {
    spec: AppSpec,
    expected: u32,
}

fn lock_counter() -> LockCounter {
    let mut b = KernelBuilder::new("lock-counter");
    let tid = b.tid();
    let zero = b.const_(0);
    let is0 = b.eq(tid, zero);
    b.if_(is0, |b| {
        let lock = b.const_(0);
        let cell = b.const_(128); // different line from the lock
        b.spin_lock(lock);
        let v = b.load_global(cell);
        let one = b.const_(1);
        let v1 = b.add(v, one);
        b.store_global(cell, v1);
        b.unlock(lock);
    });
    let program = b.finish().unwrap();
    let blocks = 8;
    LockCounter {
        spec: AppSpec {
            name: "lock-counter".into(),
            phases: vec![Phase {
                program,
                blocks,
                threads_per_block: 32,
                shared_words: 0,
            }],
            global_words: 192,
            init: vec![],
            max_turns_per_phase: 2_000_000,
        },
        expected: blocks,
    }
}

impl Application for LockCounter {
    fn name(&self) -> &str {
        "lock-counter"
    }
    fn spec(&self) -> &AppSpec {
        &self.spec
    }
    fn check(&self, memory: &[Word]) -> Result<(), String> {
        if memory[128] == self.expected {
            Ok(())
        } else {
            Err(format!(
                "counter = {}, expected {}",
                memory[128], self.expected
            ))
        }
    }
}

/// The pre-redesign application campaign: sequential `run_once` per
/// index (each building its own stress setup), verdicts folded exactly
/// as the old `AppHarness::campaign` did.
fn legacy_app_campaign(
    h: &AppHarness<'_>,
    env: &Environment,
    runs: u32,
    base_seed: u64,
) -> CampaignResult {
    let mut r = CampaignResult {
        runs,
        ..Default::default()
    };
    for i in 0..u64::from(runs) {
        let v = h.run_once(env, mix_seed(base_seed, i)).verdict;
        if v.is_error() {
            r.errors += 1;
        }
        match v {
            RunVerdict::PostConditionFailed(_) => r.postcondition_failures += 1,
            RunVerdict::Timeout => r.timeouts += 1,
            RunVerdict::Divergence | RunVerdict::Fault(_) => r.faults += 1,
            RunVerdict::Pass => {}
        }
    }
    r
}

/// Application campaigns through the facade are bit-identical to the
/// legacy per-run loop, under the effective environment (where verdicts
/// actually vary) and the native one, at every worker count.
#[test]
fn app_campaigns_match_the_legacy_path_bit_for_bit() {
    let chip = Chip::by_short("K20").unwrap();
    let app = lock_counter();
    let h = AppHarness::new(&chip, &app);
    for (env, base_seed) in [
        (Environment::sys_str_plus(&chip), 7u64),
        (Environment::native(), 5u64),
    ] {
        let legacy = legacy_app_campaign(&h, &env, 48, base_seed);
        for workers in WORKER_COUNTS {
            let new = h.campaign(&env, 48, base_seed, workers);
            assert_eq!(
                new,
                legacy,
                "lock-counter under {}: facade diverged at {workers} workers",
                env.name()
            );
        }
    }
    // The comparison must not be vacuous: the stressed campaign errs.
    let stressed = legacy_app_campaign(&h, &Environment::sys_str_plus(&chip), 48, 7);
    assert!(
        stressed.errors > 0,
        "stressed lock-counter never failed: {stressed:?}"
    );
}
