//! Allocation accounting for the campaign hot path, by count rather
//! than by timing. A counting global allocator tallies heap
//! allocations for two claims:
//!
//! * stress artifacts (compiled stress `Program`s, location tables) are
//!   built **once per environment** instead of once per run: a loop
//!   that rebuilds the `StressArtifacts` every run and the same
//!   campaign through cached `StressArtifacts` produce bit-identical
//!   histograms, and the cached path allocates measurably less;
//! * a warmed-up `Gpu` reuses every per-run buffer: repeating one
//!   `(spec, seed)` allocates exactly once per run, for the memory image
//!   the `RunResult` returns;
//! * the static analyzer allocates per analysis thread, not per
//!   instruction visit: each `StaticVerdict::of_chip` of the suite stays
//!   under a fixed allocation budget;
//! * naming an application builds only that application: `app_by_name`
//!   allocates less than building all ten of Tab. 4, and parsing an
//!   application job (which validates it) less than building its
//!   application.
//!
//! The allocator is process-global, so the binary holds a single
//! `#[test]`: a second one running in parallel would be counted too.

use gpu_wmm::apps::{all_apps, app_by_name, app_names};
use gpu_wmm::core::campaign::CampaignBuilder;
use gpu_wmm::core::env::Environment;
use gpu_wmm::core::stress::{
    litmus_stress_threads, Scratchpad, StressArtifacts, StressStrategy, SystematicParams,
};
use gpu_wmm::core::suite::{StaticVerdict, SuiteConfig};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::runner::{mix_seed, run_instance};
use gpu_wmm::litmus::{Histogram, LitmusLayout};
use gpu_wmm::server::JobSpec;
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::exec::{Gpu, LaunchSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocation calls.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const COUNT: u32 = 48;
const SEED: u64 = 2016;

#[test]
fn hot_path_allocations() {
    cached_artifacts_allocate_measurably_less_than_per_run_builds();
    warm_gpu_allocates_only_the_returned_image();
    static_verdicts_allocate_per_thread_not_per_visit();
    naming_an_application_builds_only_that_application();
}

fn cached_artifacts_allocate_measurably_less_than_per_run_builds() {
    let chip = Chip::by_short("Titan").unwrap();
    let pad = Scratchpad::new(2048, 2048);
    let inst = Shape::Mp.instance(LitmusLayout::standard(64, pad.required_words()));
    let strategy = StressStrategy::Systematic(SystematicParams::from_paper(&chip));

    // (a) The historic hot path: artifacts rebuilt (kernel emission
    // included) for every run.
    let (legacy, legacy_allocs) = allocations_during(|| {
        let mut gpu = Gpu::new(chip.clone());
        let mut h = Histogram::new();
        for i in 0..u64::from(COUNT) {
            let mut rng = SmallRng::seed_from_u64(mix_seed(SEED, i));
            let threads = litmus_stress_threads(&chip, &mut rng);
            let s =
                StressArtifacts::for_strategy(&chip, &strategy, pad, 40).make(threads, &mut rng);
            let seed = rng.gen();
            h.record(run_instance(
                &mut gpu,
                &inst,
                (s.groups, s.init),
                true,
                seed,
            ));
        }
        h
    });

    // (b) The redesigned path: artifacts once, `make` per run.
    let (cached, cached_allocs) = allocations_during(|| {
        let artifacts = StressArtifacts::for_strategy(&chip, &strategy, pad, 40);
        CampaignBuilder::new(&chip)
            .stress(artifacts)
            .randomize_ids(true)
            .count(COUNT)
            .base_seed(SEED)
            .parallelism(1)
            .build()
            .run_litmus(&inst)
    });

    // Same work, same results...
    assert_eq!(legacy, cached, "the two paths must stay bit-identical");
    // ...for measurably fewer allocations. Emitting the systematic
    // kernel costs ~20 allocations, so the cached path must save at
    // least 10 per run and at least 10% overall (measured: ~22 saved
    // per run, ~28% of the campaign's total).
    eprintln!(
        "allocations over {COUNT} runs: per-run artifacts = {legacy_allocs}, \
         cached artifacts = {cached_allocs} \
         ({:.1}% of the legacy count)",
        100.0 * cached_allocs as f64 / legacy_allocs as f64
    );
    assert!(
        cached_allocs + u64::from(COUNT) * 10 < legacy_allocs,
        "expected the cached path to save >=10 allocations per run: \
         cached {cached_allocs} vs legacy {legacy_allocs}"
    );
    assert!(
        cached_allocs * 10 < legacy_allocs * 9,
        "expected a >=10% drop in total allocations: \
         cached {cached_allocs} vs legacy {legacy_allocs}"
    );
}

/// An IRIW launch on `chip`, native or under `sys-str+` (tuned
/// systematic stress and randomised thread ids).
fn iriw_launch(chip: &Chip, stressed: bool) -> LaunchSpec {
    let pad = Scratchpad::new(2048, 6144);
    let inst = Shape::Iriw.instance(LitmusLayout::standard(64, pad.required_words()));
    if !stressed {
        return inst.launch(Vec::new(), Vec::new(), false);
    }
    let env = Environment::sys_str_plus(chip);
    let artifacts = StressArtifacts::for_strategy(chip, &env.stress, pad, 40);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let threads = litmus_stress_threads(chip, &mut rng);
    let s = artifacts.make(threads, &mut rng);
    inst.launch(s.groups, s.init, env.randomize)
}

fn warm_gpu_allocates_only_the_returned_image() {
    const RUNS: u64 = 4;
    for chip in ["Titan", "C2075"] {
        let chip = Chip::by_short(chip).unwrap();
        for stressed in [false, true] {
            let spec = iriw_launch(&chip, stressed);
            let mut gpu = Gpu::new(chip.clone());
            let first = gpu.run(&spec, SEED);
            let ((), allocs) = allocations_during(|| {
                for _ in 0..RUNS {
                    assert_eq!(gpu.run(&spec, SEED).memory, first.memory);
                }
            });
            assert_eq!(
                allocs, RUNS,
                "IRIW on {} (stressed: {stressed}): a warm run must allocate \
                 only its memory image",
                chip.short
            );
        }
    }
}

/// Every shape's chip-aware verdict at the suite layout, on a coherent
/// and an incoherent chip. Measured: at most 231 allocations per verdict
/// and 130 on average; cloning the register state on every instruction
/// visit brings that to 365 and 201, so both budgets catch it.
fn static_verdicts_allocate_per_thread_not_per_visit() {
    const MAX_PER_VERDICT: u64 = 300;
    const MEAN_PER_VERDICT: u64 = 165;
    let words = SuiteConfig::default().pad.required_words();
    let chips = ["Titan", "C2075"].map(|c| Chip::by_short(c).unwrap());
    let mut total = 0;
    let mut verdicts = 0;
    for shape in Shape::ALL {
        let inst = shape.instance(LitmusLayout::standard(64, words));
        for chip in &chips {
            let (_, allocs) = allocations_during(|| StaticVerdict::of_chip(&inst, chip));
            assert!(
                allocs <= MAX_PER_VERDICT,
                "{shape} on {}: {allocs} allocations for one static verdict, \
                 budget {MAX_PER_VERDICT}",
                chip.short
            );
            total += allocs;
            verdicts += 1;
        }
    }
    eprintln!("static verdicts: {total} allocations over {verdicts} verdicts");
    assert!(
        total <= MEAN_PER_VERDICT * verdicts,
        "{total} allocations over {verdicts} static verdicts, budget \
         {MEAN_PER_VERDICT} per verdict on average"
    );
}

/// A lookup builds the one application it names, and validating an
/// application job builds none. Measured: 36–208 allocations per
/// `app_by_name` against 903 for `all_apps`, and 12 per parsed job.
fn naming_an_application_builds_only_that_application() {
    let (_, all) = allocations_during(all_apps);
    let (mut max_lookup, mut max_parse) = (0, 0);
    for name in app_names() {
        let (app, lookup) = allocations_during(|| app_by_name(name));
        assert_eq!(app.expect("a listed application").name(), name);
        assert!(
            lookup < all,
            "app_by_name({name:?}): {lookup} allocations, not fewer than \
             the {all} of building every Tab. 4 application"
        );
        let job = format!("app Titan sys-str+ {name} 4 1");
        let (spec, parse) = allocations_during(|| job.parse::<JobSpec>());
        spec.expect("a valid application job");
        assert!(
            parse < lookup,
            "parsing {job:?}: {parse} allocations, not fewer than the \
             {lookup} of building {name}"
        );
        max_lookup = max_lookup.max(lookup);
        max_parse = max_parse.max(parse);
    }
    eprintln!(
        "application lookups: at most {max_lookup} allocations (all_apps: {all}); \
         application job parses: at most {max_parse}"
    );
}
