//! Acceptance: the analyzer-seeded scoped fence-insertion search on the
//! shm-pipe workload — the analyzer finds the intra-block communication,
//! the empirical search confirms its block-level demotions, and the
//! hardened program is strictly cheaper than the all-device baseline
//! with zero residual weak behaviors.

use gpu_wmm::apps::app_by_name;
use gpu_wmm::core::analyze_spec;
use gpu_wmm::core::env::{AppHarness, Environment};
use gpu_wmm::core::harden::{empirical_fence_insertion_scoped, HardenConfig};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::ir::FenceLevel;

fn cfg() -> HardenConfig {
    HardenConfig {
        initial_iters: 24,
        stable_runs: 120,
        max_rounds: 3,
        base_seed: 5,
        parallelism: 0,
    }
}

#[test]
fn analyzer_warnings_cover_shm_pipes_dynamic_weakness() {
    let chip = Chip::by_short("Titan").unwrap();
    let app = app_by_name("shm-pipe").unwrap();
    // Dynamically weak without fences...
    let h = AppHarness::new(&chip, app.as_ref());
    let check = h.campaign(&Environment::sys_str_plus(&chip), 200, 3, 0);
    assert!(
        check.errors > 0,
        "shm-pipe must go weak unfenced: {check:?}"
    );
    // ...and statically warned about, at block level: the communication
    // is provably intra-block shared-space.
    let a = analyze_spec(app.spec());
    assert!(!a.quiet(), "every dynamic weakness needs a static warning");
    assert_eq!(
        a.phases[0].max_warning_level(),
        Some(FenceLevel::Block),
        "{:?}",
        a.phases[0].warnings
    );
}

#[test]
fn scoped_insertion_places_block_fences_cheaper_than_device() {
    let chip = Chip::by_short("Titan").unwrap();
    let app = app_by_name("shm-pipe").unwrap();
    let r = empirical_fence_insertion_scoped(&chip, app.as_ref(), &cfg());
    assert!(r.converged, "search must converge: {r:?}");
    assert!(!r.fences.is_empty(), "shm-pipe empirically needs fences");
    // The analyzer's demotions survive the empirical check: at least
    // one surviving fence sits at the cheap block rung.
    assert!(
        r.fences.iter().any(|&(_, l)| l == FenceLevel::Block),
        "{:?}",
        r.fences
    );
    assert!(r.demotions() >= 1, "{r:?}");
    // Strictly cheaper than fencing the same sites at device level.
    assert!(
        r.fence_cost() < r.device_baseline_cost(),
        "cost {} !< baseline {}",
        r.fence_cost(),
        r.device_baseline_cost()
    );
    // The Pareto front over (errors, cost) carries a zero-error point —
    // the hardened configuration itself.
    assert!(r.pareto.iter().any(|c| c.errors == 0), "{:?}", r.pareto);
    // Pinned absolutely: the set, the search that found it, and every
    // (errors, cost) point of its front. A reduction that tries the
    // halves in the other order keeps this set but not the execution
    // count.
    let block = FenceLevel::Block;
    assert_eq!(r.fences, [((0, 21), block), ((0, 24), block)], "{r:?}");
    assert_eq!(r.demotions(), 2, "{r:?}");
    assert_eq!((r.rounds, r.executions), (2, 960), "{r:?}");
    let front: Vec<(u32, u64)> = r.pareto.iter().map(|c| (c.errors, c.cost)).collect();
    assert_eq!(front, [(0, 2), (2, 1), (0, 2), (0, 2)], "{:?}", r.pareto);
    // And the surviving set holds up under a fresh aggressive campaign.
    let spec = app.spec().with_leveled_fences(&r.fences);
    let h = AppHarness::with_spec(&chip, app.as_ref(), spec);
    let check = h.campaign(&Environment::sys_str_plus(&chip), 150, 17, 0);
    assert_eq!(check.errors, 0, "{check:?}");
}

#[test]
fn demotions_count_only_surviving_block_fences() {
    // On sdk-red-nf the search demotes four device fences, then removes
    // every fence: a demotion whose site is gone did not stick.
    let chip = Chip::by_short("Titan").unwrap();
    let app = app_by_name("sdk-red-nf").unwrap();
    let cfg = HardenConfig {
        initial_iters: 20,
        stable_runs: 80,
        max_rounds: 2,
        base_seed: 11,
        parallelism: 0,
    };
    let r = empirical_fence_insertion_scoped(&chip, app.as_ref(), &cfg);
    assert!(r.converged, "{r:?}");
    assert!(r.fences.is_empty(), "{r:?}");
    assert_eq!(r.demotions(), 0, "{r:?}");
    assert_eq!((r.rounds, r.executions), (1, 260), "{r:?}");
}
