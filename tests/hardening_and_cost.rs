//! Integration: Sec. 5 (empirical fence insertion) and Sec. 6 (fence
//! cost) end to end.

use gpu_wmm::apps::app_by_name;
use gpu_wmm::core::app::{AppSpec, FenceSite};
use gpu_wmm::core::env::{AppHarness, Environment, RunVerdict};
use gpu_wmm::core::harden::{empirical_fence_insertion, HardenConfig};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::ir::FenceLevel::Device;
use gpu_wmm::sim::ir::Inst;

fn harden_cfg() -> HardenConfig {
    HardenConfig {
        initial_iters: 20,
        stable_runs: 80,
        max_rounds: 2,
        base_seed: 11,
        parallelism: 0,
    }
}

#[test]
fn insertion_reduces_cbe_dot_to_one_fence() {
    // Paper Tab. 6: cbe-dot reduces from 4 initial fences to 1, the
    // fence before the unlock ("suggesting an error in the unlock
    // function", Sec. 1).
    let chip = Chip::by_short("Titan").unwrap();
    let app = app_by_name("cbe-dot").unwrap();
    let r = empirical_fence_insertion(&chip, app.as_ref(), &harden_cfg());
    // Pinned absolutely: the one surviving fence, and the search that
    // found it. A reduction that tries the halves in the other order
    // keeps this set but not the round and execution counts.
    assert_eq!(r.fences, [((0, 51), Device)], "{r:?}");
    assert!(r.converged, "{r:?}");
    assert_eq!((r.rounds, r.executions), (2, 520), "{r:?}");
    // The surviving set suppresses errors under the aggressive
    // environment.
    let spec = app.spec().with_leveled_fences(&r.fences);
    let h = AppHarness::with_spec(&chip, app.as_ref(), spec);
    let check = h.campaign(&Environment::sys_str_plus(&chip), 80, 3, 0);
    assert_eq!(check.errors, 0, "{check:?}");
}

#[test]
fn ls_bh_nf_reduces_to_a_superset_of_the_shipped_fences() {
    // Paper Sec. 5.2: "The reduced fences for ls-bh-nf are a superset of
    // the fences in ls-bh (as ls-bh showed errors with provided fences)."
    // Run at Tab. 6's quick-scale configuration (`table6::harden_one`):
    // at `harden_cfg()` the search times out before it is stable, so a
    // superset claim there would rest on an unconverged set.
    let chip = Chip::by_short("Titan").unwrap();
    let app = app_by_name("ls-bh-nf").unwrap();
    let cfg = HardenConfig {
        initial_iters: 24,
        stable_runs: 120,
        max_rounds: 3,
        base_seed: 2016,
        parallelism: 0,
    };
    let r = empirical_fence_insertion(&chip, app.as_ref(), &cfg);
    assert!(r.converged, "{r:?}");
    let shipped = shipped_sites(app_by_name("ls-bh").unwrap().spec());
    let sites = app.spec().fence_sites();
    assert_eq!(shipped.len(), 3, "{shipped:?}");
    for site in shipped {
        assert!(sites.contains(&site), "{site:?} is not an access");
        assert!(
            r.fences.contains(&(site, Device)),
            "ls-bh ships a fence after {site:?}, the reduced set {:?} has none",
            r.fences
        );
    }
    // Pinned absolutely.
    let pinned = [(0, 40), (0, 69), (1, 35), (2, 48)].map(|site| (site, Device));
    assert_eq!(r.fences, pinned, "{r:?}");
    assert_eq!((r.rounds, r.executions), (2, 2760), "{r:?}");
}

/// The fence-free sites after which `spec` ships a fence. Each shipped
/// fence directly follows the access it orders, so its site is the
/// index that access keeps once the fences before it are stripped.
fn shipped_sites(spec: &AppSpec) -> Vec<FenceSite> {
    let mut out = Vec::new();
    for (phase, p) in spec.phases.iter().enumerate() {
        let fences = p.program.insts.iter().enumerate();
        let fences = fences.filter(|(_, inst)| matches!(inst, Inst::Fence(_)));
        for (k, (i, _)) in fences.enumerate() {
            out.push((phase, i - 1 - k));
        }
    }
    out
}

#[test]
fn fence_cost_ordering_no_le_emp_le_cons() {
    // Sec. 6: fences never decrease cost; cons fences cost more than emp
    // fences. Use cbe-dot on the Fermi C2075 (the paper's extreme chip).
    let chip = Chip::by_short("C2075").unwrap();
    let app = app_by_name("cbe-dot").unwrap();
    let base = app.spec().clone();
    let sites = base.fence_sites();
    let emp = base.with_leveled_fences(&[(sites[0], Device)]);
    let cons = base.with_all_fences();

    let mean_runtime = |spec| {
        let h = AppHarness::with_spec(&chip, app.as_ref(), spec);
        let env = Environment::native();
        let mut total = 0.0;
        let mut n = 0;
        for seed in 0..25 {
            let out = h.run_once(&env, seed);
            if out.verdict == RunVerdict::Pass {
                total += out.runtime_ms;
                n += 1;
            }
        }
        total / f64::from(n.max(1))
    };

    let t_no = mean_runtime(base);
    let t_emp = mean_runtime(emp);
    let t_cons = mean_runtime(cons);
    assert!(
        t_no <= t_emp * 1.05,
        "no fences must not cost more: {t_no:.4} vs {t_emp:.4}"
    );
    assert!(
        t_cons > t_emp,
        "cons fences must cost more than emp: {t_cons:.4} vs {t_emp:.4}"
    );
    assert!(
        t_cons > t_no * 1.5,
        "cons fences are expensive on Fermi: {t_cons:.4} vs {t_no:.4}"
    );
}

#[test]
fn energy_reported_only_on_power_query_chips() {
    // Sec. 6: only K5200, Titan, K20 and C2075 support power queries.
    let app = app_by_name("cbe-dot").unwrap();
    for chip in Chip::all() {
        let h = AppHarness::new(&chip, app.as_ref());
        let out = h.run_once(&Environment::native(), 1);
        assert_eq!(
            out.energy_j.is_some(),
            chip.supports_power,
            "{}",
            chip.short
        );
    }
}
