//! Tab. 6 — empirical fence insertion results.

use crate::Scale;
use wmm_apps::app_by_name;
use wmm_core::app::Application;
use wmm_core::harden::{empirical_fence_insertion, HardenConfig, HardenResult, LeveledFenceSite};
use wmm_sim::chip::Chip;

/// The seven fence-free applications the paper runs insertion on
/// (Sec. 5.2: the apps that contain no fences, i.e. the originals that
/// shipped none plus the manufactured `-nf` variants).
pub const INSERTION_APPS: [&str; 7] = [
    "cbe-ht",
    "cbe-dot",
    "ct-octree",
    "tpo-tm",
    "sdk-red-nf",
    "cub-scan-nf",
    "ls-bh-nf",
];

/// Insertion outcome for one app on one chip.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Application name.
    pub app: String,
    /// Chip short name.
    pub chip: String,
    /// The result.
    pub result: HardenResult,
}

/// Run insertion for one (app, chip).
pub fn harden_one(app: &dyn Application, chip: &Chip, scale: Scale) -> HardenResult {
    let cfg = HardenConfig {
        initial_iters: scale.harden_iters,
        stable_runs: scale.harden_stable,
        max_rounds: 3,
        base_seed: scale.seed,
        parallelism: scale.workers,
    };
    empirical_fence_insertion(chip, app, &cfg)
}

/// Run the table: insertion on every fence-free app, on a reference chip
/// (Titan, which the paper uses as the comparison baseline) plus the
/// other requested chips for the agreement count.
pub fn run(chips: Option<Vec<Chip>>, scale: Scale) -> Vec<Entry> {
    let chips = chips.unwrap_or_else(Chip::all);
    println!("Tab. 6: empirical fence insertion (testing environment: sys-str+)\n");
    println!(
        "{:12} {:>6} {:>12} {:>9} {:>10} {:>9}",
        "app", "init.", "red.(Titan)", "agreeing", "execs", "time"
    );
    let titan = Chip::by_short("Titan").expect("Titan");
    let mut out = Vec::new();
    for name in INSERTION_APPS {
        let app = app_by_name(name).expect("table app");
        let reference = harden_one(app.as_ref(), &titan, scale);
        let mut agreeing = 0;
        for chip in chips.iter().filter(|c| c.short != "Titan") {
            let r = harden_one(app.as_ref(), chip, scale);
            if same_sites(&r.fences, &reference.fences) {
                agreeing += 1;
            }
            out.push(Entry {
                app: name.to_string(),
                chip: chip.short.to_string(),
                result: r,
            });
        }
        println!(
            "{:12} {:>6} {:>12} {:>9} {:>10} {:>8.1}s{}",
            name,
            reference.initial.len(),
            reference.fences.len(),
            agreeing,
            reference.executions,
            reference.elapsed.as_secs_f64(),
            if reference.converged { "" } else { "  (t.o.)" },
        );
        out.push(Entry {
            app: name.to_string(),
            chip: "Titan".into(),
            result: reference,
        });
    }
    println!("\nExpected shape: most apps reduce to a single fence; cub-scan-nf to the two");
    println!("fences CUB ships; ls-bh-nf to the largest set (a superset of ls-bh's own).");
    out
}

fn same_sites(a: &[LeveledFenceSite], b: &[LeveledFenceSite]) -> bool {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable_by_key(|&(site, _)| site);
    b.sort_unstable_by_key(|&(site, _)| site);
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::ir::FenceLevel;

    #[test]
    fn insertion_apps_are_the_fence_free_seven() {
        for name in INSERTION_APPS {
            let app = app_by_name(name).expect(name);
            assert_eq!(app.spec().fence_count(), 0, "{name} must be fence-free");
        }
    }

    #[test]
    fn site_comparison_is_order_insensitive() {
        let d = FenceLevel::Device;
        assert!(same_sites(
            &[((0, 1), d), ((0, 5), d)],
            &[((0, 5), d), ((0, 1), d)]
        ));
        assert!(!same_sites(&[((0, 1), d)], &[((0, 2), d)]));
        assert!(!same_sites(&[((0, 1), d)], &[((0, 1), FenceLevel::Block)]));
    }
}
