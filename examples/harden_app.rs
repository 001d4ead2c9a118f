//! Empirical fence insertion (Alg. 1) on a case study.
//!
//! Runs the paper's hardening procedure on `ct-octree`: start from a
//! fence after every memory access, reduce to a minimal empirically
//! stable set, and report where the surviving fences sit — the root
//! cause of the weak-memory bug.
//!
//! Run with: `cargo run --release --example harden_app`

use gpu_wmm::apps::CtOctree;
use gpu_wmm::core::app::Application;
use gpu_wmm::core::env::{AppHarness, Environment};
use gpu_wmm::core::harden::{empirical_fence_insertion, HardenConfig};
use gpu_wmm::sim::chip::Chip;

fn main() {
    let chip = Chip::by_short("Titan").expect("GTX Titan");
    let app = CtOctree::new();
    println!(
        "empirical fence insertion: {} on {} (testing environment sys-str+)\n",
        app.name(),
        chip.name
    );
    let cfg = HardenConfig {
        initial_iters: 24,
        stable_runs: 150,
        max_rounds: 3,
        base_seed: 9,
        parallelism: 0,
    };
    let result = empirical_fence_insertion(&chip, &app, &cfg);
    println!(
        "initial fences: {} (one per memory access)",
        result.initial.len()
    );
    println!(
        "reduced fences: {} at sites {:?} ({} executions, {:.1}s, converged: {})",
        result.fences.len(),
        result.fences,
        result.executions,
        result.elapsed.as_secs_f64(),
        result.converged
    );
    for &((phase, idx), _) in &result.fences {
        let program = &app.spec().phases[phase].program;
        println!(
            "  phase {phase}, after instruction {idx}: {}",
            program
                .to_string()
                .lines()
                .nth(idx + 1)
                .unwrap_or("?")
                .trim()
        );
    }

    // Verify the hardened application survives the aggressive
    // environment.
    let hardened = app.spec().with_leveled_fences(&result.fences);
    let h = AppHarness::with_spec(&chip, &app, hardened);
    let check = h.campaign(&Environment::sys_str_plus(&chip), 200, 77, 0);
    println!(
        "\nhardened app under sys-str+: {} / {} erroneous runs",
        check.errors, check.runs
    );
    assert_eq!(check.errors, 0, "the hardened app must be stable");
}
