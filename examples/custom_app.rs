//! Testing your own kernel: write a custom application against the
//! public API and put it through the full pipeline — black-box testing,
//! then hardening.
//!
//! The kernel here is a deliberately buggy inter-block ticket handoff:
//! block 0 writes a value then raises a flag; block 1 spins on the flag
//! and copies the value out. Classic message passing, no fence.
//!
//! Run with: `cargo run --release --example custom_app`

use gpu_wmm::core::app::{AppSpec, Application, Phase};
use gpu_wmm::core::env::{AppHarness, Environment};
use gpu_wmm::core::harden::{empirical_fence_insertion, HardenConfig};
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::ir::builder::KernelBuilder;
use gpu_wmm::sim::Word;

const DATA: u32 = 0; // payload
const FLAG: u32 = 128; // a different memory line on every chip
const OUT: u32 = 256;
const PAYLOAD: Word = 0xfeed;

struct Handoff {
    spec: AppSpec,
}

fn kernel() -> gpu_wmm::sim::Program {
    let mut b = KernelBuilder::new("handoff");
    let tid = b.tid();
    let zero = b.const_(0);
    let lane0 = b.eq(tid, zero);
    b.if_(lane0, |b| {
        let bid = b.bid();
        let zero = b.const_(0);
        let is_writer = b.eq(bid, zero);
        let data = b.const_(DATA);
        let flag = b.const_(FLAG);
        let one = b.const_(1);
        b.if_else(
            is_writer,
            |b| {
                let v = b.const_(PAYLOAD);
                b.store_global(data, v); // payload ...
                b.store_global(flag, one); // ... then flag: MP, no fence
            },
            |b| {
                b.while_(
                    |b| {
                        let f = b.load_global(flag);
                        let zero = b.const_(0);
                        b.eq(f, zero)
                    },
                    |_| {},
                );
                let v = b.load_global(data);
                let out = b.const_(OUT);
                b.store_global(out, v);
            },
        );
    });
    b.finish().expect("valid kernel")
}

impl Application for Handoff {
    fn name(&self) -> &str {
        "handoff"
    }
    fn spec(&self) -> &AppSpec {
        &self.spec
    }
    fn check(&self, memory: &[Word]) -> Result<(), String> {
        if memory[OUT as usize] == PAYLOAD {
            Ok(())
        } else {
            Err(format!(
                "reader saw {:#x}, expected {PAYLOAD:#x}",
                memory[OUT as usize]
            ))
        }
    }
}

fn main() {
    let app = Handoff {
        spec: AppSpec {
            name: "handoff".into(),
            phases: vec![Phase {
                program: kernel(),
                blocks: 2,
                threads_per_block: 32,
                shared_words: 0,
            }],
            global_words: 320,
            init: Vec::new(),
            max_turns_per_phase: 400_000,
        },
    };

    // Test on every chip in the study.
    println!("custom MP handoff kernel under sys-str+ (200 runs per chip):\n");
    let mut erring = None;
    for chip in Chip::all() {
        let h = AppHarness::new(&chip, &app);
        let r = h.campaign(&Environment::sys_str_plus(&chip), 200, 5, 0);
        println!(
            "  {:6} {:>3} / {} erroneous{}",
            chip.short,
            r.errors,
            r.runs,
            if r.effective() { "  (effective)" } else { "" }
        );
        if r.any_error() && erring.is_none() {
            erring = Some(chip);
        }
    }

    // Harden on the first chip where the bug showed, and show where the
    // surviving fences sit.
    let chip = erring.expect("the handoff bug shows on at least one chip");
    let result = empirical_fence_insertion(
        &chip,
        &app,
        &HardenConfig {
            initial_iters: 24,
            stable_runs: 150,
            max_rounds: 3,
            base_seed: 3,
            parallelism: 0,
        },
    );
    println!(
        "\nempirical fence insertion on {}: {} of {} fences survive ({} executions, converged: {})",
        chip.short,
        result.fences.len(),
        result.initial.len(),
        result.executions,
        result.converged
    );
    let listing = app.spec().phases[0].program.to_string();
    for &((_, idx), level) in &result.fences {
        let inst = listing.lines().nth(idx + 1).unwrap_or("?").trim();
        println!("  {level:?} fence after instruction {idx}: {inst}");
    }

    // The hardened kernel survives the same campaign.
    let hardened = app.spec().with_leveled_fences(&result.fences);
    let h = AppHarness::with_spec(&chip, &app, hardened);
    let check = h.campaign(&Environment::sys_str_plus(&chip), 200, 5, 0);
    println!(
        "hardened kernel on {}: {} / {} erroneous",
        chip.short, check.errors, check.runs
    );
    assert_eq!(check.errors, 0, "the hardened kernel must be stable");
}
