//! `tpo-tm`: the dynamic task-management framework of Tzeng, Patney &
//! Owens (HPG 2010), reduced to its communication idiom.
//!
//! Worker blocks pop tasks from a global queue protected by a custom
//! mutex and append each task's result to an output list inside the same
//! critical section. The queue size, the task array, and the output list
//! are plain (non-atomic) memory: correctness depends on the critical
//! section's stores becoming visible before the unlock. On a weak
//! machine the unlock can overtake them, so the next worker pops the
//! same task twice or overwrites an output slot.
//!
//! Post-condition: the expected number of tasks were executed — the
//! output list holds exactly one result per seeded task.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::BinOp;
use wmm_sim::word::Word;

/// Seeded tasks.
pub const TASKS: u32 = 48;
/// Word address of the queue mutex.
pub const LOCK: u32 = 0;
/// Word address of the queue size.
pub const SIZE: u32 = 128;
/// Word address of the output count (same line as `SIZE`; both are
/// protected by the same critical section).
pub const OUT_SIZE: u32 = 132;
/// Base of the task queue.
pub const QUEUE: u32 = 256;
/// Base of the output list.
pub const OUT: u32 = 384;

/// Blocks in the grid (one worker lane per block, as in the original's
/// block-level task processing).
pub const BLOCKS: u32 = 4;
/// Threads per block.
pub const TPB: u32 = 32;
/// Pop attempts per worker (enough slack to drain the queue under any
/// schedule).
pub const ATTEMPTS: u32 = TASKS / BLOCKS + 12;

/// Result of executing task `t`.
fn execute(t: Word) -> Word {
    t + 100
}

/// The `tpo-tm` case study. See the module docs.
#[derive(Debug, Clone)]
pub struct TpoTm {
    spec: AppSpec,
}

impl TpoTm {
    /// Build the application with `TASKS` seeded tasks.
    pub fn new() -> Self {
        let mut init: Vec<(u32, Word)> = vec![(SIZE, TASKS)];
        for i in 0..TASKS {
            init.push((QUEUE + i, i + 1));
        }
        let spec = AppSpec {
            name: "tpo-tm".into(),
            phases: vec![Phase {
                program: kernel(),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: 0,
            }],
            global_words: OUT + TASKS + 16,
            init,
            max_turns_per_phase: 1_200_000,
        };
        TpoTm { spec }
    }
}

impl Default for TpoTm {
    fn default() -> Self {
        TpoTm::new()
    }
}

impl Application for TpoTm {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        let done = memory[OUT_SIZE as usize];
        if done != TASKS {
            return Err(format!("{done} tasks executed, expected {TASKS}"));
        }
        if memory[SIZE as usize] != 0 {
            return Err(format!("queue still holds {} tasks", memory[SIZE as usize]));
        }
        let mut got: Vec<Word> = (0..TASKS).map(|i| memory[(OUT + i) as usize]).collect();
        let mut want: Vec<Word> = (1..=TASKS).map(execute).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err("output list does not match the seeded task set".into());
        }
        Ok(())
    }
}

/// Worker kernel: lane 0 of each block repeatedly pops a task under the
/// mutex and records its result in the same critical section.
fn kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("tpo-tm");
    let tid = b.tid();
    let zero = b.const_(0);
    let is_worker = b.eq(tid, zero);
    b.if_(is_worker, |k| {
        let lock = k.const_(LOCK);
        let size_a = k.const_(SIZE);
        let out_size_a = k.const_(OUT_SIZE);
        let q_base = k.const_(QUEUE);
        let out_base = k.const_(OUT);
        let one = k.const_(1);
        let hundred = k.const_(100);
        let attempts = k.const_(ATTEMPTS);
        let i = k.reg();
        k.assign_const(i, 0);
        k.while_(
            |k| k.lt_u(i, attempts),
            |k| {
                k.spin_lock(lock);
                let s = k.load_global(size_a);
                let zero = k.const_(0);
                let nonempty = k.lt_u(zero, s);
                k.if_(nonempty, |k| {
                    // Pop q[s-1].
                    let one = k.const_(1);
                    let s1 = k.sub(s, one);
                    k.store_global(size_a, s1);
                    let ta = k.add(q_base, s1);
                    let t = k.load_global(ta);
                    // Execute and record the result.
                    let r = k.add(t, hundred);
                    let oi = k.load_global(out_size_a);
                    let oa = k.add(out_base, oi);
                    k.store_global(oa, r);
                    let oi1 = k.add(oi, one);
                    k.store_global(out_size_a, oi1);
                });
                k.unlock(lock);
                k.bin_into(i, BinOp::Add, i, one);
            },
        );
    });
    b.finish().expect("tpo-tm kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment, RunVerdict};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("Titan").unwrap().sequentially_consistent()
    }

    #[test]
    fn correct_under_sequential_consistency() {
        let app = TpoTm::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        for seed in 0..6 {
            let out = h.run_once(&Environment::native(), seed);
            assert_eq!(out.verdict, RunVerdict::Pass, "seed {seed}");
        }
    }

    #[test]
    fn execute_is_injective_over_tasks() {
        let results: std::collections::HashSet<Word> = (1..=TASKS).map(execute).collect();
        assert_eq!(results.len(), TASKS as usize);
    }

    #[test]
    fn checker_rejects_duplicate_execution() {
        let app = TpoTm::new();
        let mut memory = vec![0u32; app.spec().global_words as usize];
        memory[OUT_SIZE as usize] = TASKS;
        // All slots hold the same result: duplicates.
        for i in 0..TASKS {
            memory[(OUT + i) as usize] = execute(1);
        }
        assert!(app.check(&memory).is_err());
    }
}
