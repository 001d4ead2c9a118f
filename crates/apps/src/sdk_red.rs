//! `sdk-red`: the threadfence reduction from the CUDA SDK samples.
//!
//! Each block reduces its slice in shared memory; its first thread
//! stores the block's partial sum, issues `__threadfence()`, and
//! atomically increments a counter. The block that observes the final
//! count combines all partials into the result. The fence is what makes
//! the partial visible before the counter increment — exactly the fence
//! the SDK sample carries. The `-nf` variant strips it, so the combining
//! block can read a stale partial.
//!
//! Post-condition: the GPU sum matches the CPU reference.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::BinOp;
use wmm_sim::word::Word;

/// Elements to reduce.
pub const N: u32 = 256;
/// Word address of the block-completion counter.
pub const COUNTER: u32 = 0;
/// Base of the per-block partial sums.
pub const PARTIALS: u32 = 128;
/// Word address of the final result.
pub const RESULT: u32 = 192;
/// Base of the input array.
pub const INPUT: u32 = 256;

/// Blocks in the grid.
pub const BLOCKS: u32 = 8;
/// Threads per block.
pub const TPB: u32 = 32;

/// The `sdk-red` case study (or its `-nf` variant). See the module docs.
#[derive(Debug, Clone)]
pub struct SdkRed {
    spec: AppSpec,
    expected: Word,
}

fn input(i: u32) -> Word {
    (i % 7) + 1
}

impl SdkRed {
    /// Build the application; `fenced` selects the original (with the
    /// SDK's `__threadfence()`) or the `-nf` variant.
    pub fn new(fenced: bool) -> Self {
        let expected: Word = (0..N).map(input).sum();
        let init: Vec<(u32, Word)> = (0..N).map(|i| (INPUT + i, input(i))).collect();
        let spec = AppSpec {
            name: if fenced { "sdk-red" } else { "sdk-red-nf" }.into(),
            phases: vec![Phase {
                program: kernel(fenced),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: TPB,
            }],
            global_words: INPUT + N,
            init,
            max_turns_per_phase: 600_000,
        };
        SdkRed { spec, expected }
    }

    /// The CPU reference result.
    pub fn expected(&self) -> Word {
        self.expected
    }
}

impl Application for SdkRed {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        let got = memory[RESULT as usize];
        if got == self.expected {
            Ok(())
        } else {
            Err(format!("sum = {got}, expected {}", self.expected))
        }
    }
}

fn kernel(fenced: bool) -> wmm_sim::Program {
    let mut b = KernelBuilder::new(if fenced { "sdk-red" } else { "sdk-red-nf" });
    let tid = b.tid();
    let bid = b.bid();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();

    // Load this thread's element (N == BLOCKS * TPB).
    let t0 = b.mul(bid, bdim);
    let gi = b.add(tid, t0);
    let in_base = b.const_(INPUT);
    let ia = b.add(in_base, gi);
    let v = b.load_global(ia);
    b.store_shared(tid, v);
    b.barrier();

    // Shared-memory tree reduction.
    let one = b.const_(1);
    let zero = b.const_(0);
    let i = b.shr(bdim, one);
    b.while_(
        |k| k.lt_u(zero, i),
        |k| {
            let active = k.lt_u(tid, i);
            k.if_(active, |k| {
                let other = k.add(tid, i);
                let x = k.load_shared(tid);
                let y = k.load_shared(other);
                let s = k.add(x, y);
                k.store_shared(tid, s);
            });
            k.barrier();
            k.bin_into(i, BinOp::Shr, i, one);
        },
    );

    // Lane 0: publish the partial, sync, count, maybe combine.
    let is0 = b.eq(tid, zero);
    b.if_(is0, |k| {
        let partial = k.load_shared(zero);
        let partials = k.const_(PARTIALS);
        let pa = k.add(partials, bid);
        k.store_global(pa, partial);
        if fenced {
            k.fence_device(); // the SDK's __threadfence()
        }
        let counter = k.const_(COUNTER);
        let one = k.const_(1);
        let old = k.atomic_add_global(counter, one);
        let last = k.sub(gdim, one);
        let am_last = k.eq(old, last);
        k.if_(am_last, |k| {
            let total = k.reg();
            k.assign_const(total, 0);
            let j = k.reg();
            k.assign_const(j, 0);
            k.while_(
                |k| k.lt_u(j, gdim),
                |k| {
                    let pj = k.add(partials, j);
                    let p = k.load_global(pj);
                    k.bin_into(total, BinOp::Add, total, p);
                    k.bin_into(j, BinOp::Add, j, one);
                },
            );
            let res = k.const_(RESULT);
            k.store_global(res, total);
        });
    });
    b.finish().expect("sdk-red kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment, RunVerdict};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    #[test]
    fn both_variants_correct_under_sequential_consistency() {
        for fenced in [true, false] {
            let app = SdkRed::new(fenced);
            let chip = sc_chip();
            let h = AppHarness::new(&chip, &app);
            for seed in 0..5 {
                let out = h.run_once(&Environment::native(), seed);
                assert_eq!(out.verdict, RunVerdict::Pass, "fenced={fenced} seed={seed}");
            }
        }
    }

    #[test]
    fn fence_count_matches_variant() {
        assert_eq!(SdkRed::new(true).spec().fence_count(), 1);
        assert_eq!(SdkRed::new(false).spec().fence_count(), 0);
    }

    #[test]
    fn nf_is_the_stripped_original() {
        let orig = SdkRed::new(true);
        let nf = SdkRed::new(false);
        assert_eq!(
            orig.spec().strip().phases[0].program.insts,
            nf.spec().phases[0].program.insts
        );
    }
}
