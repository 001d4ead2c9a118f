//! `cub-scan`: the prefix scan of the CUB library, reduced to its
//! decoupled-lookback communication idiom.
//!
//! Each block scans its slice in shared memory, publishes its block
//! *aggregate* (store aggregate, fence, store status = `A`), performs the
//! lookback over predecessor blocks (spinning on their status words, an
//! MP-style handshake), then publishes its *inclusive prefix* (store
//! prefix, fence, store status = `P`). CUB carries both fences; the
//! `-nf` variant strips them, so a successor block can observe a status
//! flag before the value it guards — the two distinct writer-side fence
//! sites the paper's empirical insertion rediscovers (Tab. 6:
//! cub-scan-nf reduces to exactly 2 fences).
//!
//! Post-condition: the output equals the CPU inclusive scan.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::BinOp;
use wmm_sim::word::Word;

/// Elements scanned.
pub const N: u32 = 256;
/// Base of the per-block aggregates.
pub const AGG: u32 = 128;
/// Base of the per-block inclusive prefixes.
pub const PREFIX: u32 = 256;
/// Base of the per-block status words (0 = empty, 1 = aggregate
/// available, 2 = prefix available).
pub const STATUS: u32 = 384;
/// Base of the input array.
pub const INPUT: u32 = 512;
/// Base of the output array.
pub const OUT: u32 = 1024;

/// Blocks in the grid.
pub const BLOCKS: u32 = 8;
/// Threads per block.
pub const TPB: u32 = 32;

/// The `cub-scan` case study (or its `-nf` variant). See the module docs.
#[derive(Debug, Clone)]
pub struct CubScan {
    spec: AppSpec,
    expected: Vec<Word>,
}

fn input(i: u32) -> Word {
    (i % 5) + 1
}

impl CubScan {
    /// Build the application; `fenced` selects the original (with CUB's
    /// two fences) or the `-nf` variant.
    pub fn new(fenced: bool) -> Self {
        let mut expected = Vec::with_capacity(N as usize);
        let mut acc = 0u32;
        for i in 0..N {
            acc += input(i);
            expected.push(acc);
        }
        let init: Vec<(u32, Word)> = (0..N).map(|i| (INPUT + i, input(i))).collect();
        let spec = AppSpec {
            name: if fenced { "cub-scan" } else { "cub-scan-nf" }.into(),
            phases: vec![Phase {
                program: kernel(fenced),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: TPB + 1,
            }],
            global_words: OUT + N,
            init,
            max_turns_per_phase: 900_000,
        };
        CubScan { spec, expected }
    }
}

impl Application for CubScan {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        for i in 0..N {
            let got = memory[(OUT + i) as usize];
            if got != self.expected[i as usize] {
                return Err(format!(
                    "out[{i}] = {got}, expected {} (stale lookback value)",
                    self.expected[i as usize]
                ));
            }
        }
        Ok(())
    }
}

fn kernel(fenced: bool) -> wmm_sim::Program {
    let mut b = KernelBuilder::new(if fenced { "cub-scan" } else { "cub-scan-nf" });
    let tid = b.tid();
    let bid = b.bid();
    let bdim = b.block_dim();
    let zero = b.const_(0);
    let one = b.const_(1);

    // Load and Hillis–Steele inclusive scan in shared memory.
    let t0 = b.mul(bid, bdim);
    let gi = b.add(tid, t0);
    let in_base = b.const_(INPUT);
    let ia = b.add(in_base, gi);
    let v = b.load_global(ia);
    b.store_shared(tid, v);
    b.barrier();
    let off = b.reg();
    b.assign_const(off, 1);
    b.while_(
        |k| k.lt_u(off, bdim),
        |k| {
            let cur = k.load_shared(tid);
            let newv = k.mov(cur);
            let active = k.le_u(off, tid);
            k.if_(active, |k| {
                let other = k.sub(tid, off);
                let prev = k.load_shared(other);
                k.bin_into(newv, BinOp::Add, cur, prev);
            });
            k.barrier();
            k.store_shared(tid, newv);
            k.barrier();
            k.bin_into(off, BinOp::Shl, off, one);
        },
    );

    // Lane 0: publish aggregate, look back, publish prefix.
    let is0 = b.eq(tid, zero);
    b.if_(is0, |k| {
        let last = k.sub(bdim, one);
        let agg = k.load_shared(last);
        let agg_base = k.const_(AGG);
        let aa = k.add(agg_base, bid);
        k.store_global(aa, agg);
        if fenced {
            k.fence_device(); // CUB fence #1: aggregate before status A
        }
        let status_base = k.const_(STATUS);
        let sa = k.add(status_base, bid);
        let one_r = k.const_(1);
        k.store_global(sa, one_r);

        // Lookback: excl = sum of predecessor aggregates / prefix.
        let excl = k.reg();
        k.assign_const(excl, 0);
        let jj = k.mov(bid); // scan j = jj-1 down while jj > 0
        let prefix_base = k.const_(PREFIX);
        let zero = k.const_(0);
        let two = k.const_(2);
        k.while_(
            |k| k.lt_u(zero, jj),
            |k| {
                let j = k.sub(jj, one_r);
                let sj = k.add(status_base, j);
                let status_v = k.reg();
                k.while_(
                    |k| {
                        let s = k.load_global(sj);
                        k.assign(status_v, s);
                        k.eq(s, zero)
                    },
                    |_| {},
                );
                let has_prefix = k.eq(status_v, two);
                k.if_else(
                    has_prefix,
                    |k| {
                        let pj = k.add(prefix_base, j);
                        let p = k.load_global(pj);
                        k.bin_into(excl, BinOp::Add, excl, p);
                        k.assign_const(jj, 0); // break
                    },
                    |k| {
                        let aj = k.add(agg_base, j);
                        let a = k.load_global(aj);
                        k.bin_into(excl, BinOp::Add, excl, a);
                        k.bin_into(jj, BinOp::Sub, jj, one_r);
                    },
                );
            },
        );

        // Publish the inclusive prefix.
        let inc = k.add(excl, agg);
        let pa = k.add(prefix_base, bid);
        k.store_global(pa, inc);
        if fenced {
            k.fence_device(); // CUB fence #2: prefix before status P
        }
        k.store_global(sa, two);

        // Broadcast the exclusive prefix to the block.
        let bcast = k.mov(bdim); // shared slot TPB
        k.store_shared(bcast, excl);
    });
    b.barrier();

    // Every thread writes its output element.
    let bcast = b.mov(bdim);
    let excl = b.load_shared(bcast);
    let mine = b.load_shared(tid);
    let out_v = b.add(mine, excl);
    let out_base = b.const_(OUT);
    let oa = b.add(out_base, gi);
    b.store_global(oa, out_v);
    b.finish()
        .expect("cub-scan kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment, RunVerdict};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("K5200").unwrap().sequentially_consistent()
    }

    #[test]
    fn both_variants_correct_under_sequential_consistency() {
        for fenced in [true, false] {
            let app = CubScan::new(fenced);
            let chip = sc_chip();
            let h = AppHarness::new(&chip, &app);
            for seed in 0..5 {
                let out = h.run_once(&Environment::native(), seed);
                assert_eq!(out.verdict, RunVerdict::Pass, "fenced={fenced} seed={seed}");
            }
        }
    }

    #[test]
    fn two_fences_in_original() {
        assert_eq!(CubScan::new(true).spec().fence_count(), 2);
        assert_eq!(CubScan::new(false).spec().fence_count(), 0);
    }

    #[test]
    fn reference_is_inclusive_scan() {
        let app = CubScan::new(true);
        assert_eq!(app.expected[0], input(0));
        assert_eq!(
            app.expected[(N - 1) as usize],
            (0..N).map(input).sum::<u32>()
        );
    }
}
