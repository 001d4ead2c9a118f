//! `shm-pipe` — an intra-block shared-memory pipeline (message
//! passing through shared memory).
//!
//! Not one of the paper's ten case studies: this is the demonstration
//! workload for the *scoped* fence-insertion search. Lane 0 of warp 0
//! produces a value in shared memory and raises a shared flag; lane 0
//! of warp 1 spins^W reads the flag and consumes the value into global
//! results. The two leaders first rendezvous through a global atomic
//! counter so their accesses genuinely race, and every other lane
//! hammers a disjoint shared scratchpad region — the intra-block
//! traffic that pushes the chip's shared-space contention over its
//! pressure floor, exactly the regime where Titan-class chips reorder
//! shared stores.
//!
//! All communication is provably intra-block, so the static analyzer
//! marks the two communicating sites `DemotableToBlock` and the scoped
//! search converges to two cheap `fence_block()`s — strictly below the
//! device-fence baseline Alg. 1 would install.
//!
//! Post-condition: the consumer must never observe the flag set but
//! the payload missing (`res = (1, 0)`).

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::Word;

const TPB: u32 = 64;
/// Payload cell in shared memory.
const X: u32 = 0;
/// Flag cell in shared memory.
const Y: u32 = 64;
/// First word of the hammer scratchpad region.
const SCRATCH: u32 = 128;
/// Global result cells and the rendezvous counter.
const RES0: u32 = 0;
const RES1: u32 = 1;
const SYNC: u32 = 2;

fn kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("shm-pipe");
    let lane = b.lane();
    let zero = b.const_(0);
    let is_lane0 = b.eq(lane, zero);
    b.if_else(
        is_lane0,
        |b| {
            // Rendezvous: both leaders bump the counter and wait until
            // it reaches two, so producer and consumer race for real.
            let sync = b.const_(SYNC);
            let one = b.const_(1);
            let two = b.const_(2);
            b.atomic_add_global(sync, one);
            b.while_(
                |b| {
                    let seen = b.load_global(sync);
                    b.ne(seen, two)
                },
                |_| {},
            );
            let tid = b.tid();
            let warp = b.const_(32);
            let me = b.div_u(tid, warp);
            let zero = b.const_(0);
            let is_producer = b.eq(me, zero);
            let x = b.const_(X);
            let y = b.const_(Y);
            b.if_else(
                is_producer,
                |b| {
                    let one = b.const_(1);
                    b.store_shared(x, one);
                    b.store_shared(y, one);
                },
                |b| {
                    let r0 = b.load_shared(y);
                    let r1 = b.load_shared(x);
                    let res0 = b.const_(RES0);
                    let res1 = b.const_(RES1);
                    b.store_global(res0, r0);
                    b.store_global(res1, r1);
                },
            );
        },
        |b| {
            // Hammer lanes: repeated load/store traffic on a private
            // scratchpad word keeps the block's shared-space pressure
            // above the contention floor while the leaders communicate.
            let tid = b.tid();
            let base = b.const_(SCRATCH);
            let m = b.const_(64);
            let off = b.rem_u(tid, m);
            let addr = b.add(base, off);
            let i = b.reg();
            b.assign_const(i, 0);
            let n = b.const_(60);
            let one = b.const_(1);
            b.while_(
                |b| b.lt_u(i, n),
                |b| {
                    let v = b.load_shared(addr);
                    b.store_shared(addr, v);
                    b.bin_into(i, wmm_sim::ir::BinOp::Add, i, one);
                },
            );
        },
    );
    b.finish().unwrap()
}

/// The `shm-pipe` case study. See the module docs.
pub struct ShmPipe {
    spec: AppSpec,
}

impl ShmPipe {
    /// Build the (fence-free) pipeline.
    pub fn new() -> ShmPipe {
        ShmPipe {
            spec: AppSpec {
                name: "shm-pipe".into(),
                phases: vec![Phase {
                    program: kernel(),
                    blocks: 1,
                    threads_per_block: TPB,
                    shared_words: 192,
                }],
                global_words: 64,
                init: vec![],
                max_turns_per_phase: 2_000_000,
            },
        }
    }
}

impl Default for ShmPipe {
    fn default() -> Self {
        ShmPipe::new()
    }
}

impl Application for ShmPipe {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        if memory[SYNC as usize] != 2 {
            return Err(format!(
                "rendezvous incomplete: sync = {}",
                memory[SYNC as usize]
            ));
        }
        let (flag, payload) = (memory[RES0 as usize], memory[RES1 as usize]);
        if flag == 1 && payload == 0 {
            Err("consumer saw the flag without the payload (1, 0)".into())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_fence_free_with_scoped_sites() {
        let app = ShmPipe::new();
        assert_eq!(app.spec().fence_count(), 0);
        // Producer stores, consumer loads+stores, hammer load+store,
        // and the rendezvous atomics are all fence sites now.
        let sites = app.spec().fence_sites();
        assert!(sites.len() >= 8, "{sites:?}");
    }

    #[test]
    fn sequential_semantics_pass_the_postcondition() {
        use wmm_core::env::{AppHarness, Environment, RunVerdict};
        let chip = wmm_sim::Chip::by_short("Titan")
            .unwrap()
            .sequentially_consistent();
        let app = ShmPipe::new();
        let h = AppHarness::new(&chip, &app);
        for seed in 0..20 {
            let out = h.run_once(&Environment::native(), seed);
            assert_eq!(out.verdict, RunVerdict::Pass, "seed {seed}: {out:?}");
        }
    }
}
