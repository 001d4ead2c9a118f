//! `cbe-dot`: the dot-product routine from *CUDA by Example* (ch. A1.2) —
//! the paper's running example (Fig. 1).
//!
//! Each block computes a partial dot product in shared memory, then its
//! first thread takes a global spinlock and adds the partial into the
//! final result **non-atomically** (`*c += cache[0]`). Correctness
//! depends on the critical-section store not being reordered with the
//! unlock (`atomicExch(mutex, 0)`): on a weak machine the unlock can
//! become visible first, letting another block read a stale `*c` and
//! lose an update.
//!
//! Post-condition: the GPU result bit-exactly matches a CPU reference
//! (inputs are small integers, so f32 addition is exact in any order).

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::BinOp;
use wmm_sim::word::{from_f32, Word};

/// Number of elements in each input vector.
pub const N: u32 = 128;
/// Word address of the spinlock.
pub const MUTEX: u32 = 0;
/// Word address of the result cell `c` (a different memory line from the
/// mutex on every chip, as in the original's layout).
pub const C: u32 = 128;
/// Base address of input `a`.
pub const A: u32 = 256;
/// Base address of input `b`.
pub const B: u32 = A + N;

/// Blocks in the grid.
pub const BLOCKS: u32 = 8;
/// Threads per block.
pub const TPB: u32 = 32;

/// The `cbe-dot` case study. See the module docs.
#[derive(Debug, Clone)]
pub struct CbeDot {
    spec: AppSpec,
    expected: Word,
}

impl CbeDot {
    /// Build the application with its fixed input vectors.
    pub fn new() -> Self {
        let a: Vec<f32> = (0..N).map(|i| (i % 8) as f32).collect();
        let b: Vec<f32> = (0..N).map(|i| ((i / 8) % 8) as f32).collect();
        let expected = from_f32(a.iter().zip(&b).map(|(x, y)| x * y).sum::<f32>());

        let mut init: Vec<(u32, Word)> = Vec::new();
        for (i, v) in a.iter().enumerate() {
            init.push((A + i as u32, from_f32(*v)));
        }
        for (i, v) in b.iter().enumerate() {
            init.push((B + i as u32, from_f32(*v)));
        }

        let spec = AppSpec {
            name: "cbe-dot".into(),
            phases: vec![Phase {
                program: kernel(),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: TPB,
            }],
            global_words: B + N,
            init,
            max_turns_per_phase: 600_000,
        };
        CbeDot { spec, expected }
    }

    /// The CPU reference result (f32 bits).
    pub fn expected(&self) -> Word {
        self.expected
    }
}

impl Default for CbeDot {
    fn default() -> Self {
        CbeDot::new()
    }
}

impl Application for CbeDot {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        let got = memory[C as usize];
        if got == self.expected {
            Ok(())
        } else {
            Err(format!(
                "dot product = {} ({got:#x}), expected {} ({:#x})",
                f32::from_bits(got),
                f32::from_bits(self.expected),
                self.expected
            ))
        }
    }
}

/// The Fig. 1 kernel.
fn kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("cbe-dot");
    let tid = b.tid();
    let bid = b.bid();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();

    // tid_g = threadIdx.x + blockIdx.x * blockDim.x
    let t0 = b.mul(bid, bdim);
    let tid_g = b.reg();
    b.bin_into(tid_g, BinOp::Add, tid, t0);

    // temp = 0; while (tid_g < N) { temp += a[tid_g]*b[tid_g]; tid_g += total }
    let temp = b.const_f32(0.0);
    let n = b.const_(N);
    let total = b.mul(bdim, gdim);
    let a_base = b.const_(A);
    let b_base = b.const_(B);
    b.while_(
        |k| k.lt_u(tid_g, n),
        |k| {
            let aa = k.add(a_base, tid_g);
            let ab = k.add(b_base, tid_g);
            let av = k.load_global(aa);
            let bv = k.load_global(ab);
            let p = k.fmul(av, bv);
            k.bin_into(temp, BinOp::FAdd, temp, p);
            k.bin_into(tid_g, BinOp::Add, tid_g, total);
        },
    );

    // cache[cacheIndex] = temp; __syncthreads();
    b.store_shared(tid, temp);
    b.barrier();

    // Shared-memory tree reduction.
    let one = b.const_(1);
    let i = b.shr(bdim, one);
    let zero = b.const_(0);
    b.while_(
        |k| k.lt_u(zero, i),
        |k| {
            let active = k.lt_u(tid, i);
            k.if_(active, |k| {
                let other = k.add(tid, i);
                let x = k.load_shared(tid);
                let y = k.load_shared(other);
                let s = k.fadd(x, y);
                k.store_shared(tid, s);
            });
            k.barrier();
            k.bin_into(i, BinOp::Shr, i, one);
        },
    );

    // if (cacheIndex == 0) { lock(mutex); *c += cache[0]; unlock(mutex); }
    let is0 = b.eq(tid, zero);
    b.if_(is0, |k| {
        let mutex = k.const_(MUTEX);
        let c_addr = k.const_(C);
        k.spin_lock(mutex);
        let cur = k.load_global(c_addr);
        let part = k.load_shared(zero);
        let sum = k.fadd(cur, part);
        k.store_global(c_addr, sum);
        k.unlock(mutex);
    });
    b.finish().expect("cbe-dot kernel is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    #[test]
    fn correct_under_sequential_consistency() {
        let app = CbeDot::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        for seed in 0..8 {
            let out = h.run_once(&Environment::native(), seed);
            assert_eq!(out.verdict, wmm_core::env::RunVerdict::Pass, "seed {seed}");
        }
    }

    #[test]
    fn randomized_ids_still_correct_under_sc() {
        let app = CbeDot::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        let mut env = Environment::native();
        env.randomize = true;
        for seed in 0..8 {
            let out = h.run_once(&env, seed);
            assert_eq!(out.verdict, wmm_core::env::RunVerdict::Pass, "seed {seed}");
        }
    }

    #[test]
    fn reference_matches_hand_computation() {
        let app = CbeDot::new();
        let expect: f32 = (0..N)
            .map(|i| ((i % 8) as f32) * (((i / 8) % 8) as f32))
            .sum();
        assert_eq!(app.expected(), from_f32(expect));
    }

    #[test]
    fn one_fence_site_per_global_access() {
        let app = CbeDot::new();
        let sites = app.spec().fence_sites();
        // Fig. 1 has: the in-loop loads of a and b, the CAS, the load and
        // store of c, and the unlock exchange.
        assert!(sites.len() >= 5, "sites: {sites:?}");
    }

    #[test]
    fn cons_fences_pass_under_weak_memory() {
        let chip = Chip::by_short("Titan").unwrap();
        let app = CbeDot::new();
        let fenced = app.spec().with_all_fences();
        let h = AppHarness::with_spec(&chip, &app, fenced);
        let r = h.campaign(&Environment::sys_str_plus(&chip), 30, 11, 0);
        assert_eq!(r.errors, 0, "{r:?}");
    }
}
