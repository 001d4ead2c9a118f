//! `ct-octree`: the octree partitioning routine of Cederman & Tsigas
//! (*GPU Computing Gems*, ch. 37), reduced to its communication idiom.
//!
//! Producer blocks push particles through a **non-blocking queue**:
//! write the particle into a slot, then publish the slot by setting its
//! flag — an MP handshake per slot. Consumer blocks claim slots with an
//! atomic counter, spin on the flag, and insert the particle into its
//! quadrant's list. On a weak machine the flag store can become visible
//! before the data store, so a consumer reads a stale (zero) slot and a
//! particle never reaches the tree.
//!
//! Post-condition: all original particles are in the final octree —
//! each quadrant list holds exactly the input particles of its quadrant.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::word::Word;

/// Number of particles.
pub const PARTICLES: u32 = 64;
/// Base of the input particle array.
pub const INPUT: u32 = 0;
/// Base of the queue data slots.
pub const QDATA: u32 = 128;
/// Base of the queue publish flags (one per slot, separate line from the
/// data so flag/data stores can reorder — the bug under test).
pub const QFLAG: u32 = 256;
/// Consumer claim counter.
pub const HEAD: u32 = 384;
/// Per-quadrant insertion counters (4).
pub const QCOUNT: u32 = 448;
/// Per-quadrant particle lists (4 × `PARTICLES` capacity).
pub const QLIST: u32 = 512;

/// Blocks in the grid (half producers, half consumers).
pub const BLOCKS: u32 = 4;
/// Threads per block.
pub const TPB: u32 = 32;

/// The `ct-octree` case study. See the module docs.
#[derive(Debug, Clone)]
pub struct CtOctree {
    spec: AppSpec,
    particles: Vec<Word>,
}

/// Particle `i`'s value: distinct, non-zero, quadrants evenly spread.
fn particle(i: u32) -> Word {
    (i % 16) + 16 * (i / 16 + 1)
}

impl CtOctree {
    /// Build the application with its fixed particle set.
    pub fn new() -> Self {
        let particles: Vec<Word> = (0..PARTICLES).map(particle).collect();
        let init: Vec<(u32, Word)> = particles
            .iter()
            .enumerate()
            .map(|(i, &v)| (INPUT + i as u32, v))
            .collect();
        let spec = AppSpec {
            name: "ct-octree".into(),
            phases: vec![Phase {
                program: kernel(),
                blocks: BLOCKS,
                threads_per_block: TPB,
                shared_words: 0,
            }],
            global_words: QLIST + 4 * PARTICLES,
            init,
            max_turns_per_phase: 900_000,
        };
        CtOctree { spec, particles }
    }
}

impl Default for CtOctree {
    fn default() -> Self {
        CtOctree::new()
    }
}

impl Application for CtOctree {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        // Expected quadrant multisets.
        let mut expected: [Vec<Word>; 4] = Default::default();
        for &v in &self.particles {
            expected[(v & 3) as usize].push(v);
        }
        for q in 0..4u32 {
            let n = memory[(QCOUNT + q) as usize];
            let mut got: Vec<Word> = (0..n)
                .map(|i| memory[(QLIST + q * PARTICLES + i) as usize])
                .collect();
            let mut want = expected[q as usize].clone();
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                return Err(format!(
                    "quadrant {q}: tree holds {} particles, expected {} (lost or corrupt entries)",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}

/// Producer/consumer kernel. Blocks with `bid < 2` produce; the rest
/// consume.
fn kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("ct-octree");
    let bid = b.bid();
    let two = b.const_(2);
    let is_producer = b.lt_u(bid, two);
    b.if_else(
        is_producer,
        |k| {
            // Producer: slot i = global thread id (producer blocks are
            // bid 0 and 1, so gtid covers 0..64).
            let i = k.global_tid();
            let in_base = k.const_(INPUT);
            let ia = k.add(in_base, i);
            let v = k.load_global(ia);
            let qd = k.const_(QDATA);
            let da = k.add(qd, i);
            k.store_global(da, v);
            // Publish. The fence that belongs here is deliberately
            // absent — empirical fence insertion finds it.
            let qf = k.const_(QFLAG);
            let fa = k.add(qf, i);
            let one = k.const_(1);
            k.store_global(fa, one);
        },
        |k| {
            // Consumer: claim slots until exhausted.
            let head = k.const_(HEAD);
            let n = k.const_(PARTICLES);
            let one = k.const_(1);
            let more = k.reg();
            k.assign_const(more, 1);
            k.while_(
                |k| k.mov(more),
                |k| {
                    let my = k.atomic_add_global(head, one);
                    let in_range = k.lt_u(my, n);
                    k.if_else(
                        in_range,
                        |k| {
                            // Spin until the slot is published.
                            let qf = k.const_(QFLAG);
                            let fa = k.add(qf, my);
                            k.while_(
                                |k| {
                                    let f = k.load_global(fa);
                                    let zero = k.const_(0);
                                    k.eq(f, zero)
                                },
                                |_| {},
                            );
                            let qd = k.const_(QDATA);
                            let da = k.add(qd, my);
                            let v = k.load_global(da);
                            // Insert into the quadrant list.
                            let three = k.const_(3);
                            let q = k.and(v, three);
                            let qc = k.const_(QCOUNT);
                            let ca = k.add(qc, q);
                            let idx = k.atomic_add_global(ca, one);
                            let cap = k.const_(PARTICLES);
                            let off = k.mul(q, cap);
                            let ql = k.const_(QLIST);
                            let la0 = k.add(ql, off);
                            let la = k.add(la0, idx);
                            k.store_global(la, v);
                        },
                        |k| {
                            k.assign_const(more, 0);
                        },
                    );
                },
            );
        },
    );
    b.finish()
        .expect("ct-octree kernel is valid by construction")
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
    fn correct_under_sequential_consistency() {
        let app = CtOctree::new();
        let chip = sc_chip();
        let h = AppHarness::new(&chip, &app);
        for seed in 0..6 {
            let out = h.run_once(&Environment::native(), seed);
            assert_eq!(out.verdict, RunVerdict::Pass, "seed {seed}");
        }
    }

    #[test]
    fn particles_spread_over_quadrants() {
        let app = CtOctree::new();
        let mut per_q = [0u32; 4];
        for &v in &app.particles {
            per_q[(v & 3) as usize] += 1;
        }
        assert!(per_q.iter().all(|&c| c == PARTICLES / 4), "{per_q:?}");
    }

    #[test]
    fn publish_site_is_a_fence_site() {
        // The producer's data→flag pair must be adjacent global stores.
        let app = CtOctree::new();
        let sites = app.spec().fence_sites();
        assert!(sites.len() >= 4);
    }
}
