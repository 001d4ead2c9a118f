//! `ls-bh`: the Barnes–Hut n-body simulation from the Lonestar GPU
//! benchmarks, reduced to its three communicating kernels.
//!
//! Three phases over one memory image:
//!
//! 1. **Tree build** — threads insert bodies into a two-level tree.
//!    The first inserter into a quadrant claims the root cell with a
//!    CAS lock, allocates an internal node, initialises its list base,
//!    and publishes the cell (fence site *a*). Bodies are then appended
//!    to the node's sub-lists under per-list spinlocks (fence site *b*
//!    before the unlock).
//! 2. **Summarisation** — leaf threads publish per-list masses with a
//!    ready flag (fence site *c*); quadrant threads spin on the flags
//!    and combine.
//! 3. **Force/potential** — blocks reduce per-body potentials and
//!    accumulate into a global sum under a spinlock. The shipped code
//!    has **no fence before this unlock** (site *d*): the fences included
//!    in `ls-bh` are insufficient, exactly as the paper discovered — the
//!    original application shows errors even with its fences, and
//!    empirical insertion on the `-nf` variant returns a superset of the
//!    shipped fences.
//!
//! Post-condition: tree structure, masses, and the total potential all
//! match a host reference.

use wmm_core::app::{AppSpec, Application, Phase};
use wmm_sim::ir::builder::KernelBuilder;
use wmm_sim::ir::BinOp;
use wmm_sim::word::Word;

/// Number of bodies.
pub const NB: u32 = 64;
/// Base of the body array.
pub const BODY: u32 = 0;
/// Root cell per quadrant: 0 = empty, 1 = locked, `n + 2` = node `n`.
pub const ROOT_CHILD: u32 = 128;
/// Node allocation counter.
pub const NODE_CTR: u32 = 136;
/// Per-node list base pointers (the field protected by fence site *a*).
pub const NODE_BASE: u32 = 256;
/// Per-list spinlocks (4 nodes × 4 sub-lists).
pub const LLOCKS: u32 = 384;
/// Per-list body counts.
pub const LCOUNT: u32 = 512;
/// Per-node list storage (4 sub-lists × `LIST_CAP` each).
pub const LITEMS: u32 = 640;
/// Capacity of one sub-list.
pub const LIST_CAP: u32 = 16;
/// Per-leaf masses (16).
pub const LMASS: u32 = 896;
/// Per-leaf ready flags (16).
pub const LREADY: u32 = 1024;
/// Per-quadrant masses (4).
pub const QMASS: u32 = 1152;
/// Total mass.
pub const ROOT_MASS: u32 = 1160;
/// Potential-accumulation spinlock.
pub const PLOCK: u32 = 1280;
/// Global potential sum.
pub const POT: u32 = 1408;
/// Total global words.
pub const WORDS: u32 = 1536;

/// Body `i`'s value: low 4 bits select (quadrant, sub-quadrant) evenly.
fn body(i: u32) -> Word {
    (i % 16) + 16 * (i / 16 + 1)
}

/// The `ls-bh` case study (or its `-nf` variant). See the module docs.
#[derive(Debug, Clone)]
pub struct LsBh {
    spec: AppSpec,
    bodies: Vec<Word>,
    total_mass: Word,
    expected_pot: Word,
}

impl LsBh {
    /// Build the application; `fenced` selects the shipped (partially
    /// fenced) version or the `-nf` variant.
    pub fn new(fenced: bool) -> Self {
        let bodies: Vec<Word> = (0..NB).map(body).collect();
        let total_mass: Word = bodies.iter().sum();
        let expected_pot: Word = bodies
            .iter()
            .map(|&v| v.wrapping_mul(total_mass - v))
            .fold(0u32, |a, x| a.wrapping_add(x));
        let init: Vec<(u32, Word)> = bodies
            .iter()
            .enumerate()
            .map(|(i, &v)| (BODY + i as u32, v))
            .collect();
        let spec = AppSpec {
            name: if fenced { "ls-bh" } else { "ls-bh-nf" }.into(),
            phases: vec![
                Phase {
                    program: build_kernel(fenced),
                    blocks: 2,
                    threads_per_block: 32,
                    shared_words: 0,
                },
                Phase {
                    program: summarize_kernel(fenced),
                    blocks: 1,
                    threads_per_block: 32,
                    shared_words: 0,
                },
                Phase {
                    program: force_kernel(),
                    blocks: 4,
                    threads_per_block: 32,
                    shared_words: 32,
                },
            ],
            global_words: WORDS,
            init,
            max_turns_per_phase: 1_200_000,
        };
        LsBh {
            spec,
            bodies,
            total_mass,
            expected_pot,
        }
    }
}

impl Application for LsBh {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn spec(&self) -> &AppSpec {
        &self.spec
    }

    fn check(&self, memory: &[Word]) -> Result<(), String> {
        let word = |a: u32| -> Result<Word, String> {
            memory
                .get(a as usize)
                .copied()
                .ok_or_else(|| format!("address {a} out of range"))
        };
        // Expected per-leaf multisets: leaf index = q1*4 + q2.
        let mut expected: Vec<Vec<Word>> = vec![Vec::new(); 16];
        for &v in &self.bodies {
            let leaf = ((v & 3) * 4 + ((v >> 2) & 3)) as usize;
            expected[leaf].push(v);
        }
        for q1 in 0..4u32 {
            let cell = word(ROOT_CHILD + q1)?;
            if cell < 2 {
                return Err(format!("quadrant {q1} has no node (cell = {cell})"));
            }
            let node = cell - 2;
            if node >= 4 {
                return Err(format!("quadrant {q1} has corrupt node id {node}"));
            }
            let nb = word(NODE_BASE + node)?;
            if nb != LITEMS + node * 4 * LIST_CAP {
                return Err(format!(
                    "node {node} has stale list base {nb} (publish raced its initialisation)"
                ));
            }
            for q2 in 0..4u32 {
                let leaf = (q1 * 4 + q2) as usize;
                let n = word(LCOUNT + node * 4 + q2)?;
                if n > LIST_CAP {
                    return Err(format!("leaf {leaf} count {n} exceeds capacity"));
                }
                let mut got: Vec<Word> = (0..n)
                    .map(|i| word(nb + q2 * LIST_CAP + i))
                    .collect::<Result<_, _>>()?;
                let mut want = expected[leaf].clone();
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    return Err(format!(
                        "leaf {leaf}: {} bodies in tree, expected {}",
                        got.len(),
                        want.len()
                    ));
                }
                let mass = word(LMASS + q1 * 4 + q2)?;
                let want_mass: Word = want.iter().sum();
                if mass != want_mass {
                    return Err(format!(
                        "leaf {leaf} mass = {mass}, expected {want_mass} (stale summary)"
                    ));
                }
            }
            let qm = word(QMASS + q1)?;
            let want_qm: Word = (0..4)
                .flat_map(|q2| expected[(q1 * 4 + q2) as usize].iter())
                .sum();
            if qm != want_qm {
                return Err(format!("quadrant {q1} mass = {qm}, expected {want_qm}"));
            }
        }
        if word(ROOT_MASS)? != self.total_mass {
            return Err(format!(
                "root mass = {}, expected {}",
                word(ROOT_MASS)?,
                self.total_mass
            ));
        }
        if word(POT)? != self.expected_pot {
            return Err(format!(
                "potential = {}, expected {} (lost update in force accumulation)",
                word(POT)?,
                self.expected_pot
            ));
        }
        Ok(())
    }
}

/// Phase 1: lock-free tree build.
fn build_kernel(fenced: bool) -> wmm_sim::Program {
    let mut b = KernelBuilder::new("ls-bh-build");
    let i = b.global_tid();
    let body_base = b.const_(BODY);
    let ba = b.add(body_base, i);
    let v = b.load_global(ba);
    let three = b.const_(3);
    let q1 = b.and(v, three);
    let two_c = b.const_(2);
    let q2t = b.shr(v, two_c);
    let q2 = b.and(q2t, three);

    // Resolve (or create) the quadrant's internal node.
    let rc = b.const_(ROOT_CHILD);
    let cell_addr = b.add(rc, q1);
    let _zero = b.const_(0);
    let one = b.const_(1);
    let node = b.reg();
    let resolved = b.reg();
    b.assign_const(resolved, 0);
    b.while_(
        |k| {
            let r = k.mov(resolved);
            let zero = k.const_(0);
            k.eq(r, zero)
        },
        |k| {
            let c = k.load_global(cell_addr);
            let two = k.const_(2);
            let have = k.le_u(two, c);
            k.if_else(
                have,
                |k| {
                    let n = k.sub(c, two);
                    k.assign(node, n);
                    k.assign_const(resolved, 1);
                },
                |k| {
                    let zero = k.const_(0);
                    let empty = k.eq(c, zero);
                    k.if_(empty, |k| {
                        let old = k.atomic_cas_global(cell_addr, zero, one);
                        let won = k.eq(old, zero);
                        k.if_(won, |k| {
                            let ctr = k.const_(NODE_CTR);
                            let nd = k.atomic_add_global(ctr, one);
                            // Initialise the node's list base...
                            let cap4 = k.const_(4 * LIST_CAP);
                            let off = k.mul(nd, cap4);
                            let items = k.const_(LITEMS);
                            let base = k.add(items, off);
                            let nb_arr = k.const_(NODE_BASE);
                            let nba = k.add(nb_arr, nd);
                            k.store_global(nba, base);
                            if fenced {
                                k.fence_device(); // shipped fence (site a)
                            }
                            // ...then publish the cell.
                            let pub_v = k.add(nd, two);
                            k.store_global(cell_addr, pub_v);
                            k.assign(node, nd);
                            k.assign_const(resolved, 1);
                        });
                    });
                },
            );
        },
    );

    // Append the body to the node's (q2) sub-list under its lock.
    let nb_arr = b.const_(NODE_BASE);
    let nba = b.add(nb_arr, node);
    let nb = b.load_global(nba);
    let four = b.const_(4);
    let lidx0 = b.mul(node, four);
    let lidx = b.add(lidx0, q2);
    let llocks = b.const_(LLOCKS);
    let lock_addr = b.add(llocks, lidx);
    let lcount = b.const_(LCOUNT);
    let cnt_addr = b.add(lcount, lidx);
    b.spin_lock(lock_addr);
    let n = b.load_global(cnt_addr);
    let cap = b.const_(LIST_CAP);
    let sub_off = b.mul(q2, cap);
    let item0 = b.add(nb, sub_off);
    let item_addr = b.add(item0, n);
    b.store_global(item_addr, v);
    let n1 = b.add(n, one);
    b.store_global(cnt_addr, n1);
    if fenced {
        b.fence_device(); // shipped fence (site b)
    }
    b.unlock(lock_addr);
    b.finish().expect("ls-bh build kernel is valid")
}

/// Phase 2: bottom-up mass summarisation.
fn summarize_kernel(fenced: bool) -> wmm_sim::Program {
    let mut b = KernelBuilder::new("ls-bh-summarize");
    let t = b.tid();
    let c16 = b.const_(16);
    let is_leaf = b.lt_u(t, c16);
    b.if_else(
        is_leaf,
        |k| {
            // Leaf (q1, q2) = (t / 4, t % 4): sum its list.
            let four = k.const_(4);
            let q1 = k.div_u(t, four);
            let q2 = k.rem_u(t, four);
            let rc = k.const_(ROOT_CHILD);
            let ca = k.add(rc, q1);
            let cell = k.load_global(ca);
            let two = k.const_(2);
            let node = k.sub(cell, two);
            let nb_arr = k.const_(NODE_BASE);
            let nba = k.add(nb_arr, node);
            let nb = k.load_global(nba);
            let lidx0 = k.mul(node, four);
            let lidx = k.add(lidx0, q2);
            let lcount = k.const_(LCOUNT);
            let cna = k.add(lcount, lidx);
            let n = k.load_global(cna);
            let cap = k.const_(LIST_CAP);
            let sub = k.mul(q2, cap);
            let base = k.add(nb, sub);
            let mass = k.reg();
            k.assign_const(mass, 0);
            let j = k.reg();
            k.assign_const(j, 0);
            let one = k.const_(1);
            k.while_(
                |k| k.lt_u(j, n),
                |k| {
                    let a = k.add(base, j);
                    let x = k.load_global(a);
                    k.bin_into(mass, BinOp::Add, mass, x);
                    k.bin_into(j, BinOp::Add, j, one);
                },
            );
            let lm = k.const_(LMASS);
            let lma = k.add(lm, t);
            k.store_global(lma, mass);
            if fenced {
                k.fence_device(); // shipped fence (site c)
            }
            let lr = k.const_(LREADY);
            let lra = k.add(lr, t);
            k.store_global(lra, one);
        },
        |k| {
            // Quadrant summarisers: threads 16..20.
            let c20 = k.const_(20);
            let is_q = k.lt_u(t, c20);
            k.if_(is_q, |k| {
                let c16 = k.const_(16);
                let q = k.sub(t, c16);
                let four = k.const_(4);
                let leaf0 = k.mul(q, four);
                let lr = k.const_(LREADY);
                let lm = k.const_(LMASS);
                let qm_sum = k.reg();
                k.assign_const(qm_sum, 0);
                let j = k.reg();
                k.assign_const(j, 0);
                let one = k.const_(1);
                k.while_(
                    |k| k.lt_u(j, four),
                    |k| {
                        let leaf = k.add(leaf0, j);
                        let ra = k.add(lr, leaf);
                        k.while_(
                            |k| {
                                let r = k.load_global(ra);
                                let zero = k.const_(0);
                                k.eq(r, zero)
                            },
                            |_| {},
                        );
                        let ma = k.add(lm, leaf);
                        let m = k.load_global(ma);
                        k.bin_into(qm_sum, BinOp::Add, qm_sum, m);
                        k.bin_into(j, BinOp::Add, j, one);
                    },
                );
                let qm = k.const_(QMASS);
                let qma = k.add(qm, q);
                k.store_global(qma, qm_sum);
                let rm = k.const_(ROOT_MASS);
                let _ = k.atomic_add_global(rm, qm_sum);
            });
        },
    );
    b.finish().expect("ls-bh summarize kernel is valid")
}

/// Phase 3: potential computation with a lock-protected accumulation.
/// Deliberately fence-free even in the shipped version — the missing
/// fence (site d) the paper's testing exposes.
fn force_kernel() -> wmm_sim::Program {
    let mut b = KernelBuilder::new("ls-bh-force");
    let tid = b.tid();
    let bid = b.bid();
    let bdim = b.block_dim();
    let t0 = b.mul(bid, bdim);
    let i = b.add(tid, t0);
    let nb = b.const_(NB);
    let in_range = b.lt_u(i, nb);
    let contrib = b.reg();
    b.assign_const(contrib, 0);
    b.if_(in_range, |k| {
        let body_base = k.const_(BODY);
        let ba = k.add(body_base, i);
        let v = k.load_global(ba);
        let rm = k.const_(ROOT_MASS);
        let m = k.load_global(rm);
        let rest = k.sub(m, v);
        let p = k.mul(v, rest);
        k.assign(contrib, p);
    });
    // Block-level reduction in shared memory.
    b.store_shared(tid, contrib);
    b.barrier();
    let one = b.const_(1);
    let zero = b.const_(0);
    let half = b.shr(bdim, one);
    let s = b.mov(half);
    b.while_(
        |k| k.lt_u(zero, s),
        |k| {
            let active = k.lt_u(tid, s);
            k.if_(active, |k| {
                let other = k.add(tid, s);
                let x = k.load_shared(tid);
                let y = k.load_shared(other);
                let sum = k.add(x, y);
                k.store_shared(tid, sum);
            });
            k.barrier();
            k.bin_into(s, BinOp::Shr, s, one);
        },
    );
    let is0 = b.eq(tid, zero);
    b.if_(is0, |k| {
        let partial = k.load_shared(zero);
        let plock = k.const_(PLOCK);
        let pot = k.const_(POT);
        k.spin_lock(plock);
        let cur = k.load_global(pot);
        let sum = k.add(cur, partial);
        k.store_global(pot, sum);
        // No fence here, in either variant: the insufficiency the paper
        // discovered in ls-bh (site d).
        k.unlock(plock);
    });
    b.finish().expect("ls-bh force kernel is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_core::env::{AppHarness, Environment, RunVerdict};
    use wmm_sim::chip::Chip;

    fn sc_chip() -> Chip {
        Chip::by_short("C2075").unwrap().sequentially_consistent()
    }

    #[test]
    fn both_variants_correct_under_sequential_consistency() {
        for fenced in [true, false] {
            let app = LsBh::new(fenced);
            let chip = sc_chip();
            let h = AppHarness::new(&chip, &app);
            for seed in 0..5 {
                let out = h.run_once(&Environment::native(), seed);
                assert_eq!(out.verdict, RunVerdict::Pass, "fenced={fenced} seed={seed}");
            }
        }
    }

    #[test]
    fn shipped_version_has_three_fences() {
        assert_eq!(LsBh::new(true).spec().fence_count(), 3);
        assert_eq!(LsBh::new(false).spec().fence_count(), 0);
    }

    #[test]
    fn three_phases() {
        assert_eq!(LsBh::new(true).spec().phases.len(), 3);
    }

    #[test]
    fn bodies_fill_every_leaf_equally() {
        let bodies: Vec<Word> = (0..NB).map(body).collect();
        let mut per_leaf = [0u32; 16];
        for v in bodies {
            per_leaf[((v & 3) * 4 + ((v >> 2) & 3)) as usize] += 1;
        }
        assert!(per_leaf.iter().all(|&c| c == NB / 16), "{per_leaf:?}");
    }
}
