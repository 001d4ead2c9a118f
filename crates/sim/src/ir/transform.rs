//! Fence-oriented program transformations.
//!
//! The paper's fencing strategies are program transformations over a
//! *fence-free* base program:
//!
//! * **cons fences** — a device fence after *every* memory access
//!   ([`with_leveled_fences`] at every [`fence_sites`] entry), the
//!   paper's conservative, safe-but-slow strategy;
//! * **emp fences** — a fence after a *subset* of accesses
//!   ([`with_leveled_fences`]), the output of empirical fence insertion
//!   (Alg. 1);
//! * **no fences** — the base program itself, or [`strip_fences`] applied
//!   to an application that shipped with fences (how the paper
//!   manufactured the `-nf` variants).
//!
//! Fence *sites* are identified by the instruction index of the memory
//! access they follow, in the fence-free program. This gives Alg. 1 a
//! stable set to reduce over. Since the static scoped-communication
//! analyzer landed, sites cover *shared*-space accesses too, and
//! [`with_leveled_fences`] can place the cheaper `FenceLevel::Block`
//! rung at a site.

use super::validate::validate;
use super::{BinOp, FenceLevel, Inst, Program, SpecialReg};
use crate::ir::Space;

/// The fence sites of a program: instruction indices (in a fence-free
/// program) of memory accesses — global *and* shared — each a candidate
/// location for a trailing fence. Shared-space sites admit the cheaper
/// `FenceLevel::Block` rung via [`with_leveled_fences`].
pub fn fence_sites(p: &Program) -> Vec<usize> {
    p.memory_access_indices()
}

/// Insert a fence of the given level after each listed instruction
/// index. Duplicate sites keep the *strongest* requested level (device
/// beats block), so a site never carries two fences.
///
/// `sites` must refer to instruction indices of `p`. Branch targets are
/// remapped so control flow is preserved; a branch that targeted the
/// instruction *after* a site now targets the first instruction after
/// the inserted fence, so fences only execute on paths that execute
/// their memory access.
///
/// # Panics
///
/// Panics if any site index is out of range, or if the transformed
/// program fails validation (a bug in this pass, not in the caller).
pub fn with_leveled_fences(p: &Program, sites: &[(usize, FenceLevel)]) -> Program {
    for &(s, _) in sites {
        assert!(s < p.insts.len(), "fence site {s} out of range");
    }
    let mut sorted: Vec<(usize, FenceLevel)> = sites.to_vec();
    sorted.sort_unstable_by_key(|&(s, level)| (s, level != FenceLevel::Device));
    sorted.dedup_by_key(|&mut (s, _)| s);

    // new_pos[i] = index of old instruction i in the transformed program.
    let mut new_pos = Vec::with_capacity(p.insts.len() + 1);
    let mut inserted = 0usize;
    let mut site_iter = sorted.iter().peekable();
    for i in 0..p.insts.len() {
        new_pos.push(i + inserted);
        if site_iter.peek().map(|&&(s, _)| s) == Some(i) {
            site_iter.next();
            inserted += 1;
        }
    }
    // Targets may point one-past-the-end (implicit halt).
    new_pos.push(p.insts.len() + inserted);

    let mut insts = Vec::with_capacity(p.insts.len() + sorted.len());
    let mut site_iter = sorted.iter().peekable();
    for (i, inst) in p.insts.iter().enumerate() {
        let mut inst = *inst;
        if let Some(t) = inst.target_mut() {
            *t = new_pos[*t];
        }
        insts.push(inst);
        if site_iter.peek().map(|&&(s, _)| s) == Some(i) {
            let (_, level) = *site_iter.next().unwrap();
            insts.push(Inst::Fence(level));
        }
    }

    let out = Program {
        insts,
        num_regs: p.num_regs,
        name: p.name.clone(),
    };
    validate(&out).expect("fence insertion must preserve validity");
    out
}

/// Remove every fence instruction, remapping branch targets. This is how
/// the paper manufactured the `-nf` application variants ("The original
/// applications contained fence instructions which we removed", Sec. 4.1).
///
/// A branch that targeted a fence is redirected to the next surviving
/// instruction.
///
/// # Panics
///
/// Panics if the transformed program fails validation (a bug in this
/// pass).
pub fn strip_fences(p: &Program) -> Program {
    // new_pos[i] = index in the stripped program of the first non-fence
    // instruction at old index >= i.
    let mut new_pos = vec![0usize; p.insts.len() + 1];
    let mut kept = 0usize;
    for (i, inst) in p.insts.iter().enumerate() {
        new_pos[i] = kept;
        if !matches!(inst, Inst::Fence(_)) {
            kept += 1;
        }
    }
    new_pos[p.insts.len()] = kept;

    let mut insts = Vec::with_capacity(kept);
    for inst in &p.insts {
        if matches!(inst, Inst::Fence(_)) {
            continue;
        }
        let mut inst = *inst;
        if let Some(t) = inst.target_mut() {
            *t = new_pos[*t];
        }
        insts.push(inst);
    }

    let out = Program {
        insts,
        num_regs: p.num_regs,
        name: p.name.clone(),
    };
    validate(&out).expect("fence stripping must preserve validity");
    out
}

/// Turn a kernel's idle non-zero lanes into **shared-memory stressing
/// threads**: every thread whose lane is not 0 runs a load + store sweep
/// over the `words`-word shared scratchpad at `base` (for `iters`
/// iterations) and halts; lane-0 threads fall through to the original
/// program, whose branch targets are remapped past the prologue.
///
/// This is how scoped litmus campaigns stress a block's shared memory:
/// unlike global-memory stress, shared memory is unreachable from other
/// blocks, so the stressing threads must share the test's block — and the
/// emitted intra-block litmus kernels leave exactly the non-zero lanes
/// idle. The hammered region is disjoint from the test's shared locations
/// (the caller passes `base` past them), so the set of possible test
/// behaviours changes only through the contention factor, never through
/// data interference.
///
/// # Panics
///
/// Panics if `p` contains a block barrier — the stressing lanes halt
/// after their sweep, so a lane-0 thread waiting at a `Barrier` would
/// report a spurious barrier divergence at run time; barrier-free
/// litmus kernels are the intended input. Also panics if the
/// transformed program fails validation (a bug in this pass, not in the
/// caller).
pub fn with_lane_shared_stress(p: &Program, base: u32, words: u32, iters: u32) -> Program {
    assert!(
        !p.insts.iter().any(|i| matches!(i, Inst::Barrier)),
        "with_lane_shared_stress requires a barrier-free kernel: \
         stressing lanes halt early and would diverge at a barrier"
    );
    let words = words.max(1);
    // Fresh registers above the original program's file.
    let r = |k: u16| p.num_regs + k;
    let (r_lane, r_base, r_words, r_iters, r_one, r_i, r_c, r_t, r_off, r_addr, r_v) = (
        r(0),
        r(1),
        r(2),
        r(3),
        r(4),
        r(5),
        r(6),
        r(7),
        r(8),
        r(9),
        r(10),
    );
    let mut insts = vec![
        Inst::Special {
            dst: r_lane,
            sr: SpecialReg::Lane,
        },
        // Lane 0 → the original program (prologue length patched below).
        Inst::BranchZ {
            cond: r_lane,
            target: 0,
        },
        Inst::Const {
            dst: r_base,
            value: base,
        },
        Inst::Const {
            dst: r_words,
            value: words,
        },
        Inst::Const {
            dst: r_iters,
            value: iters,
        },
        Inst::Const {
            dst: r_one,
            value: 1,
        },
        Inst::Const { dst: r_i, value: 0 },
    ];
    let loop_head = insts.len();
    insts.extend([
        Inst::Bin {
            op: BinOp::CmpLtU,
            dst: r_c,
            a: r_i,
            b: r_iters,
        },
        Inst::BranchZ {
            cond: r_c,
            target: 0, // patched to the halt below
        },
        // off = (lane + i) % words; addr = base + off — each lane walks
        // the scratchpad from its own offset, mixing loads and stores.
        Inst::Bin {
            op: BinOp::Add,
            dst: r_t,
            a: r_lane,
            b: r_i,
        },
        Inst::Bin {
            op: BinOp::RemU,
            dst: r_off,
            a: r_t,
            b: r_words,
        },
        Inst::Bin {
            op: BinOp::Add,
            dst: r_addr,
            a: r_base,
            b: r_off,
        },
        Inst::Load {
            dst: r_v,
            space: Space::Shared,
            addr: r_addr,
        },
        Inst::Store {
            space: Space::Shared,
            addr: r_addr,
            src: r_v,
        },
        Inst::Bin {
            op: BinOp::Add,
            dst: r_i,
            a: r_i,
            b: r_one,
        },
        Inst::Jump { target: loop_head },
    ]);
    let halt_at = insts.len();
    insts.push(Inst::Halt);
    let prologue = insts.len();
    // Patch the two forward branches now that the prologue is laid out.
    insts[1] = Inst::BranchZ {
        cond: r_lane,
        target: prologue,
    };
    insts[loop_head + 1] = Inst::BranchZ {
        cond: r_c,
        target: halt_at,
    };
    for inst in &p.insts {
        let mut inst = *inst;
        if let Some(t) = inst.target_mut() {
            *t += prologue;
        }
        insts.push(inst);
    }
    let out = Program {
        insts,
        num_regs: p.num_regs + 11,
        name: format!("{}+shm-str", p.name),
    };
    validate(&out).expect("shared-stress lane injection must preserve validity");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::builder::KernelBuilder;

    /// A small kernel with a loop and several global accesses.
    fn sample() -> Program {
        let mut b = KernelBuilder::new("sample");
        let a0 = b.const_(0);
        let a1 = b.const_(64);
        let v = b.load_global(a0);
        b.store_global(a1, v);
        let i = b.const_(0);
        let n = b.const_(3);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                let x = b.load_global(a0);
                b.store_global(a1, x);
                b.bin_into(i, crate::ir::BinOp::Add, i, one);
            },
        );
        b.finish().unwrap()
    }

    /// A device fence after each of `sites`.
    fn device_fences(p: &Program, sites: &[usize]) -> Program {
        let leveled: Vec<_> = sites.iter().map(|&s| (s, FenceLevel::Device)).collect();
        with_leveled_fences(p, &leveled)
    }

    /// The conservative strategy: a device fence after every access.
    fn all_fences(p: &Program) -> Program {
        device_fences(p, &fence_sites(p))
    }

    #[test]
    fn sites_are_memory_accesses() {
        let p = sample();
        let sites = fence_sites(&p);
        assert_eq!(sites.len(), 4);
        for s in sites {
            assert!(p.insts[s].is_memory_access());
        }
    }

    #[test]
    fn all_fences_adds_one_per_site() {
        let p = sample();
        let f = all_fences(&p);
        assert_eq!(f.len(), p.len() + fence_sites(&p).len());
        assert_eq!(f.fence_count(), fence_sites(&p).len());
    }

    #[test]
    fn each_fence_follows_its_access() {
        let p = sample();
        let f = all_fences(&p);
        for (i, inst) in f.insts.iter().enumerate() {
            if matches!(inst, Inst::Fence(_)) {
                assert_eq!(f.insts[i - 1].space(), Some(Space::Global));
            }
        }
    }

    #[test]
    fn strip_round_trips() {
        let p = sample();
        let stripped = strip_fences(&all_fences(&p));
        assert_eq!(stripped, p);
    }

    #[test]
    fn partial_fences_subset() {
        let p = sample();
        let sites = fence_sites(&p);
        let f = device_fences(&p, &sites[..2]);
        assert_eq!(f.fence_count(), 2);
        assert_eq!(strip_fences(&f), p);
    }

    #[test]
    fn empty_site_set_is_identity() {
        let p = sample();
        assert_eq!(device_fences(&p, &[]), p);
    }

    #[test]
    fn duplicate_sites_ignored() {
        let p = sample();
        let sites = fence_sites(&p);
        let f = device_fences(&p, &[sites[0], sites[0]]);
        assert_eq!(f.fence_count(), 1);
    }

    #[test]
    fn loop_still_terminates_after_fencing() {
        // Branch targets must be remapped: the loop back-edge in the
        // sample must still point at the loop head's condition.
        let p = sample();
        let f = all_fences(&p);
        // Check all branch targets land on sensible instructions (not
        // out of range — validate covers that — and the program still has
        // exactly one back-jump).
        let back_jumps = f
            .insts
            .iter()
            .enumerate()
            .filter(|(i, inst)| matches!(inst, Inst::Jump { target } if target < i))
            .count();
        assert_eq!(back_jumps, 1);
    }

    #[test]
    fn strip_redirects_branches_to_fences() {
        // Hand-build: jump over a fence.
        let p = Program {
            insts: vec![
                Inst::Jump { target: 2 },
                Inst::Const { dst: 0, value: 1 },
                Inst::Fence(FenceLevel::Device),
                Inst::Halt,
            ],
            num_regs: 1,
            name: "j".into(),
        };
        let s = strip_fences(&p);
        assert_eq!(s.insts[0], Inst::Jump { target: 2 });
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn block_fences_also_stripped() {
        let p = Program {
            insts: vec![
                Inst::Fence(FenceLevel::Block),
                Inst::Fence(FenceLevel::Device),
                Inst::Halt,
            ],
            num_regs: 0,
            name: "f".into(),
        };
        assert_eq!(strip_fences(&p).len(), 1);
    }

    #[test]
    fn shared_stress_lanes_validate_and_preserve_the_original() {
        let p = sample();
        let s = with_lane_shared_stress(&p, 8, 64, 40);
        assert!(validate(&s).is_ok());
        // The original instruction stream survives as a suffix (branch
        // targets shifted by the prologue length).
        let prologue = s.insts.len() - p.insts.len();
        for (i, inst) in p.insts.iter().enumerate() {
            let mut expect = *inst;
            if let Some(t) = expect.target_mut() {
                *t += prologue;
            }
            assert_eq!(s.insts[prologue + i], expect, "inst {i}");
        }
        // The prologue contains the shared-space hammer pair.
        let shared_loads = s.insts[..prologue]
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Load {
                        space: Space::Shared,
                        ..
                    }
                )
            })
            .count();
        let shared_stores = s.insts[..prologue]
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Store {
                        space: Space::Shared,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((shared_loads, shared_stores), (1, 1));
        assert_eq!(s.num_regs, p.num_regs + 11);
        assert!(s.name.ends_with("+shm-str"));
    }

    #[test]
    fn shared_stress_lanes_execute() {
        use crate::chip::Chip;
        use crate::exec::{Gpu, LaunchSpec};
        // Lane 0 stores a marker to global; other lanes hammer shared.
        let mut b = KernelBuilder::new("probe");
        let tid = b.tid();
        let zero = b.const_(0);
        let is0 = b.eq(tid, zero);
        b.if_(is0, |b| {
            let v = b.const_(7);
            let a = b.const_(0);
            b.store_global(a, v);
        });
        let p = with_lane_shared_stress(&b.finish().unwrap(), 0, 32, 20);
        let mut gpu = Gpu::new(Chip::by_short("K20").unwrap().sequentially_consistent());
        let mut spec = LaunchSpec::app(p, 1, 64, 8);
        spec.shared_words = 32;
        let r = gpu.run(&spec, 3);
        assert!(r.status.is_completed(), "{:?}", r.status);
        assert_eq!(r.word(0), 7);
        // The stress lanes did real work: far more instructions than the
        // lane-0 path alone would execute.
        assert!(r.instructions > 1000, "{}", r.instructions);
    }

    #[test]
    fn shared_accesses_are_fence_sites_too() {
        // Scoped apps are hardenable: shared-space accesses are
        // enumerated as fence sites, admitting the Block rung.
        let mut b = KernelBuilder::new("sh");
        let a = b.const_(0);
        let v = b.load_shared(a);
        b.store_shared(a, v);
        let p = b.finish().unwrap();
        let sites = fence_sites(&p);
        assert_eq!(sites.len(), 2);
        for s in &sites {
            assert_eq!(p.insts[*s].space(), Some(Space::Shared));
        }
    }

    #[test]
    fn leveled_fences_place_the_requested_rungs() {
        let mut b = KernelBuilder::new("lv");
        let a = b.const_(0);
        let g = b.const_(64);
        let v = b.load_shared(a);
        b.store_global(g, v);
        let p = b.finish().unwrap();
        let sites = fence_sites(&p);
        assert_eq!(sites.len(), 2);
        let f = with_leveled_fences(
            &p,
            &[
                (sites[0], FenceLevel::Block),
                (sites[1], FenceLevel::Device),
            ],
        );
        assert_eq!(f.fence_count(), 2);
        let levels: Vec<FenceLevel> = f
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Fence(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(levels, vec![FenceLevel::Block, FenceLevel::Device]);
        assert_eq!(strip_fences(&f), p);
    }

    #[test]
    fn duplicate_leveled_sites_keep_the_stronger_rung() {
        let mut b = KernelBuilder::new("dup");
        let a = b.const_(0);
        let v = b.load_shared(a);
        b.store_shared(a, v);
        let p = b.finish().unwrap();
        let s = fence_sites(&p)[0];
        let f = with_leveled_fences(&p, &[(s, FenceLevel::Block), (s, FenceLevel::Device)]);
        assert_eq!(f.fence_count(), 1);
        assert!(f
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Fence(FenceLevel::Device))));
    }
}
