//! The kernel intermediate representation.
//!
//! Kernels for the simulated GPU are small register programs over 32-bit
//! [`Word`]s. The instruction set mirrors the subset of PTX that the
//! paper's case studies exercise: integer and float ALU ops, global and
//! shared loads/stores, the three atomics the applications use
//! (`atomicCAS`, `atomicExch`, `atomicAdd`), block- and device-level
//! memory fences, block barriers, and branches.
//!
//! Programs are built with [`KernelBuilder`](builder::KernelBuilder),
//! checked with [`validate`](validate::validate), pretty-printed via
//! [`Display`](std::fmt::Display), and transformed by the fence passes in
//! [`transform`].

pub mod builder;
pub mod transform;
pub mod validate;

use crate::word::Word;
use std::fmt;

/// A virtual register index. Each thread owns a private register file.
pub type Reg = u16;

/// A memory space of the simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Global memory: shared by every thread in the grid; weakly ordered
    /// through the per-thread in-flight window, with contention tracked
    /// per memory channel.
    Global,
    /// Shared memory: per-block scratch with its *own* relaxation level —
    /// on chips with a nonzero shared-space reorder matrix
    /// (`Chip::shared_reorder`) shared accesses flow through the in-flight
    /// window too, pressured by the block's own shared traffic; with the
    /// matrix zeroed the space is strongly ordered and accesses complete
    /// immediately, the pre-scoped behaviour.
    Shared,
}

impl Space {
    /// The space's name: `global` or `shared`.
    pub fn name(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
        }
    }
}

/// Fence strength, mirroring CUDA's `__threadfence_block` / `__threadfence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceLevel {
    /// Orders the thread's accesses as observed by its own block.
    Block,
    /// Orders the thread's accesses as observed by the whole device.
    Device,
}

impl FenceLevel {
    /// The level's name: `block` or `device`.
    pub fn name(self) -> &'static str {
        match self {
            FenceLevel::Block => "block",
            FenceLevel::Device => "device",
        }
    }
}

/// Thread-geometry intrinsics (1-D launches, as in all the case studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `threadIdx.x` — the thread's index within its block.
    Tid,
    /// `blockIdx.x` — the block's index within its kernel group.
    Bid,
    /// `blockDim.x` — threads per block.
    BlockDim,
    /// `gridDim.x` — blocks in the kernel group.
    GridDim,
    /// `threadIdx.x % 32` — the thread's lane within its warp.
    Lane,
    /// `threadIdx.x + blockIdx.x * blockDim.x` — the global thread id.
    GlobalTid,
}

/// Two-operand ALU operations. Comparison ops produce 1 or 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping integer add.
    Add,
    /// Wrapping integer subtract.
    Sub,
    /// Wrapping integer multiply.
    Mul,
    /// Unsigned divide (b = 0 yields 0, matching GPU semantics of avoiding
    /// traps).
    DivU,
    /// Unsigned remainder (b = 0 yields 0).
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 5 bits).
    Shl,
    /// Logical shift right (shift amount masked to 5 bits).
    Shr,
    /// Minimum, unsigned.
    MinU,
    /// Maximum, unsigned.
    MaxU,
    /// IEEE-754 single-precision add.
    FAdd,
    /// IEEE-754 single-precision subtract.
    FSub,
    /// IEEE-754 single-precision multiply.
    FMul,
    /// IEEE-754 single-precision divide.
    FDiv,
    /// Equal (any bit pattern).
    CmpEq,
    /// Not equal.
    CmpNe,
    /// Unsigned less-than.
    CmpLtU,
    /// Unsigned less-or-equal.
    CmpLeU,
    /// Signed less-than.
    CmpLtS,
    /// Signed less-or-equal.
    CmpLeS,
    /// Float less-than.
    FCmpLt,
}

/// A single IR instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `dst ← value`
    Const { dst: Reg, value: Word },
    /// `dst ← src`
    Mov { dst: Reg, src: Reg },
    /// `dst ← a op b`
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst ← special register`
    Special { dst: Reg, sr: SpecialReg },
    /// `dst ← space[addr]` — participates in the weak memory model when
    /// `space` is global.
    Load { dst: Reg, space: Space, addr: Reg },
    /// `space[addr] ← src`
    Store { space: Space, addr: Reg, src: Reg },
    /// `dst ← old; if old == cmp { space[addr] ← val }` — atomic.
    AtomicCas {
        dst: Reg,
        space: Space,
        addr: Reg,
        cmp: Reg,
        val: Reg,
    },
    /// `dst ← old; space[addr] ← val` — atomic.
    AtomicExch {
        dst: Reg,
        space: Space,
        addr: Reg,
        val: Reg,
    },
    /// `dst ← old; space[addr] ← old + val` — atomic, wrapping.
    AtomicAdd {
        dst: Reg,
        space: Space,
        addr: Reg,
        val: Reg,
    },
    /// Memory fence: orders this thread's in-flight accesses.
    Fence(FenceLevel),
    /// Block-wide barrier (`__syncthreads`). Undefined behaviour (detected
    /// and reported) if only part of the block executes it.
    Barrier,
    /// Unconditional jump to an instruction index.
    Jump { target: usize },
    /// Jump to `target` if `cond == 0`.
    BranchZ { cond: Reg, target: usize },
    /// Jump to `target` if `cond != 0`.
    BranchNZ { cond: Reg, target: usize },
    /// Terminate the thread (in-flight accesses still drain).
    Halt,
}

impl Inst {
    /// True if this instruction reads or writes a memory space.
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::AtomicCas { .. }
                | Inst::AtomicExch { .. }
                | Inst::AtomicAdd { .. }
        )
    }

    /// The memory space this instruction accesses, if it is a memory
    /// access.
    pub fn space(&self) -> Option<Space> {
        match self {
            Inst::Load { space, .. }
            | Inst::Store { space, .. }
            | Inst::AtomicCas { space, .. }
            | Inst::AtomicExch { space, .. }
            | Inst::AtomicAdd { space, .. } => Some(*space),
            _ => None,
        }
    }

    /// The address register of a memory access, if any.
    pub fn addr_reg(&self) -> Option<Reg> {
        match self {
            Inst::Load { addr, .. }
            | Inst::Store { addr, .. }
            | Inst::AtomicCas { addr, .. }
            | Inst::AtomicExch { addr, .. }
            | Inst::AtomicAdd { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// True if this memory access may write its location (stores and
    /// atomics; `AtomicCas` conservatively counts even though it only
    /// writes on a compare hit).
    pub fn may_write(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. }
                | Inst::AtomicCas { .. }
                | Inst::AtomicExch { .. }
                | Inst::AtomicAdd { .. }
        )
    }

    /// The branch target, if this is a control-flow instruction.
    pub fn target(&self) -> Option<usize> {
        match self {
            Inst::Jump { target }
            | Inst::BranchZ { target, .. }
            | Inst::BranchNZ { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Mutable access to the branch target, if any.
    pub fn target_mut(&mut self) -> Option<&mut usize> {
        match self {
            Inst::Jump { target }
            | Inst::BranchZ { target, .. }
            | Inst::BranchNZ { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// A complete kernel: a flat instruction sequence with resolved branch
/// targets, plus the number of registers each thread needs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The instructions; execution begins at index 0 and falls off the end
    /// as an implicit [`Inst::Halt`].
    pub insts: Vec<Inst>,
    /// Registers per thread.
    pub num_regs: u16,
    /// Optional kernel name, used in diagnostics and disassembly.
    pub name: String,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Indices of *all* memory accesses, global and shared — the
    /// candidate fence sites of scope-aware fence insertion, where the
    /// cheaper `FenceLevel::Block` rung is admissible after shared
    /// accesses.
    pub fn memory_access_indices(&self) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_memory_access())
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of fence instructions in the program.
    pub fn fence_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| matches!(i, Inst::Fence(_)))
            .count()
    }
}

impl fmt::Display for Program {
    /// Disassemble the program in a compact, PTX-flavoured syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".kernel {} (regs = {})", self.name, self.num_regs)?;
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{i:4}: {}", DisplayInst(inst))?;
        }
        Ok(())
    }
}

struct DisplayInst<'a>(&'a Inst);

impl fmt::Display for DisplayInst<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let space = self.0.space().map_or("", Space::name);
        match self.0 {
            Inst::Const { dst, value } => write!(f, "r{dst} = const {value:#x}"),
            Inst::Mov { dst, src } => write!(f, "r{dst} = r{src}"),
            Inst::Bin { op, dst, a, b } => write!(f, "r{dst} = {op:?}(r{a}, r{b})"),
            Inst::Special { dst, sr } => write!(f, "r{dst} = {sr:?}"),
            Inst::Load { dst, addr, .. } => write!(f, "r{dst} = ld.{space}[r{addr}]"),
            Inst::Store { addr, src, .. } => write!(f, "st.{space}[r{addr}] = r{src}"),
            Inst::AtomicCas {
                dst,
                addr,
                cmp,
                val,
                ..
            } => write!(f, "r{dst} = atom.cas.{space}[r{addr}] r{cmp} r{val}"),
            Inst::AtomicExch { dst, addr, val, .. } => {
                write!(f, "r{dst} = atom.exch.{space}[r{addr}] r{val}")
            }
            Inst::AtomicAdd { dst, addr, val, .. } => {
                write!(f, "r{dst} = atom.add.{space}[r{addr}] r{val}")
            }
            Inst::Fence(level) => write!(f, "fence.{}", level.name()),
            Inst::Barrier => write!(f, "barrier"),
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::BranchZ { cond, target } => write!(f, "brz r{cond} {target}"),
            Inst::BranchNZ { cond, target } => write!(f, "brnz r{cond} {target}"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_access_predicate() {
        assert!(Inst::Load {
            dst: 0,
            space: Space::Global,
            addr: 1
        }
        .is_memory_access());
        assert_eq!(
            Inst::AtomicAdd {
                dst: 0,
                space: Space::Global,
                addr: 1,
                val: 2
            }
            .space(),
            Some(Space::Global)
        );
        assert_eq!(
            Inst::Load {
                dst: 0,
                space: Space::Shared,
                addr: 1
            }
            .space(),
            Some(Space::Shared)
        );
        assert!(!Inst::Barrier.is_memory_access());
    }

    #[test]
    fn display_is_stable() {
        let p = Program {
            insts: vec![
                Inst::Const { dst: 0, value: 7 },
                Inst::Load {
                    dst: 1,
                    space: Space::Global,
                    addr: 0,
                },
                Inst::Fence(FenceLevel::Device),
                Inst::Halt,
            ],
            num_regs: 2,
            name: "demo".into(),
        };
        let text = p.to_string();
        assert!(text.contains(".kernel demo"));
        assert!(text.contains("ld.global"));
        assert!(text.contains("fence.device"));
    }

    #[test]
    fn target_accessors() {
        let mut i = Inst::Jump { target: 3 };
        assert_eq!(i.target(), Some(3));
        *i.target_mut().unwrap() = 9;
        assert_eq!(i.target(), Some(9));
        assert_eq!(Inst::Halt.target(), None);
    }

    #[test]
    fn memory_access_indices_found() {
        let p = Program {
            insts: vec![
                Inst::Const { dst: 0, value: 0 },
                Inst::Store {
                    space: Space::Global,
                    addr: 0,
                    src: 0,
                },
                Inst::Store {
                    space: Space::Shared,
                    addr: 0,
                    src: 0,
                },
                Inst::AtomicExch {
                    dst: 1,
                    space: Space::Global,
                    addr: 0,
                    val: 0,
                },
            ],
            num_regs: 2,
            name: String::new(),
        };
        assert_eq!(p.memory_access_indices(), vec![1, 2, 3]);
    }
}
