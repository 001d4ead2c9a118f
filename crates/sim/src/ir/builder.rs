//! Structured construction of kernel [`Program`]s.
//!
//! [`KernelBuilder`] offers a CUDA-flavoured API: registers are allocated
//! on demand, arithmetic helpers return fresh registers, and structured
//! control flow (`if_`, `if_else`, `while_`, `for_range`) is lowered to
//! branches with patched targets, so callers never touch instruction
//! indices.
//!
//! # Examples
//!
//! A spinlock-guarded increment (the heart of the paper's running example):
//!
//! ```
//! use wmm_sim::ir::builder::KernelBuilder;
//!
//! let mut b = KernelBuilder::new("incr");
//! let lock = b.const_(0); // word 0 holds the mutex
//! let cell = b.const_(1); // word 1 holds the counter
//! b.spin_lock(lock);
//! let v = b.load_global(cell);
//! let one = b.const_(1);
//! let v1 = b.add(v, one);
//! b.store_global(cell, v1);
//! b.unlock(lock);
//! let program = b.finish().expect("valid kernel");
//! assert!(program.len() > 5);
//! ```

use super::validate::{validate, ValidateError};
use super::{BinOp, FenceLevel, Inst, Program, Reg, Space, SpecialReg};
use crate::word::{from_f32, Word};

/// Incrementally builds a [`Program`]; see the module docs for an example.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    insts: Vec<Inst>,
    next_reg: u32,
}

impl KernelBuilder {
    /// Start a new kernel with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            insts: Vec::new(),
            next_reg: 0,
        }
    }

    /// Allocate a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` registers are allocated.
    pub fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        assert!(r <= u16::MAX as u32, "register file exhausted");
        r as Reg
    }

    /// Current instruction count (the index the next emitted instruction
    /// will occupy).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    // ---- values ---------------------------------------------------------

    /// `dst ← value` in a fresh register.
    pub fn const_(&mut self, value: Word) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Const { dst, value });
        dst
    }

    /// A float constant, stored as its bit pattern.
    pub fn const_f32(&mut self, value: f32) -> Reg {
        self.const_(from_f32(value))
    }

    /// Copy `src` into a fresh register.
    pub fn mov(&mut self, src: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Mov { dst, src });
        dst
    }

    /// Overwrite an existing register: `dst ← src`.
    pub fn assign(&mut self, dst: Reg, src: Reg) {
        self.emit(Inst::Mov { dst, src });
    }

    /// Overwrite an existing register with a constant.
    pub fn assign_const(&mut self, dst: Reg, value: Word) {
        self.emit(Inst::Const { dst, value });
    }

    fn special(&mut self, sr: SpecialReg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Special { dst, sr });
        dst
    }

    /// `threadIdx.x`.
    pub fn tid(&mut self) -> Reg {
        self.special(SpecialReg::Tid)
    }

    /// `blockIdx.x`.
    pub fn bid(&mut self) -> Reg {
        self.special(SpecialReg::Bid)
    }

    /// `blockDim.x`.
    pub fn block_dim(&mut self) -> Reg {
        self.special(SpecialReg::BlockDim)
    }

    /// `gridDim.x`.
    pub fn grid_dim(&mut self) -> Reg {
        self.special(SpecialReg::GridDim)
    }

    /// The lane index within the warp.
    pub fn lane(&mut self) -> Reg {
        self.special(SpecialReg::Lane)
    }

    /// The global thread id `threadIdx.x + blockIdx.x * blockDim.x`.
    pub fn global_tid(&mut self) -> Reg {
        self.special(SpecialReg::GlobalTid)
    }

    // ---- ALU ------------------------------------------------------------

    /// Emit `dst ← a op b` into a fresh register.
    pub fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Bin { op, dst, a, b });
        dst
    }

    /// Emit `dst ← a op b` into an existing register.
    pub fn bin_into(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        self.emit(Inst::Bin { op, dst, a, b });
    }

    /// Wrapping integer add.
    pub fn add(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Add, a, b)
    }

    /// Wrapping integer subtract.
    pub fn sub(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Sub, a, b)
    }

    /// Wrapping integer multiply.
    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }

    /// Unsigned divide.
    pub fn div_u(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::DivU, a, b)
    }

    /// Unsigned remainder.
    pub fn rem_u(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::RemU, a, b)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::And, a, b)
    }

    /// Logical shift right.
    pub fn shr(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Shr, a, b)
    }

    /// Float add.
    pub fn fadd(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::FAdd, a, b)
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::FMul, a, b)
    }

    /// `a == b` as 1/0.
    pub fn eq(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::CmpEq, a, b)
    }

    /// `a != b` as 1/0.
    pub fn ne(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::CmpNe, a, b)
    }

    /// Unsigned `a < b` as 1/0.
    pub fn lt_u(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::CmpLtU, a, b)
    }

    /// Unsigned `a <= b` as 1/0.
    pub fn le_u(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::CmpLeU, a, b)
    }

    // ---- memory ---------------------------------------------------------

    /// Load a word from the given memory space.
    pub fn load_in(&mut self, space: Space, addr: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Load { dst, space, addr });
        dst
    }

    /// Store a word to the given memory space.
    pub fn store_in(&mut self, space: Space, addr: Reg, src: Reg) {
        self.emit(Inst::Store { space, addr, src });
    }

    /// Load a word from global memory.
    pub fn load_global(&mut self, addr: Reg) -> Reg {
        self.load_in(Space::Global, addr)
    }

    /// Store a word to global memory.
    pub fn store_global(&mut self, addr: Reg, src: Reg) {
        self.store_in(Space::Global, addr, src);
    }

    /// Load a word from shared memory.
    pub fn load_shared(&mut self, addr: Reg) -> Reg {
        self.load_in(Space::Shared, addr)
    }

    /// Store a word to shared memory.
    pub fn store_shared(&mut self, addr: Reg, src: Reg) {
        self.store_in(Space::Shared, addr, src);
    }

    /// `atomicCAS` in the given space, returning the old value.
    pub fn atomic_cas_in(&mut self, space: Space, addr: Reg, cmp: Reg, val: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::AtomicCas {
            dst,
            space,
            addr,
            cmp,
            val,
        });
        dst
    }

    /// `atomicExch` in the given space, returning the old value.
    pub fn atomic_exch_in(&mut self, space: Space, addr: Reg, val: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::AtomicExch {
            dst,
            space,
            addr,
            val,
        });
        dst
    }

    /// `atomicAdd` in the given space, returning the old value.
    pub fn atomic_add_in(&mut self, space: Space, addr: Reg, val: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::AtomicAdd {
            dst,
            space,
            addr,
            val,
        });
        dst
    }

    /// `atomicCAS(&global[addr], cmp, val)`, returning the old value.
    pub fn atomic_cas_global(&mut self, addr: Reg, cmp: Reg, val: Reg) -> Reg {
        self.atomic_cas_in(Space::Global, addr, cmp, val)
    }

    /// `atomicExch(&global[addr], val)`, returning the old value.
    pub fn atomic_exch_global(&mut self, addr: Reg, val: Reg) -> Reg {
        self.atomic_exch_in(Space::Global, addr, val)
    }

    /// `atomicAdd(&global[addr], val)`, returning the old value.
    pub fn atomic_add_global(&mut self, addr: Reg, val: Reg) -> Reg {
        self.atomic_add_in(Space::Global, addr, val)
    }

    /// `atomicCAS(&shared[addr], cmp, val)`, returning the old value.
    /// Shared memory is per-block; on chips with a live shared-space
    /// reorder matrix shared atomics enter the in-flight window like
    /// global ones (still indivisible at completion), otherwise they
    /// complete immediately.
    pub fn atomic_cas_shared(&mut self, addr: Reg, cmp: Reg, val: Reg) -> Reg {
        self.atomic_cas_in(Space::Shared, addr, cmp, val)
    }

    /// `atomicExch(&shared[addr], val)`, returning the old value.
    pub fn atomic_exch_shared(&mut self, addr: Reg, val: Reg) -> Reg {
        self.atomic_exch_in(Space::Shared, addr, val)
    }

    /// `atomicAdd(&shared[addr], val)`, returning the old value.
    pub fn atomic_add_shared(&mut self, addr: Reg, val: Reg) -> Reg {
        self.atomic_add_in(Space::Shared, addr, val)
    }

    /// `__threadfence()` — device-level fence.
    pub fn fence_device(&mut self) {
        self.emit(Inst::Fence(FenceLevel::Device));
    }

    /// `__threadfence_block()` — block-level fence.
    pub fn fence_block(&mut self) {
        self.emit(Inst::Fence(FenceLevel::Block));
    }

    /// `__syncthreads()`.
    pub fn barrier(&mut self) {
        self.emit(Inst::Barrier);
    }

    /// Terminate the thread.
    pub fn halt(&mut self) {
        self.emit(Inst::Halt);
    }

    // ---- structured control flow ---------------------------------------

    /// `if cond != 0 { then }`.
    pub fn if_(&mut self, cond: Reg, then: impl FnOnce(&mut Self)) {
        let br = self.here();
        self.emit(Inst::BranchZ { cond, target: 0 });
        then(self);
        let end = self.here();
        self.patch_target(br, end);
    }

    /// `if cond != 0 { then } else { els }`.
    pub fn if_else(
        &mut self,
        cond: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let br = self.here();
        self.emit(Inst::BranchZ { cond, target: 0 });
        then(self);
        let jmp = self.here();
        self.emit(Inst::Jump { target: 0 });
        let else_start = self.here();
        self.patch_target(br, else_start);
        els(self);
        let end = self.here();
        self.patch_target(jmp, end);
    }

    /// `while { cond ← head(self); cond != 0 } { body }`.
    ///
    /// The `head` closure re-evaluates the condition on every iteration and
    /// returns the register holding it.
    pub fn while_(&mut self, head: impl FnOnce(&mut Self) -> Reg, body: impl FnOnce(&mut Self)) {
        let loop_head = self.here();
        let cond = head(self);
        let br = self.here();
        self.emit(Inst::BranchZ { cond, target: 0 });
        body(self);
        self.emit(Inst::Jump { target: loop_head });
        let end = self.here();
        self.patch_target(br, end);
    }

    /// A counted loop `for i in start..end { body(i) }` over an existing
    /// register `i` (mutated in place; `end` is re-read each iteration).
    pub fn for_range(&mut self, i: Reg, start: Reg, end: Reg, body: impl FnOnce(&mut Self, Reg)) {
        self.assign(i, start);
        let one = self.const_(1);
        self.while_(
            |b| b.lt_u(i, end),
            |b| {
                body(b, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
    }

    /// Spin until `atomicCAS(&global[lock], 0, 1)` succeeds — the paper's
    /// `lock()` function (Fig. 1, line 19).
    pub fn spin_lock(&mut self, lock_addr: Reg) {
        let zero = self.const_(0);
        let one = self.const_(1);
        self.while_(
            |b| {
                let old = b.atomic_cas_global(lock_addr, zero, one);
                b.ne(old, zero)
            },
            |_| {},
        );
    }

    /// `atomicExch(&global[lock], 0)` — the paper's `unlock()` function
    /// (Fig. 1, line 22). Deliberately fence-free: hardening is the job of
    /// the fence-insertion pass.
    pub fn unlock(&mut self, lock_addr: Reg) {
        let zero = self.const_(0);
        let _ = self.atomic_exch_global(lock_addr, zero);
    }

    fn patch_target(&mut self, at: usize, target: usize) {
        match self.insts[at].target_mut() {
            Some(t) => *t = target,
            None => unreachable!("patching a non-branch instruction"),
        }
    }

    /// Finalise the program, validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the program is malformed (should not
    /// happen for programs produced purely through the builder API, but
    /// `emit` allows raw instructions).
    pub fn finish(mut self) -> Result<Program, ValidateError> {
        if !matches!(self.insts.last(), Some(Inst::Halt)) {
            self.insts.push(Inst::Halt);
        }
        let program = Program {
            insts: self.insts,
            num_regs: self.next_reg as u16,
            name: self.name,
        };
        validate(&program)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_halt() {
        let mut b = KernelBuilder::new("t");
        let _ = b.const_(1);
        let p = b.finish().unwrap();
        assert!(matches!(p.insts.last(), Some(Inst::Halt)));
    }

    #[test]
    fn if_branches_over_body() {
        let mut b = KernelBuilder::new("t");
        let c = b.const_(0);
        b.if_(c, |b| {
            let _ = b.const_(42);
        });
        let p = b.finish().unwrap();
        // BranchZ target must be past the body.
        let br = p
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::BranchZ { target, .. } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert!(br <= p.len());
        assert!(br > 1);
    }

    #[test]
    fn while_loops_back() {
        let mut b = KernelBuilder::new("t");
        let i = b.const_(0);
        let n = b.const_(3);
        let one = b.const_(1);
        b.while_(
            |b| b.lt_u(i, n),
            |b| {
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
        let p = b.finish().unwrap();
        let has_back_jump = p
            .insts
            .iter()
            .enumerate()
            .any(|(idx, i)| matches!(i, Inst::Jump { target } if *target < idx));
        assert!(has_back_jump);
    }

    #[test]
    fn spin_lock_contains_cas_loop() {
        let mut b = KernelBuilder::new("t");
        let l = b.const_(0);
        b.spin_lock(l);
        b.unlock(l);
        let p = b.finish().unwrap();
        assert!(p.insts.iter().any(|i| matches!(i, Inst::AtomicCas { .. })));
        assert!(p.insts.iter().any(|i| matches!(i, Inst::AtomicExch { .. })));
    }

    #[test]
    fn shared_atomics_carry_the_shared_space() {
        let mut b = KernelBuilder::new("t");
        let a = b.const_(0);
        let z = b.const_(0);
        let one = b.const_(1);
        let _ = b.atomic_cas_shared(a, z, one);
        let _ = b.atomic_exch_shared(a, one);
        let _ = b.atomic_add_shared(a, one);
        let p = b.finish().unwrap();
        let spaces: Vec<Space> = p
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::AtomicCas { space, .. }
                | Inst::AtomicExch { space, .. }
                | Inst::AtomicAdd { space, .. } => Some(*space),
                _ => None,
            })
            .collect();
        assert_eq!(spaces, vec![Space::Shared; 3]);
        assert!(!p.insts.iter().any(|i| i.space() == Some(Space::Global)));
    }

    #[test]
    fn if_else_produces_both_arms() {
        let mut b = KernelBuilder::new("t");
        let c = b.const_(1);
        b.if_else(
            c,
            |b| {
                let _ = b.const_(10);
            },
            |b| {
                let _ = b.const_(20);
            },
        );
        let p = b.finish().unwrap();
        let consts: Vec<u32> = p
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&10) && consts.contains(&20));
    }

    #[test]
    fn for_range_counts() {
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        let s = b.const_(2);
        let e = b.const_(5);
        b.for_range(i, s, e, |_, _| {});
        let p = b.finish().unwrap();
        assert!(p.len() > 4);
    }
}
