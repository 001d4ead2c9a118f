//! Static validation of kernel programs.
//!
//! Validation catches malformed programs before they reach the simulator:
//! out-of-range registers, branch targets outside the program, and empty
//! programs. It runs automatically from
//! [`KernelBuilder::finish`](super::builder::KernelBuilder::finish) and the
//! fence-transformation passes.

use super::{Inst, Program, Reg};
use std::fmt;

/// A validation failure, carrying the offending instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The program contains no instructions.
    Empty,
    /// A register operand is out of range for the declared register file.
    RegOutOfRange {
        /// Instruction index.
        at: usize,
        /// The offending register.
        reg: Reg,
        /// Registers declared by the program.
        num_regs: u16,
    },
    /// A branch target lies outside the program.
    ///
    /// Targets equal to `len` are allowed: they fall off the end, which is
    /// an implicit halt.
    TargetOutOfRange {
        /// Instruction index.
        at: usize,
        /// The offending target.
        target: usize,
        /// Program length.
        len: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "program has no instructions"),
            ValidateError::RegOutOfRange { at, reg, num_regs } => write!(
                f,
                "instruction {at} uses register r{reg} but the program declares {num_regs} registers"
            ),
            ValidateError::TargetOutOfRange { at, target, len } => write!(
                f,
                "instruction {at} branches to {target} but the program has {len} instructions"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Check a program for well-formedness.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found, scanning in instruction
/// order.
pub fn validate(p: &Program) -> Result<(), ValidateError> {
    if p.insts.is_empty() {
        return Err(ValidateError::Empty);
    }
    for (at, inst) in p.insts.iter().enumerate() {
        for reg in inst_regs(inst) {
            if reg >= p.num_regs {
                return Err(ValidateError::RegOutOfRange {
                    at,
                    reg,
                    num_regs: p.num_regs,
                });
            }
        }
        if let Some(target) = inst.target() {
            if target > p.insts.len() {
                return Err(ValidateError::TargetOutOfRange {
                    at,
                    target,
                    len: p.insts.len(),
                });
            }
        }
    }
    Ok(())
}

/// All register operands mentioned by an instruction.
pub fn inst_regs(inst: &Inst) -> Vec<Reg> {
    match *inst {
        Inst::Const { dst, .. } => vec![dst],
        Inst::Mov { dst, src } => vec![dst, src],
        Inst::Bin { dst, a, b, .. } => vec![dst, a, b],
        Inst::Special { dst, .. } => vec![dst],
        Inst::Load { dst, addr, .. } => vec![dst, addr],
        Inst::Store { addr, src, .. } => vec![addr, src],
        Inst::AtomicCas {
            dst,
            addr,
            cmp,
            val,
            ..
        } => vec![dst, addr, cmp, val],
        Inst::AtomicExch { dst, addr, val, .. } => vec![dst, addr, val],
        Inst::AtomicAdd { dst, addr, val, .. } => vec![dst, addr, val],
        Inst::Fence(_) | Inst::Barrier | Inst::Halt => vec![],
        Inst::Jump { .. } => vec![],
        Inst::BranchZ { cond, .. } | Inst::BranchNZ { cond, .. } => vec![cond],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Space;

    fn prog(insts: Vec<Inst>, num_regs: u16) -> Program {
        Program {
            insts,
            num_regs,
            name: "t".into(),
        }
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(validate(&prog(vec![], 0)), Err(ValidateError::Empty));
    }

    #[test]
    fn reg_out_of_range_rejected() {
        let p = prog(vec![Inst::Const { dst: 3, value: 0 }], 2);
        assert!(matches!(
            validate(&p),
            Err(ValidateError::RegOutOfRange { at: 0, reg: 3, .. })
        ));
    }

    #[test]
    fn target_past_end_rejected() {
        let p = prog(vec![Inst::Jump { target: 5 }], 0);
        assert!(matches!(
            validate(&p),
            Err(ValidateError::TargetOutOfRange {
                at: 0,
                target: 5,
                ..
            })
        ));
    }

    #[test]
    fn target_at_end_allowed() {
        // Falling off the end is an implicit halt.
        let p = prog(vec![Inst::Jump { target: 1 }], 0);
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn valid_program_accepted() {
        let p = prog(
            vec![
                Inst::Const { dst: 0, value: 1 },
                Inst::Store {
                    space: Space::Global,
                    addr: 0,
                    src: 0,
                },
                Inst::Halt,
            ],
            1,
        );
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn inst_regs_covers_atomics() {
        let i = Inst::AtomicCas {
            dst: 1,
            space: Space::Global,
            addr: 2,
            cmp: 3,
            val: 4,
        };
        assert_eq!(inst_regs(&i), vec![1, 2, 3, 4]);
    }

    #[test]
    fn error_display_mentions_location() {
        let e = ValidateError::RegOutOfRange {
            at: 7,
            reg: 9,
            num_regs: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains("r9"));
    }
}
