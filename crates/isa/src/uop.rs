//! The dynamic micro-op: the unit of work that flows down the pipeline.
//!
//! A [`MicroOp`] is a *dynamic* instruction instance: it carries its resolved
//! branch outcome and effective memory address, because the workload
//! generator (not an ISA interpreter) decides program behaviour. The pipeline
//! model still has to *discover* these facts at the architecturally correct
//! time — e.g. the branch outcome is compared against a real predictor at
//! fetch, and the mispredict is only acted on when the branch executes.

use crate::regs::{ArchReg, NUM_ARCH_REGS_PER_CLASS};
use serde::{Deserialize, Serialize};

/// Operation kind. Determines which queue, functional unit and latency the
/// op uses in the machine model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OpKind {
    /// Single-cycle integer ALU op (also carries compares, logic, shifts).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Pipelined FP add/sub/convert.
    FpAlu,
    /// Pipelined FP multiply.
    FpMul,
    /// Unpipelined FP divide/sqrt.
    FpDiv,
    /// Memory load (int or fp destination; class comes from `dst`).
    Load,
    /// Memory store.
    Store,
    /// Control transfer; outcome in [`MicroOp::branch`].
    Branch,
    /// System call: drains the whole machine before executing (the paper's
    /// most-conservative assumption, §6).
    Syscall,
    /// No-op; used only in tests.
    Nop,
}

impl OpKind {
    /// True for ops that access data memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// True for ops dispatched to the floating-point instruction queue.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::FpAlu | OpKind::FpMul | OpKind::FpDiv)
    }

    /// True for control transfers.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, OpKind::Branch)
    }
}

/// Static branch flavour; conditional branches are the ones fetch policies
/// count (BRCOUNT) and the predictor predicts a direction for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BranchKind {
    /// Direction-predicted conditional branch.
    Conditional,
    /// Always-taken direct jump.
    Unconditional,
    /// Call (pushes the return-address stack).
    Call,
    /// Return (pops the return-address stack).
    Return,
}

/// Resolved control-flow facts carried by a branch micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BranchInfo {
    pub kind: BranchKind,
    /// Architectural outcome (true = taken). Always true for non-conditional
    /// kinds.
    pub taken: bool,
    /// Architectural target if taken.
    pub target: u64,
}

/// Resolved memory facts carried by a load/store micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MemInfo {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (informational; the cache model is line-based).
    pub size: u8,
}

/// A dynamic micro-op.
///
/// `src1`/`src2` name architectural registers; the workload generator
/// guarantees that any named source was written by an earlier op of the same
/// thread, which is what gives the stream its ILP profile.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct MicroOp {
    pub kind: OpKind,
    /// Fetch program counter of this op.
    pub pc: u64,
    pub dst: Option<ArchReg>,
    pub src1: Option<ArchReg>,
    pub src2: Option<ArchReg>,
    pub mem: Option<MemInfo>,
    pub branch: Option<BranchInfo>,
}

impl MicroOp {
    /// A plain single-cycle integer op with no operands; useful as a neutral
    /// filler in tests and for wrong-path synthesis.
    pub fn nop(pc: u64) -> Self {
        MicroOp {
            kind: OpKind::Nop,
            pc,
            dst: None,
            src1: None,
            src2: None,
            mem: None,
            branch: None,
        }
    }

    /// Is this a conditional branch (the BRCOUNT-relevant kind)?
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(
            self.branch,
            Some(BranchInfo {
                kind: BranchKind::Conditional,
                ..
            })
        )
    }

    /// Internal consistency: memory ops carry `mem`, branches carry `branch`,
    /// and nothing else does; every register is an architectural one. The
    /// workload generator upholds this; tests and debug assertions in the
    /// pipeline check it.
    pub fn is_well_formed(&self) -> bool {
        let mem_ok = self.kind.is_mem() == self.mem.is_some();
        let br_ok = self.kind.is_branch() == self.branch.is_some();
        let dst_ok = match self.kind {
            OpKind::Store | OpKind::Branch | OpKind::Syscall | OpKind::Nop => self.dst.is_none(),
            _ => self.dst.is_some(),
        };
        let regs_ok = [self.dst, self.src1, self.src2]
            .into_iter()
            .flatten()
            .all(|r| r.idx < NUM_ARCH_REGS_PER_CLASS);
        mem_ok && br_ok && dst_ok && regs_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::ArchReg;

    fn alu(pc: u64) -> MicroOp {
        MicroOp {
            kind: OpKind::IntAlu,
            pc,
            dst: Some(ArchReg::int(1)),
            src1: Some(ArchReg::int(2)),
            src2: None,
            mem: None,
            branch: None,
        }
    }

    #[test]
    fn nop_is_well_formed() {
        assert!(MicroOp::nop(0).is_well_formed());
    }

    #[test]
    fn alu_is_well_formed() {
        assert!(alu(4).is_well_formed());
    }

    #[test]
    fn load_without_mem_is_ill_formed() {
        let mut op = alu(4);
        op.kind = OpKind::Load;
        assert!(!op.is_well_formed());
    }

    #[test]
    fn register_past_the_architectural_file_is_ill_formed() {
        let mut op = alu(4);
        op.src1 = Some(ArchReg {
            idx: NUM_ARCH_REGS_PER_CLASS,
            ..ArchReg::int(0)
        });
        assert!(!op.is_well_formed());
    }

    #[test]
    fn branch_without_info_is_ill_formed() {
        let op = MicroOp {
            kind: OpKind::Branch,
            ..MicroOp::nop(0)
        };
        assert!(!op.is_well_formed());
    }

    #[test]
    fn cond_branch_detection() {
        let br = MicroOp {
            kind: OpKind::Branch,
            branch: Some(BranchInfo {
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x40,
            }),
            ..MicroOp::nop(0)
        };
        assert!(br.is_cond_branch());
        let jmp = MicroOp {
            kind: OpKind::Branch,
            branch: Some(BranchInfo {
                kind: BranchKind::Unconditional,
                taken: true,
                target: 0x40,
            }),
            ..MicroOp::nop(0)
        };
        assert!(!jmp.is_cond_branch());
    }

    #[test]
    fn kind_classification() {
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::Store.is_mem());
        assert!(!OpKind::IntAlu.is_mem());
        assert!(OpKind::FpMul.is_fp());
        assert!(!OpKind::Load.is_fp());
        assert!(OpKind::Branch.is_branch());
    }
}
