//! The structured instruction representation.
//!
//! Function bodies are kept in their *structured* form (nested
//! `block`/`loop`/`if` trees) rather than as a flat opcode stream. This
//! is the form the AccTEE instrumentation passes operate on, and it maps
//! one-to-one onto both the binary and the text format.

use crate::op::{LoadOp, NumOp, StoreOp};
use crate::types::ValType;

/// The result type of a block-like construct (MVP: empty or one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockType {
    /// No result value.
    #[default]
    Empty,
    /// A single result value.
    Value(ValType),
}

impl BlockType {
    /// The results as a slice.
    pub fn results(&self) -> &[ValType] {
        match self {
            BlockType::Empty => &[],
            BlockType::Value(v) => std::slice::from_ref(v),
        }
    }
}

/// Immediate of a memory access: static offset and alignment hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemArg {
    /// log2 of the alignment (a hint; does not affect semantics).
    pub align: u32,
    /// Static byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// A memarg with the given offset and natural alignment `align`.
    pub fn offset(offset: u32, align: u32) -> MemArg {
        MemArg { align, offset }
    }
}

/// A single structured WebAssembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `unreachable` — trap immediately.
    Unreachable,
    /// `nop` — do nothing.
    Nop,
    /// `block` — a forward-branch target; body falls through.
    Block {
        /// Result type of the block.
        ty: BlockType,
        /// The nested body.
        body: Vec<Instr>,
    },
    /// `loop` — a backward-branch target.
    Loop {
        /// Result type of the loop.
        ty: BlockType,
        /// The nested body.
        body: Vec<Instr>,
    },
    /// `if`/`else` — two-armed conditional.
    If {
        /// Result type of the conditional.
        ty: BlockType,
        /// The then-arm body.
        then: Vec<Instr>,
        /// The else-arm body (possibly empty).
        els: Vec<Instr>,
    },
    /// `br l` — unconditional branch to label depth `l`.
    Br(u32),
    /// `br_if l` — conditional branch.
    BrIf(u32),
    /// `br_table` — indexed branch.
    BrTable {
        /// Branch targets selected by the operand.
        targets: Vec<u32>,
        /// Default target when the operand is out of range.
        default: u32,
    },
    /// `return` — return from the current function.
    Return,
    /// `call f` — direct call.
    Call(u32),
    /// `call_indirect t` — indirect call through the table with expected
    /// type index `t`.
    CallIndirect(u32),
    /// `drop` — discard the top stack value.
    Drop,
    /// `select` — choose between two values by an `i32` condition.
    Select,
    /// `local.get x`.
    LocalGet(u32),
    /// `local.set x`.
    LocalSet(u32),
    /// `local.tee x`.
    LocalTee(u32),
    /// `global.get x`.
    GlobalGet(u32),
    /// `global.set x`.
    GlobalSet(u32),
    /// A load from linear memory.
    Load(LoadOp, MemArg),
    /// A store to linear memory.
    Store(StoreOp, MemArg),
    /// `memory.size` — current size in pages.
    MemorySize,
    /// `memory.grow` — grow by N pages, returning the old size or -1.
    MemoryGrow,
    /// `i32.const c`.
    I32Const(i32),
    /// `i64.const c`.
    I64Const(i64),
    /// `f32.const c`.
    F32Const(f32),
    /// `f64.const c`.
    F64Const(f64),
    /// Any plain numeric instruction.
    Num(NumOp),
}

impl Instr {
    /// Whether this instruction transfers control (ends a basic block).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Unreachable
                | Instr::Block { .. }
                | Instr::Loop { .. }
                | Instr::If { .. }
                | Instr::Br(_)
                | Instr::BrIf(_)
                | Instr::BrTable { .. }
                | Instr::Return
                | Instr::Call(_)
                | Instr::CallIndirect(_)
        )
    }

    /// Whether this is a "simple" (straight-line) instruction that can
    /// be part of an accounting segment.
    pub fn is_simple(&self) -> bool {
        !self.is_control()
    }
}

/// A constant expression used for global initialisers and segment
/// offsets: a single `*.const` or `global.get` instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstExpr {
    /// `i32.const`.
    I32(i32),
    /// `i64.const`.
    I64(i64),
    /// `f32.const`.
    F32(f32),
    /// `f64.const`.
    F64(f64),
    /// `global.get` of an (imported, immutable) global.
    GlobalGet(u32),
}

impl ConstExpr {
    /// The value type the expression evaluates to, given a lookup for
    /// global types.
    pub fn val_type(&self, global_ty: impl Fn(u32) -> Option<ValType>) -> Option<ValType> {
        match self {
            ConstExpr::I32(_) => Some(ValType::I32),
            ConstExpr::I64(_) => Some(ValType::I64),
            ConstExpr::F32(_) => Some(ValType::F32),
            ConstExpr::F64(_) => Some(ValType::F64),
            ConstExpr::GlobalGet(i) => global_ty(*i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        assert!(Instr::Br(0).is_control());
        assert!(Instr::Call(3).is_control());
        assert!(Instr::Unreachable.is_control());
        assert!(Instr::I32Const(1).is_simple());
        assert!(Instr::Num(NumOp::I32Add).is_simple());
        assert!(Instr::LocalGet(0).is_simple());
        assert!(Instr::Load(LoadOp::I32Load, MemArg::default()).is_simple());
    }
}
