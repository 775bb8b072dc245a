//! Instruction weight tables (§3.7).
//!
//! Weights assign each WebAssembly instruction a cost used by the
//! weighted instruction counter. They are part of the mutually trusted,
//! attested execution environment: both parties verify the table's
//! hash, which is bound into the accounting enclave's quote.

use acctee_wasm::instr::Instr;
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};

/// Number of weight slots: 123 numeric ops, 14 loads, 9 stores, and 20
/// structural/control slots.
const SLOTS: usize = 123 + 14 + 9 + 20;

/// Index layout for the non-numeric slots.
mod slot {
    pub const LOAD0: usize = 123;
    pub const STORE0: usize = 137;
    pub const UNREACHABLE: usize = 146;
    pub const NOP: usize = 147;
    pub const BLOCK: usize = 148;
    pub const LOOP: usize = 149;
    pub const IF: usize = 150;
    pub const BR: usize = 151;
    pub const BR_IF: usize = 152;
    pub const BR_TABLE: usize = 153;
    pub const RETURN: usize = 154;
    pub const CALL: usize = 155;
    pub const CALL_INDIRECT: usize = 156;
    pub const DROP: usize = 157;
    pub const SELECT: usize = 158;
    pub const LOCAL_GET: usize = 159;
    pub const LOCAL_SET: usize = 160;
    pub const LOCAL_TEE: usize = 161;
    pub const GLOBAL_GET: usize = 162;
    pub const GLOBAL_SET: usize = 163;
    pub const MEMORY_SIZE: usize = 164;
    pub const MEMORY_GROW: usize = 165;
}

/// A total assignment of weights to instruction kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightTable {
    slots: Vec<u64>,
}

fn slot_of(i: &Instr) -> usize {
    match i {
        Instr::Num(op) => (op.opcode() - NumOp::ALL[0].opcode()) as usize,
        Instr::Load(op, _) => slot::LOAD0 + (op.opcode() - LoadOp::ALL[0].opcode()) as usize,
        Instr::Store(op, _) => slot::STORE0 + (op.opcode() - StoreOp::ALL[0].opcode()) as usize,
        Instr::Unreachable => slot::UNREACHABLE,
        Instr::Nop => slot::NOP,
        Instr::Block { .. } => slot::BLOCK,
        Instr::Loop { .. } => slot::LOOP,
        Instr::If { .. } => slot::IF,
        Instr::Br(_) => slot::BR,
        Instr::BrIf(_) => slot::BR_IF,
        Instr::BrTable { .. } => slot::BR_TABLE,
        Instr::Return => slot::RETURN,
        Instr::Call(_) => slot::CALL,
        Instr::CallIndirect(_) => slot::CALL_INDIRECT,
        Instr::Drop => slot::DROP,
        Instr::Select => slot::SELECT,
        Instr::LocalGet(_) => slot::LOCAL_GET,
        Instr::LocalSet(_) => slot::LOCAL_SET,
        Instr::LocalTee(_) => slot::LOCAL_TEE,
        Instr::GlobalGet(_) => slot::GLOBAL_GET,
        Instr::GlobalSet(_) => slot::GLOBAL_SET,
        Instr::MemorySize => slot::MEMORY_SIZE,
        Instr::MemoryGrow => slot::MEMORY_GROW,
        // Constants share the local.get slot class (both are 1-cycle
        // pushes); give them dedicated weights via NOP-adjacent slots:
        Instr::I32Const(_) | Instr::I64Const(_) | Instr::F32Const(_) | Instr::F64Const(_) => {
            slot::NOP
        }
    }
}

impl WeightTable {
    /// Every instruction weighs 1: the plain *instruction counter*.
    pub fn uniform() -> WeightTable {
        WeightTable {
            slots: vec![1; SLOTS],
        }
    }

    /// Weights derived from the cycle-cost model of `acctee-cachesim`
    /// (the reproduction's analogue of the paper's Fig. 7 measurement).
    pub fn calibrated() -> WeightTable {
        let mut t = WeightTable::uniform();
        for op in NumOp::ALL {
            t.set(&Instr::Num(*op), acctee_cachesim::numop_cost(*op));
        }
        // Memory accesses: base address-generation cost only; the
        // pattern-dependent part is billed through the memory policy
        // (§3.7: "we resort to using the peak memory usage for
        // estimating the cost of memory accesses").
        for op in LoadOp::ALL {
            t.set(&Instr::Load(*op, Default::default()), 2);
        }
        for op in StoreOp::ALL {
            t.set(&Instr::Store(*op, Default::default()), 2);
        }
        t.slots[slot::CALL] = 6;
        t.slots[slot::CALL_INDIRECT] = 10;
        t.slots[slot::BR_TABLE] = 4;
        t.slots[slot::IF] = 2;
        t.slots[slot::MEMORY_GROW] = 100;
        t
    }

    /// The weight of an instruction.
    pub fn weight(&self, i: &Instr) -> u64 {
        self.slots[slot_of(i)]
    }

    /// Overrides the weight of the slot `i` belongs to.
    pub fn set(&mut self, i: &Instr, w: u64) {
        self.slots[slot_of(i)] = w;
    }

    /// A stable byte serialisation, used to hash the table into the
    /// attested environment (§3.7: "runtime adjustments are possible" —
    /// but both parties must agree on the exact table).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SLOTS * 8 + 8);
        out.extend_from_slice(b"acctee-w");
        for s in &self.slots {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_wasm::instr::MemArg;

    #[test]
    fn uniform_weighs_everything_one() {
        let t = WeightTable::uniform();
        assert_eq!(t.weight(&Instr::Nop), 1);
        assert_eq!(t.weight(&Instr::Num(NumOp::F64Sqrt)), 1);
        assert_eq!(
            t.weight(&Instr::Load(LoadOp::I64Load, MemArg::default())),
            1
        );
    }

    #[test]
    fn calibrated_reflects_cost_model() {
        let t = WeightTable::calibrated();
        assert!(t.weight(&Instr::Num(NumOp::F64Sqrt)) > t.weight(&Instr::Num(NumOp::I32Add)));
        assert!(t.weight(&Instr::Num(NumOp::I64DivS)) > 20);
        assert_eq!(t.weight(&Instr::Num(NumOp::I32Add)), 1);
    }

    #[test]
    fn serialisation_round_trips() {
        let mut t = WeightTable::calibrated();
        t.set(&Instr::Drop, 17);
        let bytes = t.to_bytes();
        // The layout `weight_hash` pins: a tag, then each slot's weight
        // as a little-endian u64, in slot order.
        let body = bytes.strip_prefix(b"acctee-w").unwrap();
        let slots: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(slots, t.slots);
        assert_eq!(slots[slot_of(&Instr::Drop)], 17);
    }

    #[test]
    fn set_changes_only_one_slot() {
        let mut t = WeightTable::uniform();
        t.set(&Instr::Num(NumOp::I32Add), 9);
        assert_eq!(t.weight(&Instr::Num(NumOp::I32Add)), 9);
        assert_eq!(t.weight(&Instr::Num(NumOp::I32Sub)), 1);
    }
}
