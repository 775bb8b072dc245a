//! Numeric execution over untyped 64-bit slots.
//!
//! The register tier keeps its operands as raw `u64` slots (see
//! [`crate::regs`]): validation has already proven every operand's
//! type, so the enum tag a [`crate::Value`] carries is pure overhead
//! on the hot path. This module is [`crate::exec::exec_num`]
//! transliterated onto that representation — the arm bodies are kept
//! identical (same expressions, same trap conditions, same helper
//! functions) so the two evaluators cannot drift semantically; only
//! the decode/encode layer differs.
//!
//! The arm table itself lives in the [`for_each_slot_op!`] macro so it
//! exists exactly **once**: the register tier's three-address handlers
//! in [`crate::regs`] are generated from it. The differential suite in
//! `tests/engine_diff.rs` additionally sweeps every
//! [`acctee_wasm::op::NumOp`] across both engines on adversarial
//! operands (NaNs, boundary integers).
//!
//! Slot encoding: `i32` zero-extended from its `u32` bits, `i64` as
//! its `u64` bits, floats as their IEEE bit patterns (`f32` in the low
//! 32 bits). All-zero bits encode the zero value of every type, which
//! is what lets locals be zero-initialised with `resize(.., 0)`.

use acctee_wasm::types::ValType;

use crate::value::Value;

/// Slot decoders, named after the [`Value`] accessors so consumers of
/// the op table can mirror `exec_num` token-for-token.
pub(crate) mod dec {
    #[inline(always)]
    pub fn as_i32(s: u64) -> i32 {
        s as u32 as i32
    }
    #[inline(always)]
    pub fn as_i64(s: u64) -> i64 {
        s as i64
    }
    #[inline(always)]
    pub fn as_f32(s: u64) -> f32 {
        f32::from_bits(s as u32)
    }
    #[inline(always)]
    pub fn as_f64(s: u64) -> f64 {
        f64::from_bits(s)
    }
}

/// Slot encoders, named after the [`Value`] constructors (hence the
/// non-snake-case names) for the same mirroring reason.
#[allow(non_snake_case)]
pub(crate) mod enc {
    #[inline(always)]
    pub fn I32(v: i32) -> u64 {
        u64::from(v as u32)
    }
    #[inline(always)]
    pub fn I64(v: i64) -> u64 {
        v as u64
    }
    #[inline(always)]
    pub fn F32(v: f32) -> u64 {
        u64::from(v.to_bits())
    }
    #[inline(always)]
    pub fn F64(v: f64) -> u64 {
        v.to_bits()
    }
}

/// Encodes a typed [`Value`] into its slot representation.
#[inline]
pub(crate) fn value_to_slot(v: Value) -> u64 {
    match v {
        Value::I32(x) => enc::I32(x),
        Value::I64(x) => enc::I64(x),
        Value::F32(x) => enc::F32(x),
        Value::F64(x) => enc::F64(x),
    }
}

/// Decodes a slot back into a typed [`Value`].
#[inline]
pub(crate) fn slot_to_value(s: u64, ty: ValType) -> Value {
    match ty {
        ValType::I32 => Value::I32(dec::as_i32(s)),
        ValType::I64 => Value::I64(dec::as_i64(s)),
        ValType::F32 => Value::F32(dec::as_f32(s)),
        ValType::F64 => Value::F64(dec::as_f64(s)),
    }
}

/// The single slot-domain numeric op table. Invokes `$m` with four
/// groups:
///
/// * `un` — infallible one-operand ops: `Variant: dec -> enc, |a| e`;
/// * `bin` — infallible two-operand ops (`b` is the top of stack);
/// * `un_try` — fallible one-operand ops (`e` is a `Result`);
/// * `bin_try` — fallible two-operand ops.
///
/// The decoder names the *operand* type, the encoder the *result*
/// type. Arm bodies are verbatim `exec_num` expressions — do not
/// "simplify" one consumer without the others; the trap conditions and
/// NaN behaviour are part of the differential contract.
macro_rules! for_each_slot_op {
    ($m:ident) => {
        $m! {
            un {
                I32Eqz: as_i32 -> I32, |a| i32::from(a == 0);
                I64Eqz: as_i64 -> I32, |a| i32::from(a == 0);
                I32Clz: as_i32 -> I32, |a| a.leading_zeros() as i32;
                I32Ctz: as_i32 -> I32, |a| a.trailing_zeros() as i32;
                I32Popcnt: as_i32 -> I32, |a| a.count_ones() as i32;
                I64Clz: as_i64 -> I64, |a| i64::from(a.leading_zeros());
                I64Ctz: as_i64 -> I64, |a| i64::from(a.trailing_zeros());
                I64Popcnt: as_i64 -> I64, |a| i64::from(a.count_ones());
                F32Abs: as_f32 -> F32, |a| a.abs();
                F32Neg: as_f32 -> F32, |a| -a;
                F32Ceil: as_f32 -> F32, |a| crate::exec::canon_f32(a.ceil());
                F32Floor: as_f32 -> F32, |a| crate::exec::canon_f32(a.floor());
                F32Trunc: as_f32 -> F32, |a| crate::exec::canon_f32(a.trunc());
                F32Nearest: as_f32 -> F32, |a| crate::exec::canon_f32(a.round_ties_even());
                F32Sqrt: as_f32 -> F32, |a| crate::exec::canon_f32(a.sqrt());
                F64Abs: as_f64 -> F64, |a| a.abs();
                F64Neg: as_f64 -> F64, |a| -a;
                F64Ceil: as_f64 -> F64, |a| crate::exec::canon_f64(a.ceil());
                F64Floor: as_f64 -> F64, |a| crate::exec::canon_f64(a.floor());
                F64Trunc: as_f64 -> F64, |a| crate::exec::canon_f64(a.trunc());
                F64Nearest: as_f64 -> F64, |a| crate::exec::canon_f64(a.round_ties_even());
                F64Sqrt: as_f64 -> F64, |a| crate::exec::canon_f64(a.sqrt());
                I32WrapI64: as_i64 -> I32, |a| a as i32;
                I64ExtendI32S: as_i32 -> I64, |a| i64::from(a);
                I64ExtendI32U: as_i32 -> I64, |a| i64::from(a as u32);
                F32ConvertI32S: as_i32 -> F32, |a| a as f32;
                F32ConvertI32U: as_i32 -> F32, |a| a as u32 as f32;
                F32ConvertI64S: as_i64 -> F32, |a| a as f32;
                F32ConvertI64U: as_i64 -> F32, |a| a as u64 as f32;
                F32DemoteF64: as_f64 -> F32, |a| crate::exec::canon_f32(a as f32);
                F64ConvertI32S: as_i32 -> F64, |a| f64::from(a);
                F64ConvertI32U: as_i32 -> F64, |a| f64::from(a as u32);
                F64ConvertI64S: as_i64 -> F64, |a| a as f64;
                F64ConvertI64U: as_i64 -> F64, |a| a as u64 as f64;
                F64PromoteF32: as_f32 -> F64, |a| crate::exec::canon_f64(f64::from(a));
                I32ReinterpretF32: as_f32 -> I32, |a| a.to_bits() as i32;
                I64ReinterpretF64: as_f64 -> I64, |a| a.to_bits() as i64;
                F32ReinterpretI32: as_i32 -> F32, |a| f32::from_bits(a as u32);
                F64ReinterpretI64: as_i64 -> F64, |a| f64::from_bits(a as u64);
            }
            bin {
                I32Eq: as_i32 -> I32, |a, b| i32::from(a == b);
                I32Ne: as_i32 -> I32, |a, b| i32::from(a != b);
                I32LtS: as_i32 -> I32, |a, b| i32::from(a < b);
                I32LtU: as_i32 -> I32, |a, b| i32::from((a as u32) < b as u32);
                I32GtS: as_i32 -> I32, |a, b| i32::from(a > b);
                I32GtU: as_i32 -> I32, |a, b| i32::from(a as u32 > b as u32);
                I32LeS: as_i32 -> I32, |a, b| i32::from(a <= b);
                I32LeU: as_i32 -> I32, |a, b| i32::from(a as u32 <= b as u32);
                I32GeS: as_i32 -> I32, |a, b| i32::from(a >= b);
                I32GeU: as_i32 -> I32, |a, b| i32::from(a as u32 >= b as u32);
                I64Eq: as_i64 -> I32, |a, b| i32::from(a == b);
                I64Ne: as_i64 -> I32, |a, b| i32::from(a != b);
                I64LtS: as_i64 -> I32, |a, b| i32::from(a < b);
                I64LtU: as_i64 -> I32, |a, b| i32::from((a as u64) < b as u64);
                I64GtS: as_i64 -> I32, |a, b| i32::from(a > b);
                I64GtU: as_i64 -> I32, |a, b| i32::from(a as u64 > b as u64);
                I64LeS: as_i64 -> I32, |a, b| i32::from(a <= b);
                I64LeU: as_i64 -> I32, |a, b| i32::from(a as u64 <= b as u64);
                I64GeS: as_i64 -> I32, |a, b| i32::from(a >= b);
                I64GeU: as_i64 -> I32, |a, b| i32::from(a as u64 >= b as u64);
                F32Eq: as_f32 -> I32, |a, b| i32::from(a == b);
                F32Ne: as_f32 -> I32, |a, b| i32::from(a != b);
                F32Lt: as_f32 -> I32, |a, b| i32::from(a < b);
                F32Gt: as_f32 -> I32, |a, b| i32::from(a > b);
                F32Le: as_f32 -> I32, |a, b| i32::from(a <= b);
                F32Ge: as_f32 -> I32, |a, b| i32::from(a >= b);
                F64Eq: as_f64 -> I32, |a, b| i32::from(a == b);
                F64Ne: as_f64 -> I32, |a, b| i32::from(a != b);
                F64Lt: as_f64 -> I32, |a, b| i32::from(a < b);
                F64Gt: as_f64 -> I32, |a, b| i32::from(a > b);
                F64Le: as_f64 -> I32, |a, b| i32::from(a <= b);
                F64Ge: as_f64 -> I32, |a, b| i32::from(a >= b);
                I32Add: as_i32 -> I32, |a, b| a.wrapping_add(b);
                I32Sub: as_i32 -> I32, |a, b| a.wrapping_sub(b);
                I32Mul: as_i32 -> I32, |a, b| a.wrapping_mul(b);
                I32And: as_i32 -> I32, |a, b| a & b;
                I32Or: as_i32 -> I32, |a, b| a | b;
                I32Xor: as_i32 -> I32, |a, b| a ^ b;
                I32Shl: as_i32 -> I32, |a, b| a.wrapping_shl(b as u32);
                I32ShrS: as_i32 -> I32, |a, b| a.wrapping_shr(b as u32);
                I32ShrU: as_i32 -> I32, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32;
                I32Rotl: as_i32 -> I32, |a, b| a.rotate_left(b as u32 & 31);
                I32Rotr: as_i32 -> I32, |a, b| a.rotate_right(b as u32 & 31);
                I64Add: as_i64 -> I64, |a, b| a.wrapping_add(b);
                I64Sub: as_i64 -> I64, |a, b| a.wrapping_sub(b);
                I64Mul: as_i64 -> I64, |a, b| a.wrapping_mul(b);
                I64And: as_i64 -> I64, |a, b| a & b;
                I64Or: as_i64 -> I64, |a, b| a | b;
                I64Xor: as_i64 -> I64, |a, b| a ^ b;
                I64Shl: as_i64 -> I64, |a, b| a.wrapping_shl(b as u32);
                I64ShrS: as_i64 -> I64, |a, b| a.wrapping_shr(b as u32);
                I64ShrU: as_i64 -> I64, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64;
                I64Rotl: as_i64 -> I64, |a, b| a.rotate_left(b as u32 & 63);
                I64Rotr: as_i64 -> I64, |a, b| a.rotate_right(b as u32 & 63);
                F32Add: as_f32 -> F32, |a, b| crate::exec::canon_f32(a + b);
                F32Sub: as_f32 -> F32, |a, b| crate::exec::canon_f32(a - b);
                F32Mul: as_f32 -> F32, |a, b| crate::exec::canon_f32(a * b);
                F32Div: as_f32 -> F32, |a, b| crate::exec::canon_f32(a / b);
                F32Min: as_f32 -> F32, |a, b| crate::exec::fmin(a, b);
                F32Max: as_f32 -> F32, |a, b| crate::exec::fmax(a, b);
                F32Copysign: as_f32 -> F32, |a, b| a.copysign(b);
                F64Add: as_f64 -> F64, |a, b| crate::exec::canon_f64(a + b);
                F64Sub: as_f64 -> F64, |a, b| crate::exec::canon_f64(a - b);
                F64Mul: as_f64 -> F64, |a, b| crate::exec::canon_f64(a * b);
                F64Div: as_f64 -> F64, |a, b| crate::exec::canon_f64(a / b);
                F64Min: as_f64 -> F64, |a, b| crate::exec::fmin(a, b);
                F64Max: as_f64 -> F64, |a, b| crate::exec::fmax(a, b);
                F64Copysign: as_f64 -> F64, |a, b| a.copysign(b);
            }
            un_try {
                I32TruncF32S: as_f32 -> I32, |a| crate::exec::trunc_to_i32(f64::from(a), true);
                I32TruncF32U: as_f32 -> I32, |a| crate::exec::trunc_to_i32(f64::from(a), false);
                I32TruncF64S: as_f64 -> I32, |a| crate::exec::trunc_to_i32(a, true);
                I32TruncF64U: as_f64 -> I32, |a| crate::exec::trunc_to_i32(a, false);
                I64TruncF32S: as_f32 -> I64, |a| crate::exec::trunc_to_i64(f64::from(a), true);
                I64TruncF32U: as_f32 -> I64, |a| crate::exec::trunc_to_i64(f64::from(a), false);
                I64TruncF64S: as_f64 -> I64, |a| crate::exec::trunc_to_i64(a, true);
                I64TruncF64U: as_f64 -> I64, |a| crate::exec::trunc_to_i64(a, false);
            }
            bin_try {
                I32DivS: as_i32 -> I32, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else if a == i32::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                };
                I32DivU: as_i32 -> I32, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(((a as u32) / (b as u32)) as i32)
                    }
                };
                I32RemS: as_i32 -> I32, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                };
                I32RemU: as_i32 -> I32, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(((a as u32) % (b as u32)) as i32)
                    }
                };
                I64DivS: as_i64 -> I64, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else if a == i64::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                };
                I64DivU: as_i64 -> I64, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(((a as u64) / (b as u64)) as i64)
                    }
                };
                I64RemS: as_i64 -> I64, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                };
                I64RemU: as_i64 -> I64, |a, b| {
                    if b == 0 {
                        Err(Trap::DivisionByZero)
                    } else {
                        Ok(((a as u64) % (b as u64)) as i64)
                    }
                };
            }
        }
    };
}
pub(crate) use for_each_slot_op;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trap::Trap;
    use acctee_wasm::op::NumOp;

    macro_rules! gen_eval_slot {
        (
            un { $($uv:ident: $uas:ident -> $uenc:ident, |$ua:ident| $ue:expr;)* }
            bin { $($bv:ident: $bas:ident -> $benc:ident, |$ba:ident, $bb:ident| $be:expr;)* }
            un_try { $($tv:ident: $tas:ident -> $tenc:ident, |$ta:ident| $te:expr;)* }
            bin_try { $($cv:ident: $cas:ident -> $cenc:ident, |$ca:ident, $cb:ident| $ce:expr;)* }
        ) => {
            /// [`crate::exec::exec_num`] on a slot stack, generated from
            /// [`for_each_slot_op!`] so the table's arms run directly.
            fn eval_slot(op: NumOp, stack: &mut Vec<u64>) -> Result<(), Trap> {
                match op {
                    $(NumOp::$uv => {
                        let $ua = dec::$uas(stack.pop().expect("validated"));
                        stack.push(enc::$uenc($ue));
                    })*
                    $(NumOp::$bv => {
                        let $bb = dec::$bas(stack.pop().expect("validated"));
                        let $ba = dec::$bas(stack.pop().expect("validated"));
                        stack.push(enc::$benc($be));
                    })*
                    $(NumOp::$tv => {
                        let $ta = dec::$tas(stack.pop().expect("validated"));
                        stack.push(enc::$tenc($te?));
                    })*
                    $(NumOp::$cv => {
                        let $cb = dec::$cas(stack.pop().expect("validated"));
                        let $ca = dec::$cas(stack.pop().expect("validated"));
                        stack.push(enc::$cenc($ce?));
                    })*
                }
                Ok(())
            }
        };
    }

    for_each_slot_op!(gen_eval_slot);

    #[test]
    fn slot_roundtrip_preserves_bits() {
        let nan = f32::from_bits(0x7fc0_1234);
        for v in [
            Value::I32(-1),
            Value::I32(i32::MIN),
            Value::I64(i64::MIN),
            Value::F32(nan),
            Value::F64(f64::NEG_INFINITY),
            Value::F64(-0.0),
        ] {
            let s = value_to_slot(v);
            let back = slot_to_value(s, v.ty());
            assert_eq!(value_to_slot(back), s, "{v:?}");
        }
    }

    #[test]
    fn i32_slots_are_zero_extended() {
        let s = value_to_slot(Value::I32(-1));
        assert_eq!(s, 0xffff_ffff);
        // The whole-slot zero test used for branch conditions is
        // equivalent to the i32 test under this invariant.
        assert_ne!(s, 0);
    }

    #[test]
    fn float_arithmetic_nans_are_canonical() {
        // Arithmetic NaN payloads must not depend on which operand
        // the optimiser happens to quiet: every engine must emit the
        // single canonical pattern regardless of build profile.
        let snan32 = u64::from(0xff80_0001u32);
        let snan64 = 0xfff0_0000_0000_0001u64;
        let qnan32 = u64::from(0x7fc0_0000u32);
        let qnan64 = 0x7ff8_0000_0000_0000u64;
        for (op, a, b, want) in [
            (NumOp::F32Add, qnan32, snan32, qnan32),
            (NumOp::F32Add, snan32, qnan32, qnan32),
            (NumOp::F32Mul, snan32, snan32, qnan32),
            (NumOp::F32Div, snan32, 0, qnan32),
            (NumOp::F64Add, qnan64, snan64, qnan64),
            (NumOp::F64Sub, snan64, qnan64, qnan64),
            (NumOp::F64Mul, snan64, snan64, qnan64),
        ] {
            let mut s = vec![a, b];
            eval_slot(op, &mut s).unwrap();
            assert_eq!(s[0], want, "{op:?}");
        }
        for (op, a, want) in [
            (NumOp::F32Sqrt, snan32, qnan32),
            (NumOp::F32Ceil, snan32, qnan32),
            (NumOp::F64Nearest, snan64, qnan64),
            (NumOp::F32DemoteF64, snan64, qnan32),
            (NumOp::F64PromoteF32, snan32, qnan64),
        ] {
            let mut s = vec![a];
            eval_slot(op, &mut s).unwrap();
            assert_eq!(s[0], want, "{op:?}");
        }
    }

    #[test]
    fn table_covers_every_numop() {
        // Every op executes without panicking on zero operands that
        // are legal for it (divisions by zero trap, which is fine).
        for op in NumOp::ALL {
            let mut stack = vec![1u64, 1u64];
            let _ = eval_slot(*op, &mut stack);
        }
    }
}
