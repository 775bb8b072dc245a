//! Static range proofs for loop memory accesses.
//!
//! This is the analysis behind the register tier's bounds-check
//! elimination (AccTEE's software analogue of the compiled-tier check
//! hoisting in Twine/Cage): given a `loop` body, prove that every
//! qualifying load/store address is an **affine, monotone** function
//! of a single bounded induction variable plus loop-invariant locals
//! and constants. A consumer can then evaluate one *guard* per loop
//! entry — the maximum address each access can reach — and run a
//! checked or an unchecked copy of the body depending on the verdict.
//!
//! The loop shape recognised here deliberately mirrors the induction
//! idiom of `acctee-instrument`'s loop optimiser (`loopopt.rs`, which
//! hoists counter updates out of the same loops) and the canonical
//! shape `acctee_wasm::builder::FuncBuilder::for_loop` emits:
//!
//! ```wat
//! loop                          ;; straight-line body, then:
//!   ...body...
//!   local.get $i  i32.const k  i32.add  local.set $i   ;; k > 0
//!   local.get $i  (local.get $n | i32.const c)  i32.lt_s  br_if 0
//! end
//! ```
//!
//! # Soundness argument
//!
//! All address arithmetic is modelled in the *unwrapped* unsigned
//! domain (`u64`/`u128`), lifting each `i32` contribution to its `u32`
//! bits. Only `i32.add`, multiplication by a constant, and left shift
//! by a constant are admitted, so every intermediate value is a
//! partial sum of non-negative terms and therefore bounded by the
//! final unwrapped value. If the guard establishes
//! `max_addr + access_bytes <= memory_size` (and `memory_size` is at
//! most the 4 GiB architectural limit), no intermediate ever reaches
//! `2^32`, hence the *wrapped* machine arithmetic computes exactly the
//! unwrapped value — the proof transfers from the model to the
//! machine. The induction variable is pinned by the guard to
//! `0 <= i`, `step > 0` (compile-time) and `bound + step <= i32::MAX`
//! (run-time), so it never wraps and its largest body-visible value is
//! `max(i0, bound - 1)` (the `max(i0, ..)` term covers the do-while
//! entry: a `loop` body runs once even when `i0 >= bound`).
//!
//! Anything the analysis cannot prove it simply leaves out of
//! [`LoopProof::accesses`]; the consumer keeps those accesses checked.
//! It lives in this crate, not `acctee-instrument`, because the
//! interpreter cannot depend on the instrumenter.

use std::collections::{BTreeMap, BTreeSet};

use crate::instr::Instr;
use crate::op::NumOp;

/// The loop's continue bound: `br_if 0` taken while `i < bound`
/// (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBound {
    /// A loop-invariant local.
    Local(u32),
    /// A compile-time constant.
    Const(i32),
}

/// One proven memory access inside the loop body.
///
/// The effective address (dynamic base plus static offset) equals
/// `coeff * i + Σ scale_j * u32(local_j) + konst` in the unwrapped
/// domain, where `i` is the induction variable and every `local_j` is
/// loop-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessProof {
    /// Index of the `Load`/`Store` instruction in the loop body slice.
    pub index: usize,
    /// Coefficient of the induction variable.
    pub coeff: u64,
    /// Loop-invariant locals and their scales, `(local, scale)`.
    pub terms: Vec<(u32, u64)>,
    /// Constant term — includes the access's static `MemArg` offset.
    pub konst: u64,
    /// Access width in bytes.
    pub bytes: u32,
}

/// A qualified loop: shape, induction, bound, and every access whose
/// address was proven affine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProof {
    /// The induction local (written exactly once, by the increment).
    pub induction: u32,
    /// The positive increment applied each iteration.
    pub step: i32,
    /// The continue bound (`i32.lt_s` against it keeps looping).
    pub bound: LoopBound,
    /// Proven accesses, in body order. May be empty (the shape
    /// qualified but no address was provable) — a consumer gains
    /// nothing from guarding such a loop.
    pub accesses: Vec<AccessProof>,
}

/// Abstract value: an affine form over the induction variable and
/// invariant locals, or `Top` (unknown).
#[derive(Debug, Clone)]
enum Av {
    Affine {
        coeff: u64,
        terms: BTreeMap<u32, u64>,
        konst: u64,
    },
    Top,
}

impl Av {
    fn konst(c: u64) -> Av {
        Av::Affine {
            coeff: 0,
            terms: BTreeMap::new(),
            konst: c,
        }
    }

    /// The constant value if this is a pure constant.
    fn as_const(&self) -> Option<u64> {
        match self {
            Av::Affine {
                coeff: 0,
                terms,
                konst,
            } if terms.is_empty() => Some(*konst),
            _ => None,
        }
    }

    fn add(&self, other: &Av) -> Av {
        let (
            Av::Affine {
                coeff: c1,
                terms: t1,
                konst: k1,
            },
            Av::Affine {
                coeff: c2,
                terms: t2,
                konst: k2,
            },
        ) = (self, other)
        else {
            return Av::Top;
        };
        let Some(coeff) = c1.checked_add(*c2) else {
            return Av::Top;
        };
        let Some(konst) = k1.checked_add(*k2) else {
            return Av::Top;
        };
        let mut terms = t1.clone();
        for (l, s) in t2 {
            let e = terms.entry(*l).or_insert(0);
            match e.checked_add(*s) {
                Some(v) => *e = v,
                None => return Av::Top,
            }
        }
        Av::Affine {
            coeff,
            terms,
            konst,
        }
    }

    fn scale(&self, by: u64) -> Av {
        let Av::Affine {
            coeff,
            terms,
            konst,
        } = self
        else {
            return Av::Top;
        };
        let Some(coeff) = coeff.checked_mul(by) else {
            return Av::Top;
        };
        let Some(konst) = konst.checked_mul(by) else {
            return Av::Top;
        };
        let mut out = BTreeMap::new();
        for (l, s) in terms {
            match s.checked_mul(by) {
                Some(v) => {
                    out.insert(*l, v);
                }
                None => return Av::Top,
            }
        }
        Av::Affine {
            coeff,
            terms: out,
            konst,
        }
    }
}

/// The length of the recognised loop tail: increment (4 instructions)
/// plus compare-and-backedge (4 instructions).
const TAIL_LEN: usize = 8;

/// Attempts to prove `body` (a `loop` body) against the canonical
/// counted-loop shape, returning the proof on success.
///
/// Requirements: a straight-line body (no nested control flow, calls,
/// or branches) ending in the exact increment + `i32.lt_s`-compare +
/// `br_if 0` tail; an induction local written exactly once; a bound
/// that is a constant or a local not written in the body. Accesses
/// whose address is not a provable affine form are silently omitted.
pub fn prove_loop(body: &[Instr]) -> Option<LoopProof> {
    if body.len() < TAIL_LEN {
        return None;
    }
    // Shape: everything before the final br_if must be simple
    // (no control transfer), which also rules out nested blocks.
    let (pre, tail) = body.split_at(body.len() - TAIL_LEN);
    if !pre.iter().all(Instr::is_simple) {
        return None;
    }
    // Tail: local.get i; i32.const k; i32.add; local.set i;
    //       local.get i; <bound>; i32.lt_s; br_if 0
    let [Instr::LocalGet(i1), Instr::I32Const(step), Instr::Num(NumOp::I32Add), Instr::LocalSet(i2), Instr::LocalGet(i3), bound_instr, Instr::Num(NumOp::I32LtS), Instr::BrIf(0)] =
        tail
    else {
        return None;
    };
    if i1 != i2 || i1 != i3 || *step <= 0 {
        return None;
    }
    let induction = *i1;
    let bound = match bound_instr {
        Instr::LocalGet(n) if *n != induction => LoopBound::Local(*n),
        Instr::I32Const(c) => LoopBound::Const(*c),
        _ => return None,
    };
    // Locals written anywhere in the body. The induction must be
    // written exactly once (the tail increment); the bound and every
    // term local must not be written at all.
    let mut writes: BTreeMap<u32, u32> = BTreeMap::new();
    for instr in body {
        if let Instr::LocalSet(x) | Instr::LocalTee(x) = instr {
            *writes.entry(*x).or_insert(0) += 1;
        }
    }
    if writes.get(&induction) != Some(&1) {
        return None;
    }
    if let LoopBound::Local(n) = bound {
        if writes.contains_key(&n) {
            return None;
        }
    }
    let written: BTreeSet<u32> = writes.keys().copied().collect();

    // Abstract interpretation of the straight-line prefix: track the
    // affine form of every stack slot; harvest load/store addresses.
    let mut stack: Vec<Av> = Vec::new();
    let mut accesses = Vec::new();
    for (index, instr) in pre.iter().enumerate() {
        match instr {
            Instr::LocalGet(x) if *x == induction => stack.push(Av::Affine {
                coeff: 1,
                terms: BTreeMap::new(),
                konst: 0,
            }),
            Instr::LocalGet(x) if !written.contains(x) => {
                let mut terms = BTreeMap::new();
                terms.insert(*x, 1u64);
                stack.push(Av::Affine {
                    coeff: 0,
                    terms,
                    konst: 0,
                });
            }
            Instr::LocalGet(_) => stack.push(Av::Top),
            Instr::I32Const(c) => stack.push(Av::konst(u64::from(*c as u32))),
            Instr::I64Const(_) | Instr::F32Const(_) | Instr::F64Const(_) => stack.push(Av::Top),
            Instr::Num(NumOp::I32Add) => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                stack.push(a.add(&b));
            }
            Instr::Num(NumOp::I32Mul) => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                let v = match (a.as_const(), b.as_const()) {
                    (_, Some(c)) => a.scale(c),
                    (Some(c), _) => b.scale(c),
                    _ => Av::Top,
                };
                stack.push(v);
            }
            Instr::Num(NumOp::I32Shl) => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                // i32.shl masks the shift amount to 5 bits.
                let v = match b.as_const() {
                    Some(sh) => a.scale(1u64 << (sh as u32 & 31)),
                    None => Av::Top,
                };
                stack.push(v);
            }
            Instr::Num(op) => {
                let (args, _) = op.sig();
                for _ in 0..args.len() {
                    stack.pop()?;
                }
                stack.push(Av::Top);
            }
            Instr::Load(op, memarg) => {
                let addr = stack.pop()?;
                if let Av::Affine {
                    coeff,
                    terms,
                    konst,
                } = &addr
                {
                    if let Some(konst) = konst.checked_add(u64::from(memarg.offset)) {
                        accesses.push(AccessProof {
                            index,
                            coeff: *coeff,
                            terms: terms.iter().map(|(l, s)| (*l, *s)).collect(),
                            konst,
                            bytes: op.access_bytes(),
                        });
                    }
                }
                stack.push(Av::Top);
            }
            Instr::Store(op, memarg) => {
                let _value = stack.pop()?;
                let addr = stack.pop()?;
                if let Av::Affine {
                    coeff,
                    terms,
                    konst,
                } = &addr
                {
                    if let Some(konst) = konst.checked_add(u64::from(memarg.offset)) {
                        accesses.push(AccessProof {
                            index,
                            coeff: *coeff,
                            terms: terms.iter().map(|(l, s)| (*l, *s)).collect(),
                            konst,
                            bytes: op.access_bytes(),
                        });
                    }
                }
            }
            Instr::LocalSet(_) => {
                stack.pop()?;
            }
            Instr::LocalTee(_) => {
                // The value stays; its affine form survives only if the
                // written local is not itself a term (written locals are
                // already excluded from terms, so the form stays valid).
                let v = stack.pop()?;
                stack.push(v);
            }
            Instr::Drop => {
                stack.pop()?;
            }
            Instr::Select => {
                stack.pop()?;
                stack.pop()?;
                stack.pop()?;
                stack.push(Av::Top);
            }
            Instr::GlobalGet(_) | Instr::MemorySize => stack.push(Av::Top),
            Instr::GlobalSet(_) => {
                stack.pop()?;
            }
            Instr::MemoryGrow => {
                stack.pop()?;
                stack.push(Av::Top);
            }
            Instr::Nop => {}
            // Control flow was excluded by the shape check above.
            _ => return None,
        }
    }

    Some(LoopProof {
        induction,
        step: *step,
        bound,
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::MemArg;
    use crate::op::{LoadOp, StoreOp};

    fn canonical_tail(i: u32, bound: Instr) -> Vec<Instr> {
        vec![
            Instr::LocalGet(i),
            Instr::I32Const(1),
            Instr::Num(NumOp::I32Add),
            Instr::LocalSet(i),
            Instr::LocalGet(i),
            bound,
            Instr::Num(NumOp::I32LtS),
            Instr::BrIf(0),
        ]
    }

    #[test]
    fn proves_idx1_access() {
        // f64 load of base 64 + (i << 3)
        let mut body = vec![
            Instr::LocalGet(0),
            Instr::I32Const(3),
            Instr::Num(NumOp::I32Shl),
            Instr::Load(LoadOp::F64Load, MemArg::offset(64, 3)),
            Instr::Drop,
        ];
        body.extend(canonical_tail(0, Instr::LocalGet(1)));
        let p = prove_loop(&body).expect("qualifies");
        assert_eq!(p.induction, 0);
        assert_eq!(p.step, 1);
        assert_eq!(p.bound, LoopBound::Local(1));
        assert_eq!(p.accesses.len(), 1);
        let a = &p.accesses[0];
        assert_eq!(a.coeff, 8);
        assert_eq!(a.konst, 64);
        assert_eq!(a.bytes, 8);
        assert!(a.terms.is_empty());
    }

    #[test]
    fn proves_idx2_access_with_invariant_row() {
        // store to ((i * 12 + j) << 2) + 128 where j = local 2 (outer,
        // invariant here), i = local 0.
        let mut body = vec![
            Instr::LocalGet(0),
            Instr::I32Const(12),
            Instr::Num(NumOp::I32Mul),
            Instr::LocalGet(2),
            Instr::Num(NumOp::I32Add),
            Instr::I32Const(2),
            Instr::Num(NumOp::I32Shl),
            Instr::I32Const(7),
            Instr::Store(StoreOp::I32Store, MemArg::offset(128, 2)),
        ];
        body.extend(canonical_tail(0, Instr::I32Const(100)));
        let p = prove_loop(&body).expect("qualifies");
        assert_eq!(p.bound, LoopBound::Const(100));
        let a = &p.accesses[0];
        assert_eq!(a.coeff, 48);
        assert_eq!(a.terms, vec![(2, 4)]);
        assert_eq!(a.konst, 128);
        assert_eq!(a.bytes, 4);
    }

    #[test]
    fn rejects_written_bound_and_nested_control() {
        // Bound local written in body.
        let mut body = vec![Instr::I32Const(0), Instr::LocalSet(1)];
        body.extend(canonical_tail(0, Instr::LocalGet(1)));
        assert!(prove_loop(&body).is_none());
        // Nested control flow.
        let mut body = vec![Instr::Block {
            ty: crate::instr::BlockType::Empty,
            body: vec![],
        }];
        body.extend(canonical_tail(0, Instr::LocalGet(1)));
        assert!(prove_loop(&body).is_none());
        // Induction written twice.
        let mut body = vec![Instr::I32Const(0), Instr::LocalSet(0)];
        body.extend(canonical_tail(0, Instr::LocalGet(1)));
        assert!(prove_loop(&body).is_none());
    }

    #[test]
    fn unprovable_address_is_omitted_not_fatal() {
        // a[b[i]]-style double indirection: the outer access address
        // flows through a load, so only the inner one is proven.
        let mut body = vec![
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::Num(NumOp::I32Shl),
            Instr::Load(LoadOp::I32Load, MemArg::offset(0, 2)),
            Instr::Load(LoadOp::I32Load, MemArg::offset(4096, 2)),
            Instr::Drop,
        ];
        body.extend(canonical_tail(0, Instr::LocalGet(1)));
        let p = prove_loop(&body).expect("shape qualifies");
        assert_eq!(p.accesses.len(), 1);
        assert_eq!(p.accesses[0].index, 3);
        assert_eq!(p.accesses[0].coeff, 4);
    }

    #[test]
    fn negative_step_rejected() {
        let mut body = vec![Instr::Nop];
        body.extend(vec![
            Instr::LocalGet(0),
            Instr::I32Const(-1),
            Instr::Num(NumOp::I32Add),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Num(NumOp::I32LtS),
            Instr::BrIf(0),
        ]);
        assert!(prove_loop(&body).is_none());
    }
}
