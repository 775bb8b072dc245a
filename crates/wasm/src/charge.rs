//! The meter's injected code, defined once: the two charge sequences
//! an accounting instrumenter adds to a module, on a counter global
//! that nothing else touches (paper §3.4-3.5).
//!
//! [`emit`] is the only code that spells them. `acctee-instrument`
//! emits every charge through it; the register tier of `acctee-interp`
//! finds charges with [`recognize`], which accepts a window only if
//! [`emit`] reproduces it, so the two cannot drift apart. Whether a
//! recognised charge may be fused is the consumer's decision.

use crate::instr::Instr;
use crate::op::NumOp;

/// Name under which an instrumented module exports its counter global,
/// so the embedder (the accounting enclave) can read it.
pub const COUNTER_EXPORT: &str = "__acctee_wic";

/// One charge to an i64 counter global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// `global += k`, closing a segment of weight `k`.
    Add { global: u32, k: i64 },
    /// `global += i64((i - saved) / step) * k`, after a hoisted loop
    /// (§3.6) whose induction local `i` advanced by `step` per trip
    /// from the value saved in local `saved`, at weight `k` per trip.
    Trips {
        global: u32,
        i: u32,
        saved: u32,
        step: i32,
        k: i64,
    },
}

/// The instruction sequence of `charge`.
pub fn emit(charge: &Charge) -> Vec<Instr> {
    use Instr::{GlobalGet, GlobalSet, I32Const, I64Const, LocalGet, Num};
    use NumOp::{I32DivS, I32Sub, I64Add, I64ExtendI32S, I64Mul};
    match *charge {
        Charge::Add { global, k } => {
            vec![
                GlobalGet(global),
                I64Const(k),
                Num(I64Add),
                GlobalSet(global),
            ]
        }
        Charge::Trips {
            global,
            i,
            saved,
            step,
            k,
        } => vec![
            GlobalGet(global),
            LocalGet(i),
            LocalGet(saved),
            Num(I32Sub),
            I32Const(step),
            Num(I32DivS),
            Num(I64ExtendI32S),
            I64Const(k),
            Num(I64Mul),
            Num(I64Add),
            GlobalSet(global),
        ],
    }
}

/// Matches a charge at the start of `w`: the charge and its window
/// length, or `None` if `w` does not start with one.
pub fn recognize(w: &[Instr]) -> Option<(Charge, usize)> {
    use Instr::{GlobalGet, I32Const, I64Const, LocalGet};
    // Read the operands from where `emit` puts them; comparing with
    // its output checks the rest of the window.
    let charge = match *w {
        [GlobalGet(global), I64Const(k), ..] => Charge::Add { global, k },
        [GlobalGet(global), LocalGet(i), LocalGet(saved), _, I32Const(step), _, _, I64Const(k), ..] => {
            Charge::Trips {
                global,
                i,
                saved,
                step,
                k,
            }
        }
        _ => return None,
    };
    let code = emit(&charge);
    (w.get(..code.len()) == Some(&code[..])).then_some((charge, code.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded xorshift64 stream, so a failing case replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn charge(&mut self) -> Charge {
            let global = self.next() as u32;
            let k = self.next() as i64;
            if self.next() & 1 == 0 {
                Charge::Add { global, k }
            } else {
                Charge::Trips {
                    global,
                    i: self.next() as u32,
                    saved: self.next() as u32,
                    step: self.next() as i32,
                    k,
                }
            }
        }
    }

    #[test]
    fn emitted_charges_round_trip_and_nothing_shorter_matches() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..10_000 {
            let charge = rng.charge();
            let code = emit(&charge);
            assert_eq!(recognize(&code), Some((charge, code.len())), "{charge:?}");
            // Trailing code is not part of the window.
            let mut longer = code.clone();
            longer.push(Instr::Nop);
            assert_eq!(recognize(&longer), Some((charge, code.len())));
            for n in 0..code.len() {
                assert_eq!(recognize(&code[..n]), None, "{charge:?} prefix {n}");
            }
            // The write-back must name the global that was read.
            let mut other = code.clone();
            let (Charge::Add { global, .. } | Charge::Trips { global, .. }) = charge;
            *other.last_mut().unwrap() = Instr::GlobalSet(global ^ 1);
            assert_eq!(recognize(&other), None, "{charge:?}");
        }
    }

    #[test]
    fn every_operator_of_the_window_is_checked() {
        let trips = Charge::Trips {
            global: 3,
            i: 1,
            saved: 2,
            step: 4,
            k: 9,
        };
        for charge in [Charge::Add { global: 3, k: 9 }, trips] {
            let code = emit(&charge);
            for at in 0..code.len() {
                let mut bent = code.clone();
                bent[at] = Instr::Nop;
                assert_eq!(recognize(&bent), None, "{charge:?} at {at}");
            }
        }
    }
}
