//! The loop-based optimisation (§3.6): hoist counter increments out of
//! counted loop bodies.
//!
//! A loop is hoistable when its body is straight-line code ending in a
//! single `br_if 0` back-edge and contains exactly one local that is
//! written exactly once, via the constant-step increment pattern
//! `local.get $i; i32.const k; i32.add; local.set/tee $i`. The paper's
//! anti-cheat rule — "only one single write access to the loop
//! variable which has to be executed in every loop iteration" — is
//! enforced structurally: any second write, any branch, any call, or
//! any nested control flow disqualifies the loop.
//!
//! For a hoisted loop the per-iteration increments are zeroed and the
//! instrumenter instead saves the induction variable before the loop
//! and, after the loop, adds `((i_end - i_start) / k) * W` to the
//! counter (a [`Charge::Trips`]), where `W` is the per-iteration
//! weight.

use acctee_wasm::charge::{self, Charge};
use acctee_wasm::instr::Instr;
use acctee_wasm::op::NumOp;
use acctee_wasm::types::ValType;

use crate::segment::Item;

/// A detected induction variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Induction {
    local: u32,
    step: i32,
}

/// Scans a straight-line body for the unique once-written
/// constant-step local. Returns `None` if no local qualifies.
fn find_induction(instrs: &[&Instr]) -> Option<Induction> {
    use std::collections::HashMap;
    let mut writes: HashMap<u32, u32> = HashMap::new();
    for i in instrs {
        match i {
            Instr::LocalSet(x) | Instr::LocalTee(x) => *writes.entry(*x).or_insert(0) += 1,
            _ => {}
        }
    }
    // Find increment patterns whose local is written exactly once.
    let mut found: Option<Induction> = None;
    for w in instrs.windows(4) {
        if let [Instr::LocalGet(a), Instr::I32Const(k), Instr::Num(NumOp::I32Add), last] = w {
            let written = match last {
                Instr::LocalSet(b) | Instr::LocalTee(b) => Some(*b),
                _ => None,
            };
            if written == Some(*a) && *k > 0 && writes.get(a) == Some(&1) {
                if found.is_some() {
                    // Two candidate induction variables: ambiguous, and
                    // either would be correct; keep the first.
                    continue;
                }
                found = Some(Induction {
                    local: *a,
                    step: *k,
                });
            }
        }
    }
    found
}

/// Checks the body shape and extracts the instruction view if the loop
/// qualifies.
fn straight_line_ending_in_backedge(body: &[Item]) -> Option<Vec<&Instr>> {
    let mut instrs: Vec<&Instr> = Vec::new();
    let mut saw_br_if = false;
    for item in body {
        match item {
            Item::Flush(_) => {}
            Item::Block { .. } | Item::Loop { .. } | Item::If { .. } => return None,
            Item::Instr(i) => {
                if saw_br_if {
                    return None; // anything after the back-edge
                }
                match i {
                    Instr::BrIf(0) => saw_br_if = true,
                    Instr::Br(_)
                    | Instr::BrIf(_)
                    | Instr::BrTable { .. }
                    | Instr::Return
                    | Instr::Unreachable
                    | Instr::Call(_)
                    | Instr::CallIndirect(_) => return None,
                    _ => instrs.push(i),
                }
            }
        }
    }
    if saw_br_if {
        Some(instrs)
    } else {
        None
    }
}

/// Zeroes the loop body's flushes and returns their sum, the weight of
/// one trip.
fn take_loop_flushes(body: &[Item], amounts: &mut [u64]) -> u64 {
    body.iter()
        .map(|i| match i {
            Item::Flush(id) => std::mem::take(&mut amounts[*id]),
            _ => 0,
        })
        .sum()
}

/// Applies the loop-based optimisation to an item tree: returns the
/// rewritten items, zeroes the hoisted loops' flushes in `amounts` and
/// counts the loops in `hoisted`. `locals`/`n_params` describe the
/// enclosing function so fresh save-locals can be allocated.
pub(crate) fn hoist_loops(
    items: Vec<Item>,
    amounts: &mut [u64],
    counter: u32,
    locals: &mut Vec<ValType>,
    n_params: u32,
    hoisted: &mut usize,
) -> Vec<Item> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Item::Loop { ty, body } => {
                let qualifies = straight_line_ending_in_backedge(&body)
                    .and_then(|instrs| find_induction(&instrs));
                match qualifies {
                    Some(ind) => {
                        let per_iteration = take_loop_flushes(&body, amounts);
                        if per_iteration == 0 {
                            out.push(Item::Loop { ty, body });
                            continue;
                        }
                        locals.push(ValType::I32);
                        let saved = n_params + locals.len() as u32 - 1;
                        out.push(Item::Instr(Instr::LocalGet(ind.local)));
                        out.push(Item::Instr(Instr::LocalSet(saved)));
                        out.push(Item::Loop { ty, body });
                        let update = Charge::Trips {
                            global: counter,
                            i: ind.local,
                            saved,
                            step: ind.step,
                            k: per_iteration as i64,
                        };
                        out.extend(charge::emit(&update).into_iter().map(Item::Instr));
                        *hoisted += 1;
                    }
                    None => {
                        let body = hoist_loops(body, amounts, counter, locals, n_params, hoisted);
                        out.push(Item::Loop { ty, body });
                    }
                }
            }
            Item::Block { ty, body } => {
                let body = hoist_loops(body, amounts, counter, locals, n_params, hoisted);
                out.push(Item::Block { ty, body });
            }
            Item::If { ty, then, els } => {
                let then = hoist_loops(then, amounts, counter, locals, n_params, hoisted);
                let els = hoist_loops(els, amounts, counter, locals, n_params, hoisted);
                out.push(Item::If { ty, then, els });
            }
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{instrument, Level, COUNTER_EXPORT};
    use crate::weights::WeightTable;
    use acctee_interp::{Config, CountingObserver, Engine, Imports, Instance, Value};
    use acctee_wasm::builder::{Bound, ModuleBuilder};
    use acctee_wasm::instr::BlockType;
    use acctee_wasm::validate::validate_module;
    use acctee_wasm::Module;

    /// The accounting oracle: always the tree-walker, whatever the
    /// default engine is.
    fn oracle_instance(m: &Module) -> Instance<'_> {
        let cfg = Config {
            engine: Engine::Tree,
            ..Config::default()
        };
        Instance::with_config(m, Imports::new(), cfg).expect("instantiate oracle")
    }

    fn counted_loop_module() -> Module {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.local_get(acc);
                f.i64_const(3);
                f.num(NumOp::I64Add);
                f.local_set(acc);
            });
            f.local_get(acc);
        });
        b.export_func("f", f);
        b.build()
    }

    #[test]
    fn counted_loop_is_hoisted_and_exact() {
        let m = counted_loop_module();
        let w = WeightTable::uniform();
        let inst = instrument(&m, Level::LoopBased, &w).unwrap();
        assert_eq!(inst.stats.loops_hoisted, 1);
        validate_module(&inst.module).unwrap();

        for n in [1, 2, 50] {
            let mut oracle = CountingObserver::unit();
            let mut orig = oracle_instance(&m);
            orig.invoke_observed("f", &[Value::I32(n)], &mut oracle)
                .unwrap();
            let mut run = Instance::new(&inst.module, Imports::new()).unwrap();
            run.invoke("f", &[Value::I32(n)]).unwrap();
            let counter = run.global(COUNTER_EXPORT).unwrap().as_i64() as u64;
            assert_eq!(counter, oracle.count, "n={n}");
        }
    }

    /// A step past `u16::MAX` is still hoisted, though the register
    /// tier leaves such a closed form unfused (its fused op holds the
    /// step in 16 bits): both engines must charge what the oracle
    /// counts.
    #[test]
    fn wide_step_loop_is_hoisted_and_exact_on_both_engines() {
        const STEP: i32 = 70_000;
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[], |f| {
            let i = f.local(ValType::I32);
            f.loop_(BlockType::Empty, |f| {
                f.local_get(i).i32_const(STEP).i32_add().local_set(i);
                f.local_get(i);
                f.local_get(0);
                f.i32_lt_s();
                f.br_if(0);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        let inst = instrument(&m, Level::LoopBased, &WeightTable::uniform()).unwrap();
        assert_eq!(inst.stats.loops_hoisted, 1);
        for n in [0, STEP, 5 * STEP, 5 * STEP + 1] {
            let mut oracle = CountingObserver::unit();
            let mut orig = oracle_instance(&m);
            orig.invoke_observed("f", &[Value::I32(n)], &mut oracle)
                .unwrap();
            for engine in [Engine::Tree, Engine::Regs] {
                let cfg = Config {
                    engine,
                    ..Config::default()
                };
                let mut run = Instance::with_config(&inst.module, Imports::new(), cfg).unwrap();
                run.invoke("f", &[Value::I32(n)]).unwrap();
                let counter = run.global(COUNTER_EXPORT).unwrap().as_i64() as u64;
                assert_eq!(counter, oracle.count, "{engine:?} n={n}");
            }
        }
    }

    #[test]
    fn hoisted_loop_has_no_inloop_increments() {
        let m = counted_loop_module();
        let w = WeightTable::uniform();
        let inst = instrument(&m, Level::LoopBased, &w).unwrap();
        // Find the loop in the instrumented body and assert no
        // global.set of the counter inside it.
        fn loop_has_counter_write(body: &[Instr], counter: u32) -> bool {
            body.iter().any(|i| match i {
                Instr::Loop { body, .. } => body
                    .iter()
                    .any(|j| matches!(j, Instr::GlobalSet(c) if *c == counter)),
                Instr::Block { body, .. } => loop_has_counter_write(body, counter),
                Instr::If { then, els, .. } => {
                    loop_has_counter_write(then, counter) || loop_has_counter_write(els, counter)
                }
                _ => false,
            })
        }
        assert!(!loop_has_counter_write(
            &inst.module.funcs[0].body,
            inst.counter_global
        ));
    }

    #[test]
    fn double_write_to_loop_variable_disqualifies() {
        // The paper's attack: decrement the loop variable again so the
        // hoisted iteration count would be wrong. Must NOT be hoisted.
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[], |f| {
            let i = f.local(ValType::I32);
            f.loop_(BlockType::Empty, |f| {
                // i += 2
                f.local_get(i).i32_const(2).i32_add().local_set(i);
                // i -= 1 (second write!)
                f.local_get(i).i32_const(-1).i32_add().local_set(i);
                f.local_get(i);
                f.local_get(0);
                f.i32_lt_s();
                f.br_if(0);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        let inst = instrument(&m, Level::LoopBased, &WeightTable::uniform()).unwrap();
        assert_eq!(inst.stats.loops_hoisted, 0);
        // And the accounting is still exact.
        let mut oracle = CountingObserver::unit();
        let mut orig = oracle_instance(&m);
        orig.invoke_observed("f", &[Value::I32(10)], &mut oracle)
            .unwrap();
        let mut run = Instance::new(&inst.module, Imports::new()).unwrap();
        run.invoke("f", &[Value::I32(10)]).unwrap();
        assert_eq!(
            run.global(COUNTER_EXPORT).unwrap().as_i64() as u64,
            oracle.count
        );
    }

    #[test]
    fn loops_with_calls_or_branches_not_hoisted() {
        let mut b = ModuleBuilder::new();
        let helper = b.func("h", &[], &[], |_| {});
        let f = b.func("f", &[ValType::I32], &[], |f| {
            let i = f.local(ValType::I32);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.call(helper);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        let inst = instrument(&m, Level::LoopBased, &WeightTable::uniform()).unwrap();
        assert_eq!(inst.stats.loops_hoisted, 0);
    }

    #[test]
    fn nested_control_in_loop_body_not_hoisted_but_inner_loops_are() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let j = f.local(ValType::I32);
            let acc = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.for_loop(j, Bound::Const(0), Bound::Const(8), |f| {
                    f.local_get(acc);
                    f.i64_const(1);
                    f.num(NumOp::I64Add);
                    f.local_set(acc);
                });
            });
            f.local_get(acc);
        });
        b.export_func("f", f);
        let m = b.build();
        let inst = instrument(&m, Level::LoopBased, &WeightTable::uniform()).unwrap();
        // Inner loop hoistable; outer (contains nested loop) is not.
        assert_eq!(inst.stats.loops_hoisted, 1);
        // Exactness still holds.
        for n in [0, 1, 5] {
            let mut oracle = CountingObserver::unit();
            let mut orig = oracle_instance(&m);
            orig.invoke_observed("f", &[Value::I32(n)], &mut oracle)
                .unwrap();
            let mut run = Instance::new(&inst.module, Imports::new()).unwrap();
            run.invoke("f", &[Value::I32(n)]).unwrap();
            assert_eq!(
                run.global(COUNTER_EXPORT).unwrap().as_i64() as u64,
                oracle.count,
                "n={n}"
            );
        }
    }

    #[test]
    fn induction_detection() {
        let gets = |l| Instr::LocalGet(l);
        let k = |v| Instr::I32Const(v);
        let add = Instr::Num(NumOp::I32Add);
        let set = |l| Instr::LocalSet(l);
        let seq = [gets(2), k(1), add.clone(), set(2)];
        let view: Vec<&Instr> = seq.iter().collect();
        assert_eq!(find_induction(&view), Some(Induction { local: 2, step: 1 }));
        // Zero or negative step: not accepted.
        let seq = [gets(2), k(0), add.clone(), set(2)];
        let view: Vec<&Instr> = seq.iter().collect();
        assert_eq!(find_induction(&view), None);
        // Written twice: not accepted.
        let seq = [
            gets(2),
            k(1),
            add.clone(),
            set(2),
            gets(2),
            k(1),
            add,
            set(2),
        ];
        let view: Vec<&Instr> = seq.iter().collect();
        assert_eq!(find_induction(&view), None);
    }
}
