//! Differential testing of the two execution engines.
//!
//! The tree-walker is the semantic oracle; the register tier must be
//! indistinguishable from it for *any* module: bit-identical results,
//! identical traps (kind and position, as witnessed by `ExecStats` and
//! remaining fuel), identical `ExecStats`, and identical observer
//! counts — across all delivery modes (null, per-instruction,
//! weighted). Every route by which the register tier hands an invoke
//! to the tree-walker (fuel, a per-instruction observer, a weights-key
//! mismatch, an unweighted artifact, a module the register compiler
//! declines) is asserted here on `Engine::Regs` as well.
//!
//! Programs come from a control-flow-heavy generator (blocks, loops,
//! ifs, br_table, direct/indirect calls, memory traffic, occasional
//! traps), from the PolyBench workload suite, and from directed trap
//! cases.

use acctee::Deployment;
use acctee_instrument::{instrument, Level, WeightTable, COUNTER_EXPORT};
use acctee_integration::prop::{check, Rng};
use acctee_interp::{
    Accounting, CompiledModule, Config, CountingObserver, Engine, ExecStats, Imports, Instance,
    InstrWeights, Observer, Trap, Value, WeightsKey,
};
use acctee_wasm::builder::{Bound, FuncBuilder, ModuleBuilder};
use acctee_wasm::instr::{BlockType, Instr};
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};
use acctee_wasm::types::ValType;
use acctee_wasm::Module;

// ---------------------------------------------------------------- runner

/// Everything observable about one execution, with float results
/// normalised to bit patterns (NaN-exact comparison).
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<(ValType, u64)>, Trap>,
    stats: ExecStats,
    fuel_left: Option<u64>,
    count: Option<u64>,
}

fn value_bits(v: &Value) -> (ValType, u64) {
    let bits = match *v {
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(x) => u64::from(x.to_bits()),
        Value::F64(x) => x.to_bits(),
    };
    (v.ty(), bits)
}

#[derive(Debug, Clone, Copy)]
enum Obs {
    Null,
    Counting,
    /// A [`SegCounter`] on an artifact lowered with [`unit_weights`].
    Weighted,
}

/// The key of [`unit_weights`].
const UNIT_KEY: WeightsKey = WeightsKey([0x01; 32]);

/// Every instruction weighs 1, so a segment's weighted sum is its
/// instruction count.
fn unit_weights() -> InstrWeights {
    InstrWeights::new(UNIT_KEY, |_| 1)
}

/// A unit-weight counter on weighted delivery. On the register tier,
/// through an artifact lowered with [`unit_weights`], it receives one
/// `on_weighted_block` per segment, read off the segment prefix sums;
/// everywhere else it counts per instruction. Either way the total is
/// the executed instruction count.
#[derive(Debug, Default)]
struct SegCounter {
    count: u64,
}

impl Observer for SegCounter {
    fn on_instr(&mut self, _: &Instr) {
        self.count += 1;
    }

    fn on_weighted_block(&mut self, instrs: u64, weighted: u64) {
        assert_eq!(instrs, weighted, "unit weights: a segment weighs its count");
        self.count += weighted;
    }

    fn accounting(&self) -> Accounting {
        Accounting::Weighted(UNIT_KEY)
    }
}

fn run(
    module: &Module,
    imports: Imports,
    engine: Engine,
    fuel: Option<u64>,
    obs: Obs,
    func: &str,
    args: &[Value],
) -> Outcome {
    let cfg = Config {
        fuel,
        engine,
        ..Config::default()
    };
    let mut inst = match obs {
        Obs::Weighted => {
            let art = CompiledModule::compile_weighted(module, unit_weights()).expect("artifact");
            Instance::with_artifact(module, imports, cfg, art)
        }
        Obs::Null | Obs::Counting => Instance::with_config(module, imports, cfg),
    }
    .expect("instantiate");
    let (result, count) = match obs {
        Obs::Null => (inst.invoke(func, args), None),
        Obs::Counting => {
            let mut c = CountingObserver::unit();
            let r = inst.invoke_observed(func, args, &mut c);
            (r, Some(c.count))
        }
        Obs::Weighted => {
            let mut c = SegCounter::default();
            let r = inst.invoke_observed(func, args, &mut c);
            (r, Some(c.count))
        }
    };
    Outcome {
        result: result.map(|vs| vs.iter().map(value_bits).collect()),
        stats: inst.stats(),
        fuel_left: inst.remaining_fuel(),
        count,
    }
}

/// The flagship assertion: both engines agree on results, traps,
/// stats, fuel and counts, in every dispatch mode. Returns the oracle
/// outcome for further checks.
fn assert_engines_agree(
    module: &Module,
    mk_imports: &dyn Fn() -> Imports,
    func: &str,
    args: &[Value],
    fuel: Option<u64>,
) -> Outcome {
    // Oracle runs: per-instruction observed and null-observer modes
    // must themselves agree on stats.
    let t = run(
        module,
        mk_imports(),
        Engine::Tree,
        fuel,
        Obs::Counting,
        func,
        args,
    );
    let tn = run(
        module,
        mk_imports(),
        Engine::Tree,
        fuel,
        Obs::Null,
        func,
        args,
    );
    assert_eq!(t.stats, tn.stats, "observer choice changed tree stats");
    // Observed mode: the exact per-instruction stream (the register
    // tier hands per-instruction observers to the tree-walker).
    let r = run(
        module,
        mk_imports(),
        Engine::Regs,
        fuel,
        Obs::Counting,
        func,
        args,
    );
    assert_eq!(t, r, "observed (per-instruction) mode diverged");
    // Null observer: the register tier's fastest dispatch mode.
    let rn = run(
        module,
        mk_imports(),
        Engine::Regs,
        fuel,
        Obs::Null,
        func,
        args,
    );
    assert_eq!(tn, rn, "null-observer mode diverged");
    // A segment counter must still see the exact total, including
    // partially executed segments on traps.
    let rb = run(
        module,
        mk_imports(),
        Engine::Regs,
        fuel,
        Obs::Weighted,
        func,
        args,
    );
    assert_eq!(rb.count, t.count, "fused block counts diverged from oracle");
    assert_eq!(rb.result, t.result);
    assert_eq!(rb.stats, t.stats);
    assert_eq!(rb.fuel_left, t.fuel_left);
    t
}

fn no_imports() -> Imports {
    Imports::new()
}

// ------------------------------------------------------------- generator

/// A structured statement that is valid by construction, over an i64
/// accumulator local.
#[derive(Debug, Clone)]
enum S {
    /// Straight-line accumulator updates.
    Work(u8),
    /// Two-armed conditional on the accumulator's parity.
    If(Vec<S>, Vec<S>),
    /// A counted do-while loop of `1 + n` iterations.
    Counted(u8, Vec<S>),
    /// A block with a data-dependent early exit.
    EarlyExit(Vec<S>),
    /// Two nested blocks with a `br_if 1` across both.
    OuterExit(Vec<S>),
    /// A three-way `br_table` dispatch on the accumulator.
    Switch,
    /// Direct call to the helper function.
    CallHelper,
    /// Indirect call through the table on the accumulator's parity.
    CallIndirectHelper,
    /// Store the accumulator to memory and load it back.
    MemRoundTrip,
    /// `memory.size` / `memory.grow` traffic (grow saturates at the
    /// declared maximum and yields -1 afterwards).
    Grow,
    /// `i64.rem_s` by `acc & 7` — traps with DivisionByZero on ~1/8 of
    /// accumulator values, exercising trap equivalence mid-program.
    DivMaybeTrap,
}

fn gen_program(rng: &mut Rng, depth: u32) -> Vec<S> {
    let len = rng.range(1, 5);
    (0..len).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut Rng, depth: u32) -> S {
    let choice = if depth == 0 {
        // Leaves only.
        [0, 5, 6, 7, 8, 9][rng.range(0, 6)]
    } else {
        rng.range(0, 12)
    };
    match choice {
        0 | 10 => S::Work(rng.range(1, 6) as u8),
        1 => S::If(gen_body(rng, depth), gen_body(rng, depth)),
        2 => S::Counted(rng.range(0, 4) as u8, gen_body(rng, depth)),
        3 => S::EarlyExit(gen_body(rng, depth)),
        4 => S::OuterExit(gen_body(rng, depth)),
        5 => S::Switch,
        6 => S::CallHelper,
        7 => S::CallIndirectHelper,
        8 => S::MemRoundTrip,
        9 => S::Grow,
        _ => S::DivMaybeTrap,
    }
}

fn gen_body(rng: &mut Rng, depth: u32) -> Vec<S> {
    let len = rng.range(0, 3);
    (0..len).map(|_| gen_stmt(rng, depth - 1)).collect()
}

struct Compiler {
    acc: u32,
    salt: i64,
}

impl Compiler {
    /// Emits `acc = acc <op> const`.
    fn update(&mut self, f: &mut FuncBuilder, k: u8) {
        self.salt = self.salt.wrapping_mul(31).wrapping_add(7);
        f.local_get(self.acc);
        f.i64_const(self.salt | 1);
        f.num(match k % 3 {
            0 => NumOp::I64Add,
            1 => NumOp::I64Xor,
            _ => NumOp::I64Mul,
        });
        f.local_set(self.acc);
    }

    /// Pushes `(acc & mask) as i32`.
    fn acc_i32(&self, f: &mut FuncBuilder, mask: i64) {
        f.local_get(self.acc);
        f.i64_const(mask);
        f.num(NumOp::I64And);
        f.num(NumOp::I32WrapI64);
    }

    #[allow(clippy::too_many_lines)]
    fn compile(&mut self, f: &mut FuncBuilder, stmts: &[S]) {
        for s in stmts {
            match s {
                S::Work(n) => {
                    for k in 0..*n {
                        self.update(f, k);
                    }
                }
                S::If(t, e) => {
                    self.acc_i32(f, 1);
                    let cell = std::cell::RefCell::new(std::mem::replace(
                        self,
                        Compiler { acc: 0, salt: 0 },
                    ));
                    f.if_else(
                        BlockType::Empty,
                        |f| cell.borrow_mut().compile(f, t),
                        |f| cell.borrow_mut().compile(f, e),
                    );
                    *self = cell.into_inner();
                }
                S::Counted(n, body) => {
                    let var = f.local(ValType::I32);
                    let mut this = std::mem::replace(self, Compiler { acc: 0, salt: 0 });
                    f.for_loop(
                        var,
                        acctee_wasm::builder::Bound::Const(0),
                        acctee_wasm::builder::Bound::Const(i32::from(*n) + 1),
                        |f| {
                            this.compile(f, body);
                            f.local_get(this.acc);
                            f.i64_const(1);
                            f.num(NumOp::I64Add);
                            f.local_set(this.acc);
                        },
                    );
                    *self = this;
                }
                S::EarlyExit(body) => {
                    let mut this = std::mem::replace(self, Compiler { acc: 0, salt: 0 });
                    f.block(BlockType::Empty, |f| {
                        this.compile(f, body);
                        this.acc_i32(f, 3);
                        f.num(NumOp::I32Eqz);
                        f.br_if(0);
                        f.local_get(this.acc);
                        f.i64_const(5);
                        f.num(NumOp::I64Add);
                        f.local_set(this.acc);
                    });
                    *self = this;
                }
                S::OuterExit(body) => {
                    let mut this = std::mem::replace(self, Compiler { acc: 0, salt: 0 });
                    f.block(BlockType::Empty, |f| {
                        f.block(BlockType::Empty, |f| {
                            this.compile(f, body);
                            this.acc_i32(f, 7);
                            f.num(NumOp::I32Eqz);
                            f.br_if(1);
                            f.local_get(this.acc);
                            f.i64_const(3);
                            f.num(NumOp::I64Add);
                            f.local_set(this.acc);
                        });
                        f.local_get(this.acc);
                        f.i64_const(9);
                        f.num(NumOp::I64Xor);
                        f.local_set(this.acc);
                    });
                    *self = this;
                }
                S::Switch => {
                    let acc = self.acc;
                    let acc_i32 = |f: &mut FuncBuilder| {
                        f.local_get(acc);
                        f.i64_const(3);
                        f.num(NumOp::I64And);
                        f.num(NumOp::I32WrapI64);
                    };
                    f.block(BlockType::Empty, |f| {
                        f.block(BlockType::Empty, |f| {
                            f.block(BlockType::Empty, |f| {
                                acc_i32(f);
                                f.emit(Instr::BrTable {
                                    targets: vec![0, 1],
                                    default: 2,
                                });
                            });
                            // case 0
                            f.local_get(acc);
                            f.i64_const(11);
                            f.num(NumOp::I64Add);
                            f.local_set(acc);
                            f.br(1);
                        });
                        // case 1 (cases 2/3 skip this via the default)
                        f.local_get(acc);
                        f.i64_const(3);
                        f.num(NumOp::I64Mul);
                        f.i64_const(1);
                        f.num(NumOp::I64Add);
                        f.local_set(acc);
                    });
                }
                S::CallHelper => {
                    f.local_get(self.acc);
                    f.call(HELPER_IDX);
                    f.local_set(self.acc);
                }
                S::CallIndirectHelper => {
                    f.local_get(self.acc);
                    self.acc_i32(f, 1);
                    f.emit(Instr::CallIndirect(0));
                    f.local_set(self.acc);
                }
                S::MemRoundTrip => {
                    self.acc_i32(f, 0xff);
                    f.i32_const(3);
                    f.num(NumOp::I32Shl);
                    f.local_get(self.acc);
                    f.store(StoreOp::I64Store, 8);
                    self.acc_i32(f, 0xff);
                    f.i32_const(3);
                    f.num(NumOp::I32Shl);
                    f.load(LoadOp::I64Load, 8);
                    f.local_get(self.acc);
                    f.num(NumOp::I64Add);
                    f.local_set(self.acc);
                }
                S::Grow => {
                    f.i32_const(1);
                    f.emit(Instr::MemoryGrow);
                    f.emit(Instr::MemorySize);
                    f.num(NumOp::I32Add);
                    f.num(NumOp::I64ExtendI32S);
                    f.local_get(self.acc);
                    f.num(NumOp::I64Add);
                    f.local_set(self.acc);
                }
                S::DivMaybeTrap => {
                    f.local_get(self.acc);
                    f.local_get(self.acc);
                    f.local_get(self.acc);
                    f.i64_const(7);
                    f.num(NumOp::I64And);
                    f.num(NumOp::I64RemS);
                    f.num(NumOp::I64Xor);
                    f.local_set(self.acc);
                }
            }
        }
    }
}

/// Function index of the direct-call helper (declared first).
const HELPER_IDX: u32 = 0;

/// Builds a module with `run(seed: i64) -> i64` around the generated
/// program, two same-typed helpers reachable through the table, a
/// memory and control-flow-heavy helper bodies.
fn build_module(prog: &[S]) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(2));
    b.table(2, None);
    // Helper 0: nested early-exit block.
    let h = b.func("h", &[ValType::I64], &[ValType::I64], |f| {
        f.block(BlockType::Value(ValType::I64), |f| {
            f.local_get(0);
            f.i64_const(2);
            f.num(NumOp::I64Mul);
            f.i64_const(1);
            f.num(NumOp::I64Add);
            f.local_get(0);
            f.i64_const(15);
            f.num(NumOp::I64And);
            f.num(NumOp::I64Eqz);
            f.br_if(0);
            f.i64_const(7);
            f.num(NumOp::I64Xor);
        });
    });
    assert_eq!(h, HELPER_IDX);
    // Helper 1: small counted loop.
    let h2 = b.func("h2", &[ValType::I64], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I64);
        f.local_get(0);
        f.local_set(acc);
        f.for_loop(
            i,
            acctee_wasm::builder::Bound::Const(0),
            acctee_wasm::builder::Bound::Const(3),
            |f| {
                f.local_get(acc);
                f.i64_const(3);
                f.num(NumOp::I64Mul);
                f.i64_const(5);
                f.num(NumOp::I64Sub);
                f.local_set(acc);
            },
        );
        f.local_get(acc);
    });
    let run = b.func("run", &[ValType::I64], &[ValType::I64], |f| {
        let acc = f.local(ValType::I64);
        f.local_get(0);
        f.local_set(acc);
        let mut c = Compiler { acc, salt: 0x5eed };
        c.compile(f, prog);
        f.local_get(acc);
    });
    b.elem(0, &[h, h2]);
    b.export_func("run", run);
    b.build()
}

// ----------------------------------------------------------------- tests

/// Arbitrary control-flow-heavy programs: engines agree in all
/// dispatch modes, with no fuel limit.
#[test]
fn generated_programs_agree() {
    check("generated_programs_agree", 48, |rng| {
        let prog = gen_program(rng, 3);
        let module = build_module(&prog);
        acctee_wasm::validate::validate_module(&module).expect("generated module valid");
        let seed = rng.i64();
        assert_engines_agree(&module, &no_imports, "run", &[Value::I64(seed)], None);
    });
}

/// Fuel exactness: for budgets swept around the exact consumption,
/// both engines trap at the same instruction with the same remaining
/// fuel — including budgets that expire mid-call or mid-block.
#[test]
fn fuel_budgets_agree() {
    check("fuel_budgets_agree", 12, |rng| {
        let prog = gen_program(rng, 2);
        let module = build_module(&prog);
        acctee_wasm::validate::validate_module(&module).expect("generated module valid");
        let seed = rng.i64();
        let args = [Value::I64(seed)];
        let free = assert_engines_agree(&module, &no_imports, "run", &args, None);
        let used = free.count.expect("counted");
        let mut budgets = vec![0, 1, 2, used / 2, used.saturating_sub(1), used, used + 1];
        budgets.push(rng.below(used.max(1)));
        for fuel in budgets {
            assert_engines_agree(&module, &no_imports, "run", &args, Some(fuel));
        }
    });
}

/// The PolyBench suite (the benchmark workloads the speedup claim is
/// measured on) produces bit-identical numeric results and stats.
#[test]
fn polybench_agrees() {
    for k in acctee_workloads::polybench::all() {
        let module = (k.build)(6);
        let out = assert_engines_agree(&module, &no_imports, "run", &[], None);
        assert!(out.result.is_ok(), "{} trapped", k.name);
    }
}

/// Directed trap cases: every trap kind lands identically.
#[test]
fn directed_traps_agree() {
    // unreachable
    let m = single_func(&[], |f| {
        f.emit(Instr::Unreachable);
    });
    let out = assert_engines_agree(&m, &no_imports, "f", &[], None);
    assert_eq!(out.result, Err(Trap::Unreachable));

    // division by zero / overflow / invalid conversion
    for (op, args, trap) in [
        (
            NumOp::I32DivS,
            [Value::I32(1), Value::I32(0)],
            Trap::DivisionByZero,
        ),
        (
            NumOp::I32DivS,
            [Value::I32(i32::MIN), Value::I32(-1)],
            Trap::IntegerOverflow,
        ),
        (
            NumOp::I32RemU,
            [Value::I32(5), Value::I32(0)],
            Trap::DivisionByZero,
        ),
    ] {
        let m = single_func(&[ValType::I32, ValType::I32], |f| {
            f.local_get(0);
            f.local_get(1);
            f.num(op);
        });
        let out = assert_engines_agree(&m, &no_imports, "f", &args, None);
        assert_eq!(out.result, Err(trap));
    }
    let m = single_func(&[], |f| {
        f.f64_const(1e300);
        f.num(NumOp::I32TruncF64S);
    });
    let out = assert_engines_agree(&m, &no_imports, "f", &[], None);
    assert_eq!(out.result, Err(Trap::InvalidConversion));

    // memory out of bounds, load and store (the trapping access is
    // still counted in stats on both engines)
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.i32_const(42);
        f.i32_store(0);
        f.local_get(0);
        f.i32_load(0);
    });
    b.export_func("f", f);
    let m = b.build();
    let ok = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(64)], None);
    assert!(ok.result.is_ok());
    let oob = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(-4)], None);
    assert!(matches!(oob.result, Err(Trap::MemoryOutOfBounds { .. })));
    assert_eq!(oob.stats.stores, 1);

    // call_indirect: out of bounds, undefined element, type mismatch
    let mut b = ModuleBuilder::new();
    b.table(3, None);
    let good = b.func("good", &[], &[ValType::I32], |f| {
        f.i32_const(7);
    });
    let bad_ty = b.func("bad_ty", &[], &[ValType::I64], |f| {
        f.i64_const(9);
    });
    let main = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.emit(Instr::CallIndirect(0));
    });
    b.elem(0, &[good, bad_ty]);
    b.export_func("f", main);
    let m = b.build();
    for (idx, want) in [
        (0, Ok(vec![(ValType::I32, 7)])),
        (1, Err(Trap::IndirectCallTypeMismatch)),
        (2, Err(Trap::UndefinedElement)),
        (9, Err(Trap::TableOutOfBounds)),
    ] {
        let out = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(idx)], None);
        assert_eq!(out.result, want);
    }
}

/// Call-stack exhaustion: recursion traps at the same depth with the
/// same call count on both engines, at several configured limits.
#[test]
fn call_depth_agrees() {
    let mut b = ModuleBuilder::new();
    let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.if_else(
            BlockType::Value(ValType::I32),
            |f| {
                f.local_get(0);
                f.i32_const(1);
                f.num(NumOp::I32Sub);
                f.call(0);
                f.i32_const(1);
                f.i32_add();
            },
            |f| {
                f.i32_const(0);
            },
        );
    });
    b.export_func("f", f);
    let m = b.build();
    for depth_limit in [0usize, 1, 2, 50] {
        for n in [0i32, 1, 40, 300] {
            let t = {
                let cfg = Config {
                    max_call_depth: depth_limit,
                    engine: Engine::Tree,
                    ..Config::default()
                };
                let mut inst = Instance::with_config(&m, Imports::new(), cfg).expect("inst");
                let r = inst.invoke("f", &[Value::I32(n)]);
                (r, inst.stats())
            };
            let r = {
                let cfg = Config {
                    max_call_depth: depth_limit,
                    engine: Engine::Regs,
                    ..Config::default()
                };
                let mut inst = Instance::with_config(&m, Imports::new(), cfg).expect("inst");
                let r = inst.invoke("f", &[Value::I32(n)]);
                (r, inst.stats())
            };
            assert_eq!(t, r, "depth_limit={depth_limit} n={n}");
        }
    }
    // Default limit: deep recursion exhausts, shallow succeeds.
    let out = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(300)], None);
    assert_eq!(out.result, Err(Trap::CallStackExhausted));
    let out = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(100)], None);
    assert_eq!(out.result, Ok(vec![(ValType::I32, 100)]));
}

/// Host imports: results, traps raised by the host, and call events
/// behave identically (the host sees the same memory either way).
#[test]
fn host_imports_agree() {
    let mut b = ModuleBuilder::new();
    let dbl = b.import_func("env", "double", &[ValType::I32], &[ValType::I32]);
    let boom = b.import_func("env", "boom", &[], &[]);
    b.memory(1, None);
    let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
        f.i32_const(16);
        f.local_get(0);
        f.i32_store(0);
        f.local_get(0);
        f.call(dbl);
        f.local_get(0);
        f.i32_const(200);
        f.i32_ge_s();
        f.if_(BlockType::Empty, |f| {
            f.call(boom);
        });
    });
    b.export_func("f", f);
    b.export_func("double", dbl);
    let m = b.build();
    let mk = || {
        Imports::new()
            .func("env", "double", |ctx, args| {
                // Read back what the guest staged, to prove the host
                // sees identical memory under both engines.
                let staged = ctx
                    .memory
                    .as_ref()
                    .and_then(|m| m.read_i32(16).ok())
                    .unwrap_or(0);
                Ok(vec![Value::I32(args[0].as_i32() + staged)])
            })
            .func("env", "boom", |_ctx, _args| {
                Err(Trap::Host("host says no".into()))
            })
    };
    let out = assert_engines_agree(&m, &mk, "f", &[Value::I32(21)], None);
    assert_eq!(out.result, Ok(vec![(ValType::I32, 42)]));
    let out = assert_engines_agree(&m, &mk, "f", &[Value::I32(400)], None);
    assert_eq!(out.result, Err(Trap::Host("host says no".into())));
    // An exported import invoked directly: the host runs with nothing
    // staged.
    let out = assert_engines_agree(&m, &mk, "double", &[Value::I32(5)], None);
    assert_eq!(out.result, Ok(vec![(ValType::I32, 5)]));
}

/// The injected weighted counter (the paper's accounting mechanism)
/// reads back identically after execution on either engine, at every
/// instrumentation level.
#[test]
fn instrumented_counter_agrees() {
    check("instrumented_counter_agrees", 16, |rng| {
        let prog = gen_program(rng, 2);
        let module = build_module(&prog);
        let seed = rng.i64();
        let weights = WeightTable::calibrated();
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let r = instrument(&module, level, &weights).expect("instrument");
            let mut counters = Vec::new();
            let mut outcomes = Vec::new();
            for engine in Engine::ALL {
                let cfg = Config {
                    engine,
                    ..Config::default()
                };
                let mut inst = Instance::with_config(&r.module, Imports::new(), cfg).expect("inst");
                let out = inst.invoke("run", &[Value::I64(seed)]);
                counters.push(inst.global(COUNTER_EXPORT).map(|v| v.as_i64()));
                outcomes.push((
                    out.map(|vs| vs.iter().map(value_bits).collect::<Vec<_>>()),
                    inst.stats(),
                ));
            }
            for k in 1..counters.len() {
                assert_eq!(counters[0], counters[k], "{level} counter diverged");
                assert_eq!(outcomes[0], outcomes[k], "{level} outcome diverged");
            }
        }
    });
}

/// Repeated invokes on one instance: the register tier reuses its
/// register arena and compiled code; accumulated stats still match
/// the tree.
#[test]
fn repeated_invokes_accumulate_identically() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(4));
    let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
        f.i32_const(1);
        f.emit(Instr::MemoryGrow);
        f.drop_();
        f.local_get(0);
        f.i32_const(3);
        f.i32_mul();
    });
    b.export_func("f", f);
    let m = b.build();
    let mut results = Vec::new();
    for engine in Engine::ALL {
        let cfg = Config {
            engine,
            ..Config::default()
        };
        let mut inst = Instance::with_config(&m, Imports::new(), cfg).expect("inst");
        let mut outs = Vec::new();
        for i in 0..6 {
            outs.push(inst.invoke("f", &[Value::I32(i)]).expect("invoke"));
        }
        results.push((outs, inst.stats()));
    }
    for k in 1..results.len() {
        assert_eq!(results[0], results[k]);
    }
    // Growth saturated at the 4-page maximum; later grows returned -1
    // but were still counted.
    assert_eq!(results[0].1.mem_grows, 6);
    assert_eq!(results[0].1.peak_memory_bytes, 4 * acctee_wasm::PAGE_SIZE);
}

fn single_func(params: &[ValType], body: impl FnOnce(&mut FuncBuilder)) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.func("f", params, &[ValType::I32], body);
    b.export_func("f", f);
    b.build()
}

// --------------------------------------- bounds-check-elimination suite

/// A canonical counted loop over `f(n, base) -> i64`: stores
/// `i * 3` to `base + 8*i`, reads it back, and accumulates. The loop
/// body matches the shape the register tier's range prover accepts,
/// so with in-range arguments the unchecked copy runs; adversarial
/// arguments must fail the hoisted guard and fall back to the checked
/// copy, trapping (or not) exactly like the oracle.
fn guarded_loop_module() -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1)); // 65536 bytes, cannot grow
    guarded_loop_in(b)
}

/// [`guarded_loop_module`]'s export `f`, added to a builder that
/// already declares the memory.
fn guarded_loop_in(mut b: ModuleBuilder) -> Module {
    let f = b.func("f", &[ValType::I32, ValType::I32], &[ValType::I64], |f| {
        let n = 0;
        let base = 1;
        let i = f.local(ValType::I32);
        let sum = f.local(ValType::I64);
        f.for_loop(
            i,
            acctee_wasm::builder::Bound::Const(0),
            acctee_wasm::builder::Bound::Local(n),
            |f| {
                // store: mem[base + 8*i] = i * 3
                f.local_get(base);
                f.local_get(i);
                f.i32_const(3);
                f.num(NumOp::I32Shl);
                f.num(NumOp::I32Add);
                f.local_get(i);
                f.num(NumOp::I64ExtendI32S);
                f.i64_const(3);
                f.num(NumOp::I64Mul);
                f.store(StoreOp::I64Store, 0);
                // load it back and accumulate
                f.local_get(sum);
                f.local_get(base);
                f.local_get(i);
                f.i32_const(3);
                f.num(NumOp::I32Shl);
                f.num(NumOp::I32Add);
                f.load(LoadOp::I64Load, 0);
                f.num(NumOp::I64Add);
                f.local_set(sum);
            },
        );
        f.local_get(sum);
    });
    b.export_func("f", f);
    b.build()
}

/// Memory is committed lazily, so the register tier's guard must
/// commit the extent it proved before the unchecked body indexes it.
/// Here a fresh instance has committed only the data segment's page
/// when the guarded loop's first store lands pages above it.
#[test]
fn guarded_loop_commits_untouched_pages() {
    const PAGE: i32 = acctee_wasm::PAGE_SIZE as i32;
    let mut b = ModuleBuilder::new();
    b.memory(16, None);
    b.data(0, b"seed");
    let m = guarded_loop_in(b);
    for (n, base, committed_pages) in [
        (8192, 3 * PAGE + 8, 5),    // pages 3..=4, last store ends at 4P+8
        (100, 16 * PAGE - 800, 16), // last access ends exactly at the top
    ] {
        let args = [Value::I32(n), Value::I32(base)];
        let out = assert_engines_agree(&m, &no_imports, "f", &args, None);
        assert!(out.result.is_ok(), "n={n} base={base}");
        for engine in Engine::ALL {
            let cfg = Config {
                engine,
                ..Config::default()
            };
            let mut inst = Instance::with_config(&m, no_imports(), cfg).expect("instantiate");
            let mem = inst.memory().expect("memory");
            assert_eq!(mem.committed_bytes(), PAGE as usize, "only the data page");
            inst.invoke("f", &args).expect("in bounds");
            let mem = inst.memory().expect("memory");
            assert_eq!(
                mem.committed_bytes(),
                committed_pages * PAGE as usize,
                "{engine:?} n={n} base={base}"
            );
        }
    }
}

/// In-bounds guarded loops: the register tier's unchecked body copy
/// produces bit-identical results, stats, and segment counts.
#[test]
fn guarded_loops_agree_in_bounds() {
    let m = guarded_loop_module();
    acctee_wasm::validate::validate_module(&m).expect("valid");
    for (n, base) in [
        (0, 0),       // loop never entered
        (1, 0),       // single iteration
        (64, 0),      // plain run
        (64, 1),      // unaligned base
        (8192, 0),    // exactly fills the page: last store at 65528
        (100, 64736), // last access ends exactly at 65536
    ] {
        let out = assert_engines_agree(
            &m,
            &no_imports,
            "f",
            &[Value::I32(n), Value::I32(base)],
            None,
        );
        assert!(out.result.is_ok(), "n={n} base={base}");
    }
}

/// Adversarial guarded loops: arguments that drive the proven access
/// pattern out of bounds (past the end, negative/huge base, address
/// wraparound, do-while entry with a hostile start) must fail the
/// hoisted guard and trap exactly where the oracle traps — same trap,
/// same partially-accumulated stats, same segment count.
#[test]
fn guarded_loops_agree_out_of_bounds() {
    let m = guarded_loop_module();
    for (n, base) in [
        (8193, 0),     // one iteration past the end of memory
        (8192, 8),     // base shift pushes the last store out
        (100, 64737),  // last access one byte past the end
        (1, 65535),    // partial access straddling the boundary
        (1, -8),       // negative base = huge u32 address
        (1, i32::MIN), // sign boundary
        (i32::MAX, 0), // bound so large the no-wrap check fails
        (1, 65529),    // base + 8 crosses by one byte
    ] {
        let out = assert_engines_agree(
            &m,
            &no_imports,
            "f",
            &[Value::I32(n), Value::I32(base)],
            None,
        );
        assert!(
            matches!(out.result, Err(Trap::MemoryOutOfBounds { .. })),
            "n={n} base={base}: expected OOB, got {:?}",
            out.result
        );
    }
    // Fuel expiring mid-loop forces the register tier's metered deopt
    // while the guard-eligible loop is hot.
    let free = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(64), Value::I32(0)], None);
    let used = free.count.expect("counted");
    for fuel in [used / 2, used - 1, used, used + 1] {
        assert_engines_agree(
            &m,
            &no_imports,
            "f",
            &[Value::I32(64), Value::I32(0)],
            Some(fuel),
        );
    }
}

/// A guarded loop whose address pattern the prover must *decline*
/// (data-dependent index loaded from memory): still agrees everywhere,
/// including when the data-dependent access goes out of bounds.
#[test]
fn unprovable_loops_agree() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let sum = f.local(ValType::I64);
        f.for_loop(
            i,
            acctee_wasm::builder::Bound::Const(0),
            acctee_wasm::builder::Bound::Local(0),
            |f| {
                // sum += mem[mem[8*i] & mask] — double indirection.
                f.local_get(sum);
                f.local_get(i);
                f.i32_const(3);
                f.num(NumOp::I32Shl);
                f.load(LoadOp::I32Load, 0);
                f.load(LoadOp::I64Load, 0);
                f.num(NumOp::I64Add);
                f.local_set(sum);
            },
        );
        f.local_get(sum);
    });
    b.export_func("f", f);
    let m = b.build();
    // Zeroed memory keeps every inner index at 0: in bounds.
    let ok = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(100)], None);
    assert!(ok.result.is_ok());
    // Walk past the outer array's end: the *outer* proven-shape access
    // itself goes out of bounds mid-loop.
    let oob = assert_engines_agree(&m, &no_imports, "f", &[Value::I32(8193)], None);
    assert!(matches!(oob.result, Err(Trap::MemoryOutOfBounds { .. })));
}

// ------------------------------------------- exhaustive numeric sweep

/// Adversarial operand values per type: zeros and signed boundaries
/// for the integers; signed zeros, NaN payloads (quiet, negative, and
/// non-canonical), infinities, subnormals and integer-conversion
/// boundaries for the floats.
fn adversarial(ty: ValType) -> Vec<Value> {
    match ty {
        ValType::I32 => [0, 1, -1, 2, i32::MIN, i32::MAX, 0x00ff_00ff, -13, 31, 32]
            .into_iter()
            .map(Value::I32)
            .collect(),
        ValType::I64 => [
            0,
            1,
            -1,
            2,
            i64::MIN,
            i64::MAX,
            0x0123_4567_89ab_cdef,
            -13,
            63,
            64,
        ]
        .into_iter()
        .map(Value::I64)
        .collect(),
        ValType::F32 => [
            0x0000_0000u32, // 0.0
            0x8000_0000,    // -0.0
            0x3f80_0000,    // 1.0
            0xbfc0_0000,    // -1.5
            0x7fc0_0000,    // canonical NaN
            0xffc0_0001,    // negative NaN with payload
            0x7f80_0000,    // inf
            0xff80_0000,    // -inf
            0x0000_0001,    // smallest subnormal
            0x4f00_0000,    // 2^31 (i32 trunc boundary)
        ]
        .into_iter()
        .map(|b| Value::F32(f32::from_bits(b)))
        .collect(),
        ValType::F64 => [
            0x0000_0000_0000_0000u64, // 0.0
            0x8000_0000_0000_0000,    // -0.0
            0x3ff0_0000_0000_0000,    // 1.0
            0xbff8_0000_0000_0000,    // -1.5
            0x7ff8_0000_0000_0000,    // canonical NaN
            0xfff8_0000_0000_0001,    // negative NaN with payload
            0x7ff0_0000_0000_0000,    // inf
            0xfff0_0000_0000_0000,    // -inf
            0x0000_0000_0000_0001,    // smallest subnormal
            0x41e0_0000_0000_0000,    // 2^31 (i32 trunc boundary)
        ]
        .into_iter()
        .map(|b| Value::F64(f64::from_bits(b)))
        .collect(),
    }
}

fn emit_const(f: &mut FuncBuilder, v: Value) {
    match v {
        Value::I32(x) => f.i32_const(x),
        Value::I64(x) => f.i64_const(x),
        Value::F32(x) => f.f32_const(x),
        Value::F64(x) => f.f64_const(x),
    };
}

/// Builds `f(params...) -> result` applying `op` once; each operand
/// comes from a param (`None`) or an embedded constant (`Some`). The
/// shapes lower to different register ops (register or constant
/// operands: `local.get; op`, `const; op`, `local.get; const; op`, ...).
fn num_module(op: NumOp, consts: &[Option<Value>]) -> Module {
    let (operands, result) = op.sig();
    let params: Vec<ValType> = operands
        .iter()
        .zip(consts)
        .filter(|(_, c)| c.is_none())
        .map(|(t, _)| *t)
        .collect();
    let mut b = ModuleBuilder::new();
    let f = b.func("f", &params, &[result], |f| {
        let mut p = 0;
        for c in consts {
            match c {
                Some(v) => emit_const(f, *v),
                None => {
                    f.local_get(p);
                    p += 1;
                }
            }
        }
        f.num(op);
    });
    b.export_func("f", f);
    b.build()
}

/// Exhaustive per-opcode differential sweep: every numeric opcode
/// runs over the adversarial operand matrix in every lowered shape —
/// operands from params, from constants, and mixed — pinning the
/// register tier's handlers generated from the shared slot op table,
/// and its constant-operand lowering, to the tree-walker bit for bit
/// (including NaN payloads and trap agreement for division and
/// truncation).
#[test]
fn numeric_ops_agree_exhaustively() {
    for op in NumOp::ALL.iter().copied() {
        let (operands, _) = op.sig();
        match *operands {
            [ta] => {
                let vals = adversarial(ta);
                let m = num_module(op, &[None]);
                for a in &vals {
                    assert_engines_agree(&m, &no_imports, "f", &[*a], None);
                    let mc = num_module(op, &[Some(*a)]);
                    assert_engines_agree(&mc, &no_imports, "f", &[], None);
                }
            }
            [ta, tb] => {
                let va = adversarial(ta);
                let vb = adversarial(tb);
                let m = num_module(op, &[None, None]);
                for a in &va {
                    for b in &vb {
                        assert_engines_agree(&m, &no_imports, "f", &[*a, *b], None);
                    }
                }
                // Constant right operand: the `local.get; const; op`
                // idiom the compiler fuses hardest.
                for b in &vb[..6] {
                    let mm = num_module(op, &[None, Some(*b)]);
                    for a in &va {
                        assert_engines_agree(&mm, &no_imports, "f", &[*a], None);
                    }
                }
                // Both constant.
                for a in &va[..4] {
                    for b in &vb[..4] {
                        let mc = num_module(op, &[Some(*a), Some(*b)]);
                        assert_engines_agree(&mc, &no_imports, "f", &[], None);
                    }
                }
            }
            _ => unreachable!("numeric ops are unary or binary"),
        }
    }
}

// ------------------------------ accounting delivery and signed logs

/// Grow-heavy modules, each exporting `f(i32) -> i32`.
fn grow_modules() -> Vec<(&'static str, Module, Vec<i32>)> {
    // A grow inside a counted loop, with arithmetic on both sides of
    // it: grows 1 page per iteration until the 16-page maximum, after
    // which every grow fails and returns -1.
    let grow_loop = {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(16));
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I32);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.local_get(acc);
                f.local_get(i);
                f.i32_const(3);
                f.i32_mul();
                f.i32_add();
                f.i32_const(1);
                f.emit(Instr::MemoryGrow);
                f.i32_add();
                f.local_set(acc);
            });
            f.local_get(acc);
            f.emit(Instr::MemorySize);
            f.i32_add();
        });
        b.export_func("f", f);
        b.build()
    };
    // A grow of the argument's page count against a 1-page maximum:
    // every non-zero delta fails with -1 (a negative one too).
    let failed_grow = {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.emit(Instr::MemoryGrow);
            f.i32_const(7);
            f.i32_add();
        });
        b.export_func("f", f);
        b.build()
    };
    // A successful grow, then a load at the argument's address: past
    // the grown memory it traps after the grow was accounted.
    let grow_then_trap = {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(4));
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.i32_const(1);
            f.emit(Instr::MemoryGrow);
            f.drop_();
            f.local_get(0);
            f.load(LoadOp::I32Load, 0);
        });
        b.export_func("f", f);
        b.build()
    };
    vec![
        ("grow_loop", grow_loop, vec![1, 3, 40]),
        ("failed_grow", failed_grow, vec![0, 1, -1]),
        ("grow_then_trap", grow_then_trap, vec![4, 200_000]),
    ]
}

/// Records how many instructions had been delivered at each
/// `on_mem_grow`, and the size it reported. It takes weighted delivery
/// under [`unit_weights`], so on the register tier it counts segments.
#[derive(Debug, Default)]
struct GrowRecorder {
    delivered: u64,
    grows: Vec<(u64, usize)>,
}

impl Observer for GrowRecorder {
    fn on_instr(&mut self, _: &Instr) {
        self.delivered += 1;
    }

    fn on_weighted_block(&mut self, _instrs: u64, weighted: u64) {
        self.delivered += weighted;
    }

    fn on_mem_grow(&mut self, new_size_bytes: usize) {
        self.grows.push((self.delivered, new_size_bytes));
    }

    fn accounting(&self) -> Accounting {
        Accounting::Weighted(UNIT_KEY)
    }
}

/// The `on_mem_grow` ordering contract: on every engine and dispatch
/// mode, every instruction up to and including the grow has been
/// delivered before the new size is reported, and no later one. The
/// fueled register-tier row runs on the tree-walker.
#[test]
fn memory_grow_is_reported_after_its_segment() {
    for (name, m, args) in grow_modules() {
        for a in args {
            let mut seen = Vec::new();
            for (engine, fuel) in [
                (Engine::Tree, None),
                (Engine::Regs, Some(1 << 40)),
                (Engine::Regs, None),
            ] {
                let cfg = Config {
                    engine,
                    fuel,
                    ..Config::default()
                };
                let art = CompiledModule::compile_weighted(&m, unit_weights()).expect("artifact");
                let mut inst = Instance::with_artifact(&m, Imports::new(), cfg, art).expect("inst");
                let mut rec = GrowRecorder::default();
                let r = inst.invoke_observed("f", &[Value::I32(a)], &mut rec);
                assert!(!rec.grows.is_empty(), "{name}({a}) never grew");
                seen.push((engine, fuel, r, rec.grows, rec.delivered));
            }
            let (_, _, r0, g0, d0) = &seen[0];
            for (engine, fuel, r, g, d) in &seen[1..] {
                assert_eq!(r, r0, "{name}({a}) {engine:?} fuel={fuel:?}: result");
                assert_eq!(g, g0, "{name}({a}) {engine:?} fuel={fuel:?}: grow ordering");
                assert_eq!(d, d0, "{name}({a}) {engine:?} fuel={fuel:?}: total");
            }
        }
    }
}

/// A weighted observer shaped like the accounting enclave's memory
/// integral: Σ weight × current memory size.
struct WeightedIntegral<'w> {
    weights: &'w WeightTable,
    key: WeightsKey,
    cur_mem: u64,
    integral: u128,
    instr_events: u64,
    block_events: u64,
}

impl<'w> WeightedIntegral<'w> {
    fn new(weights: &'w WeightTable, key: WeightsKey, inst: &Instance<'_>) -> Self {
        WeightedIntegral {
            weights,
            key,
            cur_mem: inst.memory().map_or(0, |m| m.size_bytes() as u64),
            integral: 0,
            instr_events: 0,
            block_events: 0,
        }
    }
}

impl Observer for WeightedIntegral<'_> {
    fn on_instr(&mut self, i: &Instr) {
        self.instr_events += 1;
        self.integral += u128::from(self.weights.weight(i)) * u128::from(self.cur_mem);
    }

    fn on_weighted_block(&mut self, _instrs: u64, weighted: u64) {
        self.block_events += 1;
        self.integral += u128::from(weighted) * u128::from(self.cur_mem);
    }

    fn on_mem_grow(&mut self, new_size_bytes: usize) {
        self.cur_mem = new_size_bytes as u64;
    }

    fn accounting(&self) -> Accounting {
        Accounting::Weighted(self.key)
    }
}

const KEY: WeightsKey = WeightsKey([0x5a; 32]);

/// How a weighted run was delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivered {
    PerInstr,
    Weighted,
}

/// Runs `func` with a [`WeightedIntegral`] on `engine`, through an
/// artifact lowered with `artifact_weights` (none: plain compile),
/// with the metered I/O imports serving `input`. Returns the result,
/// the integral, stats and the delivery mode.
fn weighted_run(
    m: &Module,
    engine: Engine,
    table: &WeightTable,
    artifact_weights: Option<(WeightsKey, WeightTable)>,
    func: &str,
    args: &[Value],
    input: &[u8],
) -> (Result<Vec<Value>, Trap>, u128, ExecStats, Delivered) {
    let cfg = Config {
        engine,
        ..Config::default()
    };
    let imports = acctee::IoMeter::with_input(input).register(Imports::new());
    let mut inst = match (engine, artifact_weights) {
        (Engine::Tree, _) => Instance::with_config(m, imports, cfg),
        (_, Some((key, t))) => {
            let w = InstrWeights::new(key, move |i| t.weight(i));
            let art = CompiledModule::compile_weighted(m, w).expect("artifact");
            Instance::with_artifact(m, imports, cfg, art)
        }
        (_, None) => {
            let art = CompiledModule::compile(m).expect("artifact");
            Instance::with_artifact(m, imports, cfg, art)
        }
    }
    .expect("instantiate");
    let mut obs = WeightedIntegral::new(table, KEY, &inst);
    let r = inst.invoke_observed(func, args, &mut obs);
    let mode = if obs.instr_events == 0 && obs.block_events > 0 {
        Delivered::Weighted
    } else {
        assert_eq!(obs.block_events, 0, "mixed delivery");
        Delivered::PerInstr
    };
    (r, obs.integral, inst.stats(), mode)
}

/// Weighted segment sums reproduce the per-instruction weighted
/// memory integral bit for bit: on the register tier with matching
/// weights (batched), and on its tree-walker fallbacks — an
/// unweighted artifact, a mismatched key (both per-instruction). The
/// matching row must be served batched: a module the register
/// compiler declines fails it.
fn assert_weighted_agrees(m: &Module, func: &str, args: &[Value], input: &[u8], what: &str) {
    let table = WeightTable::calibrated();
    let tree = weighted_run(m, Engine::Tree, &table, None, func, args, input);
    assert_eq!(tree.3, Delivered::PerInstr);
    let runs = [
        (
            Engine::Regs,
            Some((KEY, table.clone())),
            Delivered::Weighted,
        ),
        (Engine::Regs, None, Delivered::PerInstr),
        (
            Engine::Regs,
            Some((WeightsKey([0xa5; 32]), table.clone())),
            Delivered::PerInstr,
        ),
    ];
    for (engine, art, want) in runs {
        let keyed = art.is_some();
        let got = weighted_run(m, engine, &table, art, func, args, input);
        let tag = format!("{what}: {engine:?} keyed={keyed}");
        assert_eq!(got.0, tree.0, "{tag}: result");
        assert_eq!(got.1, tree.1, "{tag}: weighted integral");
        assert_eq!(got.2, tree.2, "{tag}: stats");
        assert_eq!(got.3, want, "{tag}: delivery");
    }
}

/// A use-case module the end-to-end benchmark serves, with a call.
struct UseCase {
    name: &'static str,
    module: Module,
    func: &'static str,
    args: Vec<Value>,
    input: Vec<u8>,
}

fn use_cases() -> Vec<UseCase> {
    use acctee_workloads::{darknet, faas_fns, msieve, subsetsum};
    let case = |name, module, func, args, input| UseCase {
        name,
        module,
        func,
        args,
        input,
    };
    vec![
        case(
            "echo",
            faas_fns::echo_module(),
            "main",
            vec![],
            b"echo me".to_vec(),
        ),
        case(
            "resize",
            faas_fns::resize_module(),
            "main",
            vec![],
            faas_fns::test_image(32, 24),
        ),
        case(
            "darknet",
            darknet::darknet_module(12),
            "run",
            vec![Value::I32(2)],
            vec![],
        ),
        case("msieve", msieve::msieve_module(3, 5), "run", vec![], vec![]),
        case(
            "subsetsum",
            subsetsum::subsetsum_module(10, 2),
            "run",
            vec![],
            vec![],
        ),
    ]
}

#[test]
fn weighted_blocks_match_per_instruction_weights() {
    for (name, m, args) in grow_modules() {
        for a in args {
            assert_weighted_agrees(&m, "f", &[Value::I32(a)], b"", &format!("{name}({a})"));
        }
    }
    for k in acctee_workloads::polybench::all() {
        assert_weighted_agrees(&(k.build)(6), "run", &[], b"", k.name);
    }
    // Served as uploaded and as instrumented: a decline of either
    // would drop that deployment to tree-walker speed.
    let weights = WeightTable::calibrated();
    for c in use_cases() {
        assert_weighted_agrees(&c.module, c.func, &c.args, &c.input, c.name);
        let inst = instrument(&c.module, Level::LoopBased, &weights).expect("instrument");
        let what = format!("{} (instrumented)", c.name);
        assert_weighted_agrees(&inst.module, c.func, &c.args, &c.input, &what);
    }
    check("weighted_blocks_match_per_instruction_weights", 24, |rng| {
        let m = build_module(&gen_program(rng, 3));
        let seed = rng.i64();
        assert_weighted_agrees(&m, "run", &[Value::I64(seed)], b"", "generated");
    });
}

/// A long straight-line function: `1 + 3 + 3 + ...` over `n` adds.
fn straight_line_module(n: usize) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    let f = b.func("f", &[], &[ValType::I64], |f| {
        f.i64_const(1);
        for _ in 0..n {
            f.i64_const(3);
            f.num(NumOp::I64Add);
        }
    });
    b.export_func("f", f);
    b.build()
}

/// The weighted prefix cannot overflow: with the calibrated table's
/// largest weight on every instruction of a long straight-line
/// function the segment sums stay batched and exact; a table whose
/// totals would not fit in `u64` is declined at lowering and runs the
/// exact per-instruction path instead.
#[test]
fn weighted_prefix_cannot_overflow() {
    let m = straight_line_module(60_000);
    let calibrated = WeightTable::calibrated();
    let largest = Instr::MemoryGrow;
    let max_w = calibrated.weight(&largest);
    for i in [
        Instr::Nop,
        Instr::Num(NumOp::I64DivS),
        Instr::Num(NumOp::F64Sqrt),
        Instr::CallIndirect(0),
    ] {
        assert!(
            calibrated.weight(&i) <= max_w,
            "{i:?} outweighs memory.grow"
        );
    }
    for (w, want) in [
        (max_w, Delivered::Weighted),
        (u64::MAX, Delivered::PerInstr),
    ] {
        let mut table = WeightTable::uniform();
        table.set(&Instr::I64Const(0), w);
        table.set(&Instr::Num(NumOp::I64Add), w);
        let tree = weighted_run(&m, Engine::Tree, &table, None, "f", &[], b"");
        let regs = weighted_run(
            &m,
            Engine::Regs,
            &table,
            Some((KEY, table.clone())),
            "f",
            &[],
            b"",
        );
        assert_eq!(regs.0, tree.0);
        assert_eq!(regs.1, tree.1, "weight {w}: integral");
        assert_eq!(regs.3, want, "weight {w}: delivery");
        // 120_001 instructions of weight w, all at one page.
        assert_eq!(
            tree.1,
            120_001 * u128::from(w) * acctee_wasm::PAGE_SIZE as u128
        );
    }
}

/// Executes `func` through the accounting enclave on `engine` and
/// returns the canonical bytes of the signed usage log (or the error).
fn signed_log_bytes(
    dep: &mut Deployment,
    engine: Engine,
    loaded: &acctee::enclave::LoadedWorkload,
    func: &str,
    args: &[Value],
    input: &[u8],
) -> Result<Vec<u8>, String> {
    dep.set_engine(engine);
    let out = dep
        .infrastructure()
        .execute_billed(loaded, func, args, input, 42)
        .map_err(|e| e.to_string())?;
    let mut enc = acctee::codec::Enc::default();
    enc.signed_log(&out.0.log);
    Ok(enc.0)
}

/// Every signed byte is engine-independent: the accounting enclave's
/// `ResourceUsageLog` — weighted instructions, peak memory, the
/// memory integral, I/O bytes — and its quote are byte-identical on
/// the tree-walker and the register tier (whose memory integral
/// arrives as weighted segment sums).
fn assert_signed_logs_agree(
    dep: &mut Deployment,
    what: &str,
    module: &Module,
    func: &str,
    args: &[Value],
    input: &[u8],
) {
    let bytes = acctee_wasm::encode::encode_module(module);
    for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
        let (ib, ev) = dep.instrument(&bytes, level).expect("instrument");
        let loaded = dep.infrastructure().load(&ib, &ev).expect("load");
        let tree = signed_log_bytes(dep, Engine::Tree, &loaded, func, args, input);
        let regs = signed_log_bytes(dep, Engine::Regs, &loaded, func, args, input);
        assert_eq!(regs, tree, "{what} {level}: signed log differs");
    }
}

#[test]
fn signed_logs_agree_across_engines_on_polybench() {
    let mut dep = Deployment::new(19);
    for k in acctee_workloads::polybench::all() {
        let m = (k.build)(k.default_n);
        assert_signed_logs_agree(&mut dep, k.name, &m, "run", &[], b"");
    }
}

#[test]
fn signed_logs_agree_across_engines_on_use_cases() {
    let mut dep = Deployment::new(19);
    for c in use_cases() {
        assert_signed_logs_agree(&mut dep, c.name, &c.module, c.func, &c.args, &c.input);
    }
    for (name, m, args) in grow_modules() {
        for a in args {
            let what = format!("{name}({a})");
            assert_signed_logs_agree(&mut dep, &what, &m, "f", &[Value::I32(a)], b"");
        }
    }
}

// ------------------------------------------------ declined modules

/// `f(n) -> i64` over `extra_locals` unused i64 locals: a counted
/// loop accumulating into the last local with memory traffic, a
/// `memory.grow`, then a load at `n << 12` — in bounds for small `n`,
/// out of bounds (after the grow was accounted) from `n = 32`.
fn wide_frame_module(extra_locals: usize) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(4));
    let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
        for _ in 0..extra_locals {
            f.local(ValType::I64);
        }
        let acc = f.local(ValType::I64);
        let i = f.local(ValType::I32);
        f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
            f.local_get(acc);
            f.local_get(i);
            f.num(NumOp::I64ExtendI32U);
            f.num(NumOp::I64Add);
            f.local_set(acc);
            f.local_get(i);
            f.i32_const(7);
            f.i32_and();
            f.i32_const(3);
            f.i32_shl();
            f.local_get(acc);
            f.store(StoreOp::I64Store, 0);
        });
        f.i32_const(1);
        f.emit(Instr::MemoryGrow);
        f.drop_();
        f.local_get(acc);
        f.local_get(0);
        f.i32_const(12);
        f.i32_shl();
        f.load(LoadOp::I64Load, 0);
        f.num(NumOp::I64Add);
    });
    b.export_func("f", f);
    b.build()
}

/// A module the register compiler declines — one function with 70 000
/// locals, a frame too wide for `u16` registers — runs on the
/// tree-walker under `Engine::Regs`, bit-identical to `Engine::Tree`:
/// results, traps, `ExecStats`, fuel, observer counts, the injected
/// counter and the signed usage log.
#[test]
fn declined_module_falls_back_to_the_tree_walker() {
    let wide = wide_frame_module(70_000);
    acctee_wasm::validate::validate_module(&wide).expect("valid");
    // The witness of the decline: matching weights are delivered
    // batched on the narrow twin, per instruction on the wide module.
    let table = WeightTable::calibrated();
    let args = [Value::I32(5)];
    for (m, want) in [
        (wide_frame_module(0), Delivered::Weighted),
        (wide.clone(), Delivered::PerInstr),
    ] {
        let keyed = Some((KEY, table.clone()));
        let tree = weighted_run(&m, Engine::Tree, &table, None, "f", &args, b"");
        let regs = weighted_run(&m, Engine::Regs, &table, keyed, "f", &args, b"");
        assert_eq!(regs.0, tree.0, "result");
        assert_eq!(regs.1, tree.1, "weighted integral");
        assert_eq!(regs.2, tree.2, "stats");
        assert_eq!(regs.3, want, "delivery");
    }
    for n in [0, 5, 31, 32] {
        let args = [Value::I32(n)];
        let free = assert_engines_agree(&wide, &no_imports, "f", &args, None);
        assert_eq!(
            matches!(free.result, Err(Trap::MemoryOutOfBounds { .. })),
            n >= 32,
            "n={n}: {:?}",
            free.result
        );
        let used = free.count.expect("counted");
        for fuel in [0, used / 2, used - 1, used] {
            assert_engines_agree(&wide, &no_imports, "f", &args, Some(fuel));
        }
    }
    for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
        let r = instrument(&wide, level, &table).expect("instrument");
        let mut seen = Vec::new();
        for engine in Engine::ALL {
            let cfg = Config {
                engine,
                ..Config::default()
            };
            let mut inst = Instance::with_config(&r.module, Imports::new(), cfg).expect("inst");
            let out = inst.invoke("f", &[Value::I32(9)]);
            seen.push((
                out.map(|vs| vs.iter().map(value_bits).collect::<Vec<_>>()),
                inst.stats(),
                inst.global(COUNTER_EXPORT).map(|v| v.as_i64()),
            ));
        }
        assert_eq!(seen[0], seen[1], "{level}: instrumented run diverged");
    }
    let mut dep = Deployment::new(19);
    assert_signed_logs_agree(&mut dep, "wide frame", &wide, "f", &[Value::I32(9)], b"");
}

// ------------------------------------------------------ fused charges

/// `global.get g; i64.const k; i64.add; global.set g` — the charge an
/// instrumenter closes a segment with, which the register tier lowers
/// to one op.
fn emit_charge(f: &mut FuncBuilder, g: u32, k: i64) {
    f.global_get(g)
        .i64_const(k)
        .num(NumOp::I64Add)
        .global_set(g);
}

/// The loop closed form `g += i64((i - saved) / step) * k`, in the
/// eleven instructions the loop-based level emits after a hoisted
/// loop.
fn emit_charge_trips(f: &mut FuncBuilder, g: u32, i: u32, saved: u32, step: i32, k: i64) {
    f.global_get(g).local_get(i).local_get(saved).i32_sub();
    f.i32_const(step)
        .num(NumOp::I32DivS)
        .num(NumOp::I64ExtendI32S);
    f.i64_const(k)
        .num(NumOp::I64Mul)
        .num(NumOp::I64Add)
        .global_set(g);
}

/// `f(params) -> i64` over a mutable i64 global exported as `c`
/// (initialised to `init`); the body gets the global's index and `f`
/// returns the global's final value.
fn charge_module(
    init: i64,
    params: &[ValType],
    body: impl FnOnce(&mut FuncBuilder, u32),
) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(2));
    let ty = acctee_wasm::types::GlobalType::mutable(ValType::I64);
    let g = b.global("c", ty, acctee_wasm::instr::ConstExpr::I64(init));
    let f = b.func("f", params, &[ValType::I64], |f| {
        body(f, g);
        f.global_get(g);
    });
    b.export_func("f", f);
    b.export_global("c", g);
    b.build()
}

/// Tree and regs agree on `f(args)` in every observer mode (results,
/// traps, `ExecStats`, counts), on the value left in the exported i64
/// global `global` (after a trap too) and on the weighted memory
/// integral.
fn assert_run_agrees(what: &str, m: &Module, global: &str, args: &[Value]) {
    assert_engines_agree(m, &no_imports, "f", args, None);
    let mut seen = Vec::new();
    for engine in Engine::ALL {
        let cfg = Config {
            engine,
            ..Config::default()
        };
        let mut inst = Instance::with_config(m, Imports::new(), cfg).expect("instantiate");
        let r = inst.invoke("f", args);
        let c = inst.global(global).expect("exported global").as_i64();
        seen.push((r.map(|vs| vs.iter().map(value_bits).collect::<Vec<_>>()), c));
    }
    assert_eq!(seen[0], seen[1], "{what}: result or charged global");
    assert_weighted_agrees(m, "f", args, b"", what);
}

/// [`assert_run_agrees`] on the global `c`, plus the signed usage log
/// at every instrumentation level.
fn assert_charges_agree(dep: &mut Deployment, what: &str, m: &Module, args: &[Value]) {
    assert_run_agrees(what, m, "c", args);
    assert_signed_logs_agree(dep, what, m, "f", args, b"");
}

/// The register tier lowers charge sequences on an i64 global to
/// single ops (and moves a charge that splits a compare from its
/// branch above the compare). Those rewrites must be invisible: each
/// hand-built edge case below agrees with the tree-walker on results,
/// traps, stats, the charged global and the signed log.
#[test]
fn fused_charges_agree() {
    let mut dep = Deployment::new(19);

    // The charged global wraps past i64::MAX, from a body charge and
    // from a charge between a loop's exit compare and its `br_if`
    // (both the counted-tail shape and a decrementing loop).
    let wrap = charge_module(i64::MAX - 5, &[ValType::I32], |f, g| {
        let i = f.local(ValType::I32);
        f.loop_(BlockType::Empty, |f| {
            emit_charge(f, g, i64::MAX / 4);
            f.local_get(i).i32_const(1).i32_add().local_set(i);
            f.local_get(i).local_get(0).i32_lt_s();
            emit_charge(f, g, 3);
            f.br_if(0);
        });
        f.loop_(BlockType::Empty, |f| {
            f.local_get(0).i32_const(1).i32_sub().local_tee(0);
            f.i32_const(0).num(NumOp::I32GtS);
            emit_charge(f, g, 7);
            f.br_if(0);
        });
    });
    for n in [0, 1, 5, 100] {
        assert_charges_agree(&mut dep, &format!("wrap({n})"), &wrap, &[Value::I32(n)]);
    }

    // A closed form between a counted tail's compare and its `br_if`
    // that reads the induction variable sees it after the increment,
    // so it must not move above the fused tail op; one that reads
    // other locals only may.
    for reads in ["i - s", "s - i", "n - s"] {
        let m = charge_module(0, &[ValType::I32], |f, g| {
            let i = f.local(ValType::I32);
            let s = f.local(ValType::I32);
            f.i32_const(-3).local_set(s);
            let (a, b) = match reads {
                "i - s" => (i, s),
                "s - i" => (s, i),
                _ => (0, s),
            };
            f.loop_(BlockType::Empty, |f| {
                f.local_get(i).i32_const(1).i32_add().local_set(i);
                f.local_get(i).local_get(0).i32_lt_s();
                emit_charge_trips(f, g, a, b, 1, 1);
                f.br_if(0);
            });
        });
        for n in [0, 1, 5, 100] {
            let what = format!("tail-trips({reads}, {n})");
            assert_charges_agree(&mut dep, &what, &m, &[Value::I32(n)]);
        }
    }

    // The closed form: fused steps (1..=u16::MAX, including one past
    // i16::MAX) and unfused ones (a zero or negative step, one past
    // u16::MAX), over negative, wrapping and trapping trip counts.
    let trip_args = [
        (10, 0),
        (0, 10),
        (-7, 5),
        (i32::MAX, -1),
        (i32::MIN, 0),
        (i32::MIN, 1),
    ];
    for step in [1, 3, 40_000, 65_535, 65_536, 0, -1, -7] {
        for k in [7, -3, i64::MAX / 3] {
            let m = charge_module(11, &[ValType::I32, ValType::I32], |f, g| {
                emit_charge_trips(f, g, 0, 1, step, k);
            });
            for (i, saved) in trip_args {
                let what = format!("trips(step {step}, k {k}, i {i}, saved {saved})");
                assert_charges_agree(&mut dep, &what, &m, &[Value::I32(i), Value::I32(saved)]);
            }
        }
    }

    // A charge between a compare and the `if` it feeds, where a
    // forward `br` lands on the compare, and a loop whose backedge
    // lands on a compare followed by a charge.
    let join = charge_module(0, &[ValType::I32, ValType::I32], |f, g| {
        f.block(BlockType::Empty, |f| {
            f.local_get(0).num(NumOp::I32Eqz).br_if(0);
            emit_charge(f, g, 5);
            f.br(0);
        });
        f.local_get(0).local_get(1).i32_lt_s();
        emit_charge(f, g, 11);
        f.if_(BlockType::Empty, |f| emit_charge(f, g, 100));
        f.loop_(BlockType::Empty, |f| {
            f.local_get(1).i32_const(0).num(NumOp::I32GtS);
            emit_charge(f, g, 2);
            f.if_(BlockType::Empty, |f| {
                f.local_get(1).i32_const(1).i32_sub().local_set(1);
                f.br(1);
            });
        });
    });
    for (a, b) in [(0, 1), (0, -1), (3, 5), (5, 3), (-2, 40)] {
        let what = format!("join({a}, {b})");
        assert_charges_agree(&mut dep, &what, &join, &[Value::I32(a), Value::I32(b)]);
    }

    // A charge whose producer traps must not run: the fallible
    // `div_s` feeding the branch stays below the charge.
    let div = charge_module(0, &[ValType::I32, ValType::I32], |f, g| {
        f.local_get(0).local_get(1).num(NumOp::I32DivS);
        emit_charge(f, g, 9);
        f.if_(BlockType::Empty, |f| emit_charge(f, g, 1));
    });
    for (a, b) in [(7, 2), (7, 0), (i32::MIN, -1)] {
        let what = format!("div({a}, {b})");
        assert_charges_agree(&mut dep, &what, &div, &[Value::I32(a), Value::I32(b)]);
    }
    // Nor does a charge move above a `memory.grow` (its weight would
    // be integrated at the old memory size) or a call whose callee
    // reads the charged global.
    let grow = charge_module(0, &[ValType::I32], |f, g| {
        f.local_get(0).emit(Instr::MemoryGrow);
        emit_charge(f, g, 13);
        f.if_(BlockType::Empty, |f| emit_charge(f, g, 1));
    });
    for pages in [0, 1, 5] {
        let what = format!("grow({pages})");
        assert_charges_agree(&mut dep, &what, &grow, &[Value::I32(pages)]);
    }
    let call = {
        let mut b = ModuleBuilder::new();
        let ty = acctee_wasm::types::GlobalType::mutable(ValType::I64);
        let g = b.global("c", ty, acctee_wasm::instr::ConstExpr::I64(0));
        let odd = b.func("odd", &[], &[ValType::I32], |f| {
            f.global_get(g)
                .num(NumOp::I32WrapI64)
                .i32_const(1)
                .i32_and();
        });
        let f = b.func("f", &[ValType::I64], &[ValType::I64], |f| {
            f.local_get(0).global_set(g);
            f.call(odd);
            emit_charge(f, g, 1);
            f.if_(BlockType::Empty, |f| emit_charge(f, g, 1000));
            f.global_get(g);
        });
        b.export_func("f", f);
        b.export_global("c", g);
        b.build()
    };
    for c in [0, 1] {
        let what = format!("call({c})");
        assert_charges_agree(&mut dep, &what, &call, &[Value::I64(c)]);
    }

    // A trap inside a hoisted loop, before the closed-form update
    // after it runs: the loop-based level's counter is charged for
    // the code before the loop only, on both engines.
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let sum = f.local(ValType::I64);
        f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
            f.local_get(sum).local_get(i).i32_const(3).i32_shl();
            f.load(LoadOp::I64Load, 0).num(NumOp::I64Add).local_set(sum);
        });
        f.local_get(sum);
    });
    b.export_func("f", f);
    let raw = b.build();
    let r = instrument(&raw, Level::LoopBased, &WeightTable::calibrated()).expect("instrument");
    assert!(r.stats.loops_hoisted > 0, "the loop should be hoisted");
    for n in [1, 100, 8192, 8193, 20_000] {
        let what = format!("hoisted-trap({n})");
        // The accounting enclave instruments (and bills) the raw
        // module itself.
        assert_run_agrees(&what, &r.module, COUNTER_EXPORT, &[Value::I32(n)]);
        assert_signed_logs_agree(&mut dep, &what, &raw, "f", &[Value::I32(n)], b"");
    }
}
