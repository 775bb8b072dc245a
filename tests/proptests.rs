//! Property-based integration tests (hand-rolled harness; see
//! `acctee_integration::prop`).
//!
//! The flagship property (design point D1): for *arbitrary* structured
//! programs, the injected weighted instruction counter equals the
//! oracle count of executed original instructions, at every
//! instrumentation level — metering soundness.
//!
//! Programs are generated in a small IR that is valid by construction
//! and compiled through the public builder API, so the property
//! exercises builder → validator → instrumenter → interpreter
//! together. Codec round-trips piggyback on the same generator.

use acctee_instrument::{instrument, Level, WeightTable, COUNTER_EXPORT};
use acctee_integration::prop::{check, Rng};
use acctee_interp::{Config, CountingObserver, Engine, Imports, Instance, Value};
use acctee_wasm::builder::{Bound, FuncBuilder, ModuleBuilder};
use acctee_wasm::decode::decode_module;
use acctee_wasm::encode::encode_module;
use acctee_wasm::instr::BlockType;
use acctee_wasm::op::NumOp;
use acctee_wasm::text::{parse_module, print_module};
use acctee_wasm::types::ValType;
use acctee_wasm::Module;

/// A structured program that cannot be invalid.
#[derive(Debug, Clone)]
enum S {
    /// `n` straight-line accumulator updates.
    Work(u8),
    /// Two-armed conditional on the accumulator's parity.
    If(Vec<S>, Vec<S>),
    /// A counted loop of `1 + iters` iterations (do-while shape).
    Counted(u8, Vec<S>),
    /// A block with a data-dependent early exit after `body`.
    EarlyExit(Vec<S>),
}

/// Generates a statement list; `depth` bounds recursion.
fn gen_program(rng: &mut Rng, depth: u32) -> Vec<S> {
    let len = rng.range(0, 4);
    (0..len).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut Rng, depth: u32) -> S {
    let choice = if depth == 0 { 0 } else { rng.range(0, 4) };
    match choice {
        0 => S::Work(rng.range(0, 6) as u8),
        1 => S::If(gen_body(rng, depth), gen_body(rng, depth)),
        2 => S::Counted(rng.range(0, 4) as u8, gen_body(rng, depth)),
        _ => S::EarlyExit(gen_body(rng, depth)),
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
    fn compile(&mut self, f: &mut FuncBuilder, stmts: &[S]) {
        for s in stmts {
            match s {
                S::Work(n) => {
                    for k in 0..*n {
                        self.salt = self.salt.wrapping_mul(31).wrapping_add(7);
                        f.local_get(self.acc);
                        f.i64_const(self.salt | 1);
                        f.num(if k % 3 == 2 {
                            NumOp::I64Mul
                        } else {
                            NumOp::I64Add
                        });
                        f.local_set(self.acc);
                    }
                }
                S::If(t, e) => {
                    f.local_get(self.acc);
                    f.i64_const(1);
                    f.num(NumOp::I64And);
                    f.num(NumOp::I64Eqz);
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
                    f.for_loop(var, Bound::Const(0), Bound::Const(i32::from(*n) + 1), |f| {
                        this.compile(f, body);
                        // ensure the body is never empty so the shape
                        // is interesting
                        f.local_get(this.acc);
                        f.i64_const(1);
                        f.num(NumOp::I64Add);
                        f.local_set(this.acc);
                    });
                    *self = this;
                }
                S::EarlyExit(body) => {
                    let mut this = std::mem::replace(self, Compiler { acc: 0, salt: 0 });
                    f.block(BlockType::Empty, |f| {
                        this.compile(f, body);
                        // if (acc & 3) == 0 break out of the block
                        f.local_get(this.acc);
                        f.i64_const(3);
                        f.num(NumOp::I64And);
                        f.num(NumOp::I64Eqz);
                        f.br_if(0);
                        f.local_get(this.acc);
                        f.i64_const(5);
                        f.num(NumOp::I64Add);
                        f.local_set(this.acc);
                    });
                    *self = this;
                }
            }
        }
    }
}

/// Compiles a generated program into a module: `run(seed: i64) -> i64`.
fn build_module(prog: &[S]) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.func("run", &[ValType::I64], &[ValType::I64], |f| {
        let acc = f.local(ValType::I64);
        f.local_get(0);
        f.local_set(acc);
        let mut c = Compiler { acc, salt: 0x1234 };
        c.compile(f, prog);
        f.local_get(acc);
    });
    b.export_func("run", f);
    b.build()
}

/// Metering soundness: counter == oracle for arbitrary programs at
/// every level, and instrumentation never changes results.
#[test]
fn counter_equals_oracle() {
    check("counter_equals_oracle", 48, |rng| {
        let prog = gen_program(rng, 3);
        let seed = rng.i64();
        let module = build_module(&prog);
        acctee_wasm::validate::validate_module(&module).expect("generated module valid");
        let weights = WeightTable::calibrated();
        let mut oracle = CountingObserver::with_weight(|i| weights.weight(i));
        // The oracle is the tree-walker, named explicitly so a change
        // of the default engine cannot move it onto a compiled tier.
        let oracle_cfg = Config {
            engine: Engine::Tree,
            ..Config::default()
        };
        let mut inst =
            Instance::with_config(&module, Imports::new(), oracle_cfg).expect("instantiate");
        let expected = inst
            .invoke_observed("run", &[Value::I64(seed)], &mut oracle)
            .expect("run");

        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let r = instrument(&module, level, &weights).expect("instrument");
            acctee_wasm::validate::validate_module(&r.module).expect("instrumented valid");
            let mut inst = Instance::new(&r.module, Imports::new()).expect("instantiate");
            let got = inst.invoke("run", &[Value::I64(seed)]).expect("run");
            assert_eq!(got, expected, "{level} result");
            let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64() as u64;
            assert_eq!(counter, oracle.count, "{level} counter");
        }
    });
}

/// Binary codec round-trip over generated modules.
#[test]
fn binary_round_trip() {
    check("binary_round_trip", 48, |rng| {
        let module = build_module(&gen_program(rng, 3));
        let bytes = encode_module(&module);
        let back = decode_module(&bytes).expect("decodes");
        assert_eq!(back, module);
    });
}

/// Text round-trip: parse(print(m)) == parse(print(parse(print(m)))).
#[test]
fn text_round_trip() {
    check("text_round_trip", 48, |rng| {
        let module = build_module(&gen_program(rng, 3));
        let text = print_module(&module);
        let once = parse_module(&text).expect("parses");
        let twice = parse_module(&print_module(&once)).expect("reparses");
        assert_eq!(once, twice);
    });
}

/// LEB128 round-trips for the full i64/u64 range.
#[test]
fn leb_round_trip() {
    check("leb_round_trip", 256, |rng| {
        let v = rng.i64();
        let u = rng.next_u64();
        let mut buf = Vec::new();
        acctee_wasm::leb::write_i64(&mut buf, v);
        assert_eq!(acctee_wasm::leb::Reader::new(&buf).i64().expect("read"), v);
        buf.clear();
        acctee_wasm::leb::write_u64(&mut buf, u);
        assert_eq!(acctee_wasm::leb::Reader::new(&buf).u64().expect("read"), u);
    });
    // Boundary values the generator may miss.
    for v in [i64::MIN, -1, 0, 1, i64::MAX] {
        let mut buf = Vec::new();
        acctee_wasm::leb::write_i64(&mut buf, v);
        assert_eq!(acctee_wasm::leb::Reader::new(&buf).i64().expect("read"), v);
    }
}

/// Sealing round-trips for arbitrary payloads and is tamper-proof.
#[test]
fn sealing_round_trip() {
    check("sealing_round_trip", 64, |rng| {
        use acctee_sgx::{seal, Platform};
        let len = rng.range(0, 512);
        let data = rng.bytes(len);
        let flip = rng.u8();
        let e = Platform::new("prop", 1).create_enclave(b"code");
        let sealed = seal::seal(&e, [3; 16], &data);
        assert_eq!(seal::unseal(&e, &sealed).expect("unseals"), data);
        if !sealed.ciphertext.is_empty() {
            let mut bad = sealed.clone();
            let i = flip as usize % bad.ciphertext.len();
            bad.ciphertext[i] ^= 1;
            assert!(seal::unseal(&e, &bad).is_none());
        }
    });
}
