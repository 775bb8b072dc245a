//! The register-bytecode execution backend: the serving engine.
//!
//! [`crate::regalloc`] lowers each validated function into
//! three-address [`RegOp`]s over *virtual registers*: locals occupy
//! registers `[0, n_fixed)` and every operand-stack position `p` maps
//! to the canonical register `n_fixed + p` (abstract stack-depth
//! analysis makes the mapping static). There is no operand stack at
//! run time — push/pop traffic and operand shuffling are gone; what
//! remains is a flat `u64` register arena with per-frame bases.
//!
//! Dispatch is *direct-threaded*: every op carries its handler as a
//! function pointer and the loop is
//!
//! ```text
//! loop { op = code[pc]; pc = (op.handler)(vm, op, pc); }
//! ```
//!
//! so there is no central `match` — each handler returns the next PC
//! (or one of the [`DONE`]/[`TRAPPED`] sentinels) and the indirect
//! call predicts per-opcode rather than per-loop-iteration.
//!
//! One optimisation layers on top: **bounds-check elimination**. Loops
//! proven by [`acctee_wasm::rangeproof`] get a [`RegGuard`] evaluated
//! once per loop entry; when the guard passes, control enters an
//! *unchecked* copy of the body whose loads/stores skip the bounds
//! check ([`crate::memory::Memory::read_in_bounds`]). When it fails,
//! the *checked* copy runs and traps exactly like the tree-walker.
//! Both copies have identical per-iteration accounting.
//!
//! Accounting is batched per straight-line segment: costs live in a
//! per-function prefix sum ([`RegFunc::cost_prefix`]) and each segment
//! exit settles the stats from it — and, for an
//! [`Accounting::Weighted`] observer on an artifact lowered with its
//! weights, delivers one [`Observer::on_weighted_block`] carrying the
//! segment's count and weighted sum from the same prefix.
//! `memory.grow` closes its segment before reporting the new size, so
//! a weighted observer that multiplies by the memory size (the
//! accounting enclave's memory integral) matches per-instruction
//! delivery exactly. The totals — results, traps, [`crate::ExecStats`],
//! signed counters — are bit-identical to the tree-walker oracle for
//! any module (the differential suite in `tests/engine_diff.rs` pins
//! this down). The tier runs null and weighted observers only: fueled
//! executions and every other observer run on the tree-walker, which
//! owns exact per-instruction bookkeeping.

use std::sync::Arc;

use acctee_wasm::module::Module;
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};
use acctee_wasm::types::ValType;

use crate::exec::Instance;
use crate::numslot::{dec, enc, for_each_slot_op, slot_to_value, value_to_slot};
use crate::observer::{Accounting, InstrWeights, NullObserver, Observer, WeightsKey};
use crate::trap::Trap;
use crate::value::Value;

/// Sentinel PC: the entry frame returned normally.
pub(crate) const DONE: u32 = u32::MAX;
/// Sentinel PC: execution trapped ([`RegVm::trap`] holds the trap).
pub(crate) const TRAPPED: u32 = u32::MAX - 1;

/// A direct-threaded handler: executes one op and returns the next PC
/// (or a sentinel).
pub(crate) type Handler = fn(&mut RegVm<'_, '_>, RegOp, u32) -> u32;

/// One three-address register op. 32 bytes, `Copy`, fetched whole.
///
/// Field conventions: `c` is the destination register, `a`/`b` are
/// sources (all frame-relative); branch targets always ride in
/// `imm2`; constant slots and store-value immediates ride in `imm`.
/// Calls use `a` = argument base, `imm2` = callee.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegOp {
    /// The op's executor — dispatch is one indirect call, no decode.
    pub handler: Handler,
    /// 64-bit immediate (constant slot, store value, expected type).
    pub imm: u64,
    /// 32-bit immediate (branch target PC, global/table/guard index).
    pub imm2: u32,
    /// First source register.
    pub a: u16,
    /// Second source register.
    pub b: u16,
    /// Destination register.
    pub c: u16,
    /// What the lowering made this op, recorded next to the handler.
    /// Never read on the dispatch path: it identifies ops for
    /// white-box tests, because a handler's address is not a stable
    /// identity (Rust does not promise one address per function
    /// across codegen units, and in release builds small handlers such
    /// as `global_get` do get a copy per unit, so comparing against
    /// `ctl::global_get` misses the lowering's ops). It rides in the
    /// struct's padding.
    pub kind: OpKind,
}

const _: () = assert!(std::mem::size_of::<RegOp>() == 32);

/// The shape of a lowered [`RegOp`] (see [`RegOp::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Any op not singled out below.
    Other,
    /// Fused counted-loop tail with a register bound ([`ctl::for_tail_r`]).
    ForTailReg,
    /// Fused counted-loop tail with a constant bound ([`ctl::for_tail_i`]).
    ForTailConst,
    /// Fused multiply-add ([`ctl::madd`]).
    Madd,
    /// A `global.get`.
    GlobalGet,
    /// A `global.set`.
    GlobalSet,
    /// Fused `global += k` on an i64 global ([`ctl::charge`]).
    Charge,
    /// Fused `global += ((i - saved) / step) * k` ([`ctl::charge_trips`]).
    ChargeTrips,
    /// A load. `proven`: the guard-proven (unchecked) copy;
    /// `scaled`: an `i32.shl`-by-const folded into the address.
    Load {
        /// Guard-proven, skips the bounds check.
        proven: bool,
        /// Scaled address mode.
        scaled: bool,
    },
}

/// A suspended caller frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegFrame {
    /// The caller's combined function index.
    pub func: u32,
    /// PC to resume at (after the call op).
    pub ret_pc: u32,
    /// The caller's register-arena base.
    pub base: u32,
    /// Absolute register index the callee's results land at (the
    /// caller's argument base — results overwrite the consumed args).
    pub ret_dst: u32,
}

/// Reusable register-tier buffers, kept on the [`Instance`] so the
/// serving path never re-allocates the arena.
#[derive(Debug, Default)]
pub(crate) struct RegBuffers {
    /// The shared register arena (untyped slots, per-frame bases).
    pub regs: Vec<u64>,
    /// The frame stack (suspended callers).
    pub frames: Vec<RegFrame>,
}

/// A lowered `br_table`: absolute target PCs (or stub PCs when the
/// branch carries values).
#[derive(Debug, Clone)]
pub(crate) struct RegBrTable {
    /// Per-case targets.
    pub targets: Vec<u32>,
    /// Out-of-range target.
    pub default: u32,
}

/// The loop-continue bound a guard compares against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegBound {
    /// A loop-invariant register (a local).
    Reg(u16),
    /// A compile-time constant.
    Const(i32),
}

/// One proven access inside a guarded loop: max address =
/// `coeff * imax + Σ scale * u32(reg) + konst`, checked against the
/// memory size together with the access width.
#[derive(Debug, Clone)]
pub(crate) struct RegAccess {
    /// Induction-variable coefficient.
    pub coeff: u64,
    /// Loop-invariant registers and their scales.
    pub terms: Vec<(u16, u64)>,
    /// Constant term (includes the static `MemArg` offset).
    pub konst: u64,
    /// Access width in bytes.
    pub bytes: u32,
}

/// A hoisted loop guard (see [`acctee_wasm::rangeproof`] for the
/// soundness argument). Evaluated once per loop entry by `h_guard`:
/// pass jumps to the unchecked body copy at [`RegGuard::unchecked_pc`],
/// fail falls through to the checked copy.
#[derive(Debug, Clone)]
pub(crate) struct RegGuard {
    /// The induction local's register.
    pub induction: u16,
    /// The (positive) per-iteration step.
    pub step: i32,
    /// The continue bound.
    pub bound: RegBound,
    /// Every proven access; unprovable ones stay checked in *both*
    /// copies and do not weaken the guard.
    pub accesses: Vec<RegAccess>,
    /// Entry PC of the unchecked body copy.
    pub unchecked_pc: u32,
}

/// Prefix-summed per-pc accounting: instruction cost, its weighted
/// sum and the static load/store counts, so a segment settles every
/// stat — and a weighted observer's sum — with two array reads instead
/// of a read-modify-write per instruction or memory access.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegPrefix {
    /// Weighted source instructions under [`RegModule::weights`]
    /// (0 throughout when the module was lowered without weights).
    pub weighted: u64,
    /// Source instructions.
    pub cost: u32,
    /// Loads executed (1 on every load op, fused or not).
    pub loads: u32,
    /// Stores executed.
    pub stores: u32,
}

/// One function lowered to register bytecode.
#[derive(Debug)]
pub(crate) struct RegFunc {
    /// The op array.
    pub code: Vec<RegOp>,
    /// Prefix sums of per-pc accounting: a segment `[a, b]` accounts
    /// `cost_prefix[b+1] - cost_prefix[a]` of each [`SegPrefix`]
    /// component. Synthetic ops (register moves, else-skip jumps,
    /// the epilogue return) cost 0.
    pub cost_prefix: Vec<SegPrefix>,
    /// Lowered `br_table`s.
    pub br_tables: Vec<RegBrTable>,
    /// Hoisted loop guards.
    pub guards: Vec<RegGuard>,
    /// Parameter count.
    pub n_params: u16,
    /// Result count.
    pub n_results: u16,
    /// Result types, for decoding the entry function's result regs.
    pub results_ty: Box<[ValType]>,
    /// Frame size in registers: locals plus the canonical registers
    /// for the function's maximal operand-stack depth.
    pub n_regs: u32,
}

/// A whole module lowered to register bytecode, cached on the shared
/// [`CompiledModule`] artifact (built lazily, once, via `OnceLock`).
#[derive(Debug)]
pub(crate) struct RegModule {
    /// Local functions, indexed by `combined_idx - n_imported`.
    pub funcs: Vec<RegFunc>,
    /// The weights [`SegPrefix::weighted`] sums, if the lowering had
    /// any (and every function's total fits in `u64`).
    pub weights: Option<WeightsKey>,
}

/// The register VM: everything a handler touches, in one place. The
/// buffers are moved out of the [`Instance`] for the duration of the
/// dispatch loop and moved back on exit.
pub(crate) struct RegVm<'a, 'm> {
    /// The instance (memory, globals, table, stats, deadline).
    pub inst: &'a mut Instance<'m>,
    /// The artifact (call metadata: `params_ty`, `canon_of_func`).
    pub compiled: &'a CompiledModule,
    /// The register-code artifact.
    pub rm: &'a RegModule,
    /// The executing function's code.
    pub rf: &'a RegFunc,
    /// The register arena.
    pub regs: Vec<u64>,
    /// The frame stack.
    pub frames: Vec<RegFrame>,
    /// The executing frame's arena base.
    pub base: usize,
    /// The executing function's combined index.
    pub cur_func: u32,
    /// Start PC of the open accounting segment.
    pub seg_start: u32,
    /// Instructions retired this invoke (folded into stats on exit).
    pub instrs: u64,
    /// Loads executed this invoke (settled per segment from the
    /// [`SegPrefix`] sums — no per-access bookkeeping — and folded
    /// into stats on exit).
    pub loads: u64,
    /// Stores executed this invoke (as above).
    pub stores: u64,
    /// Whether each segment exit delivers
    /// [`Observer::on_weighted_block`] (false for a null observer; the
    /// check is hoisted out of the loop).
    pub weighted: bool,
    /// The attached observer.
    pub observer: &'a mut dyn Observer,
    /// The trap recorded by a handler that returned [`TRAPPED`].
    pub trap: Option<Trap>,
    /// Frame-relative register the entry frame's results start at
    /// (set by the final `Return`).
    pub ret_at: u32,
}

/// Closes the accounting segment `[seg_start, pc]`: counts it and, for
/// a weighted observer, delivers one event.
#[inline(always)]
fn flush(vm: &mut RegVm<'_, '_>, pc: u32) {
    let hi = vm.rf.cost_prefix[pc as usize + 1];
    let lo = vm.rf.cost_prefix[vm.seg_start as usize];
    let c = hi.cost - lo.cost;
    if c != 0 {
        vm.instrs += u64::from(c);
        vm.loads += u64::from(hi.loads - lo.loads);
        vm.stores += u64::from(hi.stores - lo.stores);
        if vm.weighted {
            vm.observer
                .on_weighted_block(u64::from(c), hi.weighted - lo.weighted);
        }
    }
}

/// Trap exit: the trapping instruction itself is counted (matching
/// the tree-walker, which counts before executing).
#[cold]
fn trap(vm: &mut RegVm<'_, '_>, pc: u32, t: Trap) -> u32 {
    flush(vm, pc);
    vm.trap = Some(t);
    TRAPPED
}

/// Taken control transfer: tick the wall-clock deadline, close the
/// segment, open a new one at `target`.
#[inline(always)]
fn jump_to(vm: &mut RegVm<'_, '_>, pc: u32, target: u32) -> u32 {
    if let Err(t) = vm.inst.check_deadline() {
        return trap(vm, pc, t);
    }
    flush(vm, pc);
    vm.seg_start = target;
    target
}

// --- Control / misc handlers ------------------------------------------

/// Pure accounting tick (loop entries, flushed pending counts).
pub(crate) fn h_tick(_vm: &mut RegVm<'_, '_>, _op: RegOp, pc: u32) -> u32 {
    pc + 1
}

pub(crate) fn h_unreachable(vm: &mut RegVm<'_, '_>, _op: RegOp, pc: u32) -> u32 {
    trap(vm, pc, Trap::Unreachable)
}

pub(crate) fn h_jump(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    jump_to(vm, pc, op.imm2)
}

pub(crate) fn h_br_if(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    if vm.regs[vm.base + op.a as usize] as u32 != 0 {
        jump_to(vm, pc, op.imm2)
    } else {
        pc + 1
    }
}

pub(crate) fn h_br_if_not(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    if vm.regs[vm.base + op.a as usize] as u32 == 0 {
        jump_to(vm, pc, op.imm2)
    } else {
        pc + 1
    }
}

pub(crate) fn h_br_table(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let i = vm.regs[vm.base + op.b as usize] as u32;
    let rf = vm.rf;
    let t = &rf.br_tables[op.imm2 as usize];
    let target = t.targets.get(i as usize).copied().unwrap_or(t.default);
    jump_to(vm, pc, target)
}

pub(crate) fn h_return(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    flush(vm, pc);
    let n = vm.rf.n_results as usize;
    let from = vm.base + op.a as usize;
    match vm.frames.pop() {
        Some(fr) => {
            vm.regs.copy_within(from..from + n, fr.ret_dst as usize);
            vm.regs.truncate(vm.base);
            vm.base = fr.base as usize;
            vm.cur_func = fr.func;
            let rm = vm.rm;
            vm.rf = &rm.funcs[(fr.func - vm.compiled.n_imported) as usize];
            vm.seg_start = fr.ret_pc;
            fr.ret_pc
        }
        None => {
            vm.ret_at = u32::from(op.a);
            DONE
        }
    }
}

/// Call transfer shared by `h_call` and `h_call_indirect`: the caller
/// has already cut the segment at `pc` and set `seg_start = pc + 1`,
/// so a trap here flushes nothing extra.
fn do_call(vm: &mut RegVm<'_, '_>, f: u32, arg_reg: u16, pc: u32) -> u32 {
    if vm.frames.len() + 1 >= vm.inst.config.max_call_depth {
        return trap(vm, pc, Trap::CallStackExhausted);
    }
    if let Err(t) = vm.inst.check_deadline() {
        return trap(vm, pc, t);
    }
    vm.inst.stats.calls += 1;
    let n_imported = vm.compiled.n_imported;
    let at = vm.base + arg_reg as usize;
    if f < n_imported {
        let ps = &vm.compiled.params_ty[f as usize];
        let host_args: Vec<Value> = ps
            .iter()
            .zip(&vm.regs[at..])
            .map(|(t, s)| slot_to_value(*s, *t))
            .collect();
        let values = match vm.inst.call_host_checked(f, &host_args) {
            Ok(v) => v,
            Err(t) => return trap(vm, pc, t),
        };
        for (k, v) in values.iter().enumerate() {
            vm.regs[at + k] = value_to_slot(*v);
        }
        return pc + 1;
    }
    let rm = vm.rm;
    let callee = &rm.funcs[(f - n_imported) as usize];
    let new_base = vm.regs.len();
    vm.regs.resize(new_base + callee.n_regs as usize, 0);
    vm.regs
        .copy_within(at..at + callee.n_params as usize, new_base);
    vm.frames.push(RegFrame {
        func: vm.cur_func,
        ret_pc: pc + 1,
        base: vm.base as u32,
        ret_dst: at as u32,
    });
    vm.base = new_base;
    vm.cur_func = f;
    vm.rf = callee;
    vm.seg_start = 0;
    0
}

pub(crate) fn h_call(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    flush(vm, pc);
    vm.seg_start = pc + 1;
    do_call(vm, op.imm2, op.a, pc)
}

pub(crate) fn h_call_indirect(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let i = vm.regs[vm.base + op.b as usize] as u32;
    flush(vm, pc);
    vm.seg_start = pc + 1;
    // Table, null and type check, in the tree-walker's trap order.
    let f = match vm.inst.table.get(i as usize) {
        Some(Some(f)) => *f,
        Some(None) => return trap(vm, pc, Trap::UndefinedElement),
        None => return trap(vm, pc, Trap::TableOutOfBounds),
    };
    let actual = match vm.compiled.canon_of_func.get(f as usize) {
        Some(c) => *c,
        None => return trap(vm, pc, Trap::UndefinedElement),
    };
    if u64::from(actual) != op.imm {
        return trap(vm, pc, Trap::IndirectCallTypeMismatch);
    }
    do_call(vm, f, op.a, pc)
}

pub(crate) fn h_select(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let c = vm.regs[vm.base + op.imm2 as usize] as u32;
    let v = if c != 0 {
        vm.regs[vm.base + op.a as usize]
    } else {
        vm.regs[vm.base + op.b as usize]
    };
    vm.regs[vm.base + op.c as usize] = v;
    pc + 1
}

/// Fused `i32.mul`-by-constant plus `i32.add`:
/// `c = a * imm + b` (all arithmetic wrapping in `i32`), the
/// flattened-index idiom `i * ncols + j` of 2-D array address code.
pub(crate) fn h_madd(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let v = dec::as_i32(vm.regs[vm.base + op.a as usize])
        .wrapping_mul(op.imm as i32)
        .wrapping_add(dec::as_i32(vm.regs[vm.base + op.b as usize]));
    vm.regs[vm.base + op.c as usize] = enc::I32(v);
    pc + 1
}

/// Fused canonical counted-loop tail, register bound: `i += step;
/// if i <s regs[b] { backedge }` — the eight source instructions of
/// the tail (`local.get i; i32.const step; i32.add; local.set i;
/// local.get i; local.get n; i32.lt_s; br_if 0`) in one dispatch.
/// Every one of the eight is infallible and they always execute as a
/// unit (a `br_if` is counted whether taken or not), so the op
/// carries their full cost and accounting stays exact. The backedge
/// goes through [`jump_to`], keeping the deadline tick and segment
/// flush of an ordinary taken branch.
pub(crate) fn h_for_tail_r(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let i = dec::as_i32(vm.regs[vm.base + op.a as usize]).wrapping_add(op.imm as i32);
    vm.regs[vm.base + op.a as usize] = enc::I32(i);
    if i < dec::as_i32(vm.regs[vm.base + op.b as usize]) {
        jump_to(vm, pc, op.imm2)
    } else {
        pc + 1
    }
}

/// [`h_for_tail_r`] with a constant bound, packed into `imm`'s high
/// half (the step lives in the low half).
pub(crate) fn h_for_tail_i(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let i = dec::as_i32(vm.regs[vm.base + op.a as usize]).wrapping_add(op.imm as i32);
    vm.regs[vm.base + op.a as usize] = enc::I32(i);
    if i < (op.imm >> 32) as i32 {
        jump_to(vm, pc, op.imm2)
    } else {
        pc + 1
    }
}

/// Fused charge on an i64 global: `global[imm2] += imm`, wrapping —
/// the four source instructions `global.get g; i64.const k; i64.add;
/// global.set g` in one dispatch. All four are infallible and run as a
/// unit, so the op carries their full cost. The lowering only emits
/// it for a mutable i64 global, so the `if let` always matches.
pub(crate) fn h_charge(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    if let Value::I64(g) = &mut vm.inst.globals[op.imm2 as usize] {
        *g = g.wrapping_add(op.imm as i64);
    }
    pc + 1
}

/// Fused closed-form loop charge: `global[imm2] += i64((a - b) / c) *
/// imm` — the eleven source instructions `global.get g; local.get i;
/// local.get saved; i32.sub; i32.const step; i32.div_s;
/// i64.extend_i32_s; i64.const k; i64.mul; i64.add; global.set g`.
/// The lowering fuses only a step in `1..=u16::MAX` (carried in `c`),
/// for which the `div_s` cannot trap, so the op is infallible and
/// carries all eleven instructions' cost. Every operation wraps (or
/// truncates toward zero) exactly as its wasm source does.
pub(crate) fn h_charge_trips(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let i = dec::as_i32(vm.regs[vm.base + op.a as usize]);
    let saved = dec::as_i32(vm.regs[vm.base + op.b as usize]);
    let trips = i64::from(i.wrapping_sub(saved) / i32::from(op.c));
    if let Value::I64(g) = &mut vm.inst.globals[op.imm2 as usize] {
        *g = g.wrapping_add(trips.wrapping_mul(op.imm as i64));
    }
    pc + 1
}

/// Register-to-register move (materialisation, alias flushes, branch
/// value shuffles). Always cost 0.
pub(crate) fn h_mv_rr(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    vm.regs[vm.base + op.c as usize] = vm.regs[vm.base + op.a as usize];
    pc + 1
}

/// Constant-to-register move (`imm` is the pre-encoded slot).
pub(crate) fn h_mv_ci(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    vm.regs[vm.base + op.c as usize] = op.imm;
    pc + 1
}

pub(crate) fn h_global_get(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    vm.regs[vm.base + op.c as usize] = value_to_slot(vm.inst.globals[op.imm2 as usize]);
    pc + 1
}

pub(crate) fn h_global_set(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let s = vm.regs[vm.base + op.a as usize];
    let g = &mut vm.inst.globals[op.imm2 as usize];
    *g = slot_to_value(s, g.ty());
    pc + 1
}

pub(crate) fn h_mem_size(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let mem = vm.inst.memory.as_ref().expect("validated");
    vm.regs[vm.base + op.c as usize] = u64::from(mem.size_pages());
    pc + 1
}

/// Cuts the segment through the grow itself before the observer
/// sees the new size (the `on_mem_grow` ordering contract): a
/// weighted observer multiplying each segment by the current memory
/// size then charges exactly what per-instruction delivery charges.
pub(crate) fn h_mem_grow(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    flush(vm, pc);
    vm.seg_start = pc + 1;
    let delta = dec::as_i32(vm.regs[vm.base + op.a as usize]);
    let mem = vm.inst.memory.as_mut().expect("validated");
    let r = if delta < 0 {
        -1
    } else {
        mem.grow(delta as u32)
    };
    let new_size = mem.size_bytes();
    vm.inst.stats.mem_grows += 1;
    vm.inst.stats.peak_memory_bytes = vm.inst.stats.peak_memory_bytes.max(new_size);
    vm.observer.on_mem_grow(new_size);
    vm.regs[vm.base + op.c as usize] = enc::I32(r);
    pc + 1
}

/// Evaluates a hoisted loop guard. All arithmetic in `u128` so no
/// guard-side overflow is possible; any failure (no memory, negative
/// induction, potential wrap, any access past the end) falls through
/// to the checked copy — the guard is an optimisation gate, never a
/// soundness gate. A pass commits memory through the largest end
/// address it proved: the unchecked body indexes the committed prefix
/// directly ([`crate::memory::Memory::read_in_bounds`]).
pub(crate) fn h_guard(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
    let rf = vm.rf;
    let g = &rf.guards[op.imm2 as usize];
    let proven_end = 'guard: {
        let Some(mem) = vm.inst.memory.as_ref() else {
            break 'guard None;
        };
        let i0 = dec::as_i32(vm.regs[vm.base + g.induction as usize]);
        if i0 < 0 {
            break 'guard None;
        }
        let bound = match g.bound {
            RegBound::Reg(r) => i64::from(dec::as_i32(vm.regs[vm.base + r as usize])),
            RegBound::Const(c) => i64::from(c),
        };
        // Largest body-visible induction value (max covers the
        // do-while entry iteration), plus the no-wrap condition on
        // the increment itself.
        let imax = i64::from(i0).max(bound - 1);
        if imax + i64::from(g.step) > i64::from(i32::MAX) {
            break 'guard None;
        }
        let imax = imax as u128;
        let mut end = 0u128;
        for a in &g.accesses {
            let mut addr = u128::from(a.coeff) * imax + u128::from(a.konst);
            for (l, s) in &a.terms {
                addr += u128::from(*s) * u128::from(vm.regs[vm.base + *l as usize] as u32);
            }
            end = end.max(addr + u128::from(a.bytes));
        }
        (end <= mem.size_bytes() as u128).then_some(end as u64)
    };
    match proven_end {
        Some(end) => {
            vm.inst
                .memory
                .as_mut()
                .expect("guard saw it")
                .commit_to(end);
            let target = g.unchecked_pc;
            flush(vm, pc);
            vm.seg_start = target;
            target
        }
        None => pc + 1,
    }
}

// --- Numeric handlers (generated from the single slot-op table) -------

/// The handler pair for an infallible binary op.
pub(crate) struct BinHandlers {
    /// `dst = a <op> b`.
    pub rr: Handler,
    /// `dst = a <op> imm`.
    pub ri: Handler,
}

/// The checked/unchecked/immediate handler set for a store op.
pub(crate) struct StoreHandlers {
    /// Bounds-checked store of a register.
    pub r_checked: Handler,
    /// Bounds-checked store of an immediate slot.
    pub i_checked: Handler,
    /// Guard-proven store of a register.
    pub r_unchecked: Handler,
    /// Guard-proven store of an immediate slot.
    pub i_unchecked: Handler,
}

macro_rules! gen_reg_num_handlers {
    (
        un { $($uv:ident: $uas:ident -> $uenc:ident, |$ua:ident| $ue:expr;)* }
        bin { $($bv:ident: $bas:ident -> $benc:ident, |$ba:ident, $bb:ident| $be:expr;)* }
        un_try { $($tv:ident: $tas:ident -> $tenc:ident, |$ta:ident| $te:expr;)* }
        bin_try { $($cv:ident: $cas:ident -> $cenc:ident, |$ca:ident, $cb:ident| $ce:expr;)* }
    ) => {
        $(
            #[allow(non_snake_case)]
            mod $uv {
                use super::*;
                #[inline(always)]
                fn eval(av: u64) -> u64 {
                    let $ua = dec::$uas(av);
                    enc::$uenc($ue)
                }
                pub(super) fn r(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    vm.regs[vm.base + op.c as usize] =
                        eval(vm.regs[vm.base + op.a as usize]);
                    pc + 1
                }
            }
        )*
        $(
            #[allow(non_snake_case)]
            mod $bv {
                use super::*;
                #[inline(always)]
                fn eval(av: u64, bv: u64) -> u64 {
                    let $ba = dec::$bas(av);
                    let $bb = dec::$bas(bv);
                    enc::$benc($be)
                }
                pub(super) fn rr(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    vm.regs[vm.base + op.c as usize] = eval(
                        vm.regs[vm.base + op.a as usize],
                        vm.regs[vm.base + op.b as usize],
                    );
                    pc + 1
                }
                pub(super) fn ri(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    vm.regs[vm.base + op.c as usize] =
                        eval(vm.regs[vm.base + op.a as usize], op.imm);
                    pc + 1
                }
            }
        )*
        $(
            #[allow(non_snake_case)]
            mod $tv {
                use super::*;
                pub(super) fn r(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let $ta = dec::$tas(vm.regs[vm.base + op.a as usize]);
                    match $te {
                        Ok(v) => {
                            vm.regs[vm.base + op.c as usize] = enc::$tenc(v);
                            pc + 1
                        }
                        Err(t) => trap(vm, pc, t),
                    }
                }
            }
        )*
        $(
            #[allow(non_snake_case)]
            mod $cv {
                use super::*;
                pub(super) fn rr(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let $cb = dec::$cas(vm.regs[vm.base + op.b as usize]);
                    let $ca = dec::$cas(vm.regs[vm.base + op.a as usize]);
                    match $ce {
                        Ok(v) => {
                            vm.regs[vm.base + op.c as usize] = enc::$cenc(v);
                            pc + 1
                        }
                        Err(t) => trap(vm, pc, t),
                    }
                }
            }
        )*

        /// Handlers for an infallible binary op, or `None` otherwise.
        pub(crate) fn bin_handlers(op: NumOp) -> Option<BinHandlers> {
            match op {
                $(NumOp::$bv => Some(BinHandlers {
                    rr: $bv::rr,
                    ri: $bv::ri,
                }),)*
                _ => None,
            }
        }

        /// The handler (`dst = <op> a`) for an infallible unary op, or
        /// `None` otherwise.
        pub(crate) fn un_handler(op: NumOp) -> Option<Handler> {
            match op {
                $(NumOp::$uv => Some($uv::r as Handler),)*
                _ => None,
            }
        }

        /// The handler for a fallible unary op, or `None` otherwise.
        pub(crate) fn un_try_handler(op: NumOp) -> Option<Handler> {
            match op {
                $(NumOp::$tv => Some($tv::r as Handler),)*
                _ => None,
            }
        }

        /// The handler for a fallible binary op, or `None` otherwise.
        pub(crate) fn bin_try_handler(op: NumOp) -> Option<Handler> {
            match op {
                $(NumOp::$cv => Some($cv::rr as Handler),)*
                _ => None,
            }
        }
    };
}
for_each_slot_op!(gen_reg_num_handlers);

// --- Load / store handlers ---------------------------------------------

macro_rules! gen_load_handlers {
    ($( $name:ident, $lop:ident, $n:literal, |$bytes:ident| $conv:expr; )*) => {
        $(
            mod $name {
                use super::*;
                pub(super) fn checked(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let addr = u64::from(vm.regs[vm.base + op.a as usize] as u32)
                        + u64::from(op.imm2);
                    let mem = vm.inst.memory.as_ref().expect("validated");
                    match mem.read::<$n>(addr) {
                        Ok($bytes) => {
                            vm.regs[vm.base + op.c as usize] = $conv;
                            pc + 1
                        }
                        Err(t) => trap(vm, pc, t),
                    }
                }
                // Shifted address modes: the `i32.shl`-by-constant
                // that scales an index into a byte offset is folded
                // into the access (`addr = (a << imm) + offset`). The
                // shift wraps in `u32` exactly like the wasm `shl` it
                // replaces.
                pub(super) fn checked_shl(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let addr = u64::from(
                        (vm.regs[vm.base + op.a as usize] as u32) << (op.imm as u32 & 31),
                    ) + u64::from(op.imm2);
                    let mem = vm.inst.memory.as_ref().expect("validated");
                    match mem.read::<$n>(addr) {
                        Ok($bytes) => {
                            vm.regs[vm.base + op.c as usize] = $conv;
                            pc + 1
                        }
                        Err(t) => trap(vm, pc, t),
                    }
                }
                pub(super) fn unchecked_shl(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let addr = u64::from(
                        (vm.regs[vm.base + op.a as usize] as u32) << (op.imm as u32 & 31),
                    ) + u64::from(op.imm2);
                    let mem = vm.inst.memory.as_ref().expect("validated");
                    let $bytes = mem.read_in_bounds::<$n>(addr);
                    vm.regs[vm.base + op.c as usize] = $conv;
                    pc + 1
                }
            }
        )*
        /// Handler family for a load op.
        pub(crate) fn load_handlers(op: LoadOp) -> LoadHandlers {
            match op {
                $(LoadOp::$lop => LoadHandlers {
                    checked: $name::checked as Handler,
                    checked_shl: $name::checked_shl as Handler,
                    unchecked_shl: $name::unchecked_shl as Handler,
                },)*
            }
        }
    };
}

/// Handlers for one load op: plain and shl-fused address modes, the
/// fused one also in proven-in-bounds (unchecked) form. A proven load
/// with a plain address runs checked: no workload has one (see the
/// traffic census in `crate::regalloc`'s tests).
#[derive(Clone, Copy)]
pub(crate) struct LoadHandlers {
    pub(crate) checked: Handler,
    pub(crate) checked_shl: Handler,
    pub(crate) unchecked_shl: Handler,
}
gen_load_handlers! {
    load_i32, I32Load, 4, |b| enc::I32(i32::from_le_bytes(b));
    load_i64, I64Load, 8, |b| enc::I64(i64::from_le_bytes(b));
    load_f32, F32Load, 4, |b| enc::F32(f32::from_le_bytes(b));
    load_f64, F64Load, 8, |b| enc::F64(f64::from_le_bytes(b));
    load_i32_8s, I32Load8S, 1, |b| enc::I32(i32::from(b[0] as i8));
    load_i32_8u, I32Load8U, 1, |b| enc::I32(i32::from(b[0]));
    load_i32_16s, I32Load16S, 2, |b| enc::I32(i32::from(i16::from_le_bytes(b)));
    load_i32_16u, I32Load16U, 2, |b| enc::I32(i32::from(u16::from_le_bytes(b)));
    load_i64_8s, I64Load8S, 1, |b| enc::I64(i64::from(b[0] as i8));
    load_i64_8u, I64Load8U, 1, |b| enc::I64(i64::from(b[0]));
    load_i64_16s, I64Load16S, 2, |b| enc::I64(i64::from(i16::from_le_bytes(b)));
    load_i64_16u, I64Load16U, 2, |b| enc::I64(i64::from(u16::from_le_bytes(b)));
    load_i64_32s, I64Load32S, 4, |b| enc::I64(i64::from(i32::from_le_bytes(b)));
    load_i64_32u, I64Load32U, 4, |b| enc::I64(i64::from(u32::from_le_bytes(b)));
}

macro_rules! gen_store_handlers {
    ($( $name:ident, $sop:ident, |$slot:ident| $data:expr; )*) => {
        $(
            mod $name {
                use super::*;
                #[inline(always)]
                fn run(
                    vm: &mut RegVm<'_, '_>,
                    op: RegOp,
                    pc: u32,
                    $slot: u64,
                    unchecked: bool,
                ) -> u32 {
                    let addr = u64::from(vm.regs[vm.base + op.a as usize] as u32)
                        + u64::from(op.imm2);
                    let mem = vm.inst.memory.as_mut().expect("validated");
                    if unchecked {
                        mem.write_in_bounds(addr, $data);
                        pc + 1
                    } else {
                        match mem.write(addr, $data) {
                            Ok(()) => pc + 1,
                            Err(t) => trap(vm, pc, t),
                        }
                    }
                }
                pub(super) fn r_checked(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let v = vm.regs[vm.base + op.b as usize];
                    run(vm, op, pc, v, false)
                }
                pub(super) fn i_checked(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    run(vm, op, pc, op.imm, false)
                }
                pub(super) fn r_unchecked(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    let v = vm.regs[vm.base + op.b as usize];
                    run(vm, op, pc, v, true)
                }
                pub(super) fn i_unchecked(vm: &mut RegVm<'_, '_>, op: RegOp, pc: u32) -> u32 {
                    run(vm, op, pc, op.imm, true)
                }
            }
        )*
        /// The handler set for a store op.
        pub(crate) fn store_handlers(op: StoreOp) -> StoreHandlers {
            match op {
                $(StoreOp::$sop => StoreHandlers {
                    r_checked: $name::r_checked,
                    i_checked: $name::i_checked,
                    r_unchecked: $name::r_unchecked,
                    i_unchecked: $name::i_unchecked,
                },)*
            }
        }
    };
}
gen_store_handlers! {
    store_i32, I32Store, |s| dec::as_i32(s).to_le_bytes();
    store_i64, I64Store, |s| dec::as_i64(s).to_le_bytes();
    store_f32, F32Store, |s| dec::as_f32(s).to_le_bytes();
    store_f64, F64Store, |s| dec::as_f64(s).to_le_bytes();
    store_i32_8, I32Store8, |s| [(dec::as_i32(s) & 0xff) as u8];
    store_i32_16, I32Store16, |s| (dec::as_i32(s) as u16).to_le_bytes();
    store_i64_8, I64Store8, |s| [(dec::as_i64(s) & 0xff) as u8];
    store_i64_16, I64Store16, |s| (dec::as_i64(s) as u16).to_le_bytes();
    store_i64_32, I64Store32, |s| (dec::as_i64(s) as u32).to_le_bytes();
}

/// The non-numeric handler table [`crate::regalloc`] draws from,
/// grouped so the compiler side never names a handler function
/// directly.
pub(crate) mod ctl {
    pub(crate) use super::{
        h_br_if as br_if, h_br_if_not as br_if_not, h_br_table as br_table, h_call as call,
        h_call_indirect as call_indirect, h_charge as charge, h_charge_trips as charge_trips,
        h_for_tail_i as for_tail_i, h_for_tail_r as for_tail_r, h_global_get as global_get,
        h_global_set as global_set, h_guard as guard, h_jump as jump, h_madd as madd,
        h_mem_grow as mem_grow, h_mem_size as mem_size, h_mv_ci as mv_ci, h_mv_rr as mv_rr,
        h_return as ret, h_select as select, h_tick as tick, h_unreachable as unreachable,
    };
}

/// The compile-once/serve-many **artifact** of the register tier.
///
/// A `CompiledModule` owns everything the dispatch loop needs — it
/// holds no borrows into the source [`Module`] — so it can be wrapped
/// in an [`Arc`], cached, and shared across threads and instances.
/// Build one with [`CompiledModule::compile`] (or
/// [`CompiledModule::compile_weighted`]), then hand the same artifact
/// to any number of [`Instance`]s via [`Instance::with_artifact`]; the
/// serving path never re-runs a compiler.
///
/// Building the artifact resolves only call metadata. The register
/// code is lowered on the first invoke that needs it and cached here.
///
/// Execution through a shared artifact is bit-identical to the lazy
/// per-instance compile (the differential and artifact-cache suites
/// pin this down): the artifact *is* the output of the same one-pass
/// compiler, merely reused.
#[derive(Debug)]
pub struct CompiledModule {
    /// Parameter types per combined function index (imports included):
    /// the arity for call sites, the types for host-call decoding.
    pub(crate) params_ty: Vec<Box<[ValType]>>,
    /// Result types per local function (the structural guard of
    /// [`CompiledModule::matches`]).
    pub(crate) results_ty: Vec<Box<[ValType]>>,
    /// Canonical (structurally deduplicated) type id per combined
    /// function index, for `call_indirect` checks by integer compare.
    pub(crate) canon_of_func: Vec<u32>,
    /// Number of imported (host) functions.
    pub(crate) n_imported: u32,
    /// The weights the register lowering folds into its segment
    /// prefix sums ([`Accounting::Weighted`]), if any.
    pub(crate) weights: Option<InstrWeights>,
    /// The register-tier code, built lazily on the first `regs`-engine
    /// invoke and shared by every instance holding this artifact. `Err`
    /// records a decline: those modules run on the tree-walker.
    pub(crate) regs: std::sync::OnceLock<Result<RegModule, Trap>>,
}

impl CompiledModule {
    /// Builds a shareable artifact for `module`. Register code is
    /// lowered lazily, on the first invoke that needs it.
    ///
    /// # Errors
    ///
    /// [`Trap::Host`] if the module's function types do not resolve
    /// (the compiler assumes validated input, as the lazy path does).
    pub fn compile(module: &Module) -> Result<Arc<CompiledModule>, Trap> {
        crate::compile::compile_module(module, None).map(Arc::new)
    }

    /// As [`CompiledModule::compile`], additionally carrying `weights`
    /// into the register lowering, so an [`Accounting::Weighted`]
    /// observer with the same key runs batched on the register tier.
    ///
    /// # Errors
    ///
    /// See [`CompiledModule::compile`].
    pub fn compile_weighted(
        module: &Module,
        weights: InstrWeights,
    ) -> Result<Arc<CompiledModule>, Trap> {
        crate::compile::compile_module(module, Some(weights)).map(Arc::new)
    }

    /// The lazily-built register-tier code for this artifact. `Err`
    /// means the register compiler declined the module (the engine
    /// falls back to the tree-walker); the verdict is computed once and
    /// shared by every instance holding the artifact.
    pub(crate) fn reg_module(&self, module: &Module) -> &Result<RegModule, Trap> {
        self.regs
            .get_or_init(|| crate::regalloc::compile_regs(module, self.weights.as_ref()))
    }
}

impl<'m> Instance<'m> {
    /// Invokes `idx` on the register tier.
    ///
    /// Deopt rules: fueled executions and per-instruction observers
    /// need exact per-instruction bookkeeping, which this tier
    /// deliberately does not carry — those invokes run on the
    /// tree-walker instead, the oracle every engine is checked
    /// against. A weighted observer whose weights this artifact was
    /// not lowered with is per-instruction for that purpose, and a
    /// module the register compiler declines also falls back, as does
    /// an exported host import (it has no register code).
    pub(crate) fn invoke_regs(
        &mut self,
        idx: u32,
        args: &[Value],
        observer: &mut dyn Observer,
    ) -> Result<Vec<Value>, Trap> {
        let key = match observer.accounting() {
            _ if observer.is_null() => None,
            Accounting::Weighted(key) => Some(key),
            Accounting::PerInstr => return self.invoke_tree(idx, args, observer),
        };
        if self.fuel.is_some() || idx < self.module.num_imported_funcs() {
            return self.invoke_tree(idx, args, observer);
        }
        if self.compiled.is_none() {
            self.compiled = Some(CompiledModule::compile(self.module)?);
        }
        let compiled = Arc::clone(self.compiled.as_ref().expect("compiled above"));
        let rm = match compiled.reg_module(self.module) {
            Ok(rm) => rm,
            Err(_) => return self.invoke_tree(idx, args, observer),
        };
        if key.is_some() && rm.weights != key {
            return self.invoke_tree(idx, args, observer);
        }
        if self.config.max_call_depth == 0 {
            return Err(Trap::CallStackExhausted);
        }
        self.stats.calls += 1;
        let rf = &rm.funcs[(idx - compiled.n_imported) as usize];
        let mut bufs = std::mem::take(&mut self.reg_bufs);
        bufs.regs.clear();
        bufs.frames.clear();
        bufs.regs.extend(args.iter().map(|v| value_to_slot(*v)));
        bufs.regs.resize(rf.n_regs as usize, 0);
        let mut vm = RegVm {
            inst: self,
            compiled: &compiled,
            rm,
            rf,
            regs: bufs.regs,
            frames: bufs.frames,
            base: 0,
            cur_func: idx,
            seg_start: 0,
            instrs: 0,
            loads: 0,
            stores: 0,
            weighted: key.is_some(),
            observer,
            trap: None,
            ret_at: 0,
        };
        let mut pc: u32 = 0;
        loop {
            let op = vm.rf.code[pc as usize];
            pc = (op.handler)(&mut vm, op, pc);
            if pc >= TRAPPED {
                break;
            }
        }
        let RegVm {
            regs,
            frames,
            instrs,
            loads,
            stores,
            trap,
            ret_at,
            ..
        } = vm;
        self.stats.instructions += instrs;
        self.stats.loads += loads;
        self.stats.stores += stores;
        self.reg_bufs = RegBuffers { regs, frames };
        if pc == TRAPPED {
            return Err(trap.expect("trap recorded"));
        }
        let at = ret_at as usize;
        Ok(rf
            .results_ty
            .iter()
            .enumerate()
            .map(|(k, t)| slot_to_value(self.reg_bufs.regs[at + k], *t))
            .collect())
    }

    /// A deopt: runs the invoke on the tree-walker. An observer that
    /// ignores every event runs the monomorphised null loop, as
    /// [`Instance::invoke_observed`] does for a tree-engine invoke.
    fn invoke_tree(
        &mut self,
        idx: u32,
        args: &[Value],
        observer: &mut dyn Observer,
    ) -> Result<Vec<Value>, Trap> {
        if observer.is_null() {
            self.call_function(idx, args, 0, &mut NullObserver)
        } else {
            self.call_function(idx, args, 0, observer)
        }
    }
}
