//! The flat-bytecode execution backend.
//!
//! [`crate::compile`] lowers each validated function into a linear
//! [`Op`] array with a pre-resolved branch side-table; this module is
//! the dispatch loop that executes it. Where the tree-walker maps
//! WebAssembly calls onto Rust recursion and re-walks structured
//! blocks, this engine runs an explicit frame stack, a value stack
//! reused across invokes, and absolute-PC jumps — and it batches
//! accounting: when the attached [`Observer`] opts into
//! [`Accounting::Batched`], instruction counting collapses into one
//! prefix-sum subtraction per straight-line segment instead of a
//! virtual call per instruction.
//!
//! The operand stack and locals arena hold untyped 64-bit slots
//! ([`crate::numslot`]) rather than [`Value`] enums: validation has
//! already proven every operand's type, so the tag would be dead
//! weight on the hot path. Typed values appear only at the
//! boundaries — invoke arguments/results, host calls, and globals
//! (which stay typed because the tree-walker shares them).
//!
//! Three loop instantiations exist, selected per invoke:
//!
//! * **fast** (`OBSERVE=false, PER_OP=false`): batched observer, no
//!   fuel. Counting is per-segment.
//! * **metered** (`OBSERVE=false, PER_OP=true`): batched observer with
//!   a fuel budget. Fuel forces per-instruction bookkeeping (the trap
//!   must land on the exact instruction the tree-walker traps on).
//! * **observed** (`OBSERVE=true, PER_OP=true`): a per-instruction
//!   observer (profiler, cache model, counting oracle) gets the exact
//!   event stream, bit-compatible with the tree-walker.
//!
//! The correctness contract — identical results, traps,
//! [`crate::ExecStats`] and counter values as the tree-walker for any
//! module — is enforced by the differential suite in
//! `tests/engine_diff.rs`.

use std::sync::Arc;

use acctee_wasm::module::Module;
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};
use acctee_wasm::types::ValType;

use crate::exec::{load_value, store_value, Instance};
use crate::numslot::{exec_num_slot, slot_to_value, value_to_slot};
use crate::observer::{Accounting, Observer};
use crate::trap::Trap;
use crate::value::Value;

/// A flat opcode. Structured control flow is gone: branches reference
/// the side-table ([`CompiledFunc::branches`]) by slot, plain jumps
/// carry absolute PCs, and calls carry pre-resolved indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Trap unconditionally.
    Unreachable,
    /// No effect. Also used as the entry tick of `block`/`loop` so the
    /// per-entry accounting of structured instructions has a PC.
    Nop,
    /// Unconditional jump to an absolute PC (the synthetic jump over
    /// an `else` arm; never a source-level branch).
    Jump(u32),
    /// Unconditional branch through side-table slot.
    Br(u32),
    /// Pop a condition; branch through the slot if non-zero.
    BrIf(u32),
    /// Pop a condition; jump to the PC if zero (the lowered `if`
    /// condition — no stack fixup, unlike `Br`).
    BrIfNot(u32),
    /// Pop an index; branch through `br_tables[n]`.
    BrTable(u32),
    /// Return from the current frame (also the function epilogue).
    Return,
    /// Call the function with this combined index.
    Call(u32),
    /// Pop a table index; call with the expected canonical type id.
    CallIndirect(u32),
    /// Pop and discard.
    Drop,
    /// Pop condition, b, a; push a if the condition is non-zero else b.
    Select,
    /// Push a local.
    LocalGet(u32),
    /// Pop into a local.
    LocalSet(u32),
    /// Copy the top of stack into a local.
    LocalTee(u32),
    /// Push a global.
    GlobalGet(u32),
    /// Pop into a global.
    GlobalSet(u32),
    /// Pop a base address, push the loaded value (static offset
    /// pre-extracted from the `MemArg`).
    Load(LoadOp, u32),
    /// Pop a value and base address, store.
    Store(StoreOp, u32),
    /// Push the memory size in pages.
    MemorySize,
    /// Pop a page delta, grow, push the previous size or -1.
    MemoryGrow,
    /// Push a constant, pre-encoded as a slot (all four `*.const`
    /// forms collapse here — the type died at compile time).
    Const(u64),
    /// A plain numeric op on the value stack.
    Num(NumOp),
    // --- Fused superinstructions -------------------------------------
    // These exist only in a function's *fast* stream (the batched,
    // unfueled loop). Each covers N source instructions — the fused
    // `cost_prefix` charges N — and is built so that only its *last*
    // component can trap, which keeps trap-exit accounting identical
    // to executing the components one by one (everything up to and
    // including the trapping instruction is counted; partial operand
    // -stack state is unobservable because a trap discards it).
    /// Fused `local.get x; t.const c` (slot fits 32 bits, zero-extended).
    LocalGetConst(u32, u32),
    /// Fused `local.get x; local.get y`.
    LocalGet2(u32, u32),
    /// Fused `local.get x; t.const c; <num>`.
    LocalGetConstNum(u32, u32, NumOp),
    /// Fused `local.get x; <num>`.
    LocalGetNum(u32, NumOp),
    /// Fused `t.const c; <num>`.
    ConstNum(u32, NumOp),
    /// Fused `<num>; local.set x` (non-trapping num only).
    NumLocalSet(NumOp, u32),
    /// Fused `<num>; br_if slot` (non-trapping num only).
    NumBrIf(NumOp, u32),
    /// Fused `<num>; <if-dispatch to pc>` (non-trapping num only).
    NumBrIfNot(NumOp, u32),
    /// Fused `<num>; t.load` (non-trapping num; the load may trap).
    NumLoad(NumOp, LoadOp, u32),
    /// Fused `t.const c; <num>; t.load`.
    ConstNumLoad(u32, NumOp, LoadOp, u32),
    /// Fused `local.get x; t.const c; <num>; t.load` — a full 1-D
    /// array index (`idx1`) plus its load.
    LocalGetConstNumLoad(u32, u32, NumOp, LoadOp, u32),
    /// Fused `local.get x; t.store` (a local stored to a computed
    /// address).
    LocalGetStore(u32, StoreOp, u32),
    /// Fused `<num>; t.store` (non-trapping num; the store may trap).
    NumStore(NumOp, StoreOp, u32),
    /// Fused `local.get x; i32.const c; i32.add; local.set x` — the
    /// loop-variable increment. Touches no operand stack at all.
    LocalIncConst(u32, u32),
    /// Fused `local.get x; t.const c; <num>; br_if slot` — the loop
    /// exit compare-and-branch (non-trapping num only).
    LocalGetConstNumBrIf(u32, u32, NumOp, u32),
}

/// A pre-resolved branch destination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchTarget {
    /// Absolute PC to continue at.
    pub pc: u32,
    /// Operand-stack height of the target label, relative to the
    /// frame's stack base.
    pub height: u32,
    /// Number of values the branch carries past the unwound stack.
    pub arity: u16,
}

/// A lowered `br_table`: slot indices into the branch side-table.
#[derive(Debug, Clone)]
pub(crate) struct BrTableEntry {
    /// Per-case slots.
    pub targets: Vec<u32>,
    /// Out-of-range slot.
    pub default: u32,
}

/// One function lowered to flat bytecode.
///
/// Each function carries **two** code streams over one shared
/// `br_tables` array and slot numbering:
///
/// * the *exact* stream (`ops`/`src`/`branches`): one op per source
///   instruction, used whenever per-instruction bookkeeping is on
///   (fuel or a per-instruction observer);
/// * the *fast* stream (`fast_ops`/`fast_cost_prefix`/
///   `fast_branches`): the exact stream with adjacent ops peephole-
///   fused into superinstructions ([`Op::LocalGetConstNum`] and
///   friends), used by the batched unfueled loop. Branch targets are
///   never fused over, so the side-table remaps one to one.
#[derive(Debug)]
pub(crate) struct CompiledFunc {
    /// The exact linear opcode array.
    pub ops: Vec<Op>,
    /// `src[pc]` is the original instruction the op at `pc` accounts
    /// for, or `None` for synthetic ops (epilogue return, else-skip
    /// jumps). Drives the exact `on_instr` stream in observed mode.
    /// Structured instructions are stored body-less (observers
    /// classify and weigh by opcode only; bodies execute through
    /// their own ops), which is what lets the artifact own its
    /// accounting stream instead of borrowing the module.
    pub src: Vec<Option<acctee_wasm::instr::Instr>>,
    /// The exact stream's branch side-table.
    pub branches: Vec<BranchTarget>,
    /// The fused opcode array.
    pub fast_ops: Vec<Op>,
    /// Prefix sums of per-pc instruction cost over the fused stream
    /// (a fused op costs its component count): the count of a
    /// straight-line segment `[a, b]` is `fast_cost_prefix[b+1] -
    /// fast_cost_prefix[a]`.
    pub fast_cost_prefix: Vec<u32>,
    /// The fused stream's branch side-table (same slots, remapped PCs).
    pub fast_branches: Vec<BranchTarget>,
    /// Lowered `br_table` entries (slot indices valid for either
    /// stream's side-table).
    pub br_tables: Vec<BrTableEntry>,
    /// Parameter count (pre-resolved call metadata).
    pub n_params: u16,
    /// Result count.
    pub n_results: u16,
    /// Result types, for decoding the entry function's result slots.
    pub results_ty: Box<[ValType]>,
    /// Number of explicit locals, zero-initialised after the arguments
    /// (the all-zero slot is the zero value of every type).
    pub n_local_slots: u32,
}

/// The compile-once/serve-many **artifact** of the compiled engines.
///
/// A `CompiledModule` owns everything the dispatch loops need — it
/// holds no borrows into the source [`Module`] — so it can be wrapped
/// in an [`Arc`], cached, and shared across threads and instances.
/// Build one with [`CompiledModule::compile`] (or
/// [`CompiledModule::compile_weighted`]), then hand the same artifact
/// to any number of [`Instance`]s via [`Instance::with_artifact`]; the
/// serving path never re-runs a compiler.
///
/// Building the artifact resolves only call metadata. Each engine's
/// code — the flat streams and the register code — is lowered on the
/// first invoke that needs it and cached here, so a deployment served
/// by one tier never holds the other's code.
///
/// Execution through a shared artifact is bit-identical to the lazy
/// per-instance compile (the differential and artifact-cache suites
/// pin this down): the artifact *is* the output of the same one-pass
/// compilers, merely reused.
#[derive(Debug)]
pub struct CompiledModule {
    /// The flat engine's code: local functions, indexed by
    /// `combined_idx - n_imported`, lowered on the first flat-engine
    /// invoke.
    pub(crate) funcs: std::sync::OnceLock<Result<Vec<CompiledFunc>, Trap>>,
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
    /// prefix sums ([`crate::observer::Accounting::Weighted`]), if
    /// any.
    pub(crate) weights: Option<crate::observer::InstrWeights>,
    /// The register-tier code, built lazily on the first `regs`-engine
    /// invoke and shared by every instance holding this artifact. `Err`
    /// records a decline: those modules run on the flat engine.
    pub(crate) regs: std::sync::OnceLock<Result<crate::regs::RegModule, Trap>>,
}

impl CompiledModule {
    /// Builds a shareable artifact for `module`. Engine code is
    /// lowered lazily, on the first invoke that needs it.
    ///
    /// # Errors
    ///
    /// [`Trap::Host`] if the module's function types do not resolve
    /// (the compilers assume validated input, as the lazy path does).
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
        weights: crate::observer::InstrWeights,
    ) -> Result<Arc<CompiledModule>, Trap> {
        crate::compile::compile_module(module, Some(weights)).map(Arc::new)
    }

    /// Whether this artifact plausibly belongs to `module`: the
    /// function-space shape and every function signature must agree.
    /// This is a cheap structural guard against handing an instance an
    /// artifact compiled from a different module, not a cryptographic
    /// binding — callers that cache artifacts must key the cache by
    /// module identity.
    pub fn matches(&self, module: &Module) -> bool {
        if self.n_imported != module.num_imported_funcs()
            || self.results_ty.len() != module.funcs.len()
            || self.params_ty.len() != self.results_ty.len() + self.n_imported as usize
        {
            return false;
        }
        for (i, params) in self.params_ty.iter().enumerate() {
            let Some(ty) = module.func_type(i as u32) else {
                return false;
            };
            if ty.params != **params {
                return false;
            }
            if let Some(results) = (i as u32)
                .checked_sub(self.n_imported)
                .and_then(|l| self.results_ty.get(l as usize))
            {
                if ty.results != **results {
                    return false;
                }
            }
        }
        true
    }

    /// The flat engine's code, lowering `module` on first use.
    fn flat_funcs(&self, module: &Module) -> Result<&[CompiledFunc], Trap> {
        self.funcs
            .get_or_init(|| crate::compile::compile_flat_funcs(module))
            .as_deref()
            .map_err(Clone::clone)
    }
}

/// A suspended caller: what `Return` restores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// The caller's combined function index.
    pub func: u32,
    /// PC to resume at (after the call op).
    pub ret_pc: u32,
    /// The caller's value-stack base.
    pub stack_base: u32,
    /// The caller's locals base in the shared locals arena.
    pub locals_base: u32,
}

/// Reusable execution buffers, kept on the [`Instance`] so repeated
/// invokes (the FaaS serving path) never re-allocate stacks.
#[derive(Debug, Default)]
pub(crate) struct FlatBuffers {
    /// The shared operand stack (untyped slots).
    pub stack: Vec<u64>,
    /// The shared locals arena (args + zeros per live frame).
    pub locals: Vec<u64>,
    /// The frame stack; its length is the current call depth minus one
    /// (frames hold suspended callers, not the executing function).
    pub frames: Vec<Frame>,
}

impl<'m> Instance<'m> {
    /// Invokes `idx` on the flat-bytecode engine, compiling the module
    /// on first use. Entry semantics (depth check, call events, host
    /// dispatch) mirror the tree-walker's `call_function` exactly.
    pub(crate) fn invoke_flat<O: Observer + ?Sized>(
        &mut self,
        idx: u32,
        args: &[Value],
        observer: &mut O,
    ) -> Result<Vec<Value>, Trap> {
        if idx < self.module.num_imported_funcs() {
            if self.config.max_call_depth == 0 {
                return Err(Trap::CallStackExhausted);
            }
            observer.on_call(idx);
            self.stats.calls += 1;
            let values = self.call_host_checked(idx, args)?;
            observer.on_return(idx);
            return Ok(values);
        }
        if self.compiled.is_none() {
            self.compiled = Some(CompiledModule::compile(self.module)?);
        }
        // Clone the artifact handle (one refcount bump) so the
        // dispatch loop can borrow it alongside `self.memory`/
        // `self.globals`; the buffers still move out.
        let compiled = Arc::clone(self.compiled.as_ref().expect("compiled above"));
        let mut bufs = std::mem::take(&mut self.flat);
        bufs.stack.clear();
        bufs.locals.clear();
        bufs.frames.clear();
        let batched = observer.accounting() == Accounting::Batched;
        let result = match (batched, self.fuel.is_some()) {
            (true, false) => {
                self.run_flat::<O, false, false>(&compiled, idx, args, &mut bufs, observer)
            }
            (true, true) => {
                self.run_flat::<O, false, true>(&compiled, idx, args, &mut bufs, observer)
            }
            (false, _) => self.run_flat::<O, true, true>(&compiled, idx, args, &mut bufs, observer),
        };
        self.flat = bufs;
        result
    }

    /// The dispatch loop. `OBSERVE` selects the exact per-instruction
    /// event stream; `PER_OP` selects per-instruction bookkeeping
    /// (required whenever fuel is charged or `OBSERVE` is set).
    #[allow(clippy::too_many_lines)]
    fn run_flat<O: Observer + ?Sized, const OBSERVE: bool, const PER_OP: bool>(
        &mut self,
        compiled: &CompiledModule,
        entry: u32,
        args: &[Value],
        bufs: &mut FlatBuffers,
        observer: &mut O,
    ) -> Result<Vec<Value>, Trap> {
        let FlatBuffers {
            ref mut stack,
            ref mut locals,
            ref mut frames,
        } = *bufs;
        let funcs = compiled.flat_funcs(self.module)?;
        let n_imported = compiled.n_imported;
        if self.config.max_call_depth == 0 {
            return Err(Trap::CallStackExhausted);
        }
        if OBSERVE {
            observer.on_call(entry);
        }
        self.stats.calls += 1;
        let mut cur_func = entry;
        let mut cf = &funcs[(entry - n_imported) as usize];
        locals.extend(args.iter().map(|v| value_to_slot(*v)));
        let zeroed = locals.len() + cf.n_local_slots as usize;
        locals.resize(zeroed, 0);
        let mut pc: usize = 0;
        // Start of the current straight-line accounting segment
        // (batched mode): instructions in [seg_start, pc] have not
        // been counted yet.
        let mut seg_start: usize = 0;
        let mut stack_base: usize = 0;
        let mut locals_base: usize = 0;
        // Instructions retired this invoke, folded into `self.stats`
        // on every exit path.
        let mut instrs: u64 = 0;

        // Per-instantiation code stream: fuel and per-instruction
        // observers need the exact stream; the batched unfueled loop
        // runs the fused one. `PER_OP` is const, so these fold away.
        macro_rules! ops {
            () => {
                if PER_OP {
                    &cf.ops
                } else {
                    &cf.fast_ops
                }
            };
        }
        macro_rules! branch_entry {
            ($slot:expr) => {
                if PER_OP {
                    cf.branches[$slot as usize]
                } else {
                    cf.fast_branches[$slot as usize]
                }
            };
        }
        // Accumulate the open segment (no-op in per-op mode, where
        // counting already happened instruction by instruction).
        macro_rules! flush_seg {
            () => {
                if !PER_OP {
                    let c = cf.fast_cost_prefix[pc + 1] - cf.fast_cost_prefix[seg_start];
                    if c != 0 {
                        instrs += u64::from(c);
                        observer.on_block(u64::from(c));
                    }
                }
            };
        }
        // Trap exit: the trapping instruction itself is counted
        // (matching the tree-walker, which counts before executing).
        macro_rules! throw {
            ($t:expr) => {{
                flush_seg!();
                self.stats.instructions += instrs;
                return Err($t);
            }};
        }
        macro_rules! tr {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(t) => throw!(t),
                }
            };
        }
        // Transfer control through a branch side-table slot: unwind
        // the operand stack to the label height, carry the branch
        // values, jump.
        macro_rules! take_branch {
            ($slot:expr) => {{
                tr!(self.check_deadline());
                flush_seg!();
                let b = branch_entry!($slot);
                let dst = stack_base + b.height as usize;
                let arity = b.arity as usize;
                let from = stack.len() - arity;
                stack.copy_within(from..from + arity, dst);
                stack.truncate(dst + arity);
                pc = b.pc as usize;
                seg_start = pc;
                continue;
            }};
        }
        // One linear-memory load/store, shared by the plain and fused
        // arms. Counting order (stats and the observer event fire
        // before the bounds check) mirrors the tree-walker.
        macro_rules! do_load {
            ($op:expr, $off:expr) => {{
                let base = stack.pop().expect("validated") as u32;
                let addr = u64::from(base) + u64::from($off);
                self.stats.loads += 1;
                if OBSERVE {
                    observer.on_mem_access(addr, $op.access_bytes(), false);
                }
                let mem = self.memory.as_ref().expect("validated");
                let v = tr!(load_value(mem, $op, addr));
                stack.push(value_to_slot(v));
            }};
        }
        macro_rules! do_store {
            ($op:expr, $off:expr) => {{
                let v = slot_to_value(stack.pop().expect("validated"), $op.val_type());
                let base = stack.pop().expect("validated") as u32;
                let addr = u64::from(base) + u64::from($off);
                self.stats.stores += 1;
                if OBSERVE {
                    observer.on_mem_access(addr, $op.access_bytes(), true);
                }
                let mem = self.memory.as_mut().expect("validated");
                tr!(store_value(mem, $op, addr, v));
            }};
        }
        // Invoke function `$f` (post type-check for indirect calls).
        // The current segment must already be cut.
        macro_rules! do_call {
            ($f:expr) => {{
                let f: u32 = $f;
                if frames.len() + 1 >= self.config.max_call_depth {
                    throw!(Trap::CallStackExhausted);
                }
                tr!(self.check_deadline());
                if OBSERVE {
                    observer.on_call(f);
                }
                self.stats.calls += 1;
                if f < n_imported {
                    let ps = &compiled.params_ty[f as usize];
                    let at = stack.len() - ps.len();
                    let host_args: Vec<Value> = ps
                        .iter()
                        .zip(&stack[at..])
                        .map(|(t, s)| slot_to_value(*s, *t))
                        .collect();
                    let values = tr!(self.call_host_checked(f, &host_args));
                    stack.truncate(at);
                    stack.extend(values.iter().map(|v| value_to_slot(*v)));
                    if OBSERVE {
                        observer.on_return(f);
                    }
                    pc += 1;
                    seg_start = pc;
                    continue;
                }
                let callee = &funcs[(f - n_imported) as usize];
                let at = stack.len() - callee.n_params as usize;
                frames.push(Frame {
                    func: cur_func,
                    ret_pc: (pc + 1) as u32,
                    stack_base: stack_base as u32,
                    locals_base: locals_base as u32,
                });
                locals_base = locals.len();
                locals.extend_from_slice(&stack[at..]);
                let zeroed = locals.len() + callee.n_local_slots as usize;
                locals.resize(zeroed, 0);
                stack.truncate(at);
                stack_base = at;
                cur_func = f;
                cf = callee;
                pc = 0;
                seg_start = 0;
                continue;
            }};
        }

        loop {
            if PER_OP {
                if let Some(si) = &cf.src[pc] {
                    if let Some(f) = self.fuel.as_mut() {
                        if *f == 0 {
                            // The instruction that ran out of fuel is
                            // *not* counted (the tree-walker charges
                            // before incrementing).
                            self.stats.instructions += instrs;
                            return Err(Trap::OutOfFuel);
                        }
                        *f -= 1;
                    }
                    instrs += 1;
                    if OBSERVE {
                        observer.on_instr(si);
                    } else {
                        observer.on_block(1);
                    }
                }
            }
            match ops!()[pc] {
                Op::Nop => {}
                Op::Unreachable => throw!(Trap::Unreachable),
                Op::Jump(t) => {
                    tr!(self.check_deadline());
                    flush_seg!();
                    pc = t as usize;
                    seg_start = pc;
                    continue;
                }
                Op::Br(s) => take_branch!(s),
                Op::BrIf(s) => {
                    if stack.pop().expect("validated") as u32 != 0 {
                        take_branch!(s);
                    }
                }
                Op::BrIfNot(t) => {
                    if stack.pop().expect("validated") as u32 == 0 {
                        tr!(self.check_deadline());
                        flush_seg!();
                        pc = t as usize;
                        seg_start = pc;
                        continue;
                    }
                }
                Op::BrTable(ti) => {
                    let i = stack.pop().expect("validated") as u32;
                    let t = &cf.br_tables[ti as usize];
                    let slot = t.targets.get(i as usize).copied().unwrap_or(t.default);
                    take_branch!(slot)
                }
                Op::Return => {
                    let r = cf.n_results as usize;
                    if stack.len() - stack_base < r {
                        throw!(Trap::Host("function left too few results".into()));
                    }
                    flush_seg!();
                    let from = stack.len() - r;
                    stack.copy_within(from..from + r, stack_base);
                    stack.truncate(stack_base + r);
                    locals.truncate(locals_base);
                    if OBSERVE {
                        observer.on_return(cur_func);
                    }
                    match frames.pop() {
                        Some(fr) => {
                            cur_func = fr.func;
                            cf = &funcs[(fr.func - n_imported) as usize];
                            pc = fr.ret_pc as usize;
                            seg_start = pc;
                            stack_base = fr.stack_base as usize;
                            locals_base = fr.locals_base as usize;
                            continue;
                        }
                        None => break,
                    }
                }
                Op::Call(f) => {
                    flush_seg!();
                    seg_start = pc + 1;
                    do_call!(f)
                }
                Op::CallIndirect(expected) => {
                    let i = stack.pop().expect("validated") as u32;
                    flush_seg!();
                    seg_start = pc + 1;
                    let entry = match self.table.get(i as usize) {
                        Some(e) => *e,
                        None => throw!(Trap::TableOutOfBounds),
                    };
                    let f = match entry {
                        Some(f) => f,
                        None => throw!(Trap::UndefinedElement),
                    };
                    let actual = match compiled.canon_of_func.get(f as usize) {
                        Some(c) => *c,
                        None => throw!(Trap::UndefinedElement),
                    };
                    if actual != expected {
                        throw!(Trap::IndirectCallTypeMismatch);
                    }
                    do_call!(f)
                }
                Op::Drop => {
                    stack.pop().expect("validated");
                }
                Op::Select => {
                    let c = stack.pop().expect("validated") as u32;
                    let b = stack.pop().expect("validated");
                    let a = stack.pop().expect("validated");
                    stack.push(if c != 0 { a } else { b });
                }
                Op::LocalGet(x) => stack.push(locals[locals_base + x as usize]),
                Op::LocalSet(x) => {
                    locals[locals_base + x as usize] = stack.pop().expect("validated");
                }
                Op::LocalTee(x) => {
                    locals[locals_base + x as usize] = *stack.last().expect("validated");
                }
                Op::GlobalGet(x) => stack.push(value_to_slot(self.globals[x as usize])),
                Op::GlobalSet(x) => {
                    let g = &mut self.globals[x as usize];
                    *g = slot_to_value(stack.pop().expect("validated"), g.ty());
                }
                Op::Load(op, off) => do_load!(op, off),
                Op::Store(op, off) => do_store!(op, off),
                Op::MemorySize => {
                    let mem = self.memory.as_ref().expect("validated");
                    stack.push(u64::from(mem.size_pages()));
                }
                Op::MemoryGrow => {
                    // Close the segment through the grow itself before
                    // reporting the new size (the `on_mem_grow`
                    // ordering contract).
                    flush_seg!();
                    seg_start = pc + 1;
                    let delta = stack.pop().expect("validated") as u32 as i32;
                    let mem = self.memory.as_mut().expect("validated");
                    let r = if delta < 0 {
                        -1
                    } else {
                        mem.grow(delta as u32)
                    };
                    self.stats.mem_grows += 1;
                    let new_size = mem.size_bytes();
                    self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(new_size);
                    observer.on_mem_grow(new_size);
                    stack.push(u64::from(r as u32));
                }
                Op::Const(s) => stack.push(s),
                Op::Num(op) => tr!(exec_num_slot(op, stack)),
                Op::LocalGetConst(x, c) => {
                    stack.push(locals[locals_base + x as usize]);
                    stack.push(u64::from(c));
                }
                Op::LocalGet2(x, y) => {
                    stack.push(locals[locals_base + x as usize]);
                    stack.push(locals[locals_base + y as usize]);
                }
                Op::LocalGetConstNum(x, c, op) => {
                    stack.push(locals[locals_base + x as usize]);
                    stack.push(u64::from(c));
                    tr!(exec_num_slot(op, stack));
                }
                Op::LocalGetNum(x, op) => {
                    stack.push(locals[locals_base + x as usize]);
                    tr!(exec_num_slot(op, stack));
                }
                Op::ConstNum(c, op) => {
                    stack.push(u64::from(c));
                    tr!(exec_num_slot(op, stack));
                }
                Op::NumLocalSet(op, x) => {
                    tr!(exec_num_slot(op, stack));
                    locals[locals_base + x as usize] = stack.pop().expect("validated");
                }
                Op::NumBrIf(op, s) => {
                    tr!(exec_num_slot(op, stack));
                    if stack.pop().expect("validated") as u32 != 0 {
                        take_branch!(s);
                    }
                }
                Op::NumBrIfNot(op, t) => {
                    tr!(exec_num_slot(op, stack));
                    if stack.pop().expect("validated") as u32 == 0 {
                        tr!(self.check_deadline());
                        flush_seg!();
                        pc = t as usize;
                        seg_start = pc;
                        continue;
                    }
                }
                Op::NumLoad(op, lop, off) => {
                    tr!(exec_num_slot(op, stack));
                    do_load!(lop, off);
                }
                Op::ConstNumLoad(c, op, lop, off) => {
                    stack.push(u64::from(c));
                    tr!(exec_num_slot(op, stack));
                    do_load!(lop, off);
                }
                Op::LocalGetConstNumLoad(x, c, op, lop, off) => {
                    stack.push(locals[locals_base + x as usize]);
                    stack.push(u64::from(c));
                    tr!(exec_num_slot(op, stack));
                    do_load!(lop, off);
                }
                Op::LocalGetStore(x, sop, off) => {
                    stack.push(locals[locals_base + x as usize]);
                    do_store!(sop, off);
                }
                Op::NumStore(op, sop, off) => {
                    tr!(exec_num_slot(op, stack));
                    do_store!(sop, off);
                }
                Op::LocalIncConst(x, c) => {
                    let l = &mut locals[locals_base + x as usize];
                    *l = u64::from((*l as u32 as i32).wrapping_add(c as i32) as u32);
                }
                Op::LocalGetConstNumBrIf(x, c, op, s) => {
                    stack.push(locals[locals_base + x as usize]);
                    stack.push(u64::from(c));
                    tr!(exec_num_slot(op, stack));
                    if stack.pop().expect("validated") as u32 != 0 {
                        take_branch!(s);
                    }
                }
            }
            pc += 1;
        }
        self.stats.instructions += instrs;
        Ok(cf
            .results_ty
            .iter()
            .zip(stack.drain(..))
            .map(|(t, s)| slot_to_value(s, *t))
            .collect())
    }
}
