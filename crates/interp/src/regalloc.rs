//! The register allocator / lowering pass for the register-bytecode
//! tier (see [`crate::regs`] for the execution side).
//!
//! The allocator runs an *abstract stack* over each validated function
//! body: instead of tracking values, it tracks where each operand-stack
//! position's value lives — a local's register, a compile-time
//! constant, or the position's own *canonical register*
//! (`n_fixed + position`). Pure stack traffic then compiles to nothing:
//!
//! * `local.get x` pushes `Reg(x)` — no move is emitted; a consumer
//!   reads the local's register directly.
//! * `*.const k` pushes `Const(k)` — consumers fold it into an
//!   immediate operand (`ri`-form ops, store-value immediates) or
//!   materialise it only when a register is genuinely required.
//! * `<op>; local.set x` retargets the op's destination straight to
//!   `x` (the *retarget peephole*), eliminating the move.
//! * `<compare>; br_if` fuses into a single compare-and-branch op.
//! * An accounting instrumenter's charges on an i64 global (the
//!   shapes of [`acctee_wasm::charge`], found with its `recognize`)
//!   each lower to one op, placed before a compare whose branch they
//!   would otherwise split.
//!
//! The invariant that makes joins tractable: the full abstract stack is
//! materialised into canonical registers at every `block`/`loop`/`if`
//! entry, and entries below a label's height can never leave canonical
//! form while the label is open (writes to a local flush its aliases
//! first, and canonical registers of live positions are never reused).
//! Every join state is therefore "positions `0..h` canonical", known
//! without dataflow analysis.
//!
//! Accounting is *pending-cost*: source instructions that compile to
//! nothing accumulate in a pending counter that the next emitted op
//! absorbs into its cost; [`crate::regs::RegFunc::cost_prefix`] then
//! reproduces the tree-walker's exact instruction counts per segment.
//! Ops that only exist in the lowering (register moves, else-skip
//! jumps, the epilogue return) cost 0. A trap can only exit on the op
//! that carries the trapping source instruction's cost, so partial
//! segments account exactly like the oracle.
//!
//! Loops whose body [`acctee_wasm::rangeproof::prove_loop`] can prove
//! in-bounds are compiled *twice* — a checked and an unchecked copy
//! with identical per-iteration cost — behind a [`RegGuard`] evaluated
//! once per loop entry.

use std::collections::BTreeSet;

use acctee_wasm::charge::{self, Charge};
use acctee_wasm::instr::{BlockType, Instr};
use acctee_wasm::module::{ImportKind, Module};
use acctee_wasm::op::NumOp;
use acctee_wasm::rangeproof::{prove_loop, LoopBound};
use acctee_wasm::types::{FuncType, Mutability, ValType};

use crate::numslot::enc;
use crate::observer::InstrWeights;
use crate::regs::{
    bin_handlers, bin_try_handler, ctl, load_handlers, store_handlers, un_handlers, un_try_handler,
    Handler, OpKind, RegAccess, RegBound, RegBrTable, RegFunc, RegGuard, RegModule, RegOp,
    SegPrefix,
};
use crate::trap::Trap;

fn bad(what: &str) -> Trap {
    Trap::Host(format!("reg compile: {what} (module not validated?)"))
}

/// Lowers every local function of `module` to register bytecode.
///
/// With `weights`, each op also carries the summed weight of the
/// source instructions it accounts for, prefix-summed into
/// [`SegPrefix::weighted`]; the module then serves
/// [`crate::Accounting::Weighted`] observers with that key. A function
/// whose weighted total does not fit in a `u64` leaves the module
/// unweighted (those observers take the exact per-instruction path).
///
/// An `Err` is a *decline*, not a failure: the engine falls back to
/// the tree-walker for the whole module (e.g. a function needing more
/// than 65536 registers).
pub(crate) fn compile_regs(
    module: &Module,
    weights: Option<&InstrWeights>,
) -> Result<RegModule, Trap> {
    let type_canon = crate::compile::type_canon(module);
    let mut func_ty_idx: Vec<u32> = Vec::new();
    for imp in &module.imports {
        if let ImportKind::Func(t) = imp.kind {
            func_ty_idx.push(t);
        }
    }
    for f in &module.funcs {
        func_ty_idx.push(f.ty);
    }
    let has_memory = !module.memories.is_empty()
        || module
            .imports
            .iter()
            .any(|i| matches!(i.kind, ImportKind::Memory(_)));

    let mut next_ic: u32 = 0;
    let mut weighted_fits = true;
    let mut funcs = Vec::with_capacity(module.funcs.len());
    for f in &module.funcs {
        let ty = module
            .types
            .get(f.ty as usize)
            .ok_or_else(|| bad("func type"))?;
        let mut c = FnRegCompiler::new(
            module,
            &type_canon,
            &func_ty_idx,
            ty,
            f,
            has_memory,
            next_ic,
            weights,
        );
        c.body(&f.body, None)?;
        let (rf, fits) = c.finish(ty, &mut next_ic)?;
        weighted_fits &= fits;
        funcs.push(rf);
    }
    let weights = weights.filter(|_| weighted_fits).map(InstrWeights::key);
    Ok(RegModule {
        funcs,
        n_ic: next_ic,
        weights,
    })
}

/// The accounting an op carries: how many source instructions it
/// retires and their summed weight. The weight rides in lockstep with
/// the count through every pending-cost move, so a segment's weighted
/// sum covers exactly the instructions its count does. `u128` so no
/// sum can wrap during lowering; `finish` narrows the prefix to `u64`.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    instrs: u32,
    weighted: u128,
}

impl Cost {
    const ZERO: Cost = Cost {
        instrs: 0,
        weighted: 0,
    };
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        self.instrs += o.instrs;
        self.weighted += o.weighted;
    }
}

/// Where a stack position's value lives at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// A register: a local, or the position's canonical register.
    Reg(u16),
    /// A constant, pre-encoded as a slot.
    Const(u64),
}

/// A retarget/fusion candidate: the last emitted op, when it is
/// infallible and produced the current stack top.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Index of the op in `code`.
    at: usize,
    /// Its destination register (the top's canonical register).
    dst: u16,
    /// Fused compare-and-branch handlers `(brif, brifnot)`, for ops
    /// whose result feeds a conditional branch.
    fused: Option<(Handler, Handler)>,
    /// What the op is, for the address-arithmetic peepholes.
    kind: CandKind,
}

/// Shape of the candidate op, driving which rewrites may consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandKind {
    /// Any other producer.
    Plain,
    /// `i32.mul` by a constant — fuses with a following `i32.add`
    /// into [`ctl::madd`] (the `i * ncols + j` indexing idiom).
    MulRi,
    /// `i32.shl` by a constant — folds into a following load's
    /// address mode (`(index << k) + offset` scaled addressing).
    ShlRi,
}

/// An unresolved forward-branch target.
#[derive(Debug, Clone, Copy)]
enum RPatch {
    /// Patch `code[i].imm2`.
    Imm2(usize),
    /// Patch `br_tables[table].targets[case]`.
    TableCase {
        /// Table index.
        table: usize,
        /// Case index.
        case: usize,
    },
    /// Patch `br_tables[table].default`.
    TableDefault(usize),
}

/// An open structured label.
#[derive(Debug)]
struct RLabel {
    /// Whether branches go backward (to `pc`) or forward (patched).
    is_loop: bool,
    /// Stack height at entry.
    height: usize,
    /// Values a branch to this label carries.
    br_arity: u16,
    /// Values on the stack when the label closes.
    end_arity: u16,
    /// Backward-branch target (loops only).
    pc: u32,
    /// Forward branches awaiting the join PC.
    patches: Vec<RPatch>,
}

struct FnRegCompiler<'m> {
    module: &'m Module,
    type_canon: &'m [u32],
    func_ty_idx: &'m [u32],
    code: Vec<RegOp>,
    /// Per-op source-instruction cost (prefix-summed in `finish`).
    cost: Vec<Cost>,
    /// Per-op (loads, stores) — 1 on memory-access ops, 0 elsewhere —
    /// folded into the same prefix so the VM never touches a stat
    /// counter on the access path.
    mem: Vec<(u32, u32)>,
    br_tables: Vec<RegBrTable>,
    guards: Vec<RegGuard>,
    labels: Vec<RLabel>,
    /// Function-level branches (jump to the epilogue return).
    fn_patches: Vec<RPatch>,
    stack: Vec<Src>,
    /// Locals (params + declared) occupy registers `[0, n_fixed)`.
    n_fixed: u32,
    n_results: u16,
    /// High-water operand-stack depth (canonical register count).
    max_height: usize,
    /// Set after an unconditional transfer; the rest of the arm is
    /// dead and skipped.
    unreachable: bool,
    /// Source instructions awaiting an op to carry their cost.
    pending: Cost,
    /// The weights folded into [`Cost::weighted`], if any.
    weights: Option<&'m InstrWeights>,
    cand: Option<Cand>,
    has_memory: bool,
    /// Next module-wide inline-cache slot (seeded per function).
    next_ic: u32,
}

fn mk(handler: Handler) -> RegOp {
    mk_kind(handler, OpKind::Other)
}

fn mk_kind(handler: Handler, kind: OpKind) -> RegOp {
    RegOp {
        handler,
        imm: 0,
        imm2: 0,
        a: 0,
        b: 0,
        c: 0,
        kind,
    }
}

impl<'m> FnRegCompiler<'m> {
    #[allow(clippy::too_many_arguments)] // module-level context, read-only per function
    fn new(
        module: &'m Module,
        type_canon: &'m [u32],
        func_ty_idx: &'m [u32],
        ty: &FuncType,
        f: &acctee_wasm::module::Func,
        has_memory: bool,
        ic_base: u32,
        weights: Option<&'m InstrWeights>,
    ) -> FnRegCompiler<'m> {
        FnRegCompiler {
            module,
            type_canon,
            func_ty_idx,
            code: Vec::new(),
            cost: Vec::new(),
            mem: Vec::new(),
            br_tables: Vec::new(),
            guards: Vec::new(),
            labels: Vec::new(),
            fn_patches: Vec::new(),
            stack: Vec::new(),
            n_fixed: (ty.params.len() + f.locals.len()) as u32,
            n_results: ty.results.len() as u16,
            max_height: 0,
            unreachable: false,
            pending: Cost::ZERO,
            weights,
            cand: None,
            has_memory,
            next_ic: ic_base,
        }
    }

    /// The canonical register for stack position `p`. May wrap for
    /// over-wide frames; `finish` declines those before they can run.
    fn canon(&self, p: usize) -> u16 {
        (self.n_fixed as usize + p) as u16
    }

    fn push_src(&mut self, s: Src) {
        self.stack.push(s);
        if self.stack.len() > self.max_height {
            self.max_height = self.stack.len();
        }
    }

    /// Checks that popping `n` values stays above the innermost open
    /// label's height (which also protects the canonical-below-label
    /// invariant).
    fn check_pop(&self, n: usize) -> Result<(), Trap> {
        let floor = self.labels.last().map_or(0, |l| l.height);
        if self.stack.len() < floor + n {
            return Err(bad("stack underflow"));
        }
        Ok(())
    }

    fn emit(&mut self, op: RegOp, cost: Cost) -> usize {
        self.code.push(op);
        self.cost.push(cost);
        self.mem.push((0, 0));
        self.cand = None;
        self.code.len() - 1
    }

    /// Adds one executed source instruction to the pending cost.
    fn count(&mut self, instr: &Instr) {
        self.pending.instrs += 1;
        if let Some(w) = self.weights {
            self.pending.weighted += u128::from(w.weight(instr));
        }
    }

    fn take_pending(&mut self) -> Cost {
        std::mem::take(&mut self.pending)
    }

    /// Moves the pending cost onto the already-emitted op `at` (a
    /// peephole that rewrote `at` to cover the pending instructions).
    fn absorb_pending(&mut self, at: usize) {
        let cost = self.take_pending();
        self.cost[at] += cost;
    }

    /// Emits a zero-width accounting op if source instructions are
    /// still pending (needed wherever the next PC is a branch target).
    fn flush_pending(&mut self) {
        if self.pending.instrs > 0 {
            let cost = self.take_pending();
            self.emit(mk(ctl::tick), cost);
        }
    }

    /// Emits a (cost-0) move of `src` into `dst`, if it isn't one
    /// already.
    fn emit_mv(&mut self, src: Src, dst: u16) {
        match src {
            Src::Reg(r) if r == dst => {}
            Src::Reg(r) => {
                let mut o = mk(ctl::mv_rr);
                o.a = r;
                o.c = dst;
                self.emit(o, Cost::ZERO);
            }
            Src::Const(k) => {
                let mut o = mk(ctl::mv_ci);
                o.imm = k;
                o.c = dst;
                self.emit(o, Cost::ZERO);
            }
        }
    }

    /// Forces position `p` into its canonical register.
    fn materialize(&mut self, p: usize) {
        let want = self.canon(p);
        if self.stack[p] != Src::Reg(want) {
            let src = self.stack[p];
            self.emit_mv(src, want);
            self.stack[p] = Src::Reg(want);
        }
    }

    fn materialize_all(&mut self) {
        for p in 0..self.stack.len() {
            self.materialize(p);
        }
    }

    /// Materialises the top `n` positions (call arguments, results).
    fn materialize_top(&mut self, n: usize) {
        for p in self.stack.len() - n..self.stack.len() {
            self.materialize(p);
        }
    }

    /// The register holding position `p`'s value, materialising a
    /// constant if needed (locals are read in place).
    fn val_reg(&mut self, p: usize) -> u16 {
        match self.stack[p] {
            Src::Reg(r) => r,
            Src::Const(k) => {
                let dst = self.canon(p);
                self.emit_mv(Src::Const(k), dst);
                self.stack[p] = Src::Reg(dst);
                dst
            }
        }
    }

    /// Materialises every stack entry aliasing local `x` (which is
    /// about to be overwritten). `skip_top` excludes the top position
    /// (`local.tee`'s own value).
    fn flush_local_aliases(&mut self, x: u16, skip_top: bool) {
        let n = self.stack.len() - usize::from(skip_top);
        for p in 0..n {
            if self.stack[p] == Src::Reg(x) {
                self.materialize(p);
            }
        }
    }

    /// `(height, arity)` of branch depth `l`; `l == labels.len()` is
    /// the function-level label (branch to the epilogue).
    fn label_info(&self, l: u32) -> Result<(usize, u16), Trap> {
        let l = l as usize;
        if l == self.labels.len() {
            return Ok((0, self.n_results));
        }
        let lbl = self
            .labels
            .get(self.labels.len() - 1 - l)
            .ok_or_else(|| bad("branch depth"))?;
        Ok((lbl.height, lbl.br_arity))
    }

    /// Resolves branch depth `l`: a known PC for backward branches,
    /// or `u32::MAX` with `patch` registered for forward ones.
    fn branch_target(&mut self, l: u32, patch: RPatch) -> Result<u32, Trap> {
        let l = l as usize;
        if l == self.labels.len() {
            self.fn_patches.push(patch);
            return Ok(u32::MAX);
        }
        let idx = self
            .labels
            .len()
            .checked_sub(1 + l)
            .ok_or_else(|| bad("branch depth"))?;
        if self.labels[idx].is_loop {
            Ok(self.labels[idx].pc)
        } else {
            self.labels[idx].patches.push(patch);
            Ok(u32::MAX)
        }
    }

    fn apply_patch(&mut self, p: RPatch, target: u32) {
        match p {
            RPatch::Imm2(i) => self.code[i].imm2 = target,
            RPatch::TableCase { table, case } => self.br_tables[table].targets[case] = target,
            RPatch::TableDefault(t) => self.br_tables[t].default = target,
        }
    }

    /// Moves the top `arity` stack values into the canonical registers
    /// of positions `h_t..h_t + arity` (a branch's value transfer).
    /// Does not mutate the abstract stack: `br_if` falls through with
    /// its values intact.
    fn emit_branch_values(&mut self, h_t: usize, arity: usize) -> Result<(), Trap> {
        if self.stack.len() < h_t + arity {
            return Err(bad("branch values"));
        }
        let len = self.stack.len();
        for k in 0..arity {
            let src = self.stack[len - arity + k];
            let dst = self.canon(h_t + k);
            self.emit_mv(src, dst);
        }
        Ok(())
    }

    /// Ends a structured arm that falls through: materialises the
    /// label's result values and flushes pending cost so the join PC
    /// starts a clean segment.
    fn seal_arm(&mut self, end_arity: usize) -> Result<(), Trap> {
        if !self.unreachable {
            if self.stack.len() < end_arity {
                return Err(bad("arm results"));
            }
            self.materialize_top(end_arity);
            self.flush_pending();
        }
        self.cand = None;
        Ok(())
    }

    /// Closes the innermost label: applies its forward patches to the
    /// current PC and rebuilds the canonical join stack.
    fn close_label(&mut self) {
        let label = self.labels.pop().expect("label open");
        let here = self.code.len() as u32;
        for p in label.patches {
            self.apply_patch(p, here);
        }
        self.stack.truncate(label.height);
        for k in 0..label.end_arity as usize {
            let r = self.canon(label.height + k);
            self.push_src(Src::Reg(r));
        }
        self.unreachable = false;
        self.cand = None;
    }

    /// The `(params, results)` arity of function `f` (combined index
    /// space).
    fn func_arity(&self, f: u32) -> Result<(usize, usize), Trap> {
        let t = *self
            .func_ty_idx
            .get(f as usize)
            .ok_or_else(|| bad("call target"))?;
        let ty = self
            .module
            .types
            .get(t as usize)
            .ok_or_else(|| bad("call type"))?;
        Ok((ty.params.len(), ty.results.len()))
    }

    /// Compiles a call's argument setup and result push around the
    /// emitted op: arguments are materialised contiguously, results
    /// appear in the same canonical registers.
    fn finish_call(&mut self, n_args: usize, n_res: usize) {
        let at = self.stack.len() - n_args;
        self.stack.truncate(at);
        for k in 0..n_res {
            let r = self.canon(at + k);
            self.push_src(Src::Reg(r));
        }
    }

    /// Recognises the canonical counted-loop tail at `instrs[at..]` —
    /// `local.get i; i32.const step; i32.add; local.set i;
    /// local.get i; (local.get n | i32.const c); i32.lt_s; br_if 0` —
    /// and, when the innermost label is a loop, emits the whole
    /// window as one fused op ([`ctl::for_tail_r`] /
    /// [`ctl::for_tail_i`]): increment, compare and backedge in a
    /// single dispatch. All eight source instructions are infallible
    /// and execute as a unit (`br_if` is counted whether taken or
    /// not), so the op carries their full eight-instruction cost and
    /// accounting stays exact at every flush boundary.
    ///
    /// A charge sequence between the `i32.lt_s` and the `br_if` (where
    /// an instrumenter closes the loop body's segment) lowers to its
    /// fused op just before the tail op, for the reason
    /// [`FnRegCompiler::try_charge`] gives — unless it is a closed
    /// form reading `i`, which the tail op increments: then the window
    /// does not match. Returns how many
    /// instructions it consumed (0: no match); the caller skips them.
    fn try_for_tail(&mut self, instrs: &[Instr], at: usize) -> usize {
        let Some(lbl) = self.labels.last() else {
            return 0;
        };
        if !lbl.is_loop || lbl.br_arity != 0 {
            return 0;
        }
        let target = lbl.pc;
        let w = &instrs[at..];
        if w.len() < 8 {
            return 0;
        }
        let (i, step) = match (&w[0], &w[1], &w[2], &w[3]) {
            (
                Instr::LocalGet(i),
                Instr::I32Const(k),
                Instr::Num(NumOp::I32Add),
                Instr::LocalSet(i2),
            ) if i2 == i => (*i as u16, *k),
            _ => return 0,
        };
        let bound = match (&w[4], &w[5], &w[6]) {
            (Instr::LocalGet(i3), Instr::LocalGet(n), Instr::Num(NumOp::I32LtS))
                if *i3 as u16 == i =>
            {
                Src::Reg(*n as u16)
            }
            (Instr::LocalGet(i3), Instr::I32Const(c), Instr::Num(NumOp::I32LtS))
                if *i3 as u16 == i =>
            {
                Src::Const(enc::I32(*c))
            }
            _ => return 0,
        };
        let charge = match &w[7] {
            Instr::BrIf(0) => None,
            _ => match self.match_charge(&w[7..]) {
                // A closed form reading `i` must see it incremented,
                // so it cannot run before the tail op.
                Some((o, _)) if o.kind == OpKind::ChargeTrips && (o.a == i || o.b == i) => {
                    return 0
                }
                Some((o, len)) if matches!(w.get(7 + len), Some(Instr::BrIf(0))) => Some((o, len)),
                _ => return 0,
            },
        };
        let n = 8 + charge.map_or(0, |(_, len)| len);
        // The op writes local `i` in place; stale aliases of it on
        // the operand stack are materialised first, exactly as the
        // `local.set` would have done.
        self.flush_local_aliases(i, false);
        if let Some((o, len)) = charge {
            for instr in &w[7..7 + len] {
                self.count(instr);
            }
            let cost = self.take_pending();
            self.emit(o, cost);
        }
        for instr in w[..7].iter().chain(&w[n - 1..n]) {
            self.count(instr);
        }
        let mut o = match bound {
            Src::Reg(n) => {
                let mut o = mk_kind(ctl::for_tail_r, OpKind::ForTailReg);
                o.b = n;
                o.imm = u64::from(step as u32);
                o
            }
            Src::Const(c) => {
                let mut o = mk_kind(ctl::for_tail_i, OpKind::ForTailConst);
                o.imm = u64::from(step as u32) | (c << 32);
                o
            }
        };
        o.a = i;
        o.imm2 = target;
        let cost = self.take_pending();
        self.emit(o, cost);
        n
    }

    /// Lowers a charge at the start of `w` ([`charge::recognize`]) on
    /// a mutable i64 global: [`Charge::Add`] to [`ctl::charge`], and
    /// [`Charge::Trips`] to [`ctl::charge_trips`] if `step` is in
    /// `1..=u16::MAX`, where its `div_s` cannot trap; any other step
    /// stays unfused and traps where the oracle does. Returns the
    /// fused op (not yet emitted) and the window length. Either window
    /// is straight-line and infallible, so the op carries the full
    /// cost of its source instructions. Nothing here knows which
    /// global is the counter: any mutable i64 global fuses.
    fn match_charge(&self, w: &[Instr]) -> Option<(RegOp, usize)> {
        let (charge, n) = charge::recognize(w)?;
        let (g, mut o) = match charge {
            Charge::Add { global, k } => {
                let mut o = mk_kind(ctl::charge, OpKind::Charge);
                o.imm = k as u64;
                (global, o)
            }
            Charge::Trips {
                global,
                i,
                saved,
                step,
                k,
            } if (1..=i32::from(u16::MAX)).contains(&step) => {
                let mut o = mk_kind(ctl::charge_trips, OpKind::ChargeTrips);
                o.a = i as u16;
                o.b = saved as u16;
                o.c = step as u16;
                o.imm = k as u64;
                (global, o)
            }
            Charge::Trips { .. } => return None,
        };
        let is_var_i64 = self
            .module
            .global_type(g)
            .is_some_and(|t| t.val == ValType::I64 && t.mutability == Mutability::Var);
        o.imm2 = g;
        is_var_i64.then_some((o, n))
    }

    /// Lowers a charge sequence at `instrs[at..]` (see
    /// [`FnRegCompiler::match_charge`]) to its fused op. Returns how
    /// many instructions it consumed (0: no match).
    ///
    /// When the charge sits between an infallible producer (the last
    /// op, still the fusion candidate) and the `br_if` / `if` that
    /// consumes its result, the charge op is placed *before* the
    /// producer, so the producer stays fusable into a
    /// compare-and-branch. That reorder is exact: no label lies
    /// between the two, both are infallible, and the producer reads
    /// only registers, never the charged global; a branch that
    /// targeted the producer now lands on the charge, which every path
    /// through the producer ran anyway.
    fn try_charge(&mut self, instrs: &[Instr], at: usize) -> usize {
        let Some((o, n)) = self.match_charge(&instrs[at..]) else {
            return 0;
        };
        for instr in &instrs[at..at + n] {
            self.count(instr);
        }
        let cost = self.take_pending();
        let top = self.stack.last().copied();
        match (self.cand, instrs.get(at + n)) {
            (Some(c), Some(Instr::BrIf(_) | Instr::If { .. }))
                if c.fused.is_some() && top == Some(Src::Reg(c.dst)) =>
            {
                debug_assert_eq!(c.at + 1, self.code.len(), "the candidate is the last op");
                self.code.insert(c.at, o);
                self.cost.insert(c.at, cost);
                self.mem.insert(c.at, (0, 0));
                self.cand = Some(Cand { at: c.at + 1, ..c });
            }
            _ => {
                self.emit(o, cost);
            }
        }
        n
    }

    /// Compiles one body. `unchecked` holds the body-slice indices of
    /// loads/stores proven in bounds by the enclosing loop's guard
    /// (top level of a guarded loop body only — such bodies contain
    /// no nested control).
    #[allow(clippy::too_many_lines)]
    fn body(&mut self, instrs: &[Instr], unchecked: Option<&BTreeSet<usize>>) -> Result<(), Trap> {
        let mut skip = 0usize;
        for (at, instr) in instrs.iter().enumerate() {
            if skip > 0 {
                skip -= 1;
                continue;
            }
            if self.unreachable {
                break;
            }
            let fused = match instr {
                Instr::LocalGet(_) => self.try_for_tail(instrs, at),
                Instr::GlobalGet(_) => self.try_charge(instrs, at),
                _ => 0,
            };
            if fused > 0 {
                skip = fused - 1;
                continue;
            }
            match instr {
                Instr::Nop => self.count(instr),
                Instr::Drop => {
                    self.count(instr);
                    self.check_pop(1)?;
                    self.stack.pop();
                }
                Instr::LocalGet(x) => {
                    self.count(instr);
                    self.push_src(Src::Reg(*x as u16));
                }
                Instr::LocalSet(x) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let v = self.stack.pop().expect("checked");
                    let x = *x as u16;
                    self.flush_local_aliases(x, false);
                    if let Some(c) = self.cand {
                        if v == Src::Reg(c.dst) {
                            // Retarget peephole: the producing op
                            // writes the local directly.
                            self.code[c.at].c = x;
                            self.absorb_pending(c.at);
                            self.cand = None;
                            continue;
                        }
                    }
                    if v == Src::Reg(x) {
                        continue; // value already lives in x
                    }
                    let cost = self.take_pending();
                    match v {
                        Src::Reg(r) => {
                            let mut o = mk(ctl::mv_rr);
                            o.a = r;
                            o.c = x;
                            self.emit(o, cost);
                        }
                        Src::Const(k) => {
                            let mut o = mk(ctl::mv_ci);
                            o.imm = k;
                            o.c = x;
                            self.emit(o, cost);
                        }
                    }
                }
                Instr::LocalTee(x) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let v = *self.stack.last().expect("checked");
                    let x = *x as u16;
                    self.flush_local_aliases(x, true);
                    if let Some(c) = self.cand {
                        if v == Src::Reg(c.dst) {
                            self.code[c.at].c = x;
                            self.absorb_pending(c.at);
                            self.cand = None;
                            *self.stack.last_mut().expect("checked") = Src::Reg(x);
                            continue;
                        }
                    }
                    if v == Src::Reg(x) {
                        continue;
                    }
                    let cost = self.take_pending();
                    match v {
                        Src::Reg(r) => {
                            let mut o = mk(ctl::mv_rr);
                            o.a = r;
                            o.c = x;
                            self.emit(o, cost);
                        }
                        Src::Const(k) => {
                            let mut o = mk(ctl::mv_ci);
                            o.imm = k;
                            o.c = x;
                            self.emit(o, cost);
                        }
                    }
                    *self.stack.last_mut().expect("checked") = Src::Reg(x);
                }
                Instr::GlobalGet(g) => {
                    self.count(instr);
                    let dst = self.canon(self.stack.len());
                    let mut o = mk_kind(ctl::global_get, OpKind::GlobalGet);
                    o.imm2 = *g;
                    o.c = dst;
                    let cost = self.take_pending();
                    let at = self.emit(o, cost);
                    self.push_src(Src::Reg(dst));
                    self.cand = Some(Cand {
                        at,
                        dst,
                        fused: None,
                        kind: CandKind::Plain,
                    });
                }
                Instr::GlobalSet(g) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let ra = self.val_reg(self.stack.len() - 1);
                    self.stack.pop();
                    let mut o = mk_kind(ctl::global_set, OpKind::GlobalSet);
                    o.imm2 = *g;
                    o.a = ra;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                }
                Instr::I32Const(v) => {
                    self.count(instr);
                    self.push_src(Src::Const(enc::I32(*v)));
                }
                Instr::I64Const(v) => {
                    self.count(instr);
                    self.push_src(Src::Const(enc::I64(*v)));
                }
                Instr::F32Const(v) => {
                    self.count(instr);
                    self.push_src(Src::Const(enc::F32(*v)));
                }
                Instr::F64Const(v) => {
                    self.count(instr);
                    self.push_src(Src::Const(enc::F64(*v)));
                }
                Instr::Num(op) => {
                    self.count(instr);
                    if let Some(h) = bin_handlers(*op) {
                        self.check_pop(2)?;
                        let pb = self.stack.len() - 1;
                        let pa = pb - 1;
                        let dst = self.canon(pa);
                        if let Src::Const(k) = self.stack[pb] {
                            let ra = self.val_reg(pa);
                            self.stack.truncate(pa);
                            let mut o = mk(h.ri);
                            o.imm = k;
                            o.a = ra;
                            o.c = dst;
                            let cost = self.take_pending();
                            let at = self.emit(o, cost);
                            self.push_src(Src::Reg(dst));
                            self.cand = Some(Cand {
                                at,
                                dst,
                                fused: Some((h.ri_brif, h.ri_brifnot)),
                                kind: match op {
                                    NumOp::I32Mul => CandKind::MulRi,
                                    NumOp::I32Shl => CandKind::ShlRi,
                                    _ => CandKind::Plain,
                                },
                            });
                        } else {
                            // madd peephole: `i32.mul`-by-const
                            // feeding an `i32.add` over registers
                            // rewrites in place to `a * imm + b` —
                            // the flattened 2-D index `i * ncols + j`
                            // in one dispatch. Both halves are
                            // infallible, so absorbing the add's cost
                            // into the mul's op keeps trap accounting
                            // exact (no flush point lies between).
                            if *op == NumOp::I32Add {
                                if let Some(c) = self.cand {
                                    let other = match (self.stack[pa], self.stack[pb]) {
                                        (Src::Reg(r), Src::Reg(o2)) if r == c.dst && o2 != r => {
                                            Some(o2)
                                        }
                                        (Src::Reg(o2), Src::Reg(r)) if r == c.dst && o2 != r => {
                                            Some(o2)
                                        }
                                        _ => None,
                                    };
                                    if let (CandKind::MulRi, Some(other)) = (c.kind, other) {
                                        self.stack.truncate(pa);
                                        let o = &mut self.code[c.at];
                                        o.handler = ctl::madd;
                                        o.kind = OpKind::Madd;
                                        o.b = other;
                                        o.c = dst;
                                        self.absorb_pending(c.at);
                                        self.push_src(Src::Reg(dst));
                                        self.cand = Some(Cand {
                                            at: c.at,
                                            dst,
                                            fused: None,
                                            kind: CandKind::Plain,
                                        });
                                        continue;
                                    }
                                }
                            }
                            let rb = self.val_reg(pb);
                            let ra = self.val_reg(pa);
                            self.stack.truncate(pa);
                            let mut o = mk(h.rr);
                            o.a = ra;
                            o.b = rb;
                            o.c = dst;
                            let cost = self.take_pending();
                            let at = self.emit(o, cost);
                            self.push_src(Src::Reg(dst));
                            self.cand = Some(Cand {
                                at,
                                dst,
                                fused: Some((h.rr_brif, h.rr_brifnot)),
                                kind: CandKind::Plain,
                            });
                        }
                    } else if let Some(h) = un_handlers(*op) {
                        self.check_pop(1)?;
                        let pa = self.stack.len() - 1;
                        let ra = self.val_reg(pa);
                        self.stack.truncate(pa);
                        let dst = self.canon(pa);
                        let mut o = mk(h.r);
                        o.a = ra;
                        o.c = dst;
                        let cost = self.take_pending();
                        let at = self.emit(o, cost);
                        self.push_src(Src::Reg(dst));
                        self.cand = Some(Cand {
                            at,
                            dst,
                            fused: Some((h.r_brif, h.r_brifnot)),
                            kind: CandKind::Plain,
                        });
                    } else if let Some(h) = bin_try_handler(*op) {
                        // Fallible: never retargeted or fused, so a
                        // trap exits on the op carrying its own cost.
                        self.check_pop(2)?;
                        let pb = self.stack.len() - 1;
                        let pa = pb - 1;
                        let rb = self.val_reg(pb);
                        let ra = self.val_reg(pa);
                        self.stack.truncate(pa);
                        let dst = self.canon(pa);
                        let mut o = mk(h);
                        o.a = ra;
                        o.b = rb;
                        o.c = dst;
                        let cost = self.take_pending();
                        self.emit(o, cost);
                        self.push_src(Src::Reg(dst));
                    } else if let Some(h) = un_try_handler(*op) {
                        self.check_pop(1)?;
                        let pa = self.stack.len() - 1;
                        let ra = self.val_reg(pa);
                        self.stack.truncate(pa);
                        let dst = self.canon(pa);
                        let mut o = mk(h);
                        o.a = ra;
                        o.c = dst;
                        let cost = self.take_pending();
                        self.emit(o, cost);
                        self.push_src(Src::Reg(dst));
                    } else {
                        return Err(bad("uncovered num op"));
                    }
                }
                Instr::Select => {
                    self.count(instr);
                    self.check_pop(3)?;
                    let pc_ = self.stack.len() - 1;
                    let rc = self.val_reg(pc_);
                    let rb = self.val_reg(pc_ - 1);
                    let ra = self.val_reg(pc_ - 2);
                    self.stack.truncate(pc_ - 2);
                    let dst = self.canon(pc_ - 2);
                    let mut o = mk(ctl::select);
                    o.a = ra;
                    o.b = rb;
                    o.imm2 = u32::from(rc);
                    o.c = dst;
                    let cost = self.take_pending();
                    let at = self.emit(o, cost);
                    self.push_src(Src::Reg(dst));
                    self.cand = Some(Cand {
                        at,
                        dst,
                        fused: None,
                        kind: CandKind::Plain,
                    });
                }
                Instr::Load(op, memarg) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let pa = self.stack.len() - 1;
                    let h = load_handlers(*op);
                    let proven = unchecked.is_some_and(|s| s.contains(&at));
                    let dst = self.canon(pa);
                    // Scaled-address peephole: an `i32.shl`-by-const
                    // producing the address folds into the access
                    // (`(index << k) + offset`). The shl is
                    // infallible and runs before any possible trap,
                    // so absorbing its cost into the (fallible) load
                    // keeps trap accounting exact.
                    if let Some(c) = self.cand {
                        if c.kind == CandKind::ShlRi && self.stack[pa] == Src::Reg(c.dst) {
                            self.stack.truncate(pa);
                            let o = &mut self.code[c.at];
                            o.handler = if proven {
                                h.unchecked_shl
                            } else {
                                h.checked_shl
                            };
                            o.kind = OpKind::Load {
                                proven,
                                scaled: true,
                            };
                            o.imm2 = memarg.offset;
                            o.c = dst;
                            self.absorb_pending(c.at);
                            self.mem[c.at].0 = 1;
                            self.push_src(Src::Reg(dst));
                            self.cand = None;
                            continue;
                        }
                    }
                    let ra = self.val_reg(pa);
                    self.stack.truncate(pa);
                    let mut o = mk_kind(
                        if proven { h.unchecked } else { h.checked },
                        OpKind::Load {
                            proven,
                            scaled: false,
                        },
                    );
                    o.a = ra;
                    o.imm2 = memarg.offset;
                    o.c = dst;
                    let cost = self.take_pending();
                    let at = self.emit(o, cost);
                    self.mem[at].0 = 1;
                    self.push_src(Src::Reg(dst));
                }
                Instr::Store(op, memarg) => {
                    self.count(instr);
                    self.check_pop(2)?;
                    let pv = self.stack.len() - 1;
                    let h = store_handlers(*op);
                    let proven = unchecked.is_some_and(|s| s.contains(&at));
                    if let Src::Const(k) = self.stack[pv] {
                        let ra = self.val_reg(pv - 1);
                        self.stack.truncate(pv - 1);
                        let mut o = mk(if proven { h.i_unchecked } else { h.i_checked });
                        o.a = ra;
                        o.imm = k;
                        o.imm2 = memarg.offset;
                        let cost = self.take_pending();
                        let at = self.emit(o, cost);
                        self.mem[at].1 = 1;
                    } else {
                        let rv = self.val_reg(pv);
                        let ra = self.val_reg(pv - 1);
                        self.stack.truncate(pv - 1);
                        let mut o = mk(if proven { h.r_unchecked } else { h.r_checked });
                        o.a = ra;
                        o.b = rv;
                        o.imm2 = memarg.offset;
                        let cost = self.take_pending();
                        let at = self.emit(o, cost);
                        self.mem[at].1 = 1;
                    }
                }
                Instr::MemorySize => {
                    self.count(instr);
                    let dst = self.canon(self.stack.len());
                    let mut o = mk(ctl::mem_size);
                    o.c = dst;
                    let cost = self.take_pending();
                    let at = self.emit(o, cost);
                    self.push_src(Src::Reg(dst));
                    self.cand = Some(Cand {
                        at,
                        dst,
                        fused: None,
                        kind: CandKind::Plain,
                    });
                }
                Instr::MemoryGrow => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let pa = self.stack.len() - 1;
                    let ra = self.val_reg(pa);
                    self.stack.truncate(pa);
                    let dst = self.canon(pa);
                    let mut o = mk(ctl::mem_grow);
                    o.a = ra;
                    o.c = dst;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    self.push_src(Src::Reg(dst));
                }
                Instr::Unreachable => {
                    self.count(instr);
                    let cost = self.take_pending();
                    self.emit(mk(ctl::unreachable), cost);
                    self.unreachable = true;
                }
                Instr::Block { ty, body } => {
                    self.count(instr);
                    self.materialize_all();
                    let arity = ty.results().len() as u16;
                    self.labels.push(RLabel {
                        is_loop: false,
                        height: self.stack.len(),
                        br_arity: arity,
                        end_arity: arity,
                        pc: 0,
                        patches: Vec::new(),
                    });
                    self.body(body, None)?;
                    self.seal_arm(arity as usize)?;
                    self.close_label();
                }
                Instr::Loop { ty, body } => {
                    self.count(instr);
                    self.materialize_all();
                    self.compile_loop(*ty, body)?;
                }
                Instr::If { ty, then, els } => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let arity = ty.results().len() as u16;
                    // Materialise everything below the condition.
                    for p in 0..self.stack.len() - 1 {
                        self.materialize(p);
                    }
                    let top = *self.stack.last().expect("checked");
                    let brifnot_at = match self.cand {
                        Some(c) if top == Src::Reg(c.dst) && c.fused.is_some() => {
                            // Fuse the condition-producing compare
                            // into a compare-and-branch-if-false.
                            let (_, brifnot) = c.fused.expect("checked");
                            self.code[c.at].handler = brifnot;
                            self.code[c.at].kind = OpKind::CmpBranch;
                            self.code[c.at].imm2 = u32::MAX;
                            self.absorb_pending(c.at);
                            self.cand = None;
                            self.stack.pop();
                            c.at
                        }
                        _ => {
                            let rc = self.val_reg(self.stack.len() - 1);
                            self.stack.pop();
                            let mut o = mk(ctl::br_if_not);
                            o.a = rc;
                            o.imm2 = u32::MAX;
                            let cost = self.take_pending();
                            self.emit(o, cost)
                        }
                    };
                    self.labels.push(RLabel {
                        is_loop: false,
                        height: self.stack.len(),
                        br_arity: arity,
                        end_arity: arity,
                        pc: 0,
                        patches: Vec::new(),
                    });
                    self.body(then, None)?;
                    self.seal_arm(arity as usize)?;
                    if els.is_empty() {
                        self.code[brifnot_at].imm2 = self.code.len() as u32;
                        self.close_label();
                    } else {
                        if !self.unreachable {
                            // Skip the else-arm; lands on the join.
                            let j = self.emit(mk(ctl::jump), Cost::ZERO);
                            let lbl = self.labels.last_mut().expect("open");
                            lbl.patches.push(RPatch::Imm2(j));
                        }
                        self.code[brifnot_at].imm2 = self.code.len() as u32;
                        let height = self.labels.last().expect("open").height;
                        self.stack.truncate(height);
                        self.unreachable = false;
                        self.cand = None;
                        self.body(els, None)?;
                        self.seal_arm(arity as usize)?;
                        self.close_label();
                    }
                }
                Instr::Br(l) => {
                    self.count(instr);
                    let (h_t, arity) = self.label_info(*l)?;
                    self.emit_branch_values(h_t, arity as usize)?;
                    let j = self.code.len();
                    let target = self.branch_target(*l, RPatch::Imm2(j))?;
                    let mut o = mk(ctl::jump);
                    o.imm2 = target;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    self.unreachable = true;
                }
                Instr::BrIf(l) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let (h_t, arity) = self.label_info(*l)?;
                    if arity == 0 {
                        let top = *self.stack.last().expect("checked");
                        match self.cand {
                            Some(c) if top == Src::Reg(c.dst) && c.fused.is_some() => {
                                let (brif, _) = c.fused.expect("checked");
                                let target = self.branch_target(*l, RPatch::Imm2(c.at))?;
                                self.code[c.at].handler = brif;
                                self.code[c.at].kind = OpKind::CmpBranch;
                                self.code[c.at].imm2 = target;
                                self.absorb_pending(c.at);
                                self.cand = None;
                                self.stack.pop();
                            }
                            _ => {
                                let rc = self.val_reg(self.stack.len() - 1);
                                self.stack.pop();
                                let j = self.code.len();
                                let target = self.branch_target(*l, RPatch::Imm2(j))?;
                                let mut o = mk(ctl::br_if);
                                o.a = rc;
                                o.imm2 = target;
                                let cost = self.take_pending();
                                self.emit(o, cost);
                            }
                        }
                    } else {
                        // Taken path carries values: invert around a
                        // value-shuffle + jump sequence.
                        let rc = self.val_reg(self.stack.len() - 1);
                        self.stack.pop();
                        let mut skip = mk(ctl::br_if_not);
                        skip.a = rc;
                        skip.imm2 = u32::MAX;
                        let cost = self.take_pending();
                        let skip_at = self.emit(skip, cost);
                        self.emit_branch_values(h_t, arity as usize)?;
                        let j = self.code.len();
                        let target = self.branch_target(*l, RPatch::Imm2(j))?;
                        let mut o = mk(ctl::jump);
                        o.imm2 = target;
                        self.emit(o, Cost::ZERO);
                        self.code[skip_at].imm2 = self.code.len() as u32;
                    }
                }
                Instr::BrTable { targets, default } => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let ri = self.val_reg(self.stack.len() - 1);
                    self.stack.pop();
                    let (_, arity) = self.label_info(*default)?;
                    let ti = self.br_tables.len();
                    self.br_tables.push(RegBrTable {
                        targets: vec![u32::MAX; targets.len()],
                        default: u32::MAX,
                    });
                    let mut o = mk(ctl::br_table);
                    o.b = ri;
                    o.imm2 = ti as u32;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    if arity == 0 {
                        for (case, l) in targets.iter().enumerate() {
                            let t =
                                self.branch_target(*l, RPatch::TableCase { table: ti, case })?;
                            self.br_tables[ti].targets[case] = t;
                        }
                        let d = self.branch_target(*default, RPatch::TableDefault(ti))?;
                        self.br_tables[ti].default = d;
                    } else {
                        // Per-case stubs shuffle the carried values
                        // for that target's height, then jump.
                        for (case, l) in targets.iter().enumerate() {
                            self.br_tables[ti].targets[case] = self.code.len() as u32;
                            let (h_t, _) = self.label_info(*l)?;
                            self.emit_branch_values(h_t, arity as usize)?;
                            let j = self.code.len();
                            let t = self.branch_target(*l, RPatch::Imm2(j))?;
                            let mut o = mk(ctl::jump);
                            o.imm2 = t;
                            self.emit(o, Cost::ZERO);
                        }
                        self.br_tables[ti].default = self.code.len() as u32;
                        let (h_t, _) = self.label_info(*default)?;
                        self.emit_branch_values(h_t, arity as usize)?;
                        let j = self.code.len();
                        let t = self.branch_target(*default, RPatch::Imm2(j))?;
                        let mut o = mk(ctl::jump);
                        o.imm2 = t;
                        self.emit(o, Cost::ZERO);
                    }
                    self.unreachable = true;
                }
                Instr::Return => {
                    self.count(instr);
                    let n = self.n_results as usize;
                    if self.stack.len() < n {
                        return Err(bad("return values"));
                    }
                    self.materialize_top(n);
                    let mut o = mk(ctl::ret);
                    o.a = self.canon(self.stack.len() - n);
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    self.unreachable = true;
                }
                Instr::Call(f) => {
                    self.count(instr);
                    let (n_args, n_res) = self.func_arity(*f)?;
                    if self.stack.len() < n_args {
                        return Err(bad("call args"));
                    }
                    self.materialize_top(n_args);
                    let mut o = mk(ctl::call);
                    o.a = self.canon(self.stack.len() - n_args);
                    o.imm2 = *f;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    self.finish_call(n_args, n_res);
                }
                Instr::CallIndirect(t) => {
                    self.count(instr);
                    self.check_pop(1)?;
                    let ri = self.val_reg(self.stack.len() - 1);
                    self.stack.pop();
                    let ty = self
                        .module
                        .types
                        .get(*t as usize)
                        .ok_or_else(|| bad("indirect type"))?;
                    let (n_args, n_res) = (ty.params.len(), ty.results.len());
                    if self.stack.len() < n_args {
                        return Err(bad("indirect args"));
                    }
                    self.materialize_top(n_args);
                    let canon_ty = *self
                        .type_canon
                        .get(*t as usize)
                        .ok_or_else(|| bad("indirect type"))?;
                    let mut o = mk(ctl::call_indirect);
                    o.a = self.canon(self.stack.len() - n_args);
                    o.b = ri;
                    o.imm = u64::from(canon_ty);
                    o.imm2 = self.next_ic;
                    self.next_ic += 1;
                    let cost = self.take_pending();
                    self.emit(o, cost);
                    self.finish_call(n_args, n_res);
                }
            }
        }
        Ok(())
    }

    /// Compiles a loop. When the body passes the range proof, emits a
    /// guard followed by checked and unchecked body copies with
    /// identical per-iteration cost; otherwise a plain loop.
    fn compile_loop(&mut self, ty: BlockType, body: &[Instr]) -> Result<(), Trap> {
        let proof = if self.has_memory && ty == BlockType::Empty {
            prove_loop(body).filter(|p| !p.accesses.is_empty())
        } else {
            None
        };
        let arity = ty.results().len() as u16;
        let Some(proof) = proof else {
            // Plain loop: the backedge target needs a clean segment
            // boundary, so pending cost (the `loop` instruction and
            // friends) ticks before the header.
            self.flush_pending();
            self.labels.push(RLabel {
                is_loop: true,
                height: self.stack.len(),
                br_arity: 0,
                end_arity: arity,
                pc: self.code.len() as u32,
                patches: Vec::new(),
            });
            self.body(body, None)?;
            self.seal_arm(arity as usize)?;
            self.close_label();
            return Ok(());
        };
        let gi = self.guards.len();
        self.guards.push(RegGuard {
            induction: proof.induction as u16,
            step: proof.step,
            bound: match proof.bound {
                LoopBound::Local(l) => RegBound::Reg(l as u16),
                LoopBound::Const(c) => RegBound::Const(c),
            },
            accesses: proof
                .accesses
                .iter()
                .map(|a| RegAccess {
                    coeff: a.coeff,
                    terms: a.terms.iter().map(|(l, s)| (*l as u16, *s)).collect(),
                    konst: a.konst,
                    bytes: a.bytes,
                })
                .collect(),
            unchecked_pc: u32::MAX,
        });
        // The guard absorbs the loop-entry pending cost (it runs once
        // per entry, exactly when the tree-walker counts `loop`).
        let mut g = mk(ctl::guard);
        g.imm2 = gi as u32;
        let cost = self.take_pending();
        self.emit(g, cost);
        // Checked copy: entered on guard failure (fallthrough).
        self.labels.push(RLabel {
            is_loop: true,
            height: self.stack.len(),
            br_arity: 0,
            end_arity: 0,
            pc: self.code.len() as u32,
            patches: Vec::new(),
        });
        self.body(body, None)?;
        self.seal_arm(0)?;
        self.close_label();
        let skip = self.emit(mk(ctl::jump), Cost::ZERO);
        // Unchecked copy: compiled from the identical entry state
        // (everything canonical, pending 0), so per-iteration costs
        // match the checked copy op for op.
        self.guards[gi].unchecked_pc = self.code.len() as u32;
        let proven: BTreeSet<usize> = proof.accesses.iter().map(|a| a.index).collect();
        self.labels.push(RLabel {
            is_loop: true,
            height: self.stack.len(),
            br_arity: 0,
            end_arity: 0,
            pc: self.code.len() as u32,
            patches: Vec::new(),
        });
        self.body(body, Some(&proven))?;
        self.seal_arm(0)?;
        self.close_label();
        self.code[skip].imm2 = self.code.len() as u32;
        Ok(())
    }

    /// Seals the function; the flag says whether its weighted prefix
    /// fits in `u64` (see [`compile_regs`]).
    fn finish(mut self, ty: &FuncType, next_ic: &mut u32) -> Result<(RegFunc, bool), Trap> {
        let n = self.n_results as usize;
        if !self.unreachable {
            // Fall-through results land in canonical positions
            // `0..n`, where the epilogue return reads them — the same
            // place function-level branches deliver theirs.
            if self.stack.len() != n {
                return Err(bad("fall-through height"));
            }
            self.materialize_top(n);
            self.flush_pending();
        }
        let here = self.code.len() as u32;
        let patches = std::mem::take(&mut self.fn_patches);
        for p in patches {
            self.apply_patch(p, here);
        }
        let mut o = mk(ctl::ret);
        o.a = self.n_fixed as u16;
        self.emit(o, Cost::ZERO);
        if self.n_fixed as usize + self.max_height > usize::from(u16::MAX) {
            return Err(bad("frame too wide for u16 registers"));
        }
        *next_ic = self.next_ic;
        let mut cost_prefix = Vec::with_capacity(self.code.len() + 1);
        let mut acc = SegPrefix::default();
        let mut weighted: u128 = 0;
        cost_prefix.push(acc);
        for (c, (l, st)) in self.cost.iter().zip(&self.mem) {
            acc.cost += c.instrs;
            acc.loads += l;
            acc.stores += st;
            weighted += c.weighted;
            acc.weighted = weighted as u64;
            cost_prefix.push(acc);
        }
        // The code lives as long as the artifact (a served deployment):
        // drop the push-growth slack.
        self.code.shrink_to_fit();
        let rf = RegFunc {
            code: self.code,
            cost_prefix,
            br_tables: self.br_tables,
            guards: self.guards,
            n_params: ty.params.len() as u16,
            n_results: self.n_results,
            results_ty: ty.results.clone().into_boxed_slice(),
            n_regs: (self.n_fixed as usize + self.max_height) as u32,
        };
        Ok((rf, u64::try_from(weighted).is_ok()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Engine, Imports, Instance, Value};
    use acctee_wasm::builder::{Bound, ModuleBuilder};
    use acctee_wasm::op::{LoadOp, StoreOp};
    use acctee_wasm::types::ValType;

    fn count_ops(rm: &RegModule, want: OpKind) -> usize {
        rm.funcs
            .iter()
            .flat_map(|f| &f.code)
            .filter(|o| o.kind == want)
            .count()
    }

    /// Runs `m`'s export `f` on both the register tier and the tree
    /// oracle, asserting identical results and stats, and returns the
    /// register-tier outcome.
    fn agree(m: &Module, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let mut outs = Vec::new();
        for engine in [Engine::Regs, Engine::Tree] {
            let cfg = Config {
                engine,
                ..Config::default()
            };
            let mut inst = Instance::with_config(m, Imports::new(), cfg).expect("instantiate");
            let r = inst.invoke("f", args);
            outs.push((r, inst.stats()));
        }
        let (tree_r, tree_s) = outs.pop().expect("two engines");
        let (regs_r, regs_s) = outs.pop().expect("two engines");
        assert_eq!(regs_r, tree_r, "results diverged");
        assert_eq!(regs_s, tree_s, "stats diverged");
        regs_r
    }

    fn sum_loop_module(bound: Bound) -> Module {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), bound, |f| {
                f.local_get(acc);
                f.local_get(i);
                f.num(NumOp::I64ExtendI32S);
                f.num(NumOp::I64Add);
                f.local_set(acc);
            });
            f.local_get(acc);
        });
        b.export_func("f", f);
        b.build()
    }

    #[test]
    fn canonical_loop_tail_fuses_to_one_dispatch() {
        for (bound, kind) in [
            (Bound::Local(0), OpKind::ForTailReg),
            (Bound::Const(100), OpKind::ForTailConst),
        ] {
            let m = sum_loop_module(bound);
            let rm = compile_regs(&m, None).expect("compiles");
            assert_eq!(
                count_ops(&rm, kind),
                1,
                "increment + compare + backedge should be one op"
            );
            let out = agree(&m, &[Value::I32(100)]).unwrap();
            assert_eq!(out, vec![Value::I64(4950)]);
        }
    }

    #[test]
    fn madd_and_scaled_load_fuse() {
        // The flattened 2-D index idiom: mem[(i * ncols + j) << 3].
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let f = b.func("f", &[ValType::I32, ValType::I32], &[ValType::I64], |f| {
            f.local_get(0);
            f.i32_const(7);
            f.num(NumOp::I32Mul);
            f.local_get(1);
            f.num(NumOp::I32Add);
            f.i32_const(3);
            f.num(NumOp::I32Shl);
            f.load(LoadOp::I64Load, 0);
        });
        b.export_func("f", f);
        let m = b.build();
        let rm = compile_regs(&m, None).expect("compiles");
        assert_eq!(count_ops(&rm, OpKind::Madd), 1, "mul+add should fuse");
        let has_shl_load = rm.funcs[0]
            .code
            .iter()
            .any(|o| matches!(o.kind, OpKind::Load { scaled: true, .. }));
        assert!(has_shl_load, "shl should fold into the load's address mode");
        // Zero-initialised memory: any in-bounds index loads 0.
        let out = agree(&m, &[Value::I32(3), Value::I32(4)]).unwrap();
        assert_eq!(out, vec![Value::I64(0)]);
        // Fused address arithmetic still wraps and bounds-checks:
        // (i*7 + j) << 3 far past the 65536-byte memory must trap.
        assert!(matches!(
            agree(&m, &[Value::I32(9000), Value::I32(0)]).unwrap_err(),
            Trap::MemoryOutOfBounds { .. }
        ));
    }

    #[test]
    fn proven_loop_compiles_guard_and_unchecked_copy() {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let sum = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.local_get(i);
                f.i32_const(3);
                f.num(NumOp::I32Shl);
                f.local_get(i);
                f.num(NumOp::I64ExtendI32S);
                f.store(StoreOp::I64Store, 0);
                f.local_get(sum);
                f.local_get(i);
                f.i32_const(3);
                f.num(NumOp::I32Shl);
                f.load(LoadOp::I64Load, 0);
                f.num(NumOp::I64Add);
                f.local_set(sum);
            });
            f.local_get(sum);
        });
        b.export_func("f", f);
        let m = b.build();
        let rm = compile_regs(&m, None).expect("compiles");
        assert_eq!(rm.funcs[0].guards.len(), 1, "loop should be guarded");
        let load = |proven| OpKind::Load {
            proven,
            scaled: true,
        };
        assert!(
            count_ops(&rm, load(true)) >= 1,
            "guarded copy should use the proven-in-bounds load"
        );
        assert!(
            count_ops(&rm, load(false)) >= 1,
            "checked copy must survive for the guard-fail path"
        );
        // In bounds (8192 * 8 == 65536, the last byte in range).
        let out = agree(&m, &[Value::I32(8192)]).unwrap();
        assert_eq!(out, vec![Value::I64((0..8192i64).sum())]);
        // One element past: the guard fails, the checked copy runs
        // and traps on the first out-of-range store — with accounting
        // identical to the oracle (asserted by `agree`).
        assert!(matches!(
            agree(&m, &[Value::I32(8193)]).unwrap_err(),
            Trap::MemoryOutOfBounds { .. }
        ));
    }

    /// Every charge an instrumenter emits lowers to one fused op: on
    /// every PolyBench kernel and the served use-case programs, at
    /// every level, no `global.get` / `global.set` on the counter
    /// global survives the lowering. A change to the sequences
    /// `segment.rs` or `loopopt.rs` emit turns this red instead of
    /// silently dropping accounted code back to the unfused path.
    #[test]
    fn every_instrumenter_charge_fuses() {
        use acctee_instrument::{instrument, Level, WeightTable};
        use acctee_workloads::{darknet, faas_fns, msieve, polybench, subsetsum};
        let mut modules: Vec<(&str, Module)> = polybench::all()
            .into_iter()
            .map(|k| (k.name, (k.build)(k.default_n)))
            .collect();
        modules.push(("darknet", darknet::darknet_module(12)));
        modules.push(("msieve", msieve::msieve_module(3, 5)));
        modules.push(("subsetsum", subsetsum::subsetsum_module(10, 2)));
        modules.push(("resize", faas_fns::resize_module()));
        let weights = WeightTable::calibrated();
        for (name, m) in &modules {
            for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
                let r = instrument(m, level, &weights).expect("instrument");
                let rm = compile_regs(&r.module, None).expect("compiles");
                let stray = rm
                    .funcs
                    .iter()
                    .flat_map(|f| &f.code)
                    .filter(|o| matches!(o.kind, OpKind::GlobalGet | OpKind::GlobalSet))
                    .filter(|o| o.imm2 == r.counter_global)
                    .count();
                assert_eq!(stray, 0, "{name} {level}: unfused counter access");
                let fused = count_ops(&rm, OpKind::Charge) + count_ops(&rm, OpKind::ChargeTrips);
                assert!(fused > 0, "{name} {level}: no fused charge");
                if level == Level::LoopBased && r.stats.loops_hoisted > 0 {
                    assert!(
                        count_ops(&rm, OpKind::ChargeTrips) > 0,
                        "{name}: hoisted loop's closed form did not fuse"
                    );
                }
            }
        }
    }

    /// A charge between a loop's exit compare and its branch does not
    /// cost the compare-and-branch fusion: subsetsum's LoopBased module
    /// keeps exactly as many fused compare-and-branch ops, and fused
    /// counted-loop tails, as the raw module.
    #[test]
    fn charges_keep_compare_and_branch_fused() {
        use acctee_instrument::{instrument, Level, WeightTable};
        let m = acctee_workloads::subsetsum::subsetsum_module(10, 2);
        let raw = compile_regs(&m, None).expect("compiles");
        let r = instrument(&m, Level::LoopBased, &WeightTable::calibrated()).expect("instrument");
        let inst = compile_regs(&r.module, None).expect("compiles");
        for kind in [OpKind::CmpBranch, OpKind::ForTailConst] {
            let want = count_ops(&raw, kind);
            assert!(want > 0, "{kind:?}");
            assert_eq!(count_ops(&inst, kind), want, "{kind:?}");
        }
    }

    #[test]
    fn segment_prefix_settles_load_store_stats() {
        let m = {
            let mut b = ModuleBuilder::new();
            b.memory(1, Some(1));
            let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
                let i = f.local(ValType::I32);
                f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                    f.local_get(i);
                    f.local_get(i);
                    f.store(StoreOp::I32Store8, 0);
                });
                f.i32_const(0);
                f.load(LoadOp::I32Load8U, 0);
            });
            b.export_func("f", f);
            b.build()
        };
        let cfg = Config {
            engine: Engine::Regs,
            ..Config::default()
        };
        let mut inst = Instance::with_config(&m, Imports::new(), cfg).expect("instantiate");
        inst.invoke("f", &[Value::I32(50)]).unwrap();
        assert_eq!(inst.stats().stores, 50);
        assert_eq!(inst.stats().loads, 1);
        agree(&m, &[Value::I32(50)]).unwrap();
    }
}
