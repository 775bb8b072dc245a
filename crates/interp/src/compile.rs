//! One-pass lowering from the structured [`Instr`] tree to the flat
//! bytecode executed by [`crate::bytecode`].
//!
//! The compiler walks each validated function body once, emitting a
//! linear [`Op`] array. Structured control flow is resolved into a
//! *branch side-table*: every `br`/`br_if`/`br_table` gets a slot
//! holding the absolute target PC, the operand-stack height of the
//! target label (relative to the frame base) and the number of values
//! the branch carries. Forward targets (block/if ends) are patched
//! when the construct closes; loop targets are known at entry.
//!
//! Accounting metadata rides along: `src[pc]` is `Some(instr)` exactly
//! for the ops that correspond to an original counted instruction
//! (matching the tree-walker's per-entry semantics for `block`,
//! `loop` and `if`), and `cost_prefix` is its prefix-sum so a
//! straight-line segment's instruction count is one subtraction.
//!
//! Stack heights are tracked the same way the validator does (live
//! code only — structurally dead code after an unconditional branch is
//! skipped, which is sound because it can never execute).

use acctee_wasm::instr::Instr;
use acctee_wasm::module::{ImportKind, Module};
use acctee_wasm::types::FuncType;

use crate::bytecode::{BrTableEntry, BranchTarget, CompiledFunc, CompiledModule, Op};
use crate::numslot::value_to_slot;
use crate::observer::InstrWeights;
use crate::trap::Trap;
use crate::value::Value;

fn bad(what: &str) -> Trap {
    Trap::Host(format!("flat compile: {what} (module not validated?)"))
}

/// An owned copy of `i` for the artifact's accounting stream.
/// Structured instructions are stored with empty bodies: observers
/// receive the instruction only to classify and weigh it by opcode,
/// and the body executes through its own ops, never through this
/// copy. Everything else (including `br_table` immediates) is cloned
/// verbatim.
fn owned_src(i: &Instr) -> Instr {
    use acctee_wasm::instr::Instr::{Block, If, Loop};
    match i {
        Block { ty, .. } => Block {
            ty: *ty,
            body: Vec::new(),
        },
        Loop { ty, .. } => Loop {
            ty: *ty,
            body: Vec::new(),
        },
        If { ty, .. } => If {
            ty: *ty,
            then: Vec::new(),
            els: Vec::new(),
        },
        other => other.clone(),
    }
}

/// Canonical type ids: structurally equal types compare equal by id,
/// so `call_indirect` checks are one integer compare.
pub(crate) fn type_canon(module: &Module) -> Vec<u32> {
    let mut type_canon = Vec::with_capacity(module.types.len());
    for (i, t) in module.types.iter().enumerate() {
        let c = module.types[..i].iter().position(|u| u == t).unwrap_or(i);
        type_canon.push(c as u32);
    }
    type_canon
}

/// Builds the artifact shell: per-function call metadata over the
/// combined index space (imports first), pre-resolved so call sites
/// never consult the type section at run time. Engine code is lowered
/// later, on first need.
pub(crate) fn compile_module(
    module: &Module,
    weights: Option<InstrWeights>,
) -> Result<CompiledModule, Trap> {
    let type_canon = type_canon(module);
    let mut func_ty_idx: Vec<u32> = Vec::new();
    for imp in &module.imports {
        if let ImportKind::Func(t) = imp.kind {
            func_ty_idx.push(t);
        }
    }
    for f in &module.funcs {
        func_ty_idx.push(f.ty);
    }
    let mut params_ty = Vec::with_capacity(func_ty_idx.len());
    let mut canon_of_func = Vec::with_capacity(func_ty_idx.len());
    let mut results_ty = Vec::with_capacity(module.funcs.len());
    let n_imported = module.num_imported_funcs();
    for (i, &t) in func_ty_idx.iter().enumerate() {
        let ty = module
            .types
            .get(t as usize)
            .ok_or_else(|| bad("func type"))?;
        params_ty.push(ty.params.clone().into_boxed_slice());
        canon_of_func.push(type_canon[t as usize]);
        if i as u32 >= n_imported {
            results_ty.push(ty.results.clone().into_boxed_slice());
        }
    }
    Ok(CompiledModule {
        funcs: std::sync::OnceLock::new(),
        params_ty,
        results_ty,
        canon_of_func,
        n_imported,
        weights,
        regs: std::sync::OnceLock::new(),
    })
}

/// Compiles every local function of `module` to flat bytecode.
pub(crate) fn compile_flat_funcs(module: &Module) -> Result<Vec<CompiledFunc>, Trap> {
    let type_canon = type_canon(module);
    let mut funcs = Vec::with_capacity(module.funcs.len());
    for f in &module.funcs {
        let ty = module
            .types
            .get(f.ty as usize)
            .ok_or_else(|| bad("func type"))?;
        let mut c = FnCompiler::new(module, &type_canon, ty);
        c.body(&f.body)?;
        funcs.push(c.finish(ty, &f.locals));
    }
    Ok(funcs)
}

/// Whether executing `op` can trap (divide/remainder by zero or
/// overflow, float-to-int truncation out of range). Fusions that put
/// a numeric op anywhere but last must exclude these, so that a trap
/// always exits on a fused op's final component.
fn num_can_trap(op: acctee_wasm::op::NumOp) -> bool {
    use acctee_wasm::op::NumOp::{
        I32DivS, I32DivU, I32RemS, I32RemU, I32TruncF32S, I32TruncF32U, I32TruncF64S, I32TruncF64U,
        I64DivS, I64DivU, I64RemS, I64RemU, I64TruncF32S, I64TruncF32U, I64TruncF64S, I64TruncF64U,
    };
    matches!(
        op,
        I32DivS
            | I32DivU
            | I32RemS
            | I32RemU
            | I64DivS
            | I64DivU
            | I64RemS
            | I64RemU
            | I32TruncF32S
            | I32TruncF32U
            | I32TruncF64S
            | I32TruncF64U
            | I64TruncF32S
            | I64TruncF32U
            | I64TruncF64S
            | I64TruncF64U
    )
}

/// Peephole-fuses the exact stream into the fast stream: adjacent ops
/// matching hot stack idioms (`local.get; const; num`, `num; br_if`,
/// ...) collapse into single superinstructions, cutting dispatches on
/// the batched unfueled loop.
///
/// Invariants maintained:
///
/// * a branch target is never consumed as a trailing component, so
///   every side-table PC remaps one to one;
/// * only a fused op's last component may trap (see [`num_can_trap`]),
///   so trap-exit accounting — count through the trapping instruction
///   — equals the fused op's full cost;
/// * per-pc cost is the component count, making the fused
///   `cost_prefix` sum to exactly the source instruction count.
fn fuse(
    ops: &[Op],
    src: &[Option<&Instr>],
    branches: &[BranchTarget],
) -> (Vec<Op>, Vec<u32>, Vec<BranchTarget>) {
    // PCs that control flow can land on: side-table targets plus the
    // forward jumps embedded directly in ops.
    let mut is_target = vec![false; ops.len() + 1];
    for b in branches {
        is_target[b.pc as usize] = true;
    }
    for op in ops {
        if let Op::Jump(t) | Op::BrIfNot(t) = op {
            is_target[*t as usize] = true;
        }
    }

    let mut out = Vec::with_capacity(ops.len());
    let mut cost = Vec::with_capacity(ops.len());
    // Exact pc -> fused pc, for remapping branch targets (targets are
    // always fusion heads, so their entries are always filled).
    let mut map = vec![0u32; ops.len() + 1];
    let mut i = 0;
    while i < ops.len() {
        map[i] = out.len() as u32;
        // A pc is consumable as a trailing component iff nothing
        // branches to it.
        let free = |k: usize| k < ops.len() && !is_target[k];
        let fused: Option<(Op, usize)> = match ops[i] {
            Op::LocalGet(x) => {
                // Widest first: the 4-op loop idioms, then the 3-op
                // index+num, then the 2-op pairs.
                let four = if let (true, true, true, Some(&Op::Const(c)), Some(&Op::Num(n))) = (
                    free(i + 1),
                    free(i + 2),
                    free(i + 3),
                    ops.get(i + 1),
                    ops.get(i + 2),
                ) {
                    match (u32::try_from(c).ok(), ops.get(i + 3)) {
                        (Some(c), Some(&Op::LocalSet(y)))
                            if y == x && matches!(n, acctee_wasm::op::NumOp::I32Add) =>
                        {
                            Some((Op::LocalIncConst(x, c), 4))
                        }
                        (Some(c), Some(&Op::BrIf(s))) if !num_can_trap(n) => {
                            Some((Op::LocalGetConstNumBrIf(x, c, n, s), 4))
                        }
                        (Some(c), Some(&Op::Load(lop, off))) if !num_can_trap(n) => {
                            Some((Op::LocalGetConstNumLoad(x, c, n, lop, off), 4))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                four.or(
                    if let (true, true, Some(&Op::Const(c)), Some(&Op::Num(n))) =
                        (free(i + 1), free(i + 2), ops.get(i + 1), ops.get(i + 2))
                    {
                        u32::try_from(c)
                            .ok()
                            .map(|c| (Op::LocalGetConstNum(x, c, n), 3))
                    } else {
                        None
                    },
                )
                .or(if free(i + 1) {
                    match ops[i + 1] {
                        Op::Const(c) => u32::try_from(c).ok().map(|c| (Op::LocalGetConst(x, c), 2)),
                        Op::LocalGet(y) => Some((Op::LocalGet2(x, y), 2)),
                        Op::Num(n) => Some((Op::LocalGetNum(x, n), 2)),
                        Op::Store(sop, off) => Some((Op::LocalGetStore(x, sop, off), 2)),
                        _ => None,
                    }
                } else {
                    None
                })
            }
            Op::Const(c) => if let (true, true, Some(&Op::Num(n)), Some(&Op::Load(lop, off))) =
                (free(i + 1), free(i + 2), ops.get(i + 1), ops.get(i + 2))
            {
                if num_can_trap(n) {
                    None
                } else {
                    u32::try_from(c)
                        .ok()
                        .map(|c| (Op::ConstNumLoad(c, n, lop, off), 3))
                }
            } else {
                None
            }
            .or(match (free(i + 1), ops.get(i + 1)) {
                (true, Some(&Op::Num(n))) => u32::try_from(c).ok().map(|c| (Op::ConstNum(c, n), 2)),
                _ => None,
            }),
            Op::Num(n) if !num_can_trap(n) && free(i + 1) => match ops[i + 1] {
                Op::LocalSet(x) => Some((Op::NumLocalSet(n, x), 2)),
                Op::BrIf(s) => Some((Op::NumBrIf(n, s), 2)),
                Op::BrIfNot(t) => Some((Op::NumBrIfNot(n, t), 2)),
                Op::Load(lop, off) => Some((Op::NumLoad(n, lop, off), 2)),
                Op::Store(sop, off) => Some((Op::NumStore(n, sop, off), 2)),
                _ => None,
            },
            _ => None,
        };
        match fused {
            Some((op, n)) => {
                out.push(op);
                cost.push(n as u32);
                i += n;
            }
            None => {
                out.push(ops[i]);
                cost.push(u32::from(src[i].is_some()));
                i += 1;
            }
        }
    }
    map[ops.len()] = out.len() as u32;

    // Remap the forward jumps carried in ops (NumBrIfNot holds the
    // still-exact target of its consumed BrIfNot).
    for op in &mut out {
        if let Op::Jump(t) | Op::BrIfNot(t) | Op::NumBrIfNot(_, t) = op {
            *t = map[*t as usize];
        }
    }
    let fast_branches = branches
        .iter()
        .map(|b| BranchTarget {
            pc: map[b.pc as usize],
            ..*b
        })
        .collect();
    let mut fast_cost_prefix = Vec::with_capacity(out.len() + 1);
    let mut c = 0u32;
    fast_cost_prefix.push(0);
    for k in &cost {
        c += k;
        fast_cost_prefix.push(c);
    }
    (out, fast_cost_prefix, fast_branches)
}

/// An open structured construct during compilation.
struct Label {
    /// Branch-table slot, allocated lazily on first branch (loops
    /// allocate eagerly since their target is the entry PC).
    slot: Option<u32>,
    /// Loop labels must not be patched at close (they point backward).
    is_loop: bool,
    /// Operand-stack height at entry (frame-relative).
    height: u32,
    /// Values a branch to this label carries (0 for loops).
    br_arity: u16,
    /// Values on the stack after the construct ends.
    end_arity: u16,
}

struct FnCompiler<'m, 'a> {
    module: &'m Module,
    type_canon: &'a [u32],
    ops: Vec<Op>,
    src: Vec<Option<&'m Instr>>,
    branches: Vec<BranchTarget>,
    br_tables: Vec<BrTableEntry>,
    labels: Vec<Label>,
    /// Slot for branches that target the function body itself
    /// (equivalent to `return`), pointing at the epilogue.
    fn_slot: Option<u32>,
    n_results: u16,
    height: usize,
    unreachable: bool,
}

impl<'m, 'a> FnCompiler<'m, 'a> {
    fn new(module: &'m Module, type_canon: &'a [u32], ty: &FuncType) -> FnCompiler<'m, 'a> {
        FnCompiler {
            module,
            type_canon,
            ops: Vec::new(),
            src: Vec::new(),
            branches: Vec::new(),
            br_tables: Vec::new(),
            labels: Vec::new(),
            fn_slot: None,
            n_results: ty.results.len() as u16,
            height: 0,
            unreachable: false,
        }
    }

    fn finish(mut self, ty: &FuncType, locals: &[acctee_wasm::types::ValType]) -> CompiledFunc {
        // Epilogue: a synthetic (uncounted) return shared by the
        // fall-through exit and function-level branches.
        let end_pc = self.ops.len() as u32;
        self.push_op(Op::Return, None);
        if let Some(s) = self.fn_slot {
            self.branches[s as usize].pc = end_pc;
        }
        let (fast_ops, fast_cost_prefix, fast_branches) =
            fuse(&self.ops, &self.src, &self.branches);
        CompiledFunc {
            ops: self.ops,
            src: self.src.iter().map(|o| o.map(owned_src)).collect(),
            branches: self.branches,
            fast_ops,
            fast_cost_prefix,
            fast_branches,
            br_tables: self.br_tables,
            n_params: ty.params.len() as u16,
            n_results: self.n_results,
            results_ty: ty.results.clone().into_boxed_slice(),
            n_local_slots: locals.len() as u32,
        }
    }

    fn push_op(&mut self, op: Op, src: Option<&'m Instr>) {
        self.ops.push(op);
        self.src.push(src);
    }

    fn pop_n(&mut self, n: usize) -> Result<(), Trap> {
        self.height = self
            .height
            .checked_sub(n)
            .ok_or_else(|| bad("operand stack underflow"))?;
        Ok(())
    }

    /// The side-table slot for a branch to relative label depth `l`
    /// (`l == labels.len()` targets the function body / epilogue).
    fn slot_for(&mut self, l: u32) -> Result<u32, Trap> {
        let l = l as usize;
        if l > self.labels.len() {
            return Err(bad("branch depth out of range"));
        }
        if l == self.labels.len() {
            return Ok(*self.fn_slot.get_or_insert_with(|| {
                let s = self.branches.len() as u32;
                self.branches.push(BranchTarget {
                    pc: u32::MAX, // patched in finish()
                    height: 0,
                    arity: self.n_results,
                });
                s
            }));
        }
        let at = self.labels.len() - 1 - l;
        let label = &mut self.labels[at];
        if let Some(s) = label.slot {
            return Ok(s);
        }
        let s = self.branches.len() as u32;
        self.branches.push(BranchTarget {
            pc: u32::MAX, // patched when the label closes
            height: label.height,
            arity: label.br_arity,
        });
        label.slot = Some(s);
        Ok(s)
    }

    fn patch_forward(&mut self, at: usize) {
        let target = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump(t) | Op::BrIfNot(t) => *t = target,
            _ => unreachable!("patch target is not a forward jump"),
        }
    }

    fn close_label(&mut self) {
        let l = self.labels.pop().expect("label stack");
        if let Some(s) = l.slot {
            if !l.is_loop {
                self.branches[s as usize].pc = self.ops.len() as u32;
            }
        }
        self.height = l.height as usize + l.end_arity as usize;
        self.unreachable = false;
    }

    fn body(&mut self, body: &'m [Instr]) -> Result<(), Trap> {
        for i in body {
            if self.unreachable {
                // Structurally dead code can never execute; skipping it
                // keeps height tracking exact (mirrors the validator's
                // polymorphic-stack shortcut).
                break;
            }
            self.instr(i)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn instr(&mut self, i: &'m Instr) -> Result<(), Trap> {
        match i {
            Instr::Unreachable => {
                self.push_op(Op::Unreachable, Some(i));
                self.unreachable = true;
            }
            Instr::Nop => self.push_op(Op::Nop, Some(i)),
            Instr::Block { ty, body } => {
                // The entry tick carries the per-entry accounting of
                // the structured instruction itself.
                self.push_op(Op::Nop, Some(i));
                let res = ty.results().len() as u16;
                self.labels.push(Label {
                    slot: None,
                    is_loop: false,
                    height: self.height as u32,
                    br_arity: res,
                    end_arity: res,
                });
                self.body(body)?;
                self.close_label();
            }
            Instr::Loop { ty, body } => {
                self.push_op(Op::Nop, Some(i));
                // Loop branch targets are known now: the back edge
                // re-enters *after* the entry tick (the tree-walker
                // reports `loop` once per entry, not per iteration).
                let s = self.branches.len() as u32;
                self.branches.push(BranchTarget {
                    pc: self.ops.len() as u32,
                    height: self.height as u32,
                    arity: 0,
                });
                self.labels.push(Label {
                    slot: Some(s),
                    is_loop: true,
                    height: self.height as u32,
                    br_arity: 0,
                    end_arity: ty.results().len() as u16,
                });
                self.body(body)?;
                self.close_label();
            }
            Instr::If { ty, then, els } => {
                self.pop_n(1)?; // condition
                let h = self.height;
                let res = ty.results().len() as u16;
                let brifnot_at = self.ops.len();
                self.push_op(Op::BrIfNot(u32::MAX), Some(i));
                self.labels.push(Label {
                    slot: None,
                    is_loop: false,
                    height: h as u32,
                    br_arity: res,
                    end_arity: res,
                });
                self.body(then)?;
                let then_open = !self.unreachable;
                if then_open {
                    debug_assert_eq!(self.height, h + res as usize);
                }
                if els.is_empty() {
                    // False falls through to the same join point.
                    self.patch_forward(brifnot_at);
                } else {
                    let mut jump_at = None;
                    if then_open {
                        jump_at = Some(self.ops.len());
                        self.push_op(Op::Jump(u32::MAX), None);
                    }
                    self.patch_forward(brifnot_at);
                    self.height = h;
                    self.unreachable = false;
                    self.body(els)?;
                    if let Some(j) = jump_at {
                        self.patch_forward(j);
                    }
                }
                self.close_label();
            }
            Instr::Br(l) => {
                let s = self.slot_for(*l)?;
                self.push_op(Op::Br(s), Some(i));
                self.unreachable = true;
            }
            Instr::BrIf(l) => {
                self.pop_n(1)?;
                let s = self.slot_for(*l)?;
                self.push_op(Op::BrIf(s), Some(i));
            }
            Instr::BrTable { targets, default } => {
                self.pop_n(1)?;
                let entry = BrTableEntry {
                    targets: targets
                        .iter()
                        .map(|t| self.slot_for(*t))
                        .collect::<Result<_, _>>()?,
                    default: self.slot_for(*default)?,
                };
                let ti = self.br_tables.len() as u32;
                self.br_tables.push(entry);
                self.push_op(Op::BrTable(ti), Some(i));
                self.unreachable = true;
            }
            Instr::Return => {
                self.push_op(Op::Return, Some(i));
                self.unreachable = true;
            }
            Instr::Call(f) => {
                let ty = self
                    .module
                    .func_type(*f)
                    .ok_or_else(|| bad("call target"))?;
                self.pop_n(ty.params.len())?;
                self.height += ty.results.len();
                self.push_op(Op::Call(*f), Some(i));
            }
            Instr::CallIndirect(t) => {
                let ty = self
                    .module
                    .types
                    .get(*t as usize)
                    .ok_or_else(|| bad("call_indirect type"))?;
                self.pop_n(1 + ty.params.len())?;
                self.height += ty.results.len();
                self.push_op(Op::CallIndirect(self.type_canon[*t as usize]), Some(i));
            }
            Instr::Drop => {
                self.pop_n(1)?;
                self.push_op(Op::Drop, Some(i));
            }
            Instr::Select => {
                self.pop_n(3)?;
                self.height += 1;
                self.push_op(Op::Select, Some(i));
            }
            Instr::LocalGet(x) => {
                self.height += 1;
                self.push_op(Op::LocalGet(*x), Some(i));
            }
            Instr::LocalSet(x) => {
                self.pop_n(1)?;
                self.push_op(Op::LocalSet(*x), Some(i));
            }
            Instr::LocalTee(x) => {
                self.pop_n(1)?;
                self.height += 1;
                self.push_op(Op::LocalTee(*x), Some(i));
            }
            Instr::GlobalGet(x) => {
                self.height += 1;
                self.push_op(Op::GlobalGet(*x), Some(i));
            }
            Instr::GlobalSet(x) => {
                self.pop_n(1)?;
                self.push_op(Op::GlobalSet(*x), Some(i));
            }
            Instr::Load(op, m) => {
                self.pop_n(1)?;
                self.height += 1;
                self.push_op(Op::Load(*op, m.offset), Some(i));
            }
            Instr::Store(op, m) => {
                self.pop_n(2)?;
                self.push_op(Op::Store(*op, m.offset), Some(i));
            }
            Instr::MemorySize => {
                self.height += 1;
                self.push_op(Op::MemorySize, Some(i));
            }
            Instr::MemoryGrow => {
                self.pop_n(1)?;
                self.height += 1;
                self.push_op(Op::MemoryGrow, Some(i));
            }
            Instr::I32Const(v) => {
                self.height += 1;
                self.push_op(Op::Const(value_to_slot(Value::I32(*v))), Some(i));
            }
            Instr::I64Const(v) => {
                self.height += 1;
                self.push_op(Op::Const(value_to_slot(Value::I64(*v))), Some(i));
            }
            Instr::F32Const(v) => {
                self.height += 1;
                self.push_op(Op::Const(value_to_slot(Value::F32(*v))), Some(i));
            }
            Instr::F64Const(v) => {
                self.height += 1;
                self.push_op(Op::Const(value_to_slot(Value::F64(*v))), Some(i));
            }
            Instr::Num(op) => {
                let (params, _res) = op.sig();
                self.pop_n(params.len())?;
                self.height += 1;
                self.push_op(Op::Num(*op), Some(i));
            }
        }
        Ok(())
    }
}
