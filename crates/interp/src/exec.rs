//! The tree-walking interpreter.
//!
//! Function bodies are executed in their structured form; branches are
//! propagated as a [`Flow`] value unwinding through nested blocks. The
//! interpreter is deliberately simple and observable rather than fast:
//! every executed instruction is reported to the attached
//! [`Observer`], which is what the accounting oracle and the cycle
//! model consume.

use acctee_wasm::instr::ConstExpr;
use acctee_wasm::instr::{Instr, MemArg};
use acctee_wasm::module::{ExportKind, ImportKind, Module};
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};

use crate::host::{HostCtx, HostFunc, Imports};
use crate::memory::Memory;
use crate::observer::{NullObserver, Observer};
use crate::regs::CompiledModule;
use crate::stats::ExecStats;
use crate::trap::Trap;
use crate::value::Value;

/// Which execution backend runs function bodies.
///
/// Both engines implement identical semantics — results, traps,
/// [`ExecStats`] and observer-visible counts are bit-equal for any
/// module (enforced by the differential suite); they differ only in
/// speed and mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The structured tree-walking interpreter: simple, observable,
    /// and the semantic oracle the register tier is validated
    /// against. Name it explicitly wherever an execution *is* the
    /// oracle, and for audits (`--engine tree`). It also serves the
    /// register tier's deopts (fuel, per-instruction observers,
    /// declined modules).
    Tree,
    /// The register-bytecode engine (`crate::regs`): three-address
    /// ops over virtual registers with direct-threaded dispatch and
    /// proven bounds-check elimination. The default; null and weighted
    /// observers run on it directly, while fueled or
    /// per-instruction-observed invokes transparently run on the
    /// tree-walker (identical semantics, exact per-instruction
    /// bookkeeping).
    #[default]
    Regs,
}

impl Engine {
    /// All engines, for comparison sweeps.
    pub const ALL: [Engine; 2] = [Engine::Tree, Engine::Regs];

    /// The CLI-facing name (`tree` / `regs`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Regs => "regs",
        }
    }

    /// Parses a CLI-facing name.
    pub fn from_name(s: &str) -> Option<Engine> {
        match s {
            "tree" => Some(Engine::Tree),
            "regs" => Some(Engine::Regs),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        Engine::from_name(s).ok_or_else(|| format!("unknown engine {s:?} (tree|regs)"))
    }
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum call depth before [`Trap::CallStackExhausted`].
    ///
    /// The tree-walker maps WebAssembly calls onto Rust recursion; the
    /// default of 200 keeps the deepest chain comfortably inside a
    /// 2 MiB native stack even in debug builds. Raise it only together
    /// with a larger native stack (e.g. a dedicated thread). The
    /// register tier uses an explicit frame stack but honours the
    /// same limit so both engines trap identically.
    pub max_call_depth: usize,
    /// Optional instruction budget; `None` is unlimited.
    pub fuel: Option<u64>,
    /// Optional wall-clock budget per invoke; `None` is unlimited.
    ///
    /// Unlike fuel this is *not* deterministic — it exists for serving
    /// paths that must bound a request's real time (a slow or runaway
    /// workload traps with [`Trap::DeadlineExceeded`] instead of
    /// occupying a worker forever). The clock is checked at branch and
    /// call sites (any non-terminating execution passes those
    /// infinitely often), sampled every
    /// [`DEADLINE_CHECK_INTERVAL`] ticks so the hot path stays free of
    /// timer syscalls.
    pub time_budget: Option<std::time::Duration>,
    /// Which execution backend to use.
    pub engine: Engine,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_call_depth: 200,
            fuel: None,
            time_budget: None,
            engine: Engine::default(),
        }
    }
}

/// How many deadline ticks (branches/calls) elapse between reads of
/// the monotonic clock when [`Config::time_budget`] is set. Power of
/// two so the check compiles to a mask.
pub const DEADLINE_CHECK_INTERVAL: u32 = 1024;

/// How control leaves an instruction sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Fell through the end of the sequence.
    Next,
    /// Branch to the label at the given relative depth.
    Br(u32),
    /// Return from the current function.
    Return,
}

/// An instantiated module, ready to invoke.
pub struct Instance<'m> {
    pub(crate) module: &'m Module,
    pub(crate) memory: Option<Memory>,
    pub(crate) globals: Vec<Value>,
    pub(crate) table: Vec<Option<u32>>,
    pub(crate) host_funcs: Vec<Option<HostFunc>>,
    pub(crate) config: Config,
    pub(crate) fuel: Option<u64>,
    /// Wall-clock instant after which execution traps, set per invoke
    /// from [`Config::time_budget`].
    pub(crate) deadline: Option<std::time::Instant>,
    /// Branch/call ticks since the deadline clock was last sampled.
    pub(crate) deadline_ticks: u32,
    pub(crate) stats: ExecStats,
    /// The register tier's artifact: either handed in pre-built via
    /// [`Instance::with_artifact`] (the compile-once/serve-many
    /// path), or built on the first register-tier invoke.
    pub(crate) compiled: Option<std::sync::Arc<CompiledModule>>,
    /// Reusable register-tier execution buffers.
    pub(crate) reg_bufs: crate::regs::RegBuffers,
    /// Scratch argument vectors pooled across tree-walker calls.
    scratch: Vec<Vec<Value>>,
}

impl std::fmt::Debug for Instance<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("globals", &self.globals.len())
            .field(
                "memory_pages",
                &self.memory.as_ref().map(|m| m.size_pages()),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'m> Instance<'m> {
    /// Instantiates `module` with default [`Config`].
    ///
    /// # Errors
    ///
    /// Traps if imports cannot be resolved, a data/element segment is
    /// out of bounds, or the start function traps.
    pub fn new(module: &'m Module, imports: Imports) -> Result<Instance<'m>, Trap> {
        Instance::with_config(module, imports, Config::default())
    }

    /// Instantiates with explicit limits and a pre-built artifact, so
    /// this instance reuses whatever engine code the artifact already
    /// holds: the serving path builds a module's artifact once
    /// ([`CompiledModule::compile`]) and hands every per-request
    /// instance the shared `Arc`.
    ///
    /// The artifact must have been compiled from `module`; callers
    /// that cache artifacts must key the cache by module identity.
    ///
    /// # Errors
    ///
    /// [`Trap::Host`] if the artifact does not structurally match
    /// `module`; otherwise see [`Instance::new`].
    pub fn with_artifact(
        module: &'m Module,
        imports: Imports,
        config: Config,
        artifact: std::sync::Arc<CompiledModule>,
    ) -> Result<Instance<'m>, Trap> {
        if !artifact.matches(module) {
            return Err(Trap::Host(
                "compiled artifact does not match this module".into(),
            ));
        }
        let mut inst = Instance::with_config(module, imports, config)?;
        inst.compiled = Some(artifact);
        Ok(inst)
    }

    /// Instantiates with explicit limits.
    ///
    /// # Errors
    ///
    /// See [`Instance::new`].
    pub fn with_config(
        module: &'m Module,
        mut imports: Imports,
        config: Config,
    ) -> Result<Instance<'m>, Trap> {
        // Resolve function and global imports in declaration order.
        let mut host_funcs = Vec::new();
        let mut imported_globals = Vec::new();
        for imp in &module.imports {
            match &imp.kind {
                ImportKind::Func(_) => {
                    let f = imports.take_func(&imp.module, &imp.name).ok_or_else(|| {
                        Trap::Host(format!("unresolved import {}.{}", imp.module, imp.name))
                    })?;
                    host_funcs.push(Some(f));
                }
                ImportKind::Global(gt) => {
                    let v = imports.get_global(&imp.module, &imp.name).ok_or_else(|| {
                        Trap::Host(format!("unresolved global {}.{}", imp.module, imp.name))
                    })?;
                    if v.ty() != gt.val {
                        return Err(Trap::Host(format!(
                            "global import {}.{} has wrong type",
                            imp.module, imp.name
                        )));
                    }
                    imported_globals.push(v);
                }
                // Imported memories/tables are instantiated fresh with
                // the declared limits (the embedder owns no shared state
                // in this reproduction).
                ImportKind::Memory(_) | ImportKind::Table(_) => {}
            }
        }

        let mut globals = imported_globals;
        for g in &module.globals {
            let v = match &g.init {
                ConstExpr::I32(v) => Value::I32(*v),
                ConstExpr::I64(v) => Value::I64(*v),
                ConstExpr::F32(v) => Value::F32(*v),
                ConstExpr::F64(v) => Value::F64(*v),
                ConstExpr::GlobalGet(i) => *globals
                    .get(*i as usize)
                    .ok_or_else(|| Trap::Host("bad global initialiser".into()))?,
            };
            globals.push(v);
        }

        let memory = module
            .memory()
            .map(|mt| Memory::new(mt.limits.min, mt.limits.max))
            .transpose()?;
        let mut table: Vec<Option<u32>> = module
            .table()
            .map(|tt| vec![None; tt.limits.min as usize])
            .unwrap_or_default();

        let mut inst = Instance {
            module,
            memory,
            globals,
            table: Vec::new(),
            host_funcs,
            config,
            fuel: config.fuel,
            deadline: None,
            deadline_ticks: 0,
            stats: ExecStats::default(),
            compiled: None,
            reg_bufs: crate::regs::RegBuffers::default(),
            scratch: Vec::new(),
        };

        // Data segments.
        for d in &module.datas {
            let offset = inst.eval_offset(&d.offset)?;
            match &mut inst.memory {
                Some(mem) => mem.write_bytes(u64::from(offset), &d.bytes)?,
                None => return Err(Trap::Host("data segment without memory".into())),
            }
        }
        // Element segments.
        for e in &module.elems {
            let offset = inst.eval_offset(&e.offset)? as usize;
            if offset + e.funcs.len() > table.len() {
                return Err(Trap::TableOutOfBounds);
            }
            for (i, f) in e.funcs.iter().enumerate() {
                table[offset + i] = Some(*f);
            }
        }
        inst.table = table;

        if let Some(s) = module.start {
            let mut obs = NullObserver;
            inst.call_function(s, &[], 0, &mut obs)?;
        }
        if let Some(mem) = &inst.memory {
            inst.stats.peak_memory_bytes = mem.size_bytes();
        }
        Ok(inst)
    }

    fn eval_offset(&self, e: &ConstExpr) -> Result<u32, Trap> {
        match e {
            ConstExpr::I32(v) => Ok(*v as u32),
            ConstExpr::GlobalGet(i) => Ok(self
                .globals
                .get(*i as usize)
                .copied()
                .ok_or_else(|| Trap::Host("bad segment offset global".into()))?
                .as_i32() as u32),
            _ => Err(Trap::Host("segment offset must be i32".into())),
        }
    }

    /// Invokes the exported function `name` with `args`.
    ///
    /// # Errors
    ///
    /// Traps on runtime faults, or a [`Trap::Host`] for unknown exports
    /// or argument type mismatches.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let mut obs = NullObserver;
        self.invoke_observed(name, args, &mut obs)
    }

    /// Invokes `name` while reporting events to `observer`.
    ///
    /// # Errors
    ///
    /// See [`Instance::invoke`].
    pub fn invoke_observed(
        &mut self,
        name: &str,
        args: &[Value],
        observer: &mut dyn Observer,
    ) -> Result<Vec<Value>, Trap> {
        let idx = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::Host(format!("no exported function {name:?}")))?;
        let ty = self
            .module
            .func_type(idx)
            .ok_or_else(|| Trap::Host("export references missing function".into()))?;
        if ty.params.len() != args.len() || ty.params.iter().zip(args).any(|(p, a)| *p != a.ty()) {
            return Err(Trap::Host(format!("argument mismatch calling {name:?}")));
        }
        // The wall-clock budget covers exactly this invoke.
        self.deadline = self
            .config
            .time_budget
            .map(|b| std::time::Instant::now() + b);
        self.deadline_ticks = 0;
        // Hoist the null-observer check out of the dispatch loops:
        // a `NullObserver` (or equivalent) invoke runs the
        // monomorphised loop where every observer call compiles away.
        if observer.is_null() {
            let mut null = NullObserver;
            return match self.config.engine {
                Engine::Tree => self.call_function(idx, args, 0, &mut null),
                Engine::Regs => self.invoke_regs(idx, args, &mut null),
            };
        }
        match self.config.engine {
            Engine::Tree => self.call_function(idx, args, 0, observer),
            Engine::Regs => self.invoke_regs(idx, args, observer),
        }
    }

    /// Reads a global by its exported name.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.module.exports.iter().find_map(|e| match e.kind {
            ExportKind::Global(i) if e.name == name => self.globals.get(i as usize).copied(),
            _ => None,
        })
    }

    /// Reads a global by raw index (used by the accounting enclave to
    /// read the injected counter).
    pub fn global_by_index(&self, idx: u32) -> Option<Value> {
        self.globals.get(idx as usize).copied()
    }

    /// The instance's memory, if any.
    pub fn memory(&self) -> Option<&Memory> {
        self.memory.as_ref()
    }

    /// Mutable access to the instance's memory (host-side staging of
    /// request payloads).
    pub fn memory_mut(&mut self) -> Option<&mut Memory> {
        self.memory.as_mut()
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Remaining fuel, if a budget was configured.
    pub fn remaining_fuel(&self) -> Option<u64> {
        self.fuel
    }

    fn charge_fuel(&mut self) -> Result<(), Trap> {
        if let Some(f) = &mut self.fuel {
            if *f == 0 {
                return Err(Trap::OutOfFuel);
            }
            *f -= 1;
        }
        Ok(())
    }

    /// Ticks the wall-clock deadline. Called at branch and call sites
    /// by both engines: a non-terminating execution takes branches or
    /// calls infinitely often, so sampling the clock there (every
    /// [`DEADLINE_CHECK_INTERVAL`] ticks) bounds real time without a
    /// timer read on the straight-line hot path.
    #[inline]
    pub(crate) fn check_deadline(&mut self) -> Result<(), Trap> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        self.deadline_ticks = self.deadline_ticks.wrapping_add(1);
        if self.deadline_ticks & (DEADLINE_CHECK_INTERVAL - 1) == 0
            && std::time::Instant::now() >= deadline
        {
            return Err(Trap::DeadlineExceeded);
        }
        Ok(())
    }

    /// Calls the host function `idx` and type-checks its results.
    /// Shared by both engines (the caller reports call/return events).
    pub(crate) fn call_host_checked(
        &mut self,
        idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        // Temporarily take the function out so we can lend the memory
        // to the host context.
        let mut f = self.host_funcs[idx as usize]
            .take()
            .ok_or_else(|| Trap::Host("recursive host call".into()))?;
        let mut ctx = HostCtx {
            memory: self.memory.as_mut(),
        };
        let result = f(&mut ctx, args);
        self.host_funcs[idx as usize] = Some(f);
        let values = result?;
        let ty = self.module.func_type(idx).expect("import type");
        if values.len() != ty.results.len()
            || values.iter().zip(&ty.results).any(|(v, r)| v.ty() != *r)
        {
            return Err(Trap::Host("host function returned wrong types".into()));
        }
        Ok(values)
    }

    pub(crate) fn call_function<O: Observer + ?Sized>(
        &mut self,
        idx: u32,
        args: &[Value],
        depth: usize,
        observer: &mut O,
    ) -> Result<Vec<Value>, Trap> {
        if depth >= self.config.max_call_depth {
            return Err(Trap::CallStackExhausted);
        }
        self.check_deadline()?;
        observer.on_call(idx);
        self.stats.calls += 1;
        let n_imported = self.module.num_imported_funcs();
        if idx < n_imported {
            let values = self.call_host_checked(idx, args)?;
            observer.on_return(idx);
            return Ok(values);
        }
        let func = &self.module.funcs[(idx - n_imported) as usize];
        let ty = &self.module.types[func.ty as usize];
        let mut locals: Vec<Value> = Vec::with_capacity(args.len() + func.locals.len());
        locals.extend_from_slice(args);
        locals.extend(func.locals.iter().map(|t| Value::zero(*t)));
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let body = &func.body;
        let n_results = ty.results.len();
        let flow = self.exec_seq(body, &mut locals, &mut stack, depth, observer)?;
        debug_assert!(matches!(flow, Flow::Next | Flow::Return));
        if stack.len() < n_results {
            return Err(Trap::Host("function left too few results".into()));
        }
        observer.on_return(idx);
        Ok(stack.split_off(stack.len() - n_results))
    }

    /// Pops the top `n_args` values off `stack` into a pooled scratch
    /// vector and calls `idx` with them. The scratch buffer is
    /// returned to the pool even when the call traps, so repeated
    /// calls never re-allocate argument vectors.
    fn call_with_stack_args<O: Observer + ?Sized>(
        &mut self,
        idx: u32,
        n_args: usize,
        stack: &mut Vec<Value>,
        depth: usize,
        observer: &mut O,
    ) -> Result<Vec<Value>, Trap> {
        let at = stack.len() - n_args;
        let mut args = self.scratch.pop().unwrap_or_default();
        args.clear();
        args.extend_from_slice(&stack[at..]);
        stack.truncate(at);
        let results = self.call_function(idx, &args, depth + 1, observer);
        self.scratch.push(args);
        results
    }

    #[allow(clippy::too_many_arguments)] // interpreter hot path; grouping would cost clarity
    fn run_block<O: Observer + ?Sized>(
        &mut self,
        body: &[Instr],
        result_arity: usize,
        is_loop: bool,
        locals: &mut Vec<Value>,
        stack: &mut Vec<Value>,
        depth: usize,
        observer: &mut O,
    ) -> Result<Flow, Trap> {
        let entry = stack.len();
        loop {
            match self.exec_seq(body, locals, stack, depth, observer)? {
                Flow::Next => return Ok(Flow::Next),
                Flow::Return => return Ok(Flow::Return),
                Flow::Br(0) => {
                    if is_loop {
                        self.check_deadline()?;
                        stack.truncate(entry);
                        continue;
                    }
                    let keep = stack.split_off(stack.len() - result_arity);
                    stack.truncate(entry);
                    stack.extend(keep);
                    return Ok(Flow::Next);
                }
                Flow::Br(n) => return Ok(Flow::Br(n - 1)),
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_seq<O: Observer + ?Sized>(
        &mut self,
        body: &[Instr],
        locals: &mut Vec<Value>,
        stack: &mut Vec<Value>,
        depth: usize,
        observer: &mut O,
    ) -> Result<Flow, Trap> {
        for instr in body {
            self.charge_fuel()?;
            self.stats.instructions += 1;
            observer.on_instr(instr);
            match instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block { ty, body } => {
                    match self.run_block(
                        body,
                        ty.results().len(),
                        false,
                        locals,
                        stack,
                        depth,
                        observer,
                    )? {
                        Flow::Next => {}
                        other => return Ok(other),
                    }
                }
                Instr::Loop { ty, body } => {
                    match self.run_block(
                        body,
                        ty.results().len(),
                        true,
                        locals,
                        stack,
                        depth,
                        observer,
                    )? {
                        Flow::Next => {}
                        other => return Ok(other),
                    }
                }
                Instr::If { ty, then, els } => {
                    let cond = stack.pop().expect("validated").as_i32();
                    let arm = if cond != 0 { then } else { els };
                    match self.run_block(
                        arm,
                        ty.results().len(),
                        false,
                        locals,
                        stack,
                        depth,
                        observer,
                    )? {
                        Flow::Next => {}
                        other => return Ok(other),
                    }
                }
                Instr::Br(l) => return Ok(Flow::Br(*l)),
                Instr::BrIf(l) => {
                    let cond = stack.pop().expect("validated").as_i32();
                    if cond != 0 {
                        return Ok(Flow::Br(*l));
                    }
                }
                Instr::BrTable { targets, default } => {
                    let i = stack.pop().expect("validated").as_i32() as u32;
                    let target = targets.get(i as usize).copied().unwrap_or(*default);
                    return Ok(Flow::Br(target));
                }
                Instr::Return => return Ok(Flow::Return),
                Instr::Call(f) => {
                    // Only the arity is needed here; cloning the whole
                    // FuncType per call would allocate on the hot path.
                    let n_args = self.module.func_type(*f).expect("validated").params.len();
                    let results = self.call_with_stack_args(*f, n_args, stack, depth, observer)?;
                    stack.extend(results);
                }
                Instr::CallIndirect(t) => {
                    let i = stack.pop().expect("validated").as_i32() as u32;
                    let entry = self
                        .table
                        .get(i as usize)
                        .copied()
                        .ok_or(Trap::TableOutOfBounds)?;
                    let f = entry.ok_or(Trap::UndefinedElement)?;
                    let expected = &self.module.types[*t as usize];
                    let actual = self.module.func_type(f).ok_or(Trap::UndefinedElement)?;
                    if actual != expected {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    let n_args = actual.params.len();
                    let results = self.call_with_stack_args(f, n_args, stack, depth, observer)?;
                    stack.extend(results);
                }
                Instr::Drop => {
                    stack.pop().expect("validated");
                }
                Instr::Select => {
                    let c = stack.pop().expect("validated").as_i32();
                    let b = stack.pop().expect("validated");
                    let a = stack.pop().expect("validated");
                    stack.push(if c != 0 { a } else { b });
                }
                Instr::LocalGet(x) => stack.push(locals[*x as usize]),
                Instr::LocalSet(x) => locals[*x as usize] = stack.pop().expect("validated"),
                Instr::LocalTee(x) => {
                    locals[*x as usize] = *stack.last().expect("validated");
                }
                Instr::GlobalGet(x) => stack.push(self.globals[*x as usize]),
                Instr::GlobalSet(x) => {
                    self.globals[*x as usize] = stack.pop().expect("validated");
                }
                Instr::Load(op, m) => {
                    let v = self.exec_load(*op, *m, stack, observer)?;
                    stack.push(v);
                }
                Instr::Store(op, m) => self.exec_store(*op, *m, stack, observer)?,
                Instr::MemorySize => {
                    let mem = self.memory.as_ref().expect("validated");
                    stack.push(Value::I32(mem.size_pages() as i32));
                }
                Instr::MemoryGrow => {
                    let delta = stack.pop().expect("validated").as_i32();
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
                    stack.push(Value::I32(r));
                }
                Instr::I32Const(v) => stack.push(Value::I32(*v)),
                Instr::I64Const(v) => stack.push(Value::I64(*v)),
                Instr::F32Const(v) => stack.push(Value::F32(*v)),
                Instr::F64Const(v) => stack.push(Value::F64(*v)),
                Instr::Num(op) => exec_num(*op, stack)?,
            }
        }
        Ok(Flow::Next)
    }

    fn exec_load<O: Observer + ?Sized>(
        &mut self,
        op: LoadOp,
        m: MemArg,
        stack: &mut Vec<Value>,
        observer: &mut O,
    ) -> Result<Value, Trap> {
        let base = stack.pop().expect("validated").as_i32() as u32;
        let addr = u64::from(base) + u64::from(m.offset);
        self.stats.loads += 1;
        observer.on_mem_access(addr, op.access_bytes(), false);
        let mem = self.memory.as_ref().expect("validated");
        load_value(mem, op, addr)
    }

    fn exec_store<O: Observer + ?Sized>(
        &mut self,
        op: StoreOp,
        m: MemArg,
        stack: &mut Vec<Value>,
        observer: &mut O,
    ) -> Result<(), Trap> {
        let v = stack.pop().expect("validated");
        let base = stack.pop().expect("validated").as_i32() as u32;
        let addr = u64::from(base) + u64::from(m.offset);
        self.stats.stores += 1;
        observer.on_mem_access(addr, op.access_bytes(), true);
        let mem = self.memory.as_mut().expect("validated");
        store_value(mem, op, addr, v)
    }
}

/// Performs a bounds-checked load of `op` at `addr`. Shared by both
/// engines.
pub(crate) fn load_value(mem: &Memory, op: LoadOp, addr: u64) -> Result<Value, Trap> {
    let v = match op {
        LoadOp::I32Load => Value::I32(i32::from_le_bytes(mem.read::<4>(addr)?)),
        LoadOp::I64Load => Value::I64(i64::from_le_bytes(mem.read::<8>(addr)?)),
        LoadOp::F32Load => Value::F32(f32::from_le_bytes(mem.read::<4>(addr)?)),
        LoadOp::F64Load => Value::F64(f64::from_le_bytes(mem.read::<8>(addr)?)),
        LoadOp::I32Load8S => Value::I32(i32::from(mem.read::<1>(addr)?[0] as i8)),
        LoadOp::I32Load8U => Value::I32(i32::from(mem.read::<1>(addr)?[0])),
        LoadOp::I32Load16S => Value::I32(i32::from(i16::from_le_bytes(mem.read::<2>(addr)?))),
        LoadOp::I32Load16U => Value::I32(i32::from(u16::from_le_bytes(mem.read::<2>(addr)?))),
        LoadOp::I64Load8S => Value::I64(i64::from(mem.read::<1>(addr)?[0] as i8)),
        LoadOp::I64Load8U => Value::I64(i64::from(mem.read::<1>(addr)?[0])),
        LoadOp::I64Load16S => Value::I64(i64::from(i16::from_le_bytes(mem.read::<2>(addr)?))),
        LoadOp::I64Load16U => Value::I64(i64::from(u16::from_le_bytes(mem.read::<2>(addr)?))),
        LoadOp::I64Load32S => Value::I64(i64::from(i32::from_le_bytes(mem.read::<4>(addr)?))),
        LoadOp::I64Load32U => Value::I64(i64::from(u32::from_le_bytes(mem.read::<4>(addr)?))),
    };
    Ok(v)
}

/// Performs a bounds-checked store of `v` via `op` at `addr`. Shared
/// by both engines.
pub(crate) fn store_value(mem: &mut Memory, op: StoreOp, addr: u64, v: Value) -> Result<(), Trap> {
    match op {
        StoreOp::I32Store => mem.write(addr, v.as_i32().to_le_bytes()),
        StoreOp::I64Store => mem.write(addr, v.as_i64().to_le_bytes()),
        StoreOp::F32Store => mem.write(addr, v.as_f32().to_le_bytes()),
        StoreOp::F64Store => mem.write(addr, v.as_f64().to_le_bytes()),
        StoreOp::I32Store8 => mem.write(addr, [(v.as_i32() & 0xff) as u8]),
        StoreOp::I32Store16 => mem.write(addr, (v.as_i32() as u16).to_le_bytes()),
        StoreOp::I64Store8 => mem.write(addr, [(v.as_i64() & 0xff) as u8]),
        StoreOp::I64Store16 => mem.write(addr, (v.as_i64() as u16).to_le_bytes()),
        StoreOp::I64Store32 => mem.write(addr, (v.as_i64() as u32).to_le_bytes()),
    }
}

/// Canonicalises a NaN result to the single quiet-NaN bit pattern.
///
/// The wasm spec leaves arithmetic NaN payloads nondeterministic, but
/// AccTEE's differential contract demands that both engines — the
/// tree-walker and the register tier — produce bit-identical results.
/// Relying on "same Rust expression, same payload" is fragile: LLVM
/// may legally commute `a + b` at one inlining site and not another,
/// and hardware quieting then picks the *other* operand's payload.
/// Pinning every arithmetic NaN to the canonical pattern makes the
/// contract hold by construction (and is what production engines do).
/// The NaN test and select run on the integer bit pattern, not the
/// float value: LLVM treats any two NaNs as interchangeable and is
/// entitled to fold `select(isnan(x), qNaN, x)` back to plain `x`,
/// silently undoing a float-domain canonicalisation.
#[inline(always)]
pub(crate) fn canon_f32(x: f32) -> f32 {
    let b = x.to_bits();
    if b & 0x7fff_ffff > 0x7f80_0000 {
        f32::from_bits(0x7fc0_0000)
    } else {
        x
    }
}

/// `f64` twin of [`canon_f32`].
#[inline(always)]
pub(crate) fn canon_f64(x: f64) -> f64 {
    let b = x.to_bits();
    if b & 0x7fff_ffff_ffff_ffff > 0x7ff0_0000_0000_0000 {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        x
    }
}

/// WebAssembly float min (NaN-propagating, -0 < +0).
pub(crate) fn fmin<T: PartialOrd + Copy + FloatLike>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        return T::nan();
    }
    if a < b {
        a
    } else if b < a {
        b
    } else if a.is_sign_negative() {
        a
    } else {
        b
    }
}

/// WebAssembly float max (NaN-propagating, +0 > -0).
pub(crate) fn fmax<T: PartialOrd + Copy + FloatLike>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        return T::nan();
    }
    if a > b {
        a
    } else if b > a {
        b
    } else if a.is_sign_positive() {
        a
    } else {
        b
    }
}

#[allow(clippy::wrong_self_convention)] // mirrors the std float API
pub(crate) trait FloatLike {
    fn is_nan(self) -> bool;
    fn is_sign_negative(self) -> bool;
    fn is_sign_positive(self) -> bool;
    fn nan() -> Self;
}

impl FloatLike for f32 {
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    fn is_sign_negative(self) -> bool {
        f32::is_sign_negative(self)
    }
    fn is_sign_positive(self) -> bool {
        f32::is_sign_positive(self)
    }
    fn nan() -> f32 {
        f32::NAN
    }
}

impl FloatLike for f64 {
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    fn is_sign_negative(self) -> bool {
        f64::is_sign_negative(self)
    }
    fn is_sign_positive(self) -> bool {
        f64::is_sign_positive(self)
    }
    fn nan() -> f64 {
        f64::NAN
    }
}

pub(crate) fn trunc_to_i32(v: f64, signed: bool) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if signed {
        if !(-2147483648.0..=2147483647.0).contains(&t) {
            return Err(Trap::InvalidConversion);
        }
        Ok(t as i32)
    } else {
        if !(0.0..=4294967295.0).contains(&t) {
            return Err(Trap::InvalidConversion);
        }
        Ok(t as u32 as i32)
    }
}

pub(crate) fn trunc_to_i64(v: f64, signed: bool) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if signed {
        if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
            return Err(Trap::InvalidConversion);
        }
        Ok(t as i64)
    } else {
        if !(0.0..18446744073709551616.0).contains(&t) {
            return Err(Trap::InvalidConversion);
        }
        Ok(t as u64 as i64)
    }
}

#[allow(clippy::too_many_lines)]
pub(crate) fn exec_num(op: NumOp, stack: &mut Vec<Value>) -> Result<(), Trap> {
    use NumOp::*;

    macro_rules! un {
        ($as:ident, $wrap:ident, |$a:ident| $e:expr) => {{
            let $a = stack.pop().expect("validated").$as();
            stack.push(Value::$wrap($e));
        }};
    }
    macro_rules! bin {
        ($as:ident, $wrap:ident, |$a:ident, $b:ident| $e:expr) => {{
            let $b = stack.pop().expect("validated").$as();
            let $a = stack.pop().expect("validated").$as();
            stack.push(Value::$wrap($e));
        }};
    }
    macro_rules! bin_try {
        ($as:ident, $wrap:ident, |$a:ident, $b:ident| $e:expr) => {{
            let $b = stack.pop().expect("validated").$as();
            let $a = stack.pop().expect("validated").$as();
            stack.push(Value::$wrap($e?));
        }};
    }

    match op {
        // i32 comparisons
        I32Eqz => un!(as_i32, I32, |a| i32::from(a == 0)),
        I32Eq => bin!(as_i32, I32, |a, b| i32::from(a == b)),
        I32Ne => bin!(as_i32, I32, |a, b| i32::from(a != b)),
        I32LtS => bin!(as_i32, I32, |a, b| i32::from(a < b)),
        I32LtU => bin!(as_i32, I32, |a, b| i32::from((a as u32) < b as u32)),
        I32GtS => bin!(as_i32, I32, |a, b| i32::from(a > b)),
        I32GtU => bin!(as_i32, I32, |a, b| i32::from(a as u32 > b as u32)),
        I32LeS => bin!(as_i32, I32, |a, b| i32::from(a <= b)),
        I32LeU => bin!(as_i32, I32, |a, b| i32::from(a as u32 <= b as u32)),
        I32GeS => bin!(as_i32, I32, |a, b| i32::from(a >= b)),
        I32GeU => bin!(as_i32, I32, |a, b| i32::from(a as u32 >= b as u32)),
        // i64 comparisons
        I64Eqz => un!(as_i64, I32, |a| i32::from(a == 0)),
        I64Eq => bin!(as_i64, I32, |a, b| i32::from(a == b)),
        I64Ne => bin!(as_i64, I32, |a, b| i32::from(a != b)),
        I64LtS => bin!(as_i64, I32, |a, b| i32::from(a < b)),
        I64LtU => bin!(as_i64, I32, |a, b| i32::from((a as u64) < b as u64)),
        I64GtS => bin!(as_i64, I32, |a, b| i32::from(a > b)),
        I64GtU => bin!(as_i64, I32, |a, b| i32::from(a as u64 > b as u64)),
        I64LeS => bin!(as_i64, I32, |a, b| i32::from(a <= b)),
        I64LeU => bin!(as_i64, I32, |a, b| i32::from(a as u64 <= b as u64)),
        I64GeS => bin!(as_i64, I32, |a, b| i32::from(a >= b)),
        I64GeU => bin!(as_i64, I32, |a, b| i32::from(a as u64 >= b as u64)),
        // float comparisons
        F32Eq => bin!(as_f32, I32, |a, b| i32::from(a == b)),
        F32Ne => bin!(as_f32, I32, |a, b| i32::from(a != b)),
        F32Lt => bin!(as_f32, I32, |a, b| i32::from(a < b)),
        F32Gt => bin!(as_f32, I32, |a, b| i32::from(a > b)),
        F32Le => bin!(as_f32, I32, |a, b| i32::from(a <= b)),
        F32Ge => bin!(as_f32, I32, |a, b| i32::from(a >= b)),
        F64Eq => bin!(as_f64, I32, |a, b| i32::from(a == b)),
        F64Ne => bin!(as_f64, I32, |a, b| i32::from(a != b)),
        F64Lt => bin!(as_f64, I32, |a, b| i32::from(a < b)),
        F64Gt => bin!(as_f64, I32, |a, b| i32::from(a > b)),
        F64Le => bin!(as_f64, I32, |a, b| i32::from(a <= b)),
        F64Ge => bin!(as_f64, I32, |a, b| i32::from(a >= b)),
        // i32 arithmetic
        I32Clz => un!(as_i32, I32, |a| a.leading_zeros() as i32),
        I32Ctz => un!(as_i32, I32, |a| a.trailing_zeros() as i32),
        I32Popcnt => un!(as_i32, I32, |a| a.count_ones() as i32),
        I32Add => bin!(as_i32, I32, |a, b| a.wrapping_add(b)),
        I32Sub => bin!(as_i32, I32, |a, b| a.wrapping_sub(b)),
        I32Mul => bin!(as_i32, I32, |a, b| a.wrapping_mul(b)),
        I32DivS => bin_try!(as_i32, I32, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else if a == i32::MIN && b == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(a.wrapping_div(b))
            }
        }),
        I32DivU => bin_try!(as_i32, I32, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(((a as u32) / (b as u32)) as i32)
            }
        }),
        I32RemS => bin_try!(as_i32, I32, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(a.wrapping_rem(b))
            }
        }),
        I32RemU => bin_try!(as_i32, I32, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(((a as u32) % (b as u32)) as i32)
            }
        }),
        I32And => bin!(as_i32, I32, |a, b| a & b),
        I32Or => bin!(as_i32, I32, |a, b| a | b),
        I32Xor => bin!(as_i32, I32, |a, b| a ^ b),
        I32Shl => bin!(as_i32, I32, |a, b| a.wrapping_shl(b as u32)),
        I32ShrS => bin!(as_i32, I32, |a, b| a.wrapping_shr(b as u32)),
        I32ShrU => bin!(as_i32, I32, |a, b| ((a as u32).wrapping_shr(b as u32))
            as i32),
        I32Rotl => bin!(as_i32, I32, |a, b| a.rotate_left(b as u32 & 31)),
        I32Rotr => bin!(as_i32, I32, |a, b| a.rotate_right(b as u32 & 31)),
        // i64 arithmetic
        I64Clz => un!(as_i64, I64, |a| i64::from(a.leading_zeros())),
        I64Ctz => un!(as_i64, I64, |a| i64::from(a.trailing_zeros())),
        I64Popcnt => un!(as_i64, I64, |a| i64::from(a.count_ones())),
        I64Add => bin!(as_i64, I64, |a, b| a.wrapping_add(b)),
        I64Sub => bin!(as_i64, I64, |a, b| a.wrapping_sub(b)),
        I64Mul => bin!(as_i64, I64, |a, b| a.wrapping_mul(b)),
        I64DivS => bin_try!(as_i64, I64, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else if a == i64::MIN && b == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(a.wrapping_div(b))
            }
        }),
        I64DivU => bin_try!(as_i64, I64, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(((a as u64) / (b as u64)) as i64)
            }
        }),
        I64RemS => bin_try!(as_i64, I64, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(a.wrapping_rem(b))
            }
        }),
        I64RemU => bin_try!(as_i64, I64, |a, b| {
            if b == 0 {
                Err(Trap::DivisionByZero)
            } else {
                Ok(((a as u64) % (b as u64)) as i64)
            }
        }),
        I64And => bin!(as_i64, I64, |a, b| a & b),
        I64Or => bin!(as_i64, I64, |a, b| a | b),
        I64Xor => bin!(as_i64, I64, |a, b| a ^ b),
        I64Shl => bin!(as_i64, I64, |a, b| a.wrapping_shl(b as u32)),
        I64ShrS => bin!(as_i64, I64, |a, b| a.wrapping_shr(b as u32)),
        I64ShrU => bin!(as_i64, I64, |a, b| ((a as u64).wrapping_shr(b as u32))
            as i64),
        I64Rotl => bin!(as_i64, I64, |a, b| a.rotate_left(b as u32 & 63)),
        I64Rotr => bin!(as_i64, I64, |a, b| a.rotate_right(b as u32 & 63)),
        // f32 arithmetic
        F32Abs => un!(as_f32, F32, |a| a.abs()),
        F32Neg => un!(as_f32, F32, |a| -a),
        F32Ceil => un!(as_f32, F32, |a| canon_f32(a.ceil())),
        F32Floor => un!(as_f32, F32, |a| canon_f32(a.floor())),
        F32Trunc => un!(as_f32, F32, |a| canon_f32(a.trunc())),
        F32Nearest => un!(as_f32, F32, |a| canon_f32(a.round_ties_even())),
        F32Sqrt => un!(as_f32, F32, |a| canon_f32(a.sqrt())),
        F32Add => bin!(as_f32, F32, |a, b| canon_f32(a + b)),
        F32Sub => bin!(as_f32, F32, |a, b| canon_f32(a - b)),
        F32Mul => bin!(as_f32, F32, |a, b| canon_f32(a * b)),
        F32Div => bin!(as_f32, F32, |a, b| canon_f32(a / b)),
        F32Min => bin!(as_f32, F32, |a, b| fmin(a, b)),
        F32Max => bin!(as_f32, F32, |a, b| fmax(a, b)),
        F32Copysign => bin!(as_f32, F32, |a, b| a.copysign(b)),
        // f64 arithmetic
        F64Abs => un!(as_f64, F64, |a| a.abs()),
        F64Neg => un!(as_f64, F64, |a| -a),
        F64Ceil => un!(as_f64, F64, |a| canon_f64(a.ceil())),
        F64Floor => un!(as_f64, F64, |a| canon_f64(a.floor())),
        F64Trunc => un!(as_f64, F64, |a| canon_f64(a.trunc())),
        F64Nearest => un!(as_f64, F64, |a| canon_f64(a.round_ties_even())),
        F64Sqrt => un!(as_f64, F64, |a| canon_f64(a.sqrt())),
        F64Add => bin!(as_f64, F64, |a, b| canon_f64(a + b)),
        F64Sub => bin!(as_f64, F64, |a, b| canon_f64(a - b)),
        F64Mul => bin!(as_f64, F64, |a, b| canon_f64(a * b)),
        F64Div => bin!(as_f64, F64, |a, b| canon_f64(a / b)),
        F64Min => bin!(as_f64, F64, |a, b| fmin(a, b)),
        F64Max => bin!(as_f64, F64, |a, b| fmax(a, b)),
        F64Copysign => bin!(as_f64, F64, |a, b| a.copysign(b)),
        // conversions
        I32WrapI64 => un!(as_i64, I32, |a| a as i32),
        I32TruncF32S => {
            let a = stack.pop().expect("validated").as_f32();
            stack.push(Value::I32(trunc_to_i32(f64::from(a), true)?));
        }
        I32TruncF32U => {
            let a = stack.pop().expect("validated").as_f32();
            stack.push(Value::I32(trunc_to_i32(f64::from(a), false)?));
        }
        I32TruncF64S => {
            let a = stack.pop().expect("validated").as_f64();
            stack.push(Value::I32(trunc_to_i32(a, true)?));
        }
        I32TruncF64U => {
            let a = stack.pop().expect("validated").as_f64();
            stack.push(Value::I32(trunc_to_i32(a, false)?));
        }
        I64ExtendI32S => un!(as_i32, I64, |a| i64::from(a)),
        I64ExtendI32U => un!(as_i32, I64, |a| i64::from(a as u32)),
        I64TruncF32S => {
            let a = stack.pop().expect("validated").as_f32();
            stack.push(Value::I64(trunc_to_i64(f64::from(a), true)?));
        }
        I64TruncF32U => {
            let a = stack.pop().expect("validated").as_f32();
            stack.push(Value::I64(trunc_to_i64(f64::from(a), false)?));
        }
        I64TruncF64S => {
            let a = stack.pop().expect("validated").as_f64();
            stack.push(Value::I64(trunc_to_i64(a, true)?));
        }
        I64TruncF64U => {
            let a = stack.pop().expect("validated").as_f64();
            stack.push(Value::I64(trunc_to_i64(a, false)?));
        }
        F32ConvertI32S => un!(as_i32, F32, |a| a as f32),
        F32ConvertI32U => un!(as_i32, F32, |a| a as u32 as f32),
        F32ConvertI64S => un!(as_i64, F32, |a| a as f32),
        F32ConvertI64U => un!(as_i64, F32, |a| a as u64 as f32),
        F32DemoteF64 => un!(as_f64, F32, |a| canon_f32(a as f32)),
        F64ConvertI32S => un!(as_i32, F64, |a| f64::from(a)),
        F64ConvertI32U => un!(as_i32, F64, |a| f64::from(a as u32)),
        F64ConvertI64S => un!(as_i64, F64, |a| a as f64),
        F64ConvertI64U => un!(as_i64, F64, |a| a as u64 as f64),
        F64PromoteF32 => un!(as_f32, F64, |a| canon_f64(f64::from(a))),
        I32ReinterpretF32 => un!(as_f32, I32, |a| a.to_bits() as i32),
        I64ReinterpretF64 => un!(as_f64, I64, |a| a.to_bits() as i64),
        F32ReinterpretI32 => un!(as_i32, F32, |a| f32::from_bits(a as u32)),
        F64ReinterpretI64 => un!(as_i64, F64, |a| f64::from_bits(a as u64)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_wasm::builder::{Bound, ModuleBuilder};
    use acctee_wasm::instr::BlockType;
    use acctee_wasm::types::ValType;

    /// These are the tree-walker's own unit tests: pin the engine so
    /// the default (the register tier) does not take them over.
    fn tree_config() -> Config {
        Config {
            engine: Engine::Tree,
            ..Config::default()
        }
    }

    fn tree(m: &Module, imports: Imports) -> Result<Instance<'_>, Trap> {
        Instance::with_config(m, imports, tree_config())
    }

    fn run1(
        build: impl FnOnce(&mut ModuleBuilder) -> u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let mut b = ModuleBuilder::new();
        let f = build(&mut b);
        b.export_func("f", f);
        let m = b.build();
        acctee_wasm::validate::validate_module(&m).expect("valid module");
        let mut inst = tree(&m, Imports::new())?;
        inst.invoke("f", args)
    }

    #[test]
    fn arithmetic_and_loop() {
        // sum of 0..n
        let out = run1(
            |b| {
                b.func("f", &[ValType::I32], &[ValType::I64], |f| {
                    let i = f.local(ValType::I32);
                    let acc = f.local(ValType::I64);
                    f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                        f.local_get(acc);
                        f.local_get(i);
                        f.num(NumOp::I64ExtendI32S);
                        f.num(NumOp::I64Add);
                        f.local_set(acc);
                    });
                    f.local_get(acc);
                })
            },
            &[Value::I32(100)],
        )
        .unwrap();
        assert_eq!(out, vec![Value::I64(4950)]);
    }

    #[test]
    fn division_traps() {
        let div = |a: i32, b: i32| {
            run1(
                |mb| {
                    mb.func("f", &[ValType::I32, ValType::I32], &[ValType::I32], |f| {
                        f.local_get(0);
                        f.local_get(1);
                        f.num(NumOp::I32DivS);
                    })
                },
                &[Value::I32(a), Value::I32(b)],
            )
        };
        assert_eq!(div(7, 2).unwrap(), vec![Value::I32(3)]);
        assert_eq!(div(-7, 2).unwrap(), vec![Value::I32(-3)]);
        assert_eq!(div(1, 0).unwrap_err(), Trap::DivisionByZero);
        assert_eq!(div(i32::MIN, -1).unwrap_err(), Trap::IntegerOverflow);
    }

    #[test]
    fn float_min_max_semantics() {
        let mut s = vec![Value::F64(-0.0), Value::F64(0.0)];
        exec_num(NumOp::F64Min, &mut s).unwrap();
        assert!(s[0].as_f64().is_sign_negative());
        let mut s = vec![Value::F64(-0.0), Value::F64(0.0)];
        exec_num(NumOp::F64Max, &mut s).unwrap();
        assert!(s[0].as_f64().is_sign_positive());
        let mut s = vec![Value::F64(1.0), Value::F64(f64::NAN)];
        exec_num(NumOp::F64Min, &mut s).unwrap();
        assert!(s[0].as_f64().is_nan());
    }

    #[test]
    fn nearest_rounds_half_to_even() {
        let mut s = vec![Value::F64(2.5)];
        exec_num(NumOp::F64Nearest, &mut s).unwrap();
        assert_eq!(s[0].as_f64(), 2.0);
        let mut s = vec![Value::F64(3.5)];
        exec_num(NumOp::F64Nearest, &mut s).unwrap();
        assert_eq!(s[0].as_f64(), 4.0);
        let mut s = vec![Value::F64(-0.5)];
        exec_num(NumOp::F64Nearest, &mut s).unwrap();
        assert!(s[0].as_f64() == 0.0 && s[0].as_f64().is_sign_negative());
    }

    #[test]
    fn trunc_conversion_traps() {
        let mut s = vec![Value::F64(f64::NAN)];
        assert_eq!(
            exec_num(NumOp::I32TruncF64S, &mut s).unwrap_err(),
            Trap::InvalidConversion
        );
        let mut s = vec![Value::F64(3e9)];
        assert_eq!(
            exec_num(NumOp::I32TruncF64S, &mut s).unwrap_err(),
            Trap::InvalidConversion
        );
        let mut s = vec![Value::F64(3e9)];
        exec_num(NumOp::I32TruncF64U, &mut s).unwrap();
        assert_eq!(s[0].as_i32() as u32, 3_000_000_000);
        let mut s = vec![Value::F64(-1.0)];
        assert_eq!(
            exec_num(NumOp::I32TruncF64U, &mut s).unwrap_err(),
            Trap::InvalidConversion
        );
    }

    #[test]
    fn shifts_mask_their_count() {
        let mut s = vec![Value::I32(1), Value::I32(33)];
        exec_num(NumOp::I32Shl, &mut s).unwrap();
        assert_eq!(s[0].as_i32(), 2);
        let mut s = vec![Value::I64(1), Value::I64(65)];
        exec_num(NumOp::I64Shl, &mut s).unwrap();
        assert_eq!(s[0].as_i64(), 2);
    }

    #[test]
    fn memory_load_store_and_oob() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.i32_const(12345);
            f.i32_store(0);
            f.local_get(0);
            f.i32_load(0);
        });
        b.export_func("f", f);
        let m = b.build();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(
            inst.invoke("f", &[Value::I32(64)]).unwrap(),
            vec![Value::I32(12345)]
        );
        let err = inst.invoke("f", &[Value::I32(65533)]).unwrap_err();
        assert!(matches!(err, Trap::MemoryOutOfBounds { .. }));
        // Both stores were attempted (and counted); the second trapped.
        assert_eq!(inst.stats().stores, 2);
    }

    #[test]
    fn memory_grow_and_size() {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(3));
        let f = b.func("f", &[], &[ValType::I32], |f| {
            f.i32_const(1);
            f.emit(Instr::MemoryGrow);
            f.drop_();
            f.emit(Instr::MemorySize);
        });
        b.export_func("f", f);
        let m = b.build();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I32(2)]);
        assert_eq!(inst.stats().peak_memory_bytes, 2 * acctee_wasm::PAGE_SIZE);
    }

    #[test]
    fn host_function_call_and_io() {
        let mut b = ModuleBuilder::new();
        let log = b.import_func("env", "double", &[ValType::I32], &[ValType::I32]);
        b.memory(1, None);
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.call(log);
        });
        b.export_func("f", f);
        let m = b.build();
        let imports = Imports::new().func("env", "double", |_ctx, args| {
            Ok(vec![Value::I32(args[0].as_i32() * 2)])
        });
        let mut inst = tree(&m, imports).unwrap();
        assert_eq!(
            inst.invoke("f", &[Value::I32(21)]).unwrap(),
            vec![Value::I32(42)]
        );
    }

    #[test]
    fn unresolved_import_fails_instantiation() {
        let mut b = ModuleBuilder::new();
        b.import_func("env", "missing", &[], &[]);
        let m = b.build();
        assert!(matches!(tree(&m, Imports::new()), Err(Trap::Host(_))));
    }

    #[test]
    fn call_indirect_dispatch() {
        let mut b = ModuleBuilder::new();
        b.table(2, None);
        let f0 = b.func("ten", &[], &[ValType::I32], |f| {
            f.i32_const(10);
        });
        let f1 = b.func("twenty", &[], &[ValType::I32], |f| {
            f.i32_const(20);
        });
        let main = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.emit(Instr::CallIndirect(0));
        });
        b.elem(0, &[f0, f1]);
        b.export_func("f", main);
        let m = b.build();
        acctee_wasm::validate::validate_module(&m).unwrap();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(
            inst.invoke("f", &[Value::I32(0)]).unwrap(),
            vec![Value::I32(10)]
        );
        assert_eq!(
            inst.invoke("f", &[Value::I32(1)]).unwrap(),
            vec![Value::I32(20)]
        );
        assert_eq!(
            inst.invoke("f", &[Value::I32(5)]).unwrap_err(),
            Trap::TableOutOfBounds
        );
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[], &[], |f| {
            f.loop_(BlockType::Empty, |f| {
                f.br(0);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        let mut inst = Instance::with_config(
            &m,
            Imports::new(),
            Config {
                fuel: Some(10_000),
                ..tree_config()
            },
        )
        .unwrap();
        assert_eq!(inst.invoke("f", &[]).unwrap_err(), Trap::OutOfFuel);
    }

    #[test]
    fn time_budget_limits_runaway_loops_on_all_engines() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[], &[], |f| {
            f.loop_(BlockType::Empty, |f| {
                f.br(0);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        for engine in Engine::ALL {
            let started = std::time::Instant::now();
            let mut inst = Instance::with_config(
                &m,
                Imports::new(),
                Config {
                    time_budget: Some(std::time::Duration::from_millis(30)),
                    engine,
                    ..Config::default()
                },
            )
            .unwrap();
            assert_eq!(
                inst.invoke("f", &[]).unwrap_err(),
                Trap::DeadlineExceeded,
                "{engine:?}"
            );
            // Loose sanity bound: the trap arrives in real time, not
            // after minutes of spinning.
            assert!(
                started.elapsed() < std::time::Duration::from_secs(20),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn time_budget_leaves_fast_invokes_alone() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.i32_const(1);
            f.i32_add();
        });
        b.export_func("f", f);
        let m = b.build();
        for engine in Engine::ALL {
            let mut inst = Instance::with_config(
                &m,
                Imports::new(),
                Config {
                    time_budget: Some(std::time::Duration::from_secs(5)),
                    engine,
                    ..Config::default()
                },
            )
            .unwrap();
            assert_eq!(
                inst.invoke("f", &[Value::I32(41)]).unwrap(),
                vec![Value::I32(42)],
                "{engine:?}"
            );
        }
    }

    #[test]
    fn call_depth_limited() {
        let mut b = ModuleBuilder::new();
        // recursive function
        let f = b.func("f", &[], &[], |f| {
            f.call(0);
        });
        b.export_func("f", f);
        let m = b.build();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(inst.invoke("f", &[]).unwrap_err(), Trap::CallStackExhausted);
    }

    #[test]
    fn br_table_and_blocks() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.block(BlockType::Empty, |f| {
                    f.block(BlockType::Empty, |f| {
                        f.local_get(0);
                        f.emit(Instr::BrTable {
                            targets: vec![0, 1],
                            default: 1,
                        });
                    });
                    // case 0
                    f.i32_const(100);
                    f.br(1);
                });
                // case 1 & default
                f.i32_const(200);
            });
        });
        b.export_func("f", f);
        let m = b.build();
        acctee_wasm::validate::validate_module(&m).unwrap();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(
            inst.invoke("f", &[Value::I32(0)]).unwrap(),
            vec![Value::I32(100)]
        );
        assert_eq!(
            inst.invoke("f", &[Value::I32(1)]).unwrap(),
            vec![Value::I32(200)]
        );
        assert_eq!(
            inst.invoke("f", &[Value::I32(9)]).unwrap(),
            vec![Value::I32(200)]
        );
    }

    #[test]
    fn observer_sees_instruction_stream() {
        use crate::observer::CountingObserver;
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[], &[ValType::I32], |f| {
            f.i32_const(1);
            f.i32_const(2);
            f.i32_add();
        });
        b.export_func("f", f);
        let m = b.build();
        let mut inst = tree(&m, Imports::new()).unwrap();
        let mut obs = CountingObserver::unit();
        inst.invoke_observed("f", &[], &mut obs).unwrap();
        assert_eq!(obs.count, 3);
        assert_eq!(inst.stats().instructions, 3);
    }

    #[test]
    fn globals_read_write() {
        use acctee_wasm::types::GlobalType;
        let mut b = ModuleBuilder::new();
        let g = b.global("c", GlobalType::mutable(ValType::I64), ConstExpr::I64(5));
        let f = b.func("f", &[], &[ValType::I64], |f| {
            f.global_get(g);
            f.i64_const(10);
            f.num(NumOp::I64Add);
            f.global_set(g);
            f.global_get(g);
        });
        b.export_func("f", f);
        b.export_global("c", g);
        let m = b.build();
        let mut inst = tree(&m, Imports::new()).unwrap();
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I64(15)]);
        assert_eq!(inst.global("c"), Some(Value::I64(15)));
        assert_eq!(inst.global_by_index(g), Some(Value::I64(15)));
    }
}
