//! Call metadata for the compiled artifact.
//!
//! Building a [`CompiledModule`] resolves, once per module, what call
//! sites need at run time: each function's parameter and result types
//! and a canonical type id, so the register tier never consults the
//! type section while executing. The register code itself is lowered
//! later, on first need ([`crate::regalloc`]).

use acctee_wasm::module::{ImportKind, Module};

use crate::observer::InstrWeights;
use crate::regs::CompiledModule;
use crate::trap::Trap;

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
        let ty = module.types.get(t as usize).ok_or_else(|| {
            Trap::Host("compile: unresolved func type (module not validated?)".into())
        })?;
        params_ty.push(ty.params.clone().into_boxed_slice());
        canon_of_func.push(type_canon[t as usize]);
        if i as u32 >= n_imported {
            results_ty.push(ty.results.clone().into_boxed_slice());
        }
    }
    Ok(CompiledModule {
        params_ty,
        results_ty,
        canon_of_func,
        n_imported,
        weights,
        regs: std::sync::OnceLock::new(),
    })
}

impl CompiledModule {
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
}
