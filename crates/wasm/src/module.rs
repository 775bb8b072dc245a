//! The WebAssembly module model: the in-memory representation produced
//! by the decoder / text parser / builder and consumed by the encoder,
//! validator and interpreter.

use crate::instr::{ConstExpr, Instr};
use crate::types::{FuncType, GlobalType, MemoryType, TableType, ValType};

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportKind {
    /// A function with the given type index.
    Func(u32),
    /// A table.
    Table(TableType),
    /// A linear memory.
    Memory(MemoryType),
    /// A global.
    Global(GlobalType),
}

/// An import entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Module namespace (e.g. `"env"`).
    pub module: String,
    /// Field name within the namespace.
    pub name: String,
    /// What is imported.
    pub kind: ImportKind,
}

/// What an export exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExportKind {
    /// Function index (into the combined import+local index space).
    Func(u32),
    /// Table index.
    Table(u32),
    /// Memory index.
    Memory(u32),
    /// Global index.
    Global(u32),
}

/// An export entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Exported name.
    pub name: String,
    /// Exported entity.
    pub kind: ExportKind,
}

/// A locally-defined function.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Index into [`Module::types`].
    pub ty: u32,
    /// Types of the declared locals (excluding parameters).
    pub locals: Vec<ValType>,
    /// The structured body.
    pub body: Vec<Instr>,
    /// Optional symbolic name (kept for text output and diagnostics;
    /// not part of structural equality-relevant binary state, but we
    /// round-trip it through the custom name section).
    pub name: Option<String>,
}

/// A locally-defined global.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// The global's type.
    pub ty: GlobalType,
    /// Initialiser expression.
    pub init: ConstExpr,
    /// Optional symbolic name.
    pub name: Option<String>,
}

/// An element segment (initialises the function table).
#[derive(Debug, Clone, PartialEq)]
pub struct Elem {
    /// Table index (MVP: always 0).
    pub table: u32,
    /// Offset expression.
    pub offset: ConstExpr,
    /// Function indices placed at the offset.
    pub funcs: Vec<u32>,
}

/// A data segment (initialises linear memory).
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Memory index (MVP: always 0).
    pub memory: u32,
    /// Offset expression.
    pub offset: ConstExpr,
    /// Bytes copied to the offset at instantiation.
    pub bytes: Vec<u8>,
}

/// A complete WebAssembly module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// The type section: deduplicated function signatures.
    pub types: Vec<FuncType>,
    /// Imports, in declaration order.
    pub imports: Vec<Import>,
    /// Locally-defined functions.
    pub funcs: Vec<Func>,
    /// Locally-defined tables (MVP: at most one overall).
    pub tables: Vec<TableType>,
    /// Locally-defined memories (MVP: at most one overall).
    pub memories: Vec<MemoryType>,
    /// Locally-defined globals.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Optional start function index.
    pub start: Option<u32>,
    /// Element segments.
    pub elems: Vec<Elem>,
    /// Data segments.
    pub datas: Vec<Data>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Interns a function type, returning its index.
    pub fn intern_type(&mut self, ty: FuncType) -> u32 {
        if let Some(i) = self.types.iter().position(|t| *t == ty) {
            return i as u32;
        }
        self.types.push(ty);
        (self.types.len() - 1) as u32
    }

    /// Number of imported functions.
    pub fn num_imported_funcs(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Func(_)))
            .count() as u32
    }

    /// Number of imported globals.
    pub fn num_imported_globals(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Global(_)))
            .count() as u32
    }

    /// Total number of functions (imported + local).
    pub fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.funcs.len() as u32
    }

    /// Total number of globals (imported + local).
    pub fn num_globals(&self) -> u32 {
        self.num_imported_globals() + self.globals.len() as u32
    }

    /// The type of function `idx` in the combined index space, if valid.
    pub fn func_type(&self, idx: u32) -> Option<&FuncType> {
        let n_imp = self.num_imported_funcs();
        let ty_idx = if idx < n_imp {
            let mut seen = 0;
            let mut found = None;
            for imp in &self.imports {
                if let ImportKind::Func(t) = imp.kind {
                    if seen == idx {
                        found = Some(t);
                        break;
                    }
                    seen += 1;
                }
            }
            found?
        } else {
            self.funcs.get((idx - n_imp) as usize)?.ty
        };
        self.types.get(ty_idx as usize)
    }

    /// The type of global `idx` in the combined index space, if valid.
    pub fn global_type(&self, idx: u32) -> Option<GlobalType> {
        let n_imp = self.num_imported_globals();
        if idx < n_imp {
            let mut seen = 0;
            for imp in &self.imports {
                if let ImportKind::Global(g) = imp.kind {
                    if seen == idx {
                        return Some(g);
                    }
                    seen += 1;
                }
            }
            None
        } else {
            self.globals.get((idx - n_imp) as usize).map(|g| g.ty)
        }
    }

    /// The memory type (imported or local), if the module has one.
    pub fn memory(&self) -> Option<MemoryType> {
        for imp in &self.imports {
            if let ImportKind::Memory(m) = imp.kind {
                return Some(m);
            }
        }
        self.memories.first().copied()
    }

    /// The table type (imported or local), if the module has one.
    pub fn table(&self) -> Option<TableType> {
        for imp in &self.imports {
            if let ImportKind::Table(t) = imp.kind {
                return Some(t);
            }
        }
        self.tables.first().copied()
    }

    /// Looks up an exported function index by name.
    pub fn exported_func(&self, name: &str) -> Option<u32> {
        self.exports.iter().find_map(|e| match e.kind {
            ExportKind::Func(i) if e.name == name => Some(i),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Limits;

    fn module_with_imports() -> Module {
        let mut m = Module::new();
        let t0 = m.intern_type(FuncType::new(&[ValType::I32], &[]));
        let t1 = m.intern_type(FuncType::new(&[], &[ValType::I64]));
        assert_eq!(m.intern_type(FuncType::new(&[ValType::I32], &[])), t0);
        m.imports.push(Import {
            module: "env".into(),
            name: "log".into(),
            kind: ImportKind::Func(t0),
        });
        m.imports.push(Import {
            module: "env".into(),
            name: "g".into(),
            kind: ImportKind::Global(GlobalType::immutable(ValType::I32)),
        });
        m.funcs.push(Func {
            ty: t1,
            locals: vec![],
            body: vec![],
            name: Some("f".into()),
        });
        m.globals.push(Global {
            ty: GlobalType::mutable(ValType::I64),
            init: ConstExpr::I64(0),
            name: None,
        });
        m
    }

    #[test]
    fn index_spaces_combine_imports_and_locals() {
        let m = module_with_imports();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.func_type(0).unwrap().params, vec![ValType::I32]);
        assert_eq!(m.func_type(1).unwrap().results, vec![ValType::I64]);
        assert!(m.func_type(2).is_none());
        assert_eq!(m.global_type(0).unwrap().val, ValType::I32);
        assert_eq!(m.global_type(1).unwrap().val, ValType::I64);
        assert!(m.global_type(2).is_none());
    }

    #[test]
    fn memory_prefers_import() {
        let mut m = Module::new();
        m.memories.push(MemoryType {
            limits: Limits::new(2, None),
        });
        assert_eq!(m.memory().unwrap().limits.min, 2);
        m.imports.insert(
            0,
            Import {
                module: "env".into(),
                name: "mem".into(),
                kind: ImportKind::Memory(MemoryType {
                    limits: Limits::new(7, None),
                }),
            },
        );
        assert_eq!(m.memory().unwrap().limits.min, 7);
    }
}
