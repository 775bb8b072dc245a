//! `acctee-wasm` — a from-scratch WebAssembly MVP implementation.
//!
//! This crate provides the WebAssembly substrate for the AccTEE
//! reproduction: the module model, the complete MVP instruction set, a
//! binary decoder/encoder, a WAT-subset text format, a validator and an
//! ergonomic [`builder`] DSL used to author the evaluation workloads.
//!
//! The crate is deliberately self-contained (no external parser or
//! runtime dependencies); the sibling crate `acctee-interp` executes the
//! modules defined here.
//!
//! # Example
//!
//! ```
//! use acctee_wasm::builder::ModuleBuilder;
//! use acctee_wasm::types::ValType;
//!
//! let mut b = ModuleBuilder::new();
//! b.memory(1, None);
//! let f = b.func("add", &[ValType::I32, ValType::I32], &[ValType::I32], |f| {
//!     f.local_get(0);
//!     f.local_get(1);
//!     f.i32_add();
//! });
//! b.export_func("add", f);
//! let module = b.build();
//! let bytes = acctee_wasm::encode::encode_module(&module);
//! let back = acctee_wasm::decode::decode_module(&bytes).unwrap();
//! assert_eq!(module, back);
//! ```

pub mod builder;
pub mod charge;
pub mod decode;
pub mod encode;
pub mod error;
pub mod instr;
pub mod leb;
pub mod module;
pub mod op;
pub mod rangeproof;
pub mod text;
pub mod types;
pub mod validate;

pub use error::{Error, Result};
pub use instr::{BlockType, ConstExpr, Instr, MemArg};
pub use module::Module;
pub use op::{LoadOp, NumOp, StoreOp};
pub use types::{FuncType, GlobalType, Limits, MemoryType, Mutability, TableType, ValType};

/// The WebAssembly page size (64 KiB).
pub const PAGE_SIZE: usize = 65536;
