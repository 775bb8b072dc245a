//! I/O accounting (§3.4, §3.5 "Accounting of I/O Operations").
//!
//! WebAssembly has no I/O of its own; the embedding runtime exposes
//! host functions. In AccTEE the runtime is *inside* the trusted
//! sandbox, so instrumenting these functions gives trustworthy byte
//! counts. The [`IoMeter`] is shared between the host-function closures
//! and the accounting enclave.

use std::cell::RefCell;
use std::rc::Rc;

use acctee_interp::{HostCtx, Imports, Trap, Value};

#[derive(Debug, Default)]
struct IoState {
    bytes_in: u64,
    bytes_out: u64,
    input: Vec<u8>,
    output: Vec<u8>,
}

/// Shared I/O accounting state, cloned into the host functions.
#[derive(Debug, Clone, Default)]
pub struct IoMeter {
    state: Rc<RefCell<IoState>>,
}

impl IoMeter {
    /// Creates a meter with the given request input.
    pub fn with_input(input: &[u8]) -> IoMeter {
        let m = IoMeter::default();
        m.state.borrow_mut().input = input.to_vec();
        m
    }

    /// Bytes that flowed into the module.
    pub fn bytes_in(&self) -> u64 {
        self.state.borrow().bytes_in
    }

    /// Bytes that flowed out of the module.
    pub fn bytes_out(&self) -> u64 {
        self.state.borrow().bytes_out
    }

    /// The output the module produced.
    pub fn take_output(&self) -> Vec<u8> {
        std::mem::take(&mut self.state.borrow_mut().output)
    }

    /// Registers the metered I/O interface on `imports`:
    ///
    /// * `env.input_len() -> i32` — size of the request payload;
    /// * `env.read_input(dst: i32, len: i32) -> i32` — copies up to
    ///   `len` payload bytes to `dst`, returns bytes copied (counted
    ///   as inbound I/O);
    /// * `env.write_output(src: i32, len: i32) -> i32` — appends `len`
    ///   bytes from `src` to the response (counted as outbound I/O).
    pub fn register(&self, imports: Imports) -> Imports {
        let st = self.state.clone();
        let imports = imports.func("env", "input_len", move |_ctx, _args| {
            Ok(vec![Value::I32(st.borrow().input.len() as i32)])
        });

        let st = self.state.clone();
        let imports = imports.func("env", "read_input", move |ctx: &mut HostCtx<'_>, args| {
            let dst = args[0].as_i32() as u32 as u64;
            let len = args[1].as_i32().max(0) as usize;
            let mut s = st.borrow_mut();
            let n = len.min(s.input.len());
            let data: Vec<u8> = s.input[..n].to_vec();
            ctx.memory()?.write_bytes(dst, &data)?;
            s.bytes_in += n as u64;
            Ok(vec![Value::I32(n as i32)])
        });

        let st = self.state.clone();
        imports.func("env", "write_output", move |ctx: &mut HostCtx<'_>, args| {
            let src = args[0].as_i32() as u32 as u64;
            let len = args[1].as_i32();
            if len < 0 {
                return Err(Trap::Host("negative output length".into()));
            }
            let bytes = ctx.memory()?.read_bytes(src, len as u32)?;
            let mut s = st.borrow_mut();
            s.bytes_out += bytes.len() as u64;
            s.output.extend_from_slice(&bytes);
            Ok(vec![Value::I32(len)])
        })
    }
}

/// Declares the matching imports on a module builder: returns the
/// function indices of (`input_len`, `read_input`, `write_output`).
pub fn declare_io_imports(b: &mut acctee_wasm::builder::ModuleBuilder) -> (u32, u32, u32) {
    use acctee_wasm::types::ValType::I32;
    let input_len = b.import_func("env", "input_len", &[], &[I32]);
    let read_input = b.import_func("env", "read_input", &[I32, I32], &[I32]);
    let write_output = b.import_func("env", "write_output", &[I32, I32], &[I32]);
    (input_len, read_input, write_output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_interp::Instance;
    use acctee_wasm::builder::ModuleBuilder;
    use acctee_wasm::types::ValType;

    /// An echo module: reads the whole input to memory, writes it back.
    fn echo_module() -> acctee_wasm::Module {
        let mut b = ModuleBuilder::new();
        let (input_len, read_input, write_output) = declare_io_imports(&mut b);
        b.memory(2, None);
        let f = b.func("main", &[], &[ValType::I32], |f| {
            let n = f.local(ValType::I32);
            f.i32_const(1024);
            f.call(input_len);
            f.call(read_input);
            f.local_set(n);
            f.i32_const(1024);
            f.local_get(n);
            f.call(write_output);
        });
        b.export_func("main", f);
        b.build()
    }

    #[test]
    fn echo_counts_both_directions() {
        let m = echo_module();
        acctee_wasm::validate::validate_module(&m).unwrap();
        let meter = IoMeter::with_input(b"hello acctee");
        let imports = meter.register(Imports::new());
        let mut inst = Instance::new(&m, imports).unwrap();
        let out = inst.invoke("main", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(12)]);
        assert_eq!(meter.bytes_in(), 12);
        assert_eq!(meter.bytes_out(), 12);
        assert_eq!(meter.take_output(), b"hello acctee");
    }

    #[test]
    fn read_is_clamped_to_input_size() {
        let meter = IoMeter::with_input(b"abc");
        let imports = meter.register(Imports::new());
        let m = echo_module();
        let mut inst = Instance::new(&m, imports).unwrap();
        inst.invoke("main", &[]).unwrap();
        assert_eq!(meter.bytes_in(), 3);
    }

    /// A length of -1 on either import: `read_input` copies nothing,
    /// `write_output` refuses the call rather than reading ~4 GiB.
    /// Neither counts a byte.
    #[test]
    fn negative_io_lengths_read_nothing_and_refuse_output() {
        let mut b = ModuleBuilder::new();
        let (_, read_input, write_output) = declare_io_imports(&mut b);
        b.memory(1, None);
        for (name, import) in [("read", read_input), ("write", write_output)] {
            let f = b.func(name, &[], &[ValType::I32], |f| {
                f.i32_const(0);
                f.i32_const(-1);
                f.call(import);
            });
            b.export_func(name, f);
        }
        let m = b.build();
        let meter = IoMeter::with_input(b"abc");
        let mut inst = Instance::new(&m, meter.register(Imports::new())).unwrap();
        assert_eq!(inst.invoke("read", &[]).unwrap(), vec![Value::I32(0)]);
        assert_eq!(meter.bytes_in(), 0);
        let err = inst.invoke("write", &[]).unwrap_err();
        assert!(matches!(err, Trap::Host(_)), "{err:?}");
        assert_eq!(meter.bytes_out(), 0);
        assert!(meter.take_output().is_empty());
    }

    #[test]
    fn oob_write_output_traps() {
        let mut b = ModuleBuilder::new();
        let (_, _, write_output) = declare_io_imports(&mut b);
        b.memory(1, None);
        let f = b.func("main", &[], &[ValType::I32], |f| {
            f.i32_const(65530);
            f.i32_const(100); // reads past the end of memory
            f.call(write_output);
        });
        b.export_func("main", f);
        let m = b.build();
        let meter = IoMeter::default();
        let mut inst = Instance::new(&m, meter.register(Imports::new())).unwrap();
        assert!(inst.invoke("main", &[]).is_err());
        assert_eq!(meter.bytes_out(), 0);
    }
}
