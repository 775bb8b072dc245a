//! The FaaS platform: deploys a function and serves requests with
//! per-request instantiation, measuring real execution time and
//! modelling the layers we do not execute.
//!
//! Per-request *instantiation* does not mean per-request
//! *compilation*: under the register tier (whose code hangs off the
//! artifact) the platform compiles the deployed module into a shared
//! [`CompiledModule`] artifact exactly once (AccTEE §3.3's
//! compile-once/serve-many argument) and hands every request
//! instance the same `Arc`.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use acctee_instrument::{instrument, Level, WeightTable};
use acctee_interp::{CompiledModule, Config, Engine, Imports, Instance, Value};
use acctee_script::{Interpreter, Value as JsValue};
use acctee_wasm::validate::validate_module;
use acctee_wasm::Module;

use crate::setup::{OverheadModel, Setup};

/// Which function is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionKind {
    /// Reply with the request payload.
    Echo,
    /// Bilinear resize to 64x64 RGB.
    Resize,
    /// A caller-supplied module (see [`FaasPlatform::deploy_module`]).
    Custom,
}

impl FunctionKind {
    /// Fig 9 label.
    pub fn name(self) -> &'static str {
        match self {
            FunctionKind::Echo => "echo",
            FunctionKind::Resize => "resize",
            FunctionKind::Custom => "custom",
        }
    }
}

/// Measured + modelled cost of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestStats {
    /// Wall-clock nanoseconds spent actually executing the function.
    pub exec_ns: u64,
    /// Modelled overhead nanoseconds (HTTP, LKL, transitions).
    pub overhead_ns: u64,
    /// Response bytes produced.
    pub response_bytes: usize,
    /// Payload bytes the function read through `read_input` (0 unless
    /// the setup does I/O accounting).
    pub io_bytes_in: u64,
    /// Bytes the function wrote through `write_output` (0 unless the
    /// setup does I/O accounting).
    pub io_bytes_out: u64,
}

impl RequestStats {
    /// Total service time in virtual nanoseconds.
    pub fn service_ns(&self) -> u64 {
        self.exec_ns + self.overhead_ns
    }
}

/// A deployed function in one experimental setup.
pub struct FaasPlatform {
    kind: FunctionKind,
    setup: Setup,
    module: Option<Module>,
    js_source: Option<&'static str>,
    /// Exported function requests invoke (`main` for the built-ins).
    entry: String,
    overheads: OverheadModel,
    /// SGX hardware-mode execution-slowdown factor (from the cycle
    /// model: cycles(sgx)/cycles(plain) for this function).
    hw_exec_factor: f64,
    /// Interpreter engine serving wasm requests.
    engine: Engine,
    /// The compile-once/serve-many compiled artifact, built at most
    /// once per deployment (`None` inside = compile failed; requests
    /// fall back to the per-instance path, which reports the error).
    artifact: OnceLock<Option<Arc<CompiledModule>>>,
}

// The serving plane shards deployments across event loops and worker
// threads (acctee-net DESIGN.md §14), holding each platform behind an
// `Arc` and calling `handle` from whichever thread owns the
// connection. Pin that contract at compile time: a future field that
// is not `Send + Sync` (an `Rc`, a `RefCell`, a raw pointer) must be
// an explicit decision here, not a silent confinement of the serving
// path to one thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaasPlatform>();
    assert_send_sync::<RequestStats>();
};

impl std::fmt::Debug for FaasPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaasPlatform({} on {})", self.kind.name(), self.setup)
    }
}

impl FaasPlatform {
    /// Deploys `kind` under `setup`.
    ///
    /// # Panics
    ///
    /// Panics if instrumentation of a built-in function fails (cannot
    /// happen for the shipped modules), or if `kind` is
    /// [`FunctionKind::Custom`] (use [`FaasPlatform::deploy_module`]).
    pub fn deploy(kind: FunctionKind, setup: Setup) -> FaasPlatform {
        let (module, js_source) = if setup == Setup::Js {
            let src = match kind {
                FunctionKind::Echo => acctee_workloads::faas_fns::ECHO_JS,
                FunctionKind::Resize => acctee_workloads::faas_fns::RESIZE_JS,
                FunctionKind::Custom => panic!("deploy a custom module via deploy_module"),
            };
            (None, Some(src))
        } else {
            let base = match kind {
                FunctionKind::Echo => acctee_workloads::faas_fns::echo_module(),
                FunctionKind::Resize => acctee_workloads::faas_fns::resize_module(),
                FunctionKind::Custom => panic!("deploy a custom module via deploy_module"),
            };
            let module = if setup.instrumented() {
                instrument(&base, Level::LoopBased, &WeightTable::calibrated())
                    .expect("built-in function instruments")
                    .module
            } else {
                base
            };
            (Some(module), None)
        };
        // Hardware-mode execution factor: echo moves bytes (boundary
        // cost dominates, factor near 1); resize computes over a
        // working set far below the EPC, so the factor is the MEE-less
        // in-cache ratio, close to 1 as the paper observes for
        // compute-heavy functions. We use fixed factors derived from
        // the cycle model once (see bench `fig9`).
        let hw_exec_factor = match kind {
            FunctionKind::Echo => 1.05,
            FunctionKind::Resize => 1.5,
            FunctionKind::Custom => unreachable!("custom modules deploy via deploy_module"),
        };
        FaasPlatform {
            kind,
            setup,
            module,
            js_source,
            entry: "main".into(),
            overheads: OverheadModel::default(),
            hw_exec_factor,
            engine: Engine::default(),
            artifact: OnceLock::new(),
        }
    }

    /// Deploys a caller-supplied wasm module as a FaaS function: the
    /// bring-your-own-function path. `entry` is the exported function
    /// each request invokes; the module may (but need not) import the
    /// `env.input_len` / `env.read_input` / `env.write_output` host
    /// interface the built-ins use. Under an instrumented setup the
    /// module is instrumented at deploy time, exactly like the
    /// built-ins.
    ///
    /// # Errors
    ///
    /// Returns a message if the module does not validate, exports no
    /// function named `entry`, or fails to instrument.
    pub fn deploy_module(
        module: Module,
        entry: &str,
        setup: Setup,
    ) -> Result<FaasPlatform, String> {
        if setup == Setup::Js {
            return Err("deploy_module serves wasm; use deploy for the JS setup".into());
        }
        validate_module(&module).map_err(|e| e.to_string())?;
        if module.exported_func(entry).is_none() {
            return Err(format!("module exports no function {entry:?}"));
        }
        let module = if setup.instrumented() {
            instrument(&module, Level::LoopBased, &WeightTable::calibrated())
                .map_err(|e| e.to_string())?
                .module
        } else {
            module
        };
        Ok(FaasPlatform {
            kind: FunctionKind::Custom,
            setup,
            module: Some(module),
            js_source: None,
            entry: entry.into(),
            overheads: OverheadModel::default(),
            hw_exec_factor: 1.0,
            engine: Engine::default(),
            artifact: OnceLock::new(),
        })
    }

    /// Selects the interpreter engine for wasm requests (the serving
    /// paths default to [`Engine::Regs`]; [`Engine::Tree`] is the
    /// auditable oracle). Resets any compiled artifact: the next
    /// request (or [`FaasPlatform::warm`]) rebuilds it for the new
    /// engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> FaasPlatform {
        self.engine = engine;
        self.artifact = OnceLock::new();
        self
    }

    /// Pre-compiles the compiled artifact so the first request pays no
    /// compile cost. Returns `true` iff this call built the artifact
    /// (false when it was already built or does not apply — tree
    /// engine / JS setup). Thread-safe: concurrent
    /// callers deduplicate to exactly one compilation.
    pub fn warm(&self) -> bool {
        let mut fresh = false;
        self.shared_artifact_inner(&mut fresh);
        fresh
    }

    /// The shared artifact for this deployment, compiling it on first
    /// use. `None` when the engine is the tree-walker, there is no
    /// wasm module, or compilation failed (requests then
    /// fall back to the per-instance path and surface the error).
    fn shared_artifact(&self) -> Option<Arc<CompiledModule>> {
        let mut fresh = false;
        self.shared_artifact_inner(&mut fresh)
    }

    fn shared_artifact_inner(&self, fresh: &mut bool) -> Option<Arc<CompiledModule>> {
        if self.engine == Engine::Tree {
            return None;
        }
        let module = self.module.as_ref()?;
        self.artifact
            .get_or_init(|| {
                *fresh = true;
                let span = acctee_telemetry::span("faas.compile_artifact", "faas")
                    .with_arg("function", self.kind.name());
                let artifact = CompiledModule::compile(module).ok();
                drop(span);
                acctee_telemetry::global()
                    .metrics()
                    .counter("acctee_artifact_compiles_total")
                    .inc();
                artifact
            })
            .clone()
    }

    /// The deployed function.
    pub fn kind(&self) -> FunctionKind {
        self.kind
    }

    /// The experimental setup.
    pub fn setup(&self) -> Setup {
        self.setup
    }

    /// Serves one request end to end (fresh instance per request, as
    /// in the paper), returning the response and its cost breakdown.
    ///
    /// # Errors
    ///
    /// Returns a message if the function traps or the script fails.
    pub fn handle(&self, payload: &[u8]) -> Result<(Vec<u8>, RequestStats), String> {
        let mut span = acctee_telemetry::span("faas.handle", "faas")
            .with_arg("function", self.kind.name())
            .with_arg("engine", self.engine.name())
            .with_arg("payload_bytes", payload.len());
        let start = Instant::now();
        let (response, io) = match (&self.module, self.js_source) {
            (Some(module), _) => self.run_wasm(module, payload)?,
            (None, Some(src)) => (run_js(self.kind, src, payload)?, (0, 0)),
            _ => unreachable!("deploy always sets one of module/js"),
        };
        let mut exec_ns = start.elapsed().as_nanos() as u64;
        if self.setup.sgx_hw() {
            exec_ns = (exec_ns as f64 * self.hw_exec_factor) as u64;
        }
        let overhead_ns = self
            .overheads
            .request_overhead_ns(self.setup, payload.len());
        span.record_arg("exec_ns", exec_ns);
        span.record_arg("response_bytes", response.len());
        Ok((
            response.clone(),
            RequestStats {
                exec_ns,
                overhead_ns,
                response_bytes: response.len(),
                io_bytes_in: io.0,
                io_bytes_out: io.1,
            },
        ))
    }

    fn run_wasm(&self, module: &Module, payload: &[u8]) -> Result<(Vec<u8>, (u64, u64)), String> {
        use std::cell::RefCell;
        use std::rc::Rc;
        let input = Rc::new(payload.to_vec());
        let output = Rc::new(RefCell::new(Vec::new()));
        let io_counts = Rc::new(RefCell::new((0u64, 0u64)));
        let track_io = self.setup.io_accounting();
        let i1 = input.clone();
        let imports = Imports::new()
            .func("env", "input_len", move |_, _| {
                Ok(vec![Value::I32(i1.len() as i32)])
            })
            .func("env", "read_input", {
                let input = input.clone();
                let io = io_counts.clone();
                move |ctx, args| {
                    let dst = args[0].as_i32() as u32 as u64;
                    let len = (args[1].as_i32().max(0) as usize).min(input.len());
                    ctx.memory()?.write_bytes(dst, &input[..len])?;
                    if track_io {
                        io.borrow_mut().0 += len as u64;
                    }
                    Ok(vec![Value::I32(len as i32)])
                }
            })
            .func("env", "write_output", {
                let output = output.clone();
                let io = io_counts.clone();
                move |ctx, args| {
                    let src = args[0].as_i32() as u32 as u64;
                    // Clamp negative lengths to zero, mirroring
                    // `read_input`: a sign-extending cast would turn
                    // `-1` into a ~4 GiB read attempt.
                    let len = args[1].as_i32().max(0) as u32;
                    let bytes = ctx.memory()?.read_bytes(src, len)?;
                    if track_io {
                        io.borrow_mut().1 += u64::from(len);
                    }
                    output.borrow_mut().extend_from_slice(&bytes);
                    Ok(vec![Value::I32(len as i32)])
                }
            });
        let cfg = Config {
            engine: self.engine,
            ..Config::default()
        };
        let mut inst = match self.shared_artifact() {
            Some(artifact) => Instance::with_artifact(module, imports, cfg, artifact)
                .map_err(|e| e.to_string())?,
            None => Instance::with_config(module, imports, cfg).map_err(|e| e.to_string())?,
        };
        inst.invoke(&self.entry, &[]).map_err(|e| e.to_string())?;
        let r = output.borrow().clone();
        let io = *io_counts.borrow();
        Ok((r, io))
    }
}

fn run_js(kind: FunctionKind, src: &'static str, payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut interp = Interpreter::new();
    let input = JsValue::array(
        payload
            .iter()
            .map(|b| JsValue::Num(f64::from(*b)))
            .collect(),
    );
    interp.set_global("input", input);
    let out = interp.run(src).map_err(|e| e.to_string())?;
    match kind {
        FunctionKind::Echo => Ok(payload.to_vec()),
        FunctionKind::Custom => Err("custom functions have no JS implementation".into()),
        FunctionKind::Resize => {
            let arr = out.as_array().ok_or("resize must return an array")?;
            let r = arr
                .borrow()
                .iter()
                .map(|v| v.as_num().unwrap_or(0.0) as u8)
                .collect();
            Ok(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_workloads::faas_fns::{resize_native, test_image, OUT_SIZE};

    #[test]
    fn echo_serves_all_setups() {
        for setup in Setup::ALL {
            let p = FaasPlatform::deploy(FunctionKind::Echo, *setup);
            let (resp, stats) = p.handle(b"ping").unwrap();
            assert_eq!(resp, b"ping", "{setup}");
            assert!(stats.service_ns() > 0);
        }
    }

    #[test]
    fn resize_response_is_correct_in_every_setup() {
        let img = test_image(16, 16);
        let expected = resize_native(16, 16, &img[8..]);
        for setup in Setup::ALL {
            let p = FaasPlatform::deploy(FunctionKind::Resize, *setup);
            let (resp, _) = p.handle(&img).unwrap();
            assert_eq!(resp.len(), OUT_SIZE * OUT_SIZE * 3, "{setup}");
            assert_eq!(resp, expected, "{setup}");
        }
    }

    #[test]
    fn overheads_rank_setups() {
        let img = test_image(16, 16);
        let mut costs = Vec::new();
        for setup in [Setup::Wasm, Setup::WasmSgxSim, Setup::WasmSgxHw] {
            let p = FaasPlatform::deploy(FunctionKind::Echo, setup);
            let (_, stats) = p.handle(&img).unwrap();
            costs.push(stats.overhead_ns);
        }
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
    }

    #[test]
    fn instrumented_setup_still_correct_and_counts() {
        let img = test_image(32, 32);
        let p = FaasPlatform::deploy(FunctionKind::Resize, Setup::WasmSgxHwInstr);
        let (resp, _) = p.handle(&img).unwrap();
        assert_eq!(resp, resize_native(32, 32, &img[8..]));
    }

    /// A hostile function that calls both I/O imports with length -1.
    /// Before the clamp fix, `write_output` sign-extended -1 into a
    /// ~4 GiB read and the request failed with a bounds trap while
    /// `read_input` silently clamped — asymmetric accounting.
    fn negative_len_module() -> Module {
        use acctee_wasm::builder::ModuleBuilder;
        use acctee_wasm::types::ValType;
        let mut b = ModuleBuilder::new();
        let read_input = b.import_func(
            "env",
            "read_input",
            &[ValType::I32, ValType::I32],
            &[ValType::I32],
        );
        let write_output = b.import_func(
            "env",
            "write_output",
            &[ValType::I32, ValType::I32],
            &[ValType::I32],
        );
        b.memory(1, None);
        let f = b.func("main", &[], &[ValType::I32], |f| {
            f.i32_const(0);
            f.i32_const(-1);
            f.call(read_input);
            f.drop_();
            f.i32_const(0);
            f.i32_const(-1);
            f.call(write_output);
        });
        b.export_func("main", f);
        b.build()
    }

    #[test]
    fn negative_io_lengths_clamp_to_zero_symmetrically() {
        let m = negative_len_module();
        for setup in [Setup::Wasm, Setup::WasmSgxHwIo] {
            let p = FaasPlatform::deploy_module(m.clone(), "main", setup).unwrap();
            let (resp, stats) = p.handle(b"abc").unwrap();
            assert!(resp.is_empty(), "{setup}");
            assert_eq!((stats.io_bytes_in, stats.io_bytes_out), (0, 0), "{setup}");
        }
    }

    #[test]
    fn deploy_module_serves_custom_functions() {
        let m = acctee_workloads::faas_fns::echo_module();
        for setup in [Setup::Wasm, Setup::WasmSgxHwInstr] {
            let p = FaasPlatform::deploy_module(m.clone(), "main", setup).unwrap();
            assert_eq!(p.kind(), FunctionKind::Custom);
            let (resp, _) = p.handle(b"custom payload").unwrap();
            assert_eq!(resp, b"custom payload", "{setup}");
        }
    }

    #[test]
    fn deploy_module_rejects_bad_entry_and_js_setup() {
        let m = acctee_workloads::faas_fns::echo_module();
        let err = FaasPlatform::deploy_module(m.clone(), "nope", Setup::Wasm).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(FaasPlatform::deploy_module(m, "main", Setup::Js).is_err());
    }

    #[test]
    fn warm_compiles_exactly_once_and_requests_share_it() {
        let p = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm).with_engine(Engine::Regs);
        assert!(p.warm(), "first warm builds the artifact");
        assert!(!p.warm(), "second warm reuses it");
        let (resp, _) = p.handle(b"shared").unwrap();
        assert_eq!(resp, b"shared");
        // The tree engine never builds one.
        let tree = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm).with_engine(Engine::Tree);
        assert!(!tree.warm());
        let (resp, _) = tree.handle(b"tree").unwrap();
        assert_eq!(resp, b"tree");
    }

    #[test]
    fn io_accounting_setup_reports_request_bytes() {
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::WasmSgxHwIo);
        let (_, stats) = platform.handle(&[7u8; 128]).unwrap();
        assert_eq!(stats.io_bytes_in, 128);
        assert_eq!(stats.io_bytes_out, 128);
        // Non-accounting setups keep the fields zero.
        let plain = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        let (_, stats) = plain.handle(&[7u8; 128]).unwrap();
        assert_eq!((stats.io_bytes_in, stats.io_bytes_out), (0, 0));
    }

    #[test]
    fn bytecode_engine_serves_identically() {
        let img = test_image(16, 16);
        for setup in [Setup::Wasm, Setup::WasmSgxHwInstr] {
            let tree = FaasPlatform::deploy(FunctionKind::Resize, setup).with_engine(Engine::Tree);
            let regs = FaasPlatform::deploy(FunctionKind::Resize, setup).with_engine(Engine::Regs);
            let (a, sa) = tree.handle(&img).unwrap();
            let (b, sb) = regs.handle(&img).unwrap();
            assert_eq!(a, b, "{setup}");
            assert_eq!(
                (sa.io_bytes_in, sa.io_bytes_out),
                (sb.io_bytes_in, sb.io_bytes_out),
                "{setup}"
            );
        }
    }
}
