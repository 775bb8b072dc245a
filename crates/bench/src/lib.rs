//! `acctee-bench` — the harness that regenerates every table and
//! figure of the paper's evaluation (§5).
//!
//! One binary per artefact:
//!
//! | artefact | binary | what it prints |
//! |---|---|---|
//! | Fig 6 | `fig6` | normalised PolyBench runtimes across sandboxing levels |
//! | Fig 7 | `fig7` | cycles-per-instruction distribution (127 opcodes) |
//! | Fig 8 | `fig8` | memory-access cycles vs linear-memory size/pattern |
//! | Fig 9 | `fig9` | FaaS throughput, echo & resize, six setups |
//! | Fig 10 | `fig10` | instrumentation overhead on the use-case programs |
//! | §5.4 | `table_size` | binary-size overhead over all evaluation binaries |
//! | D2 ablation | `ablation` | dynamic/static increment counts per level |
//!
//! Criterion benches (`cargo bench`) cover the micro level: interpreter
//! throughput, instrumentation pass cost, crypto primitives, and the
//! flow-optimisation ablation.

use std::sync::Arc;
use std::time::Instant;

use acctee_cachesim::CycleModel;
use acctee_interp::{CompiledModule, Config, Engine, Imports, Instance, Value};
use acctee_wasm::Module;

/// Times `f` (median of `reps` samples), prints a one-line `cargo
/// bench` style result and returns the median in nanoseconds per call.
/// Each sample times a batch of calls spanning at least 20 µs, so a
/// sub-microsecond `f` is not measured as the clock reads around it.
/// The bench targets are harness-free `fn main()` programs built on
/// this, keeping the workspace dependency-free.
pub fn bench(name: &str, reps: usize, mut f: impl FnMut()) -> u64 {
    // One untimed call first, so one-time setup does not size the batch.
    f();
    let mut batch = 1u64;
    // Capped, in case `f` costs nothing at all.
    while batch < 1 << 20 && time_ns(1, || (0..batch).for_each(|_| f())) < 20_000 {
        batch *= 2;
    }
    let ns = time_ns(reps, || (0..batch).for_each(|_| f())) / batch;
    println!("{name:<50} {ns:>12} ns/iter (median of {reps} x {batch} calls)");
    ns
}

/// Median-of-`reps` wall time of `f`, in nanoseconds.
pub fn time_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A module prepared for repeated timed runs of one export on one
/// engine, each on a fresh [`Instance`] (instantiation excluded from
/// the time, matching the paper's methodology).
///
/// On [`Engine::Regs`] every run shares one [`CompiledModule`] whose
/// register code is lowered by an untimed warm-up invoke in
/// [`Runner::new`]. Without a shared artifact each fresh instance
/// lowers the module again on its first invoke, and since every
/// repetition pays that compile, no median over repetitions removes it
/// from the timing.
pub struct Runner<'m> {
    module: &'m Module,
    engine: Engine,
    artifact: Option<Arc<CompiledModule>>,
}

impl<'m> Runner<'m> {
    /// Prepares `module` for `engine` and warms it with one untimed
    /// invoke of `func(args)`.
    ///
    /// # Panics
    ///
    /// Panics if the module does not compile, instantiate or run.
    pub fn new(module: &'m Module, engine: Engine, func: &str, args: &[Value]) -> Runner<'m> {
        let artifact =
            (engine == Engine::Regs).then(|| CompiledModule::compile(module).expect("compile"));
        let runner = Runner {
            module,
            engine,
            artifact,
        };
        runner.instance().invoke(func, args).expect("warm-up run");
        runner
    }

    fn instance(&self) -> Instance<'m> {
        let cfg = Config {
            engine: self.engine,
            ..Config::default()
        };
        match &self.artifact {
            Some(a) => Instance::with_artifact(self.module, Imports::new(), cfg, Arc::clone(a)),
            None => Instance::with_config(self.module, Imports::new(), cfg),
        }
        .expect("instantiate")
    }

    /// Wall nanoseconds of one `func(args)` on a fresh instance.
    ///
    /// # Panics
    ///
    /// Panics if the module does not instantiate or traps.
    pub fn run_ns(&self, func: &str, args: &[Value]) -> u64 {
        let mut inst = self.instance();
        let t = Instant::now();
        inst.invoke(func, args).expect("run");
        t.elapsed().as_nanos() as u64
    }
}

/// Parses `--engine tree|regs` out of `args` (default: the tree-walker,
/// the engine the committed `results/` figures were recorded on) and
/// returns the engine with the remaining arguments.
///
/// # Panics
///
/// Panics on a missing or unknown engine name.
pub fn engine_arg(args: impl Iterator<Item = String>) -> (Engine, Vec<String>) {
    let mut engine = Engine::Tree;
    let mut rest = Vec::new();
    let mut args = args;
    while let Some(a) = args.next() {
        if a == "--engine" {
            let name = args.next().expect("--engine needs tree|regs");
            engine = Engine::from_name(&name).expect("--engine: tree|regs");
        } else {
            rest.push(a);
        }
    }
    (engine, rest)
}

/// Simulated-cycle ratio SGX-hardware / plain for one execution of
/// `func` — the EPC/MEE slowdown factor used for the `WASM-SGX HW`
/// columns.
///
/// # Panics
///
/// Panics if the module does not instantiate or traps.
pub fn sgx_hw_factor(module: &Module, func: &str, args: &[Value]) -> f64 {
    let mut plain = CycleModel::plain();
    let mut inst = Instance::new(module, Imports::new()).expect("instantiate");
    inst.invoke_observed(func, args, &mut plain).expect("run");
    let mut sgx = CycleModel::sgx();
    let mut inst = Instance::new(module, Imports::new()).expect("instantiate");
    inst.invoke_observed(func, args, &mut sgx).expect("run");
    sgx.cycles() as f64 / plain.cycles().max(1) as f64
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_wasm::builder::ModuleBuilder;
    use acctee_wasm::types::ValType;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn sgx_factor_at_least_one_for_memory_heavy_code() {
        let mut b = ModuleBuilder::new();
        b.memory(4, None);
        let f = b.func("run", &[], &[], |f| {
            let i = f.local(ValType::I32);
            f.for_loop(
                i,
                acctee_wasm::builder::Bound::Const(0),
                acctee_wasm::builder::Bound::Const(10_000),
                |f| {
                    f.local_get(i);
                    f.i32_const(3);
                    f.i32_shl();
                    f.i64_const(1);
                    f.store(acctee_wasm::op::StoreOp::I64Store, 0);
                },
            );
        });
        b.export_func("run", f);
        let m = b.build();
        let factor = sgx_hw_factor(&m, "run", &[]);
        assert!(factor >= 1.0, "{factor}");
    }

    #[test]
    fn engine_arg_defaults_to_tree_and_strips_the_flag() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (e, rest) = engine_arg(args(&["20", "3"]).into_iter());
        assert_eq!((e, rest), (Engine::Tree, args(&["20", "3"])));
        let (e, rest) = engine_arg(args(&["20", "--engine", "regs", "3"]).into_iter());
        assert_eq!((e, rest), (Engine::Regs, args(&["20", "3"])));
    }

    #[test]
    fn regs_runner_shares_one_warmed_artifact() {
        let mut b = ModuleBuilder::new();
        let f = b.func("run", &[], &[ValType::I32], |f| {
            f.i32_const(7);
        });
        b.export_func("run", f);
        let m = b.build();
        let r = Runner::new(&m, Engine::Regs, "run", &[]);
        let art = r.artifact.as_ref().expect("regs runs share an artifact");
        assert!(art.matches(&m));
        let _ = r.run_ns("run", &[]);
        assert!(Runner::new(&m, Engine::Tree, "run", &[]).artifact.is_none());
    }

    #[test]
    fn bench_batches_only_short_calls() {
        // A batch of b calls costs one warm-up call, 2b - 1
        // calibration calls and 3b timed ones.
        let mut calls = 0u64;
        bench("bench/25us", 3, || {
            calls += 1;
            let t = Instant::now();
            while t.elapsed() < std::time::Duration::from_micros(25) {}
        });
        assert_eq!(calls, 5, "one call per sample");
        let mut calls = 0u64;
        bench("bench/counted", 3, || calls += 1);
        assert!(calls >= 5 * 64, "{calls} calls: at least 64 per sample");
    }

    #[test]
    fn time_ns_is_positive() {
        let ns = time_ns(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let _ = ns; // can be 0 on coarse clocks, just ensure no panic
    }
}
