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

use std::time::Instant;

use acctee_cachesim::CycleModel;
use acctee_interp::{Config, Engine, Imports, Instance, Value};
use acctee_wasm::Module;

/// Times `f` (median of `reps`) and prints a one-line `cargo bench`
/// style result. The bench targets are harness-free `fn main()`
/// programs built on this, keeping the workspace dependency-free.
pub fn bench(name: &str, reps: usize, f: impl FnMut()) {
    let ns = time_ns(reps, f);
    println!("{name:<50} {ns:>12} ns/iter (median of {reps})");
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

/// Runs an exported nullary function and returns wall nanoseconds
/// (excluding instantiation, matching the paper's methodology).
///
/// # Panics
///
/// Panics if the module does not instantiate or traps.
pub fn run_wall_ns(module: &Module, func: &str, args: &[Value]) -> u64 {
    run_wall_ns_engine(module, func, args, Engine::Tree)
}

/// [`run_wall_ns`] on a chosen execution engine. For
/// [`Engine::Regs`] the timing includes the one-time lazy compile
/// of the module's code (amortised away by callers that take a
/// best-of or median over repetitions on a fresh instance each time —
/// the compile is linear and tiny next to kernel runtimes).
///
/// # Panics
///
/// Panics if the module does not instantiate or traps.
pub fn run_wall_ns_engine(module: &Module, func: &str, args: &[Value], engine: Engine) -> u64 {
    let cfg = Config {
        engine,
        ..Config::default()
    };
    let mut inst = Instance::with_config(module, Imports::new(), cfg).expect("instantiate");
    let t = Instant::now();
    inst.invoke(func, args).expect("run");
    t.elapsed().as_nanos() as u64
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
    fn time_ns_is_positive() {
        let ns = time_ns(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let _ = ns; // can be 0 on coarse clocks, just ensure no panic
    }
}
