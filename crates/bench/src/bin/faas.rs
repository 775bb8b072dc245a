//! FaaS serving-throughput benchmark: compile-once/serve-many (§3.3)
//! vs per-request recompilation, under the register tier, emitted as
//! `BENCH_faas.json` so the serving-path trajectory is tracked
//! PR-over-PR.
//!
//! Four deployed functions ride the worker pool: the built-in `echo`
//! and `resize`, a bring-your-own-function PolyBench `jacobi-1d`
//! deployment, and `app_large` — a synthetic many-function module with
//! a cheap entry point, the compile-dominated "large codebase, small
//! request" shape the artifact cache exists for (a real FaaS image or
//! ML function ships megabytes of library code per invocation). Each
//! is served warm (shared `CompiledModule` artifact) and cold
//! (`with_artifact_cache(false)`, every request re-runs the register
//! compiler inside its own instance — the pre-cache behaviour).
//!
//! Usage: `faas [requests] [workers] [--out FILE]` (default
//! requests=64, workers=4, out=BENCH_faas.json).

use std::fmt::Write as _;

use acctee_bench::geomean;
use acctee_faas::{FaasPlatform, FunctionKind, Setup};
use acctee_interp::Engine;
use acctee_wasm::builder::ModuleBuilder;
use acctee_wasm::types::ValType;
use acctee_wasm::Module;
use acctee_workloads::faas_fns::test_image;
use acctee_workloads::polybench;

const REPS: usize = 3;

/// Builds a module with `funcs` arithmetic helper functions of which
/// the exported `run` entry calls only a handful: per-request work is
/// tiny, but a cold serve must recompile every function. This is the
/// shape AccTEE's compile-once argument (§3.3) is about.
fn app_large_module(funcs: usize) -> Module {
    let mut b = ModuleBuilder::new();
    let mut ids = Vec::with_capacity(funcs);
    for i in 0..funcs {
        let f = b.func(
            &format!("helper{i}"),
            &[ValType::I32],
            &[ValType::I32],
            |f| {
                f.local_get(0);
                for j in 0..12 {
                    f.i32_const(i as i32 + j + 1);
                    f.i32_add();
                    f.i32_const(3);
                    f.i32_mul();
                    f.i32_const(j + 7);
                    f.i32_sub();
                }
            },
        );
        ids.push(f);
    }
    let run = b.func("run", &[], &[ValType::I32], |f| {
        f.i32_const(1);
        for &id in ids.iter().take(8) {
            f.call(id);
        }
    });
    b.export_func("run", run);
    b.build()
}

struct Row {
    name: &'static str,
    cold_rps: f64,
    warm_rps: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.warm_rps / self.cold_rps.max(f64::MIN_POSITIVE)
    }
}

/// Best-of-`REPS` throughput for one platform over one batch shape.
fn best_rps(platform: &FaasPlatform, payloads: &[Vec<u8>], workers: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let report = platform.serve_parallel(payloads, workers);
        assert!(
            report.failures.is_empty(),
            "bench batch failed: {:?}",
            report.failures
        );
        best = best.max(report.throughput());
    }
    best
}

/// Measures one function warm and cold, interleaved so machine-load
/// noise lands on both modes alike.
fn measure(
    name: &'static str,
    build: impl Fn() -> FaasPlatform,
    payloads: &[Vec<u8>],
    workers: usize,
) -> Row {
    let warm_platform = build().with_artifact_cache(true);
    let cold_platform = build().with_artifact_cache(false);
    let cold_rps = best_rps(&cold_platform, payloads, workers);
    let warm_rps = best_rps(&warm_platform, payloads, workers);
    Row {
        name,
        cold_rps,
        warm_rps,
    }
}

fn json_for(rows: &[Row], requests: usize, workers: usize) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"faas_serving\",");
    let _ = writeln!(s, "  \"engine\": \"regs\",");
    let _ = writeln!(s, "  \"requests\": {requests},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"reps\": {REPS},");
    let _ = writeln!(s, "  \"functions\": {{");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    \"{}\": {{ \"cold_rps\": {:.1}, \"warm_rps\": {:.1}, \"speedup\": {:.3} }}{comma}",
            row.name,
            row.cold_rps,
            row.warm_rps,
            row.speedup()
        );
    }
    let _ = writeln!(s, "  }},");
    let speedups: Vec<f64> = rows.iter().map(Row::speedup).collect();
    let _ = writeln!(s, "  \"speedup_geomean\": {:.3}", geomean(&speedups));
    s.push_str("}\n");
    s
}

fn main() {
    let mut requests = 64usize;
    let mut workers = 4usize;
    let mut out = String::from("BENCH_faas.json");
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next().expect("--out needs a value");
        } else {
            positional.push(a);
        }
    }
    if let Some(v) = positional.first().and_then(|a| a.parse().ok()) {
        requests = v;
    }
    if let Some(v) = positional.get(1).and_then(|a| a.parse().ok()) {
        workers = v;
    }

    let echo_payloads: Vec<Vec<u8>> = (0..requests).map(|i| vec![i as u8; 64]).collect();
    let resize_payloads: Vec<Vec<u8>> = (0..requests).map(|_| test_image(8, 8)).collect();
    let tiny_payloads: Vec<Vec<u8>> = (0..requests).map(|i| vec![i as u8]).collect();
    let jacobi = polybench::by_name("jacobi-1d").expect("jacobi-1d exists");

    let rows = vec![
        measure(
            "echo",
            || FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm).with_engine(Engine::Regs),
            &echo_payloads,
            workers,
        ),
        measure(
            "resize",
            || FaasPlatform::deploy(FunctionKind::Resize, Setup::Wasm).with_engine(Engine::Regs),
            &resize_payloads,
            workers,
        ),
        measure(
            "jacobi-1d",
            || {
                FaasPlatform::deploy_module((jacobi.build)(4), "run", Setup::Wasm)
                    .expect("jacobi-1d deploys")
                    .with_engine(Engine::Regs)
            },
            &tiny_payloads,
            workers,
        ),
        measure(
            "app_large",
            || {
                FaasPlatform::deploy_module(app_large_module(256), "run", Setup::Wasm)
                    .expect("app_large deploys")
                    .with_engine(Engine::Regs)
            },
            &tiny_payloads,
            workers,
        ),
    ];

    println!("# faas serving throughput (requests={requests}, workers={workers}, reps={REPS})");
    for row in &rows {
        println!(
            "{:<12} cold {:>10.1} req/s   warm {:>10.1} req/s   speedup {:>6.2}x",
            row.name,
            row.cold_rps,
            row.warm_rps,
            row.speedup()
        );
    }
    let json = json_for(&rows, requests, workers);
    std::fs::write(&out, &json).expect("write BENCH_faas.json");
    println!("# -> {out}");
}
