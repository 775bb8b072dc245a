//! Interpreter-throughput smoke benchmark: ns/instr over the PolyBench
//! suite, per execution engine, emitted as `BENCH_interp.json` so the
//! perf trajectory of the execution tier is tracked PR-over-PR.
//!
//! Usage: `interp [n] [reps] [--out FILE]` (default n=12, reps=3,
//! out=BENCH_interp.json).

use std::fmt::Write as _;
use std::time::Instant;

use acctee_bench::geomean;
use acctee_interp::{Config, Engine, Imports, Instance, Value};
use acctee_workloads::polybench;

struct EngineRow {
    name: &'static str,
    total_ns: u64,
    total_instrs: u64,
    kernels: Vec<(String, u64, u64)>, // (kernel, ns, instrs)
}

impl EngineRow {
    fn ns_per_instr(&self) -> f64 {
        self.total_ns as f64 / self.total_instrs.max(1) as f64
    }
}

/// One timed execution: wall nanoseconds and instructions retired.
/// An untimed warm-up invoke precedes the measurement so one-time
/// costs (the register tier's lazy compile, allocator and cache
/// warm-up) stay out of the throughput number — this measures
/// steady-state execution, the paper's methodology. The kernels
/// re-initialise their arrays on entry, so repeated invokes are
/// deterministic and bit-identical.
fn run_once(module: &acctee_wasm::Module, engine: Engine) -> (u64, u64) {
    let cfg = Config {
        engine,
        ..Config::default()
    };
    let mut inst = Instance::with_config(module, Imports::new(), cfg).expect("instantiate");
    inst.invoke("run", &[]).expect("warm-up run");
    let instrs = inst.stats().instructions;
    let t = Instant::now();
    let out = inst.invoke("run", &[]).expect("run");
    let ns = t.elapsed().as_nanos() as u64;
    assert!(matches!(out[0], Value::F64(_)));
    (ns, instrs)
}

/// Measures every engine over the suite with engines *interleaved*
/// per repetition: each rep times all engines back to back on the
/// same kernel, so machine-load noise lands on every engine alike and
/// cancels out of the speedup ratios.
fn measure_all(n: usize, reps: usize) -> Vec<EngineRow> {
    let mut rows: Vec<EngineRow> = Engine::ALL
        .iter()
        .map(|e| EngineRow {
            name: e.name(),
            total_ns: 0,
            total_instrs: 0,
            kernels: Vec::new(),
        })
        .collect();
    for k in polybench::all() {
        let module = (k.build)(n);
        let mut best = [u64::MAX; Engine::ALL.len()];
        let mut instrs = [0u64; Engine::ALL.len()];
        for _ in 0..reps {
            for (ei, engine) in Engine::ALL.into_iter().enumerate() {
                let (ns, ic) = run_once(&module, engine);
                best[ei] = best[ei].min(ns);
                instrs[ei] = ic;
            }
        }
        for (ei, row) in rows.iter_mut().enumerate() {
            row.total_ns += best[ei];
            row.total_instrs += instrs[ei];
            row.kernels.push((k.name.to_string(), best[ei], instrs[ei]));
        }
    }
    rows
}

/// Per-kernel geomean speedup of `num` over `den` (how many times
/// faster `num` runs the same kernel).
fn speedup_geomean(num: &EngineRow, den: &EngineRow) -> f64 {
    let per_kernel: Vec<f64> = den
        .kernels
        .iter()
        .zip(&num.kernels)
        .map(|((_, d_ns, _), (_, n_ns, _))| *d_ns as f64 / (*n_ns).max(1) as f64)
        .collect();
    geomean(&per_kernel)
}

fn json_for(rows: &[EngineRow], n: usize, reps: usize) -> String {
    let tree = &rows[0];
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"polybench\",");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"engines\": {{");
    for (ei, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", row.name);
        let _ = writeln!(s, "      \"total_ns\": {},", row.total_ns);
        let _ = writeln!(s, "      \"total_instrs\": {},", row.total_instrs);
        let _ = writeln!(s, "      \"ns_per_instr\": {:.3},", row.ns_per_instr());
        let _ = writeln!(
            s,
            "      \"speedup_geomean_vs_tree\": {:.3},",
            speedup_geomean(row, tree)
        );
        let _ = writeln!(s, "      \"kernels\": {{");
        for (ki, (name, ns, instrs)) in row.kernels.iter().enumerate() {
            let comma = if ki + 1 == row.kernels.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "        \"{name}\": {{ \"ns\": {ns}, \"instrs\": {instrs} }}{comma}"
            );
        }
        let _ = writeln!(s, "      }}");
        let comma = if ei + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

fn main() {
    let mut n = 12usize;
    let mut reps = 3usize;
    let mut out = String::from("BENCH_interp.json");
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
        n = v;
    }
    if let Some(v) = positional.get(1).and_then(|a| a.parse().ok()) {
        reps = v;
    }

    let rows = measure_all(n, reps);
    println!("# interpreter throughput (polybench, n={n}, reps={reps})");
    for row in &rows {
        println!(
            "{:<10} {:>14} ns  {:>14} instrs  {:>8.2} ns/instr  {:>6.2}x vs tree",
            row.name,
            row.total_ns,
            row.total_instrs,
            row.ns_per_instr(),
            speedup_geomean(row, &rows[0]),
        );
    }
    let json = json_for(&rows, n, reps);
    std::fs::write(&out, &json).expect("write BENCH_interp.json");
    println!("# -> {out}");
}
