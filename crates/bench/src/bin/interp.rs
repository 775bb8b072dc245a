//! Interpreter-throughput smoke benchmark: ns/instr over the PolyBench
//! suite plus the fleet's msieve and subsetsum units, per execution
//! engine, and what the accounting meter costs on the register tier,
//! emitted as `BENCH_interp.json` so the perf trajectory of the
//! execution tier is tracked PR-over-PR.
//!
//! Rows: `tree` and `regs` run the uninstrumented kernels; `regs-loop`
//! runs the same kernels instrumented at [`Level::LoopBased`] under
//! [`WeightTable::calibrated`] (the accounting enclave's setting) on
//! the register tier. `instrumentation_overhead_geomean` is the
//! per-kernel geomean of `regs-loop` over `regs` time, minus one.
//!
//! Usage: `interp [n] [reps] [--out FILE]` (default n=12, reps=3,
//! out=BENCH_interp.json).

use std::fmt::Write as _;
use std::time::Instant;

use acctee_bench::geomean;
use acctee_instrument::{instrument, Level, WeightTable};
use acctee_interp::{Config, Engine, Imports, Instance};
use acctee_wasm::Module;
use acctee_workloads::{msieve, polybench, subsetsum};

/// One measured configuration: an engine, running either the raw
/// kernels or their loop-based instrumented builds.
struct Variant {
    name: &'static str,
    engine: Engine,
    instrumented: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "tree",
        engine: Engine::Tree,
        instrumented: false,
    },
    Variant {
        name: "regs",
        engine: Engine::Regs,
        instrumented: false,
    },
    Variant {
        name: "regs-loop",
        engine: Engine::Regs,
        instrumented: true,
    },
];

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
fn run_once(module: &Module, engine: Engine) -> (u64, u64) {
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
    assert_eq!(out.len(), 1, "kernels return one checksum");
    (ns, instrs)
}

/// The suite: every PolyBench kernel at size `n`, plus one msieve and
/// one subsetsum unit at the sizes a fleet campaign grants.
fn kernels(n: usize) -> Vec<(String, Module)> {
    let mut ks: Vec<(String, Module)> = polybench::all()
        .into_iter()
        .map(|k| (k.name.to_string(), (k.build)(n)))
        .collect();
    ks.push(("msieve".into(), msieve::msieve_module(8, 42)));
    ks.push(("subsetsum".into(), subsetsum::subsetsum_module(10, 7)));
    ks
}

/// Measures every variant over the suite with variants *interleaved*
/// per repetition: each rep times all variants back to back on the
/// same kernel, so machine-load noise lands on every variant alike and
/// cancels out of the speedup and overhead ratios.
fn measure_all(n: usize, reps: usize) -> Vec<EngineRow> {
    let weights = WeightTable::calibrated();
    let mut rows: Vec<EngineRow> = VARIANTS
        .iter()
        .map(|v| EngineRow {
            name: v.name,
            total_ns: 0,
            total_instrs: 0,
            kernels: Vec::new(),
        })
        .collect();
    for (name, raw) in kernels(n) {
        let accounted = instrument(&raw, Level::LoopBased, &weights)
            .expect("instrumentable")
            .module;
        let mut best = [u64::MAX; VARIANTS.len()];
        let mut instrs = [0u64; VARIANTS.len()];
        for _ in 0..reps {
            for (vi, v) in VARIANTS.iter().enumerate() {
                let module = if v.instrumented { &accounted } else { &raw };
                let (ns, ic) = run_once(module, v.engine);
                best[vi] = best[vi].min(ns);
                instrs[vi] = ic;
            }
        }
        for (vi, row) in rows.iter_mut().enumerate() {
            row.total_ns += best[vi];
            row.total_instrs += instrs[vi];
            row.kernels.push((name.clone(), best[vi], instrs[vi]));
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

/// Per-kernel geomean of the instrumented register-tier time over the
/// raw register-tier time, minus one (0.05 = the meter costs +5 %).
fn instrumentation_overhead(rows: &[EngineRow]) -> f64 {
    speedup_geomean(&rows[1], &rows[2]) - 1.0
}

fn json_for(rows: &[EngineRow], n: usize, reps: usize) -> String {
    let tree = &rows[0];
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"polybench+msieve+subsetsum\",");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(
        s,
        "  \"instrumentation_overhead_geomean\": {:.4},",
        instrumentation_overhead(rows)
    );
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
    println!("# interpreter throughput (polybench n={n} + msieve + subsetsum, reps={reps})");
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
    println!(
        "# loop-based instrumentation on regs: {:+.1}% (geomean over kernels)",
        instrumentation_overhead(&rows) * 100.0
    );
    let json = json_for(&rows, n, reps);
    std::fs::write(&out, &json).expect("write BENCH_interp.json");
    println!("# -> {out}");
}
