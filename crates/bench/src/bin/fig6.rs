//! Regenerates **Fig 6**: normalised runtimes of the PolyBench/C suite
//! under WASM / WASM-SGX SIM / WASM-SGX HW / WASM-SGX HW instrumented,
//! relative to native execution.
//!
//! Usage: `fig6 [n] [reps] [--engine tree|regs]` (default n=20,
//! reps=3, engine tree — the engine `results/fig6.txt` was recorded
//! on).

use acctee_bench::{engine_arg, geomean, sgx_hw_factor, time_ns, Runner};
use acctee_instrument::{instrument, Level, WeightTable};
use acctee_workloads::polybench;

/// SGX-LKL simulation-mode factor: the paper finds SIM ≈ WASM ("SGX
/// and SGX-LKL do not add overhead by themselves"); the residual is
/// the LKL threading layer.
const SIM_FACTOR: f64 = 1.02;

fn main() {
    let (engine, args) = engine_arg(std::env::args().skip(1));
    let mut args = args.into_iter();
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let weights = WeightTable::uniform();

    println!("# Fig 6 — PolyBench/C normalised runtimes (n={n}, reps={reps}, engine={engine})");
    println!(
        "# columns: kernel  WASM  WASM-SGX-SIM  WASM-SGX-HW  WASM-SGX-HW-instr  instr-overhead"
    );
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "kernel", "wasm", "sgx-sim", "sgx-hw", "hw-instr", "instr-ovh"
    );

    let mut wasm_cols = Vec::new();
    let mut hw_cols = Vec::new();
    let mut instr_overheads = Vec::new();

    for k in polybench::all() {
        let module = (k.build)(n);
        let instrumented = instrument(&module, Level::LoopBased, &weights)
            .expect("instrumentable")
            .module;

        let t_native = time_ns(reps, || {
            std::hint::black_box((k.native)(n));
        })
        .max(1);
        let raw = Runner::new(&module, engine, "run", &[]);
        let accounted = Runner::new(&instrumented, engine, "run", &[]);
        let t_wasm = time_ns(reps, || {
            std::hint::black_box(raw.run_ns("run", &[]));
        });
        let t_instr = time_ns(reps, || {
            std::hint::black_box(accounted.run_ns("run", &[]));
        });
        let hw_factor = sgx_hw_factor(&module, "run", &[]);

        let wasm = t_wasm as f64 / t_native as f64;
        let sim = wasm * SIM_FACTOR;
        let hw = wasm * hw_factor;
        let hw_instr = t_instr as f64 / t_native as f64 * hw_factor;
        let instr_ovh = t_instr as f64 / t_wasm as f64 - 1.0;

        println!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>10.2} {:>8.1}%",
            k.name,
            wasm,
            sim,
            hw,
            hw_instr,
            instr_ovh * 100.0
        );
        wasm_cols.push(wasm);
        hw_cols.push(hw);
        instr_overheads.push(t_instr as f64 / t_wasm as f64);
    }

    println!("#");
    println!(
        "# geomean: WASM/native {:.2}x | WASM-SGX-HW/native {:.2}x | instrumentation +{:.1}%",
        geomean(&wasm_cols),
        geomean(&hw_cols),
        (geomean(&instr_overheads) - 1.0) * 100.0
    );
    println!("# paper (§5.1): WASM 1.1x, WASM-SGX-HW 2.1x, instrumentation +4% avg, <=10% worst");
    println!(
        "# note: our WASM column is interpreter/native (no JIT), so its absolute level is higher"
    );
    println!("# than V8's; the SGX-HW factor and the instrumentation overhead are the comparable");
    println!("# quantities (see EXPERIMENTS.md, E1).");
}
