//! Regenerates **Fig 9**: FaaS throughput (requests/second) of the
//! `echo` and `resize` functions at image sizes 64/128/512/1024 px,
//! across the six setups, under 10 concurrent closed-loop clients.
//!
//! Each round serves one request per path (see `acctee_faas::rig`);
//! a row's service time is its path's median over the rounds plus what
//! the overhead model adds, and the closed-loop simulator turns that
//! into throughput.
//!
//! Usage: `fig9 [virtual_requests] [measure_reps]` (defaults 200, 3).

use acctee_faas::{median_service_ns, ClosedLoopSim, FunctionKind, Rig, Round, Setup};
use acctee_interp::Engine;
use acctee_workloads::faas_fns::test_image;

/// Which path each row measures and what the overhead model adds.
const LEGEND: &str = "\
# row                 path    measured, then what the model adds
# WASM                plain   + HTTP/instantiate base, per-byte
# WASM-SGX SIM        plain   + base, per-byte, SGX-LKL syscall path, enclave per-byte
# WASM-SGX HW         plain   x HW factor (echo 1.05, resize 1.5), + SIM's + transitions
# WASM-SGX HW instr.  served  x HW factor, + SIM's + transitions
# WASM-SGX HW I/O     served  as instr., from the same sample: the served path always meters I/O
# JS                  MiniJS  + base, per-byte, OpenFaaS fork per request
";

fn main() {
    let mut args = std::env::args().skip(1);
    let requests: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let sizes = [64usize, 128, 512, 1024];
    let sim = ClosedLoopSim::default();

    println!(
        "# Fig 9 — FaaS throughput [req/s], 10 closed-loop clients, {requests} requests, \
         engine {}, median of {reps} rounds",
        Engine::default().name()
    );
    print!("{LEGEND}");
    for kind in [FunctionKind::Echo, FunctionKind::Resize] {
        let rig = Rig::start(kind).expect("rig starts");
        let mut rows = vec![Vec::new(); Setup::ALL.len()];
        for size in sizes {
            let payload = test_image(size, size);
            rig.round(&payload).expect("warm-up round served");
            let rounds: Vec<Round> = (0..reps.max(1))
                .map(|_| rig.round(&payload).expect("round served"))
                .collect();
            for (row, setup) in rows.iter_mut().zip(Setup::ALL) {
                let service = median_service_ns(&rounds, *setup);
                row.push(sim.run(requests, |_| service).throughput());
            }
        }
        println!("#");
        println!("## {} function", kind.name());
        print!("{:<20}", "setup \\ px");
        for s in sizes {
            print!(" {s:>9}");
        }
        println!();
        for (row, setup) in rows.iter().zip(Setup::ALL) {
            print!("{:<20}", setup.to_string());
            for tp in row {
                print!(" {tp:>9.1}");
            }
            println!();
        }
    }
    println!("#");
    println!("# paper shapes to check (Fig 9): echo throughput drops ~2-5x from WASM to the");
    println!("# SGX setups (worst for small payloads); resize is compute-bound so relative");
    println!("# drops are smaller; instrumentation and I/O accounting rows are within noise");
    println!("# of WASM-SGX HW; the JS row is far below every wasm row (paper: up to 16x).");
}
