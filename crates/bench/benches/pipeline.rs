//! Benches for the end-to-end AccTEE pipeline: the full instrument →
//! attest → execute → sign-log → verify round trip. The FaaS request
//! paths are timed by `fig9`. Harness-free (`fn main`), timed with
//! `acctee_bench::bench`.

use acctee::{Deployment, Level};
use acctee_bench::bench;
use acctee_interp::Value;
use acctee_wasm::encode::encode_module;

fn main() {
    let wasm = encode_module(&acctee_workloads::subsetsum::subsetsum_module(10, 3));
    {
        let dep = Deployment::new(3);
        bench("pipeline/instrument+evidence", 10, || {
            std::hint::black_box(dep.instrument(&wasm, Level::LoopBased).expect("ok"));
        });
    }
    {
        let mut dep = Deployment::new(3);
        let (bytes, evidence) = dep.instrument(&wasm, Level::LoopBased).expect("ok");
        bench("pipeline/execute+log+verify", 10, || {
            std::hint::black_box(
                dep.execute(&bytes, &evidence, "run", &[], b"")
                    .expect("executes"),
            );
        });
    }

    let m = acctee_workloads::darknet::darknet_module(16);
    bench("pipeline/darknet-classify", 10, || {
        let mut inst =
            acctee_interp::Instance::new(&m, acctee_interp::Imports::new()).expect("inst");
        std::hint::black_box(inst.invoke("run", &[Value::I32(0)]).expect("run"));
    });
}
