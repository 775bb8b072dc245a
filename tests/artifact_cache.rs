//! Concurrency and identity tests for the compile-once/serve-many
//! artifact caches (§3.3): the shared [`InstrumentationCache`]
//! (single-flight, LRU-bounded) and the `Arc`-shared
//! [`CompiledModule`] register-tier artifact.
//!
//! The trust argument these tests pin down: a cached artifact must be
//! indistinguishable from a fresh one — same bytes, same evidence,
//! bit-identical accounting — or the cache would silently weaken the
//! accounting guarantees it exists to make cheap.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use acctee::{Deployment, InstrumentationCache, InstrumentationEnclave, Level};
use acctee_instrument::{instrument, WeightTable};
use acctee_interp::{CompiledModule, Config, Engine, Imports, Instance, Value};
use acctee_net::{Client, InvokeOutcome, Server, ServerConfig, TrustAnchor};
use acctee_sgx::{AttestationAuthority, Platform};
use acctee_wasm::builder::ModuleBuilder;
use acctee_wasm::encode::encode_module;
use acctee_wasm::types::ValType;

fn ie() -> InstrumentationEnclave {
    let authority = AttestationAuthority::new(42);
    let p = Platform::new("artifact-cache-test", 42);
    let qe = authority.provision(&p);
    InstrumentationEnclave::launch(&p, qe, WeightTable::uniform())
}

/// A small module whose bytes differ per `c`.
fn module_bytes(c: i32) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let f = b.func("run", &[], &[ValType::I32], |f| {
        f.i32_const(c);
        f.i32_const(1);
        f.i32_add();
    });
    b.export_func("run", f);
    encode_module(&b.build())
}

#[test]
fn concurrent_requests_instrument_each_module_exactly_once() {
    const THREADS: usize = 8;
    const MODULES: i32 = 4;
    const ROUNDS: usize = 5;
    let ie = ie();
    let cache = InstrumentationCache::new();
    let mods: Vec<Vec<u8>> = (0..MODULES).map(module_bytes).collect();
    // Reference results, instrumented up front by the main thread.
    let reference: Vec<_> = mods
        .iter()
        .map(|m| cache.instrument(&ie, m, Level::LoopBased).unwrap())
        .collect();
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    for (m, expected) in mods.iter().zip(&reference) {
                        let got = cache.instrument(&ie, m, Level::LoopBased).unwrap();
                        assert_eq!(&got, expected, "cache must serve one artifact per key");
                    }
                }
            });
        }
    });
    // The miss counter increments exactly once per started
    // instrumentation, so misses == distinct keys proves the enclave
    // ran exactly once per module — single-flight held.
    assert_eq!(cache.misses(), MODULES as u64);
    let total = (MODULES as u64) * (1 + THREADS as u64 * ROUNDS as u64);
    assert_eq!(cache.hits() + cache.misses(), total);
    assert_eq!(cache.evictions(), 0);
}

#[test]
fn capacity_bound_holds_under_concurrent_churn() {
    const THREADS: usize = 4;
    const MODULES: i32 = 6;
    const CAPACITY: usize = 2;
    let ie = ie();
    let cache = InstrumentationCache::with_capacity(CAPACITY);
    thread::scope(|s| {
        for t in 0..THREADS {
            let ie = &ie;
            let cache = &cache;
            s.spawn(move || {
                // Different orders per thread to churn the LRU.
                for i in 0..MODULES {
                    let c = (i + t as i32) % MODULES;
                    cache
                        .instrument(ie, &module_bytes(c), Level::Naive)
                        .unwrap();
                }
            });
        }
    });
    assert!(cache.len() <= CAPACITY, "len {} > {CAPACITY}", cache.len());
    // Every instrumentation either still resides in the cache or was
    // evicted; the books must balance exactly.
    assert_eq!(cache.evictions(), cache.misses() - cache.len() as u64);
    // And a churned cache still serves correct artifacts.
    let (bytes, evidence) = cache
        .instrument(&ie, &module_bytes(0), Level::Naive)
        .unwrap();
    let fresh = ie.instrument(&module_bytes(0), Level::Naive).unwrap();
    assert_eq!(bytes, fresh.0);
    assert_eq!(evidence.instrumented_hash, fresh.1.instrumented_hash);
}

#[test]
fn arc_shared_artifact_counts_bit_identically_to_fresh_compiles() {
    // One instrumented PolyBench kernel, executed on the register
    // tier three ways: fresh per-instance compile, Arc-shared
    // artifact, and Arc-shared artifact from four concurrent threads.
    // Results and the injected counter must agree exactly.
    let kernel = acctee_workloads::polybench::by_name("gemm").expect("gemm exists");
    let module = (kernel.build)(8);
    let instrumented = instrument(&module, Level::LoopBased, &WeightTable::calibrated()).unwrap();
    let m = instrumented.module;
    let counter_global = instrumented.counter_global;
    let cfg = Config {
        engine: Engine::Regs,
        ..Config::default()
    };

    let run = |inst: &mut Instance| -> (Vec<Value>, i64) {
        let results = inst.invoke("run", &[]).unwrap();
        let counter = inst.global_by_index(counter_global).unwrap().as_i64();
        (results, counter)
    };

    let mut fresh = Instance::with_config(&m, Imports::new(), cfg).unwrap();
    let baseline = run(&mut fresh);
    assert!(baseline.1 > 0, "instrumented counter must advance");

    let artifact = CompiledModule::compile(&m).unwrap();
    let mut cached =
        Instance::with_artifact(&m, Imports::new(), cfg, Arc::clone(&artifact)).unwrap();
    assert_eq!(run(&mut cached), baseline);

    thread::scope(|s| {
        for _ in 0..4 {
            let artifact = Arc::clone(&artifact);
            let m = &m;
            let baseline = &baseline;
            s.spawn(move || {
                let mut inst = Instance::with_artifact(m, Imports::new(), cfg, artifact).unwrap();
                let results = inst.invoke("run", &[]).unwrap();
                let counter = inst.global_by_index(counter_global).unwrap().as_i64();
                assert_eq!(&(results, counter), baseline);
            });
        }
    });
}

#[test]
fn artifact_rejects_mismatched_module() {
    let a = (acctee_workloads::polybench::by_name("gemm").unwrap().build)(8);
    let b_mod = {
        let mut b = ModuleBuilder::new();
        let f = b.func("run", &[], &[ValType::I32], |f| {
            f.i32_const(1);
        });
        b.export_func("run", f);
        b.build()
    };
    let artifact = CompiledModule::compile(&a).unwrap();
    let cfg = Config {
        engine: Engine::Regs,
        ..Config::default()
    };
    assert!(Instance::with_artifact(&b_mod, Imports::new(), cfg, artifact).is_err());
}

#[test]
fn deployment_cache_and_bytecode_artifact_account_identically() {
    // End to end: the Deployment's instrumentation cache plus the
    // AE's shared register-tier artifact, vs a cold tree-walker
    // pipeline.
    let kernel = acctee_workloads::polybench::by_name("atax").expect("atax exists");
    let bytes = encode_module(&(kernel.build)(8));

    let mut cold = Deployment::new(3);
    cold.set_engine(Engine::Tree);
    let (ib, ev) = cold.instrument(&bytes, Level::LoopBased).unwrap();
    let want = cold.execute(&ib, &ev, "run", &[], b"").unwrap();

    let mut warm = Deployment::new(3).with_cache_capacity(8);
    warm.set_engine(Engine::Regs);
    for i in 0..3 {
        let (ib_w, ev_w) = warm.instrument(&bytes, Level::LoopBased).unwrap();
        assert_eq!(ib_w, ib, "cache round {i} must return identical bytes");
        let got = warm.execute(&ib_w, &ev_w, "run", &[], b"").unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(
            got.log.log.weighted_instructions,
            want.log.log.weighted_instructions
        );
        assert_eq!(got.log.log.memory_integral, want.log.log.memory_integral);
    }
    assert_eq!(warm.cache().misses(), 1);
    assert_eq!(warm.cache().hits(), 2);
}

#[test]
fn faas_serves_custom_kernel_in_parallel_with_shared_artifact() {
    // A bring-your-own-function deployment of a PolyBench kernel,
    // deployed once on a networked server and invoked concurrently
    // from several connections: every invoke succeeds, all of them
    // account identically, and the module was instrumented once.
    let kernel = acctee_workloads::polybench::by_name("gemm").unwrap();
    let module = encode_module(&(kernel.build)(6));
    let config = ServerConfig {
        engine: Engine::Regs,
        ..ServerConfig::default()
    };
    let anchor = || TrustAnchor::new(config.seed);
    let timeout = Duration::from_secs(30);
    let (addr, server) = Server::bind("127.0.0.1:0", config.clone())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(addr, anchor(), timeout).expect("connect");
    let deployed = client.deploy(&module, Level::LoopBased).expect("deploy");
    let outcomes: Vec<InvokeOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let deployed = &deployed;
                scope.spawn(move || {
                    let mut conn = Client::connect(addr, anchor(), timeout).expect("connect");
                    (0..2)
                        .map(|_| {
                            conn.invoke(deployed, "run", &[], b"", "gemm")
                                .expect("invoke")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("invoking thread"))
            .collect()
    });
    assert_eq!(outcomes.len(), 8);
    let first = &outcomes[0];
    assert!(first.log.log.weighted_instructions > 0);
    for out in &outcomes {
        assert_eq!(out.results, first.results);
        assert_eq!(
            out.log.log.weighted_instructions,
            first.log.log.weighted_instructions
        );
        assert_eq!(
            out.log.log.peak_memory_bytes,
            first.log.log.peak_memory_bytes
        );
        assert_eq!(out.log.log.memory_integral, first.log.log.memory_integral);
    }
    let snap = client.stats().expect("stats");
    assert_eq!(
        snap.instr_cache.misses, 1,
        "one instrumentation for 8 invokes"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
