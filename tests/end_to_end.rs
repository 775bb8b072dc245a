//! End-to-end integration: the full AccTEE protocol over real
//! evaluation workloads, crossing every crate boundary.

use acctee::{Deployment, Level, PricingModel, WeightTable};
use acctee_instrument::COUNTER_EXPORT;
use acctee_interp::{Config, CountingObserver, Engine, Imports, Instance, Value};
use acctee_wasm::encode::encode_module;

/// The accounting oracle: always the tree-walker, whatever the
/// default engine is.
fn oracle_instance(m: &acctee_wasm::Module) -> Instance<'_> {
    let cfg = Config {
        engine: Engine::Tree,
        ..Config::default()
    };
    Instance::with_config(m, Imports::new(), cfg).expect("instantiate oracle")
}

/// The full pipeline on a PolyBench kernel: instrument through the IE,
/// execute in the AE, verify log, and check that the counter equals
/// the weighted oracle of the original module.
#[test]
fn polybench_kernel_through_full_protocol() {
    let kernel = acctee_workloads::polybench::by_name("gemm").expect("gemm exists");
    let module = (kernel.build)(10);
    let bytes = encode_module(&module);
    let weights = WeightTable::calibrated();

    let mut dep = Deployment::with_weights(11, weights.clone());
    let (instr_bytes, evidence) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let outcome = dep
        .execute(&instr_bytes, &evidence, "run", &[], b"")
        .expect("execute");

    // Result is bit-for-bit the native checksum.
    assert_eq!(
        outcome.results[0].as_f64().to_bits(),
        (kernel.native)(10).to_bits()
    );

    // The attested counter equals the weighted oracle.
    let mut oracle = CountingObserver::with_weight(|i| weights.weight(i));
    let mut inst = oracle_instance(&module);
    inst.invoke_observed("run", &[], &mut oracle).expect("run");
    assert_eq!(outcome.log.log.weighted_instructions, oracle.count);

    // Both parties accept the log.
    dep.workload_provider()
        .verify_log(&outcome.log)
        .expect("log verifies");
}

/// All three instrumentation levels agree with the oracle on every
/// use-case program (MSieve, PC, SubsetSum, Darknet) — the soundness
/// claim behind Fig 10.
#[test]
fn all_levels_exact_on_use_case_programs() {
    let weights = WeightTable::uniform();
    let programs: Vec<(&str, acctee_wasm::Module, Vec<Value>)> = vec![
        (
            "msieve",
            acctee_workloads::msieve::msieve_module(3, 5),
            vec![],
        ),
        ("pc", acctee_workloads::pc::pc_module(6, 25), vec![]),
        (
            "subsetsum",
            acctee_workloads::subsetsum::subsetsum_module(10, 2),
            vec![],
        ),
        (
            "darknet",
            acctee_workloads::darknet::darknet_module(12),
            vec![Value::I32(2)],
        ),
    ];
    for (name, module, args) in programs {
        let mut oracle = CountingObserver::unit();
        let mut inst = oracle_instance(&module);
        let expected = inst
            .invoke_observed("run", &args, &mut oracle)
            .expect("run");
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let r = acctee_instrument::instrument(&module, level, &weights).expect("instrument");
            let mut inst = Instance::new(&r.module, Imports::new()).expect("instantiate");
            let got = inst.invoke("run", &args).expect("run");
            assert_eq!(got, expected, "{name} {level}: result unchanged");
            let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64() as u64;
            assert_eq!(counter, oracle.count, "{name} {level}: counter exact");
        }
    }
}

/// Billing: the invoice is linear in the work performed, across two
/// different problem sizes, and both memory policies price sanely.
#[test]
fn invoices_scale_with_work() {
    let mut dep = Deployment::new(3);
    let run = |dep: &mut Deployment, count: usize| {
        let bytes = encode_module(&acctee_workloads::subsetsum::subsetsum_module(count, 1));
        let (b, e) = dep
            .instrument(&bytes, Level::LoopBased)
            .expect("instrument");
        dep.execute(&b, &e, "run", &[], b"").expect("execute")
    };
    let small = run(&mut dep, 6);
    let large = run(&mut dep, 14);
    assert!(
        large.log.log.weighted_instructions > 2 * small.log.log.weighted_instructions,
        "more elements, superlinearly more work"
    );
    let pricing = PricingModel::default();
    let inv_small = pricing.invoice(&small.log.log);
    let inv_large = pricing.invoice(&large.log.log);
    assert!(inv_large.total() > inv_small.total());

    let integral = PricingModel {
        memory_policy: acctee::log::MemoryPolicy::Integral,
        ..PricingModel::default()
    };
    assert!(integral.invoice(&large.log.log).memory >= integral.invoice(&small.log.log).memory);
}

/// The FaaS I/O path is metered through the accounting enclave: echo's
/// log reports exactly the bytes in and out.
#[test]
fn io_accounting_through_accounting_enclave() {
    let mut dep = Deployment::new(9);
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (b, e) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let payload = vec![0x5a; 1234];
    let outcome = dep.execute(&b, &e, "main", &[], &payload).expect("execute");
    assert_eq!(outcome.output, payload);
    assert_eq!(outcome.log.log.io_bytes_in, 1234);
    assert_eq!(outcome.log.log.io_bytes_out, 1234);
}

/// Two independent deployments (different authorities) do not trust
/// each other's artefacts: evidence from one fails in the other.
#[test]
fn deployments_are_isolated() {
    let dep_a = Deployment::new(1);
    let mut dep_b = Deployment::new(2);
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (b, e) = dep_a.instrument(&bytes, Level::Naive).expect("instrument");
    assert!(dep_b.execute(&b, &e, "main", &[], b"x").is_err());
}

/// The weighted counter is stable across repeated executions
/// (determinism — required for "comparable accounting", R2).
#[test]
fn accounting_is_deterministic_across_runs_and_platforms() {
    let bytes = encode_module(&acctee_workloads::msieve::msieve_module(3, 9));
    let counts: Vec<u64> = (0..2)
        .flat_map(|seed| {
            let mut dep = Deployment::with_weights(seed + 50, WeightTable::uniform());
            let (b, e) = dep
                .instrument(&bytes, Level::LoopBased)
                .expect("instrument");
            (0..2)
                .map(|_| {
                    dep.execute(&b, &e, "run", &[], b"")
                        .expect("execute")
                        .log
                        .log
                        .weighted_instructions
                })
                .collect::<Vec<u64>>()
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}
