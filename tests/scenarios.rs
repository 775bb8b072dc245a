//! Scenario integration tests: the three §5.3 use-case domains
//! exercised end to end.

use acctee_faas::{ClosedLoopSim, FaasPlatform, FunctionKind, Setup};
use acctee_volunteer::{run_campaign, ServerMode, Task};
use acctee_workloads::faas_fns::{resize_native, test_image};

/// Fig 9 sanity: every setup serves correct responses, throughput is
/// finite and ordered WASM > SGX setups, and the JS baseline is the
/// slowest for the compute-heavy function.
///
/// Each setup's service time is the median of [`ROUNDS`] samples,
/// taken in interleaved rounds (every round serves every setup once),
/// so a descheduled request or a burst of machine load moves one
/// sample of every setup, not one setup's only sample. Tolerance: the
/// orderings rest on modelled overhead margins — WASM vs SGX HW
/// ≥ 2.0 ms (LKL + enclave transitions), SGX SIM vs HW ≥ 0.6 ms plus
/// the HW execution factor, JS ≥ 400 ms — which hold unless more than
/// half of a setup's samples are each disturbed by at least that much.
#[test]
fn faas_throughput_ordering() {
    const ROUNDS: usize = 7;
    let payload = test_image(64, 64);
    let sim = ClosedLoopSim::default();
    let platforms: Vec<_> = Setup::ALL
        .iter()
        .map(|s| (*s, FaasPlatform::deploy(FunctionKind::Resize, *s)))
        .collect();
    let mut samples: std::collections::HashMap<Setup, Vec<u64>> = Default::default();
    for _ in 0..ROUNDS {
        for (setup, p) in &platforms {
            let (resp, stats) = p.handle(&payload).expect("served");
            assert_eq!(resp, resize_native(64, 64, &payload[8..]), "{setup}");
            samples
                .entry(*setup)
                .or_default()
                .push(stats.service_ns().max(1));
        }
    }
    let mut tp = std::collections::HashMap::new();
    for (setup, mut ns) in samples {
        ns.sort_unstable();
        let median = ns[ns.len() / 2];
        let report = sim.run(100, |_| median);
        tp.insert(setup, report.throughput());
    }
    assert!(tp[&Setup::Wasm] > tp[&Setup::WasmSgxHw], "{tp:?}");
    assert!(tp[&Setup::WasmSgxSim] >= tp[&Setup::WasmSgxHw], "{tp:?}");
    // The interpreted-JS baseline loses to wasm clearly (paper: 16x).
    assert!(tp[&Setup::Wasm] > 2.0 * tp[&Setup::Js], "{tp:?}");
}

/// Echo at growing payloads: throughput decreases monotonically with
/// payload size in every setup (the Fig 9 x-axis trend).
#[test]
fn faas_echo_payload_trend() {
    let sim = ClosedLoopSim::default();
    for setup in [Setup::Wasm, Setup::WasmSgxHw] {
        let p = FaasPlatform::deploy(FunctionKind::Echo, setup);
        let mut last = f64::INFINITY;
        for px in [64usize, 256, 512] {
            let payload = test_image(px, px);
            let (_, stats) = p.handle(&payload).expect("served");
            let t = sim.run(50, |_| stats.service_ns().max(1)).throughput();
            assert!(t < last, "{setup} at {px}px: {t} !< {last}");
            last = t;
        }
    }
}

/// The volunteer-computing claim of §2.1: AccTEE does the work once
/// with no wrong results; redundancy does it twice and still pays
/// inflated credit claims.
#[test]
fn volunteer_acctee_beats_redundancy() {
    let (authority, ie, provider, volunteers) =
        acctee_volunteer::campaign::standard_environment(6, 3);
    let tasks: Vec<Task> = (0..6)
        .map(|i| Task {
            id: i,
            seed: i + 1,
            count: 2,
        })
        .collect();

    let red = run_campaign(
        &tasks,
        &volunteers,
        ServerMode::Redundancy { replicas: 2 },
        &authority,
        &ie,
        &provider,
    );
    let acc = run_campaign(
        &tasks,
        &volunteers,
        ServerMode::AccTee,
        &authority,
        &ie,
        &provider,
    );

    // Resource bill: redundancy performs (close to) twice the work.
    assert!(
        red.executions > acc.executions,
        "{} vs {}",
        red.executions,
        acc.executions
    );
    // Integrity: AccTEE never accepts a wrong result.
    assert_eq!(acc.wrong_accepted, 0);
    // Fairness: AccTEE grants zero undeserved credit.
    assert!(acc.overcredit_fraction() < 1e-9);
    // The leaderboard exists and is consistent.
    let lb = acc.leaderboard();
    assert_eq!(lb.len(), volunteers.len());
    assert!(lb.windows(2).all(|w| w[0].1 >= w[1].1));
}

/// Pay-by-computation: classifying images earns attested credit that
/// scales with the number of images (the micro-payment currency).
#[test]
fn pay_by_computation_credit_scales() {
    use acctee::{Deployment, Level};
    use acctee_interp::Value;
    let mut dep = Deployment::new(99);
    let bytes = acctee_wasm::encode::encode_module(&acctee_workloads::darknet::darknet_module(12));
    let (b, e) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let mut one_image = 0;
    let mut total = 0u64;
    for variant in 0..3 {
        let outcome = dep
            .execute(&b, &e, "run", &[Value::I32(variant)], b"")
            .expect("execute");
        dep.workload_provider()
            .verify_log(&outcome.log)
            .expect("verifies");
        if variant == 0 {
            one_image = outcome.log.log.weighted_instructions;
        }
        total += outcome.log.log.weighted_instructions;
    }
    assert!(one_image > 0);
    // Work per image is constant for this network: total ~ 3x one.
    let rel_err = (total as f64 - 3.0 * one_image as f64).abs() / (total as f64);
    assert!(rel_err < 0.01, "{total} vs 3x{one_image}");
}
