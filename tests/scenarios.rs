//! Scenario integration tests: the FaaS and pay-by-computation
//! use-case domains of §5.3 exercised end to end. The third, volunteer
//! computing, runs over the wire in `tests/fleet_e2e.rs`
//! (`volunteer_campaign_pays_only_attested_work_at_default_sampling`).

use acctee_faas::{median_service_ns, ClosedLoopSim, FunctionKind, Rig, Setup};
use acctee_workloads::faas_fns::{resize_native, test_image};

/// Fig 9 sanity: every setup serves correct responses, throughput is
/// finite and ordered WASM > SGX setups, and the JS baseline is the
/// slowest for the compute-heavy function. The served row's signed log
/// counts exactly the request and response bytes.
///
/// Each setup's service time is the median over [`ROUNDS`] rounds of
/// the rig; a round serves one request per path (plain, served,
/// MiniJS), and every row comes from its path's sample in that round.
/// `WASM`, `WASM-SGX SIM` and `WASM-SGX HW` share the plain sample, so
/// their order is the overhead model's — SGX SIM vs HW differs by the
/// 0.6 ms enclave transitions plus the HW execution factor — and no
/// machine load between two timings can swap them. JS vs WASM rests on
/// the modelled ≥ 400 ms per JS request, which holds unless more than
/// half of the rounds are each disturbed by at least that much.
#[test]
fn faas_throughput_ordering() {
    const ROUNDS: usize = 7;
    let payload = test_image(64, 64);
    let sim = ClosedLoopSim::default();
    let rig = Rig::start(FunctionKind::Resize).expect("rig starts");
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let round = rig.round(&payload).expect("served");
        for setup in Setup::ALL {
            let resp = &round.sample(*setup).output;
            assert_eq!(*resp, resize_native(64, 64, &payload[8..]), "{setup}");
        }
        assert_eq!(round.log.io_bytes_in, payload.len() as u64);
        assert_eq!(round.log.io_bytes_out, round.served.output.len() as u64);
        rounds.push(round);
    }
    let tp: std::collections::HashMap<Setup, f64> = Setup::ALL
        .iter()
        .map(|setup| {
            let median = median_service_ns(&rounds, *setup);
            (*setup, sim.run(100, |_| median).throughput())
        })
        .collect();
    assert!(tp[&Setup::Wasm] > tp[&Setup::WasmSgxHw], "{tp:?}");
    assert!(tp[&Setup::WasmSgxSim] >= tp[&Setup::WasmSgxHw], "{tp:?}");
    // The interpreted-JS baseline loses to wasm clearly (paper: 16x).
    assert!(tp[&Setup::Wasm] > 2.0 * tp[&Setup::Js], "{tp:?}");
}

/// Echo at growing payloads: throughput decreases monotonically with
/// payload size in every setup (the Fig 9 x-axis trend).
#[test]
fn faas_echo_payload_trend() {
    const SETUPS: [Setup; 3] = [Setup::Wasm, Setup::WasmSgxHw, Setup::WasmSgxHwInstr];
    let sim = ClosedLoopSim::default();
    let rig = Rig::start(FunctionKind::Echo).expect("rig starts");
    let mut last = [f64::INFINITY; SETUPS.len()];
    for px in [64usize, 256, 512] {
        let payload = test_image(px, px);
        let round = rig.round(&payload).expect("served");
        for (setup, last) in SETUPS.iter().zip(&mut last) {
            let t = sim.run(50, |_| round.service_ns(*setup)).throughput();
            assert!(t < *last, "{setup} at {px}px: {t} !< {last}");
            *last = t;
        }
    }
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
