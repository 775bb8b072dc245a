//! Adversarial integration tests: every manipulation the threat model
//! (§2.4) allows the two distrusting parties must be caught.

use acctee::{AccTeeError, Deployment, Level};
use acctee_instrument::{instrument, WeightTable, COUNTER_EXPORT};
use acctee_interp::{Imports, Instance, Value};
use acctee_wasm::encode::encode_module;
use acctee_wasm::text::parse_module;

/// A malicious workload provider ships a module that tries to name the
/// counter global directly (anticipating its index). Validation of the
/// original module rejects it before instrumentation.
#[test]
fn counter_capture_by_index_rejected() {
    // global 0 will be the injected counter's index in a module with no
    // globals of its own; referencing it pre-instrumentation is simply
    // invalid.
    let src = r#"(module (func $f (export "run") i64.const 99 global.set 0))"#;
    let m = parse_module(src).expect("parses");
    let err = instrument(&m, Level::Naive, &WeightTable::uniform()).unwrap_err();
    assert!(err.to_string().contains("invalid input module"), "{err}");
}

/// Naming a global `__acctee_wic` does not help: isolation is by
/// index, not by name. The workload's own global and the counter stay
/// distinct.
#[test]
fn counter_name_squatting_is_harmless() {
    let src = r#"(module
        (global $__acctee_wic (mut i64) (i64.const 123456))
        (func $f (export "run") (result i64)
          i64.const -1
          global.set $__acctee_wic
          global.get $__acctee_wic))"#;
    let m = parse_module(src).expect("parses");
    let r = instrument(&m, Level::Naive, &WeightTable::uniform()).expect("instruments");
    let mut inst = Instance::new(&r.module, Imports::new()).expect("instantiate");
    let out = inst.invoke("run", &[]).expect("run");
    assert_eq!(out, vec![Value::I64(-1)], "workload sees its own global");
    let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64();
    // 5 executed instructions (2 consts, set, get + none for export),
    // definitely not -1 and not the squatted initial value.
    assert!(counter > 0 && counter < 100, "counter isolated: {counter}");
}

/// Exporting something under the counter's name is refused before
/// anything is signed: the instrumented module would carry a duplicate
/// export, and a host reading the counter by name would read the
/// workload's value.
#[test]
fn counter_export_squatting_refused() {
    let src = r#"(module
        (global $fake (mut i64) (i64.const 1))
        (export "__acctee_wic" (global $fake))
        (func $f (export "run") (result i64) global.get $fake))"#;
    let bytes = encode_module(&parse_module(src).expect("parses"));
    let dep = Deployment::new(11);
    let err = dep.instrument(&bytes, Level::LoopBased).unwrap_err();
    assert!(matches!(err, AccTeeError::Instrumentation(_)), "{err}");
    assert!(err.to_string().contains(COUNTER_EXPORT), "{err}");
}

/// An adversarial loop that writes its induction variable twice must
/// not be loop-hoisted — and the counter must still be exact
/// (the paper's §3.6 attack).
#[test]
fn loop_variable_manipulation_stays_exact() {
    let src = r#"(module
        (func $f (export "run") (param $n i32) (result i64) (local $i i32) (local $acc i64)
          block $out
            loop $top
              local.get $i
              local.get $n
              i32.ge_s
              br_if $out
              ;; i += 2
              local.get $i
              i32.const 2
              i32.add
              local.set $i
              ;; i -= 1  (second write: would break naive hoisting)
              local.get $i
              i32.const -1
              i32.add
              local.set $i
              local.get $acc
              i64.const 3
              i64.add
              local.set $acc
              br $top
            end
          end
          local.get $acc))"#;
    let m = parse_module(src).expect("parses");
    for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
        let r = instrument(&m, level, &WeightTable::uniform()).expect("instruments");
        let mut oracle = acctee_interp::CountingObserver::unit();
        let tree = acctee_interp::Config {
            engine: acctee_interp::Engine::Tree,
            ..acctee_interp::Config::default()
        };
        let mut orig = Instance::with_config(&m, Imports::new(), tree).expect("instantiate");
        orig.invoke_observed("run", &[Value::I32(10)], &mut oracle)
            .expect("run");
        let mut inst = Instance::new(&r.module, Imports::new()).expect("instantiate");
        let out = inst.invoke("run", &[Value::I32(10)]).expect("run");
        assert_eq!(out, vec![Value::I64(30)]);
        let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64() as u64;
        assert_eq!(counter, oracle.count, "{level}");
    }
}

/// The infrastructure provider swaps in a different (cheaper) module
/// under valid evidence: caught by the module-hash check.
#[test]
fn module_swap_rejected() {
    let mut dep = Deployment::new(21);
    let real = encode_module(&acctee_workloads::subsetsum::subsetsum_module(10, 2));
    let cheap = encode_module(&acctee_workloads::subsetsum::subsetsum_module(2, 2));
    let (_real_instr, evidence) = dep.instrument(&real, Level::Naive).expect("instrument");
    let (cheap_instr, _) = dep.instrument(&cheap, Level::Naive).expect("instrument");
    let err = dep
        .execute(&cheap_instr, &evidence, "run", &[], b"")
        .unwrap_err();
    assert!(matches!(err, AccTeeError::EvidenceMismatch(_)), "{err}");
}

/// Evidence replayed under a different weight table (the provider
/// pretends cheaper weights were attested): caught.
#[test]
fn weight_table_mismatch_rejected() {
    let dep_uniform = Deployment::with_weights(31, WeightTable::uniform());
    let mut dep_calibrated = Deployment::with_weights(31, WeightTable::calibrated());
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (b, e) = dep_uniform
        .instrument(&bytes, Level::Naive)
        .expect("instrument");
    let err = dep_calibrated
        .execute(&b, &e, "main", &[], b"x")
        .unwrap_err();
    assert!(
        matches!(
            err,
            AccTeeError::EvidenceMismatch(_) | AccTeeError::Attestation(_)
        ),
        "{err}"
    );
}

/// Bit-flipping the instrumented module after evidence is issued:
/// caught by the hash check at load.
#[test]
fn bitflipped_module_rejected() {
    let mut dep = Deployment::new(41);
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (mut b, e) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let mid = b.len() / 2;
    b[mid] ^= 0x40;
    let err = dep.execute(&b, &e, "main", &[], b"x").unwrap_err();
    assert!(matches!(err, AccTeeError::EvidenceMismatch(_)), "{err}");
}

/// A workload that tries to exhaust resources is stopped by fuel, and
/// the trap is reported (not silently billed).
#[test]
fn runaway_workload_hits_fuel_limit() {
    let src = r#"(module (func $f (export "run") loop $l br $l end))"#;
    let m = parse_module(src).expect("parses");
    let r = instrument(&m, Level::Naive, &WeightTable::uniform()).expect("instruments");
    let mut inst = Instance::with_config(
        &r.module,
        Imports::new(),
        acctee_interp::Config {
            fuel: Some(100_000),
            ..Default::default()
        },
    )
    .expect("instantiate");
    let err = inst.invoke("run", &[]).unwrap_err();
    assert_eq!(err, acctee_interp::Trap::OutOfFuel);
    // The counter reflects work done before the cut-off — the provider
    // can still bill the partial execution.
    let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64();
    assert!(counter > 0);
}

/// `memory.grow` is visible in the accounting: peak memory and the
/// memory integral both increase.
#[test]
fn memory_growth_is_accounted() {
    let src = r#"(module
        (memory 1 16)
        (func $f (export "run") (result i32)
          i32.const 4
          memory.grow
          drop
          memory.size))"#;
    let m = parse_module(src).expect("parses");
    let bytes = encode_module(&m);
    let mut dep = Deployment::new(55);
    let (b, e) = dep.instrument(&bytes, Level::Naive).expect("instrument");
    let outcome = dep.execute(&b, &e, "run", &[], b"").expect("execute");
    assert_eq!(outcome.results, vec![Value::I32(5)]);
    assert_eq!(outcome.log.log.peak_memory_bytes, 5 * 65536);
}
