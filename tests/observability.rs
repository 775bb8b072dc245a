//! Integration tests for the telemetry pipeline: spans emitted across
//! the serving threads of a real server, and the profiler agreeing
//! with the instrumentation counter.
//!
//! The telemetry hub is process-global, so every test that installs
//! one serialises on [`telemetry_lock`] and resets the hub before
//! releasing it.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use acctee_instrument::{instrument, Level, WeightTable, COUNTER_EXPORT};
use acctee_interp::{Imports, Instance, ProfilingObserver, Value};
use acctee_net::{Client, Server, ServerConfig, TrustAnchor};
use acctee_telemetry::{parse_chrome_json, to_chrome_json, EventKind, Telemetry, TraceEvent};
use acctee_wasm::builder::{Bound, ModuleBuilder};
use acctee_wasm::encode::encode_module;
use acctee_wasm::types::ValType;

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

const TIMEOUT: Duration = Duration::from_secs(10);

fn window(e: &TraceEvent) -> (u64, u64) {
    match e.kind {
        EventKind::Complete { dur_ns } => (e.ts_ns, e.ts_ns + dur_ns),
        EventKind::Instant => (e.ts_ns, e.ts_ns),
    }
}

#[test]
fn server_spans_nest_across_worker_threads() {
    let _guard = telemetry_lock();
    let (tel, sink) = Telemetry::collecting();
    acctee_telemetry::install(Arc::new(tel));
    let anchor = || TrustAnchor::new(ServerConfig::default().seed);
    let (addr, server) = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(addr, anchor(), TIMEOUT).expect("connect");
    let mut b = ModuleBuilder::new();
    let f = b.func("inc", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.i32_const(1);
        f.i32_add();
    });
    b.export_func("inc", f);
    let deployed = client
        .deploy(&encode_module(&b.build()), Level::Naive)
        .expect("deploy");
    // Four connections, four invokes each, all in flight together.
    std::thread::scope(|scope| {
        for c in 0..4 {
            let deployed = &deployed;
            scope.spawn(move || {
                let mut conn = Client::connect(addr, anchor(), TIMEOUT).expect("connect");
                for i in 0..4 {
                    let out = conn
                        .invoke(deployed, "inc", &[Value::I32(c * 4 + i)], b"", "obs")
                        .expect("invoke");
                    assert_eq!(out.results, vec![Value::I32(c * 4 + i + 1)]);
                }
            });
        }
    });
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
    acctee_telemetry::reset();

    let events = sink.events();
    let serve: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "net.serve").collect();
    assert_eq!(serve.len(), 1);
    let (s0, s1) = window(serve[0]);
    let executes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "enclave.ae.execute")
        .collect();
    assert_eq!(executes.len(), 16);
    for e in &executes {
        // Every execution nests inside the server's span and runs on a
        // serving thread, not the acceptor that holds `net.serve`.
        let (e0, e1) = window(e);
        assert!(
            s0 <= e0 && e1 <= s1,
            "execute [{e0},{e1}] outside serve [{s0},{s1}]"
        );
        assert_ne!(e.tid, serve[0].tid);
    }

    // The whole multi-thread trace survives a round trip through the
    // crate's own Chrome-JSON exporter and parser. The exporter emits
    // args alphabetically, so compare with both sides sorted.
    let parsed = parse_chrome_json(&to_chrome_json(&events)).expect("trace parses");
    let sorted = |mut evs: Vec<TraceEvent>| {
        for e in &mut evs {
            e.args.sort_by(|a, b| a.0.cmp(&b.0));
        }
        evs
    };
    assert_eq!(sorted(parsed), sorted(events));
}

#[test]
fn profiler_total_matches_injected_counter() {
    // The ProfilingObserver weighs the original module's execution with
    // the same table the instrumenter compiled into the counter, so the
    // two independent accountings must agree exactly.
    let mut b = ModuleBuilder::new();
    let f = b.func("run", &[ValType::I32], &[ValType::I64], |f| {
        let i = f.local(ValType::I32);
        let acc = f.local(ValType::I64);
        f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
            f.local_get(acc);
            f.local_get(i);
            f.num(acctee_wasm::op::NumOp::I64ExtendI32S);
            f.num(acctee_wasm::op::NumOp::I64Add);
            f.local_set(acc);
        });
        f.local_get(acc);
    });
    b.export_func("run", f);
    let m = b.build();
    let weights = WeightTable::calibrated();
    let r = instrument(&m, Level::LoopBased, &weights).unwrap();

    let mut prof = ProfilingObserver::with_weight(&m, |i| weights.weight(i));
    let mut inst = Instance::new(&m, Imports::new()).unwrap();
    let out = inst
        .invoke_observed("run", &[Value::I32(91)], &mut prof)
        .unwrap();
    let report = prof.report(5);

    let mut inst2 = Instance::new(&r.module, Imports::new()).unwrap();
    let out2 = inst2.invoke("run", &[Value::I32(91)]).unwrap();
    let counter = inst2.global(COUNTER_EXPORT).unwrap().as_i64() as u64;

    assert_eq!(out, out2);
    assert_eq!(report.total_weight, counter);
    assert!(report.hot_functions.iter().any(|f| f.name == "run"));
}
