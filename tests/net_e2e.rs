//! End-to-end tests of the networked serving layer (`acctee-net`): a
//! real TCP server on an ephemeral loopback port, a verifying client,
//! and the acceptance properties of DESIGN.md §11 — byte-identical
//! accounting over the wire, anti-replay across connections, explicit
//! load shed, deadline recovery and garbage tolerance.
//!
//! The server has one I/O path, its epoll event loops; tests named
//! `*_event_mode` keep the names they had when a thread-pool twin ran
//! beside each, so their history stays comparable.

use std::time::Duration;

use acctee::{Deployment, Level};
use acctee_fleet::reimburse::{Escrow, PaymentError};
use acctee_interp::Value;
use acctee_net::{
    Client, DeployHandle, InvokeSpec, NetError, Request, RequestOutcome, Response, Server,
    ServerConfig, TrustAnchor,
};
use acctee_sgx::crypto::sha256;
use acctee_wasm::builder::ModuleBuilder;
use acctee_wasm::encode::encode_module;
use acctee_wasm::types::ValType;
use acctee_wasm::BlockType;

const SEED: u64 = 42;
const TIMEOUT: Duration = Duration::from_secs(10);

/// Baseline config: the default server under the test seed.
fn cfg() -> ServerConfig {
    ServerConfig {
        seed: SEED,
        ..ServerConfig::default()
    }
}

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT).expect("connect + attest")
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    connect(addr).shutdown().expect("shutdown accepted");
    handle.join().expect("server drains and exits");
}

/// A module with real work (a loop with memory traffic), so the
/// counter values compared across the wire are not trivially zero.
fn work_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let f = b.func("run", &[ValType::I32], &[ValType::I32], |f| {
        // for i in (n..0].rev(): mem[0] += i; loop on a local counter.
        let i = f.local(ValType::I32);
        f.local_get(0);
        f.local_set(i);
        f.loop_(BlockType::Empty, |f| {
            f.i32_const(0);
            f.i32_const(0);
            f.i32_load(0);
            f.local_get(i);
            f.i32_add();
            f.i32_store(0);
            f.local_get(i);
            f.i32_const(1);
            f.i32_sub();
            f.local_tee(i);
            f.br_if(0);
        });
        f.i32_const(0);
        f.i32_load(0);
    });
    b.export_func("run", f);
    encode_module(&b.build())
}

/// `inf` spins forever (for deadline/occupancy tests); `fast` returns.
fn spin_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let inf = b.func("inf", &[], &[], |f| {
        f.loop_(BlockType::Empty, |f| {
            f.br(0);
        });
    });
    let fast = b.func("fast", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.i32_const(1);
        f.i32_add();
    });
    b.export_func("inf", inf);
    b.export_func("fast", fast);
    encode_module(&b.build())
}

#[test]
fn loopback_counters_are_bit_identical_event_mode() {
    let (addr, handle) = spawn_server(cfg());
    let module = work_module();
    let mut client = connect(addr);
    let deployed = client.deploy(&module, Level::LoopBased).expect("deploy");
    let outcome = client
        .invoke(&deployed, "run", &[Value::I32(1000)], b"", "t")
        .expect("attested invoke");

    // The signed log was already verified by the client (quote from
    // the expected accounting enclave, binding over these counters).
    assert!(outcome.log.log.weighted_instructions > 0);
    assert!(outcome.log.log.peak_memory_bytes >= 65536);
    assert!(outcome.log.log.memory_integral > 0);

    // Re-fetching over a *different* connection returns the identical
    // signed log.
    let mut other = connect(addr);
    let fetched = other.fetch_log(outcome.session_id).expect("fetch log");
    assert_eq!(fetched, outcome.log);

    // The same module under an in-process deployment (same seed, same
    // session id) accounts bit-identically: the network layer changes
    // nothing about the numbers the enclave signs.
    let dep = Deployment::new(SEED);
    let (bytes, evidence) = dep
        .instrument(&module, Level::LoopBased)
        .expect("instrument");
    assert_eq!(bytes, deployed.module);
    let loaded = dep.infrastructure().load(&bytes, &evidence).expect("load");
    let (local, _invoice) = dep
        .infrastructure()
        .execute_billed(&loaded, "run", &[Value::I32(1000)], b"", outcome.session_id)
        .expect("local execute");
    assert_eq!(local.results, outcome.results);
    assert_eq!(
        local.log.log.weighted_instructions,
        outcome.log.log.weighted_instructions
    );
    assert_eq!(
        local.log.log.peak_memory_bytes,
        outcome.log.log.peak_memory_bytes
    );
    assert_eq!(
        local.log.log.memory_integral,
        outcome.log.log.memory_integral
    );
    assert_eq!(local.log.log.io_bytes_in, outcome.log.log.io_bytes_in);
    assert_eq!(local.log.log.io_bytes_out, outcome.log.log.io_bytes_out);
    // Same counters + same module + same session = same binding.
    assert_eq!(local.log.log.binding(), outcome.log.log.binding());

    shutdown(addr, handle);
}

#[test]
fn replayed_log_is_rejected_across_connections_event_mode() {
    let (addr, handle) = spawn_server(cfg());
    let module = work_module();

    // Two separate connections, one invoke each: the server-side
    // monotonic session counter must keep their ids distinct.
    let mut a = connect(addr);
    let dep_a = a.deploy(&module, Level::LoopBased).expect("deploy a");
    let out_a = a
        .invoke(&dep_a, "run", &[Value::I32(64)], b"", "alice")
        .expect("invoke a");
    drop(a);
    let mut b = connect(addr);
    let dep_b = b.deploy(&module, Level::LoopBased).expect("deploy b");
    let out_b = b
        .invoke(&dep_b, "run", &[Value::I32(64)], b"", "bob")
        .expect("invoke b");
    assert_ne!(out_a.session_id, out_b.session_id);

    // Both logs pay out once; replaying the first across the escrow is
    // refused even though it came over a different connection.
    let verifier = b.verifier().clone();
    let mut escrow = Escrow::new(1 << 60, 1);
    escrow
        .release(&verifier, "worker-a", &out_a.log)
        .expect("first log pays");
    escrow
        .release(&verifier, "worker-b", &out_b.log)
        .expect("second log pays");
    assert_eq!(
        escrow.release(&verifier, "worker-a", &out_a.log),
        Err(PaymentError::Replay)
    );

    shutdown(addr, handle);
}

#[test]
fn log_for_another_deployment_fails_verification() {
    // Invoke module A's deployment while holding module B's verified
    // handle: the server honestly runs A, and the client must refuse a
    // log that accounts a module other than the one it verified.
    let (addr, handle) = spawn_server(cfg());
    let mut client = connect(addr);
    let a = client
        .deploy(&work_module(), Level::LoopBased)
        .expect("deploy a");
    let b = client
        .deploy(&spin_module(), Level::LoopBased)
        .expect("deploy b");
    let crossed = DeployHandle {
        deploy_id: a.deploy_id,
        ..b
    };
    match client.invoke(&crossed, "run", &[Value::I32(8)], b"", "t") {
        Err(NetError::Verification(m)) => assert!(m.contains("different module"), "{m}"),
        other => panic!("log for module A accepted against B's handle: {other:?}"),
    }
    client
        .invoke(&a, "run", &[Value::I32(8)], b"", "t")
        .expect("the matching handle verifies");
    shutdown(addr, handle);
}

#[test]
fn tenant_limit_sheds_busy_and_deadline_frees_the_worker_event_mode() {
    let (addr, handle) = spawn_server(ServerConfig {
        seed: SEED,
        workers: 2,
        tenant_inflight: 1,
        request_deadline: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });
    let module = spin_module();

    // Connection A occupies tenant "t"'s single slot with a runaway
    // workload; the per-request deadline bounds how long.
    let spinner = std::thread::spawn({
        let module = module.clone();
        move || {
            let mut a = Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT).expect("connect a");
            let dep = a.deploy(&module, Level::Naive).expect("deploy a");
            a.invoke(&dep, "inf", &[], b"", "t")
        }
    });

    // While A spins, the same tenant on a second connection is shed
    // with an explicit Busy — not queued, not hung. B goes ahead only
    // once the stats plane reports A's request in flight (A's connect
    // and deploy take an unpredictable time before its invoke).
    let mut b = connect(addr);
    poll_until(|| {
        let snap = b.stats().expect("stats");
        snap.tenants
            .iter()
            .any(|t| t.tenant == "t" && t.inflight == 1)
            .then_some(())
    });
    let dep_b = b.deploy(&module, Level::Naive).expect("deploy b");
    match b.invoke(&dep_b, "fast", &[Value::I32(1)], b"", "t") {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy while tenant slot is held, got {other:?}"),
    }

    // A's runaway request dies at the deadline (an error, not a hang)…
    match spinner.join().expect("spinner thread") {
        Err(NetError::Server(msg)) => {
            assert!(
                msg.contains("deadline"),
                "expected deadline trap, got {msg:?}"
            )
        }
        other => panic!("expected server-side deadline error, got {other:?}"),
    }

    // …after which the tenant slot is free again.
    let out = b
        .invoke(&dep_b, "fast", &[Value::I32(41)], b"", "t")
        .expect("slot freed after deadline");
    assert_eq!(out.results, vec![Value::I32(42)]);

    shutdown(addr, handle);
}

#[test]
fn garbage_frames_get_an_error_response_and_server_survives_event_mode() {
    use std::io::{Read, Write};

    let (addr, handle) = spawn_server(cfg());

    // Raw garbage: the server answers with an Error frame (it cannot
    // trust the stream afterwards, so it hangs up) and must not panic.
    // Exactly four bytes, so the server consumes everything sent and
    // the close is a clean FIN rather than a reset.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(b"NOPE").expect("write garbage");
    match acctee_net::wire::read_response(&mut raw) {
        Ok(acctee_net::Response::Error { message }) => {
            assert!(message.contains("bad frame"), "got {message:?}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("clean close after error");
    assert!(buf.is_empty(), "nothing after the error frame");

    // A truncated-mid-frame client (header promising more than sent)
    // also cannot take the server down.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut partial =
        acctee_net::wire::encode_request(&acctee_net::Request::FetchLog { session_id: 1 });
    partial.truncate(9);
    raw.write_all(&partial).expect("write partial frame");
    drop(raw);

    // The server still serves verified work afterwards.
    let module = work_module();
    let mut client = connect(addr);
    let deployed = client.deploy(&module, Level::LoopBased).expect("deploy");
    let out = client
        .invoke(&deployed, "run", &[Value::I32(8)], b"", "t")
        .expect("invoke after garbage");
    assert_eq!(out.log.log.module_hash, sha256(&deployed.module));

    shutdown(addr, handle);
}

/// Retry until `f` yields a value: the server records a request's
/// stats *after* writing its response, so a client that just got an
/// answer may be a few microseconds ahead of the counters.
fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..400 {
        if let Some(v) = f() {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("stats did not converge within 2s");
}

#[test]
fn stats_snapshot_and_flight_recorder_match_observed_load_event_mode() {
    let (addr, handle) = spawn_server(ServerConfig {
        seed: SEED,
        workers: 3,
        tenant_inflight: 1,
        request_deadline: Some(Duration::from_millis(1200)),
        ..ServerConfig::default()
    });
    let module = spin_module();
    // Three concurrent connections live below: the load client, the
    // observer, and the spinner — each pins a worker while connected.

    // Load phase: four verified invokes under tenant "u", each stamped
    // with a client-generated trace id.
    let mut client = connect(addr);
    let dep = client.deploy(&module, Level::Naive).expect("deploy");
    let mut trace_ids = Vec::new();
    for i in 0..4 {
        let out = client
            .invoke(&dep, "fast", &[Value::I32(i)], b"", "u")
            .expect("invoke");
        assert_eq!(out.results, vec![Value::I32(i + 1)]);
        assert_ne!(out.trace_id, 0, "client stamps every invoke");
        trace_ids.push(out.trace_id);
    }

    // Pre-attest the observer connection now: attestation is the slow
    // part of connecting, and the mid-load snapshot below must land
    // while the runaway request is still inside its deadline.
    let mut obs = connect(addr);

    // A runaway workload occupies tenant "t"'s single slot…
    let spinner = std::thread::spawn({
        let module = module.clone();
        move || {
            let mut a = Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT).expect("connect a");
            let dep = a.deploy(&module, Level::Naive).expect("deploy a");
            a.invoke(&dep, "inf", &[], b"", "t")
        }
    });
    // Wait until the stats plane itself reports the spinner in flight
    // (sleeping a fixed interval instead is racy: the spinner's own
    // connect + deploy take an unpredictable time before its invoke).
    poll_until(|| {
        let snap = obs.stats().expect("stats");
        snap.tenants
            .iter()
            .any(|t| t.tenant == "t" && t.inflight == 1)
            .then_some(())
    });
    // …so the same tenant on another connection is shed with Busy: one
    // tenant-shed event the stats plane must report.
    match client.invoke(&dep, "fast", &[Value::I32(1)], b"", "t") {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy while tenant slot is held, got {other:?}"),
    }

    // Mid-load snapshot over the separate connection: the spinner is
    // still in flight, the shed and the four served invokes are done.
    let snap = poll_until(|| {
        let snap = obs.stats().expect("stats");
        (snap.requests_of("invoke") == 5).then_some(snap)
    });
    assert_eq!(snap.workers, 3);
    assert_eq!(snap.shed_tenant_total, 1, "one Busy observed by the client");
    assert_eq!(snap.shed_queue_total, 0);
    assert_eq!(
        snap.latency.count, 5,
        "accept-to-respond histogram counts every finished invoke"
    );
    assert!(snap.latency.p50_ns > 0);
    assert!(snap.latency.p99_ns >= snap.latency.p50_ns);
    let u = snap.tenants.iter().find(|t| t.tenant == "u").expect("u");
    assert_eq!(u.requests_total, 4, "server agrees with the client's count");
    assert!(u.weighted_instructions_total > 0, "metered usage accrued");
    let t = snap.tenants.iter().find(|t| t.tenant == "t").expect("t");
    assert_eq!(t.shed_total, 1);
    assert_eq!(t.inflight, 1, "spinner still holds the tenant slot");

    // Flight recorder: every traced invoke's client-generated id shows
    // up in Recent, and the shed left a Shed record under tenant "t".
    let records = obs.recent(64).expect("recent");
    for id in &trace_ids {
        assert!(
            records
                .iter()
                .any(|r| r.trace_id == *id && r.outcome == RequestOutcome::Ok),
            "trace id {id:#018x} missing from the flight recorder"
        );
    }
    assert!(
        records
            .iter()
            .any(|r| r.kind == "invoke" && r.tenant == "t" && r.outcome == RequestOutcome::Shed),
        "tenant shed not recorded"
    );

    // The spinner dies at the deadline; the stats plane accounts it as
    // a timeout and the sixth finished invoke.
    match spinner.join().expect("spinner thread") {
        Err(NetError::Server(msg)) => {
            assert!(msg.contains("deadline"), "got {msg:?}")
        }
        other => panic!("expected server-side deadline error, got {other:?}"),
    }
    let snap2 = poll_until(|| {
        let s = obs.stats().expect("stats");
        (s.requests_of("invoke") == 6 && s.timeouts_total == 1).then_some(s)
    });
    assert!(snap2.uptime_ns >= snap.uptime_ns);
    assert!(snap2.errors_total >= 1, "the timeout answered with Error");

    // The health frame agrees the server is alive, not draining, and
    // speaking the current wire version.
    let health = obs.health().expect("health");
    assert!(health.healthy);
    assert!(!health.draining);
    assert_eq!(health.wire_version, acctee_net::wire::WIRE_VERSION);
    assert_eq!(health.workers, 3);

    shutdown(addr, handle);
}

#[test]
fn pipelined_invokes_answer_in_order_event_mode() {
    let (addr, handle) = spawn_server(cfg());
    let module = spin_module();
    let mut client = connect(addr);
    let dep = client.deploy(&module, Level::Naive).expect("deploy");

    // Sixteen invokes written back-to-back on the one attested
    // session: the server must answer every frame, in order, each with
    // its own verified signed log.
    let specs: Vec<InvokeSpec> = (0..16)
        .map(|i| InvokeSpec {
            func: "fast".into(),
            args: vec![Value::I32(i)],
            input: Vec::new(),
            tenant: "pipe".into(),
        })
        .collect();
    let outcomes = client.invoke_many(&dep, &specs).expect("pipelined batch");
    assert_eq!(outcomes.len(), 16);
    let mut last_session = 0;
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(
            out.results,
            vec![Value::I32(i as i32 + 1)],
            "response {i} out of order"
        );
        assert!(
            out.session_id > last_session,
            "session ids stay strictly monotonic within a pipeline"
        );
        last_session = out.session_id;
        assert!(out.log.log.weighted_instructions > 0);
    }

    // The connection is still usable after the batch, and the stats
    // plane counted each pipelined frame as a full request.
    let single = client
        .invoke(&dep, "fast", &[Value::I32(100)], b"", "pipe")
        .expect("invoke after batch");
    assert_eq!(single.results, vec![Value::I32(101)]);
    let mut obs = connect(addr);
    let snap = poll_until(|| {
        let s = obs.stats().expect("stats");
        (s.requests_of("invoke") == 17).then_some(s)
    });
    assert_eq!(snap.latency.count, 17);

    shutdown(addr, handle);
}

/// The shard-consistency property: a tenant's in-flight cap is
/// enforced across *connections* (hence across event loops),
/// because every connection's admission goes through the same tenant
/// shard.
#[test]
fn tenant_cap_holds_across_connections_event_mode() {
    let (addr, handle) = spawn_server(ServerConfig {
        seed: SEED,
        workers: 4,
        tenant_inflight: 2,
        request_deadline: Some(Duration::from_millis(1200)),
        ..ServerConfig::default()
    });
    let module = spin_module();

    // Two runaway invokes under tenant "h", each on its own
    // connection, fill both of the tenant's slots.
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn({
                let module = module.clone();
                move || {
                    let mut c =
                        Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT).expect("connect");
                    let dep = c.deploy(&module, Level::Naive).expect("deploy");
                    c.invoke(&dep, "inf", &[], b"", "h")
                }
            })
        })
        .collect();

    let mut obs = connect(addr);
    poll_until(|| {
        let snap = obs.stats().expect("stats");
        snap.tenants
            .iter()
            .any(|t| t.tenant == "h" && t.inflight == 2)
            .then_some(())
    });

    // A third connection for the same tenant is shed with Busy — the
    // cap binds across connections, and the stats plane never reports
    // more than two in flight.
    let mut prober = connect(addr);
    let dep = prober.deploy(&module, Level::Naive).expect("deploy");
    match prober.invoke(&dep, "fast", &[Value::I32(1)], b"", "h") {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy at the tenant cap, got {other:?}"),
    }
    let snap = obs.stats().expect("stats");
    let h = snap.tenants.iter().find(|t| t.tenant == "h").expect("h");
    assert!(h.inflight <= 2, "cap exceeded: {} in flight", h.inflight);
    assert_eq!(h.shed_total, 1);

    // Both runaways die at the deadline, freeing the slots.
    for s in spinners {
        match s.join().expect("spinner thread") {
            Err(NetError::Server(msg)) => {
                assert!(msg.contains("deadline"), "got {msg:?}")
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }
    let out = prober
        .invoke(&dep, "fast", &[Value::I32(41)], b"", "h")
        .expect("slots freed");
    assert_eq!(out.results, vec![Value::I32(42)]);

    shutdown(addr, handle);
}

/// Graceful drain must not wait for keep-alive clients to hang up: an
/// idle attested session is closed by the server, while the response
/// to the last served request still arrives intact.
#[test]
fn drain_completes_under_keep_alive_event_mode() {
    let (addr, handle) = spawn_server(cfg());
    let module = spin_module();
    let mut a = connect(addr);
    let dep = a.deploy(&module, Level::Naive).expect("deploy");
    let out = a
        .invoke(&dep, "fast", &[Value::I32(1)], b"", "t")
        .expect("invoke before drain");
    assert_eq!(out.results, vec![Value::I32(2)]);

    // `a` stays attached, idle, mid keep-alive session while a second
    // connection requests shutdown. The server must drain and exit
    // without waiting for `a` to hang up…
    connect(addr).shutdown().expect("shutdown accepted");
    handle
        .join()
        .expect("drained despite a live keep-alive session");

    // …after which the drained side has closed the session: the next
    // pipelined invoke fails with a transport error instead of
    // hanging.
    assert!(
        a.invoke(&dep, "fast", &[Value::I32(1)], b"", "t").is_err(),
        "invoke succeeded against a drained server"
    );
}

/// Admission control at the acceptor: a 1-loop, 1-slot server whose
/// only loop is held by a runaway invoke leaves the next connection
/// unadopted and sheds the one after it.
#[test]
fn full_admission_queue_sheds_at_accept() {
    use acctee_net::wire::{encode_request, read_response};
    use std::io::Write;

    let (addr, handle) = spawn_server(ServerConfig {
        seed: SEED,
        workers: 1,
        queue_depth: 1,
        request_deadline: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    });
    let mut a = connect(addr);
    let dep = a.deploy(&spin_module(), Level::Naive).expect("deploy");
    // S is adopted by the loop (its Health is answered)…
    let mut s = std::net::TcpStream::connect(addr).expect("raw connect s");
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(&encode_request(&Request::Health)).unwrap();
    assert!(matches!(
        read_response(&mut s),
        Ok(Response::HealthOk { .. })
    ));
    // …then its runaway invoke holds the only loop until the deadline.
    // Its bytes reach the server before B's handshake starts, so the
    // loop is running it, not adopting, when B is dispatched.
    let runaway = Request::Invoke {
        deploy_id: dep.deploy_id,
        func: "inf".into(),
        args: Vec::new(),
        input: Vec::new(),
        tenant: "t".into(),
        trace_id: 0,
    };
    s.write_all(&encode_request(&runaway)).unwrap();
    // B waits unadopted in the loop's inbox (backlog 1 = queue_depth).
    // The acceptor takes connections in order, so it sees B before C.
    let b = std::net::TcpStream::connect(addr).expect("raw connect b");
    // C finds the queue full: its attestation is answered Busy.
    match Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT) {
        Err(NetError::Busy) => {}
        other => panic!(
            "expected Busy from a full admission queue, got {:?}",
            other.map(|_| ())
        ),
    }
    match read_response(&mut s) {
        Ok(Response::Error { message }) => assert!(message.contains("deadline"), "{message}"),
        other => panic!("expected the runaway's deadline error, got {other:?}"),
    }

    // The loop is free again. The shed was recorded before Busy was
    // written, so A reads it now.
    let snap = a.stats().expect("stats");
    assert_eq!(snap.shed_queue_total, 1);
    assert_eq!(snap.workers_busy, 1, "the one loop, counted once");
    let records = a.recent(64).expect("recent");
    assert_eq!(
        records
            .iter()
            .filter(|r| r.kind == "accept" && r.outcome == RequestOutcome::Shed)
            .count(),
        1,
        "one accept-shed record in the flight recorder"
    );

    // Shutdown through A (a new connection could race B's adoption
    // for the one admission slot).
    a.shutdown().expect("shutdown accepted");
    handle.join().expect("server drains and exits");
    drop((b, s));
}

#[test]
fn wrong_seed_client_refuses_the_server() {
    let (addr, handle) = spawn_server(ServerConfig {
        seed: SEED,
        ..ServerConfig::default()
    });
    // A client anchored to a different root of trust must hard-fail
    // the handshake: the quote verifies under *its* authority or not
    // at all.
    match Client::connect(addr, TrustAnchor::new(SEED + 1), TIMEOUT) {
        Err(NetError::Verification(_)) => {}
        other => panic!("expected verification failure, got {:?}", other.map(|_| ())),
    }
    shutdown(addr, handle);
}
