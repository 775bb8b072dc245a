//! End-to-end tests of the durable control plane (`acctee-durable` +
//! `acctee-net`): a real server with a state directory, a faithful
//! kill-9 disk image taken *while the server is still running*, and
//! the recovery acceptance properties of DESIGN.md §15 —
//!
//! * every accounted (responded-to) pre-crash request is present
//!   exactly once in the replayed WAL and fetchable, verified, through
//!   the restarted server;
//! * per-tenant settlement totals equal the sum of the individually
//!   verified per-request invoices, with no truncation drift;
//! * no pre-crash session id is ever re-issued after restart;
//! * a torn final WAL frame, duplicated replayed frames, and a
//!   foreign-enclave snapshot are each handled the way the design
//!   says: truncate-and-recover, drop-exactly-once, refuse cleanly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use acctee::{Deployment, Level, ResourceUsageLog, SignedLog};
use acctee_durable::{
    Durable, DurableError, DurableOptions, FsyncPolicy, SnapshotStore, UsageRecord,
};
use acctee_interp::Value;
use acctee_net::{
    Client, DeployHandle, InvokeOutcome, InvokeSpec, NetError, Server, ServerConfig, TrustAnchor,
};
use acctee_sgx::crypto::sha256;
use acctee_sgx::{Measurement, Quote};
use acctee_wasm::builder::ModuleBuilder;
use acctee_wasm::encode::encode_module;
use acctee_wasm::types::ValType;
use acctee_wasm::BlockType;

const SEED: u64 = 0xd1ab10;
const TIMEOUT: Duration = Duration::from_secs(10);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acctee-durable-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies a state directory file-by-file. Taken while the source
/// server is still running this is a faithful kill-9 disk image: the
/// server never got a chance to run its drain-time checkpoint.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().filter_map(|e| e.ok()) {
        let name = entry.file_name();
        std::fs::copy(entry.path(), dst.join(name)).unwrap();
    }
}

fn durable_cfg(dir: &Path) -> ServerConfig {
    ServerConfig {
        seed: SEED,
        state_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, TrustAnchor::new(SEED), TIMEOUT).expect("connect + attest")
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    connect(addr).shutdown().expect("shutdown accepted");
    handle.join().expect("server drains and exits");
}

/// A module with real work so the accounted counters are non-trivial.
fn work_module() -> Vec<u8> {
    biased_work_module(0)
}

/// [`work_module`] with `bias` added to its result: a distinct module
/// (and cache key) per bias.
fn biased_work_module(bias: i32) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let f = b.func("run", &[ValType::I32], &[ValType::I32], |f| {
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
        if bias != 0 {
            f.i32_const(bias);
            f.i32_add();
        }
    });
    b.export_func("run", f);
    encode_module(&b.build())
}

/// The last WAL segment file in a state directory (highest sequence).
fn last_wal_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("a WAL segment exists")
}

// ------------------------------------------------- kill -9 recovery

/// The tentpole acceptance test. Server 1 serves deploy + invokes with
/// `--fsync always` — single calls and a pipelined window whose records
/// share group commits; its state directory is copied while it is still
/// running (the disk image a `kill -9` would leave); server 2 starts
/// on the image and must recover everything it acknowledged.
#[test]
fn kill9_image_recovers_every_acknowledged_request_exactly_once() {
    let live = tmpdir("kill9-live");
    let image = tmpdir("kill9-image");

    let (addr, handle) = Server::bind("127.0.0.1:0", durable_cfg(&live))
        .expect("bind")
        .spawn();
    let mut client = connect(addr);
    let deployed = client
        .deploy(&work_module(), Level::LoopBased)
        .expect("deploy");

    // Two tenants, interleaved, with varying work so invoices differ.
    let mut pre_crash: Vec<(u64, String, SignedLog, u128)> = Vec::new();
    for i in 0..6u64 {
        let tenant = if i % 2 == 0 { "alice" } else { "bob" };
        let outcome = client
            .invoke(
                &deployed,
                "run",
                &[Value::I32(100 + i as i32 * 37)],
                b"in",
                tenant,
            )
            .expect("attested invoke");
        pre_crash.push((
            outcome.session_id,
            tenant.to_string(),
            outcome.log.clone(),
            outcome.invoice_total,
        ));
    }

    // A pipelined window: its records share WAL commits (one per
    // server read), and each response still waits for the commit that
    // covers its record.
    let window: Vec<InvokeSpec> = (0..8)
        .map(|i| InvokeSpec {
            func: "run".into(),
            args: vec![Value::I32(20 + i * 11)],
            input: b"pipelined".to_vec(),
            tenant: if i % 2 == 0 { "alice" } else { "bob" }.into(),
        })
        .collect();
    let acked = client
        .invoke_pipelined(&deployed, &window, 1)
        .expect("pipelined window");
    for (spec, outcome) in window.iter().zip(acked) {
        let outcome = outcome.expect("attested pipelined invoke");
        pre_crash.push((
            outcome.session_id,
            spec.tenant.clone(),
            outcome.log,
            outcome.invoice_total,
        ));
    }

    // Deploys after the last checkpoint (the first invoke's lease
    // extension) exist only in the deploy log.
    let late: Vec<_> = (0..3)
        .map(|_| {
            client
                .deploy(&work_module(), Level::LoopBased)
                .expect("late deploy")
        })
        .collect();

    // The kill-9 moment: image the state directory while the server is
    // still up. Under `always` every acknowledged record is already on
    // disk, and no drain-time checkpoint has run.
    copy_dir(&live, &image);
    shutdown(addr, handle);
    let dep = Deployment::new(SEED);
    let sealed = SnapshotStore::open(&image)
        .unwrap()
        .load(dep.infrastructure().accounting_enclave())
        .unwrap()
        .expect("the lease extension sealed a checkpoint");
    assert!(sealed.deployments.is_empty());
    assert!(sealed.next_deploy <= late[0].deploy_id);

    // Restart on the image.
    let (addr2, handle2) = Server::bind("127.0.0.1:0", durable_cfg(&image))
        .expect("recover from kill-9 image")
        .spawn();
    let mut client2 = connect(addr2);

    // Every pre-crash session is fetchable through the WAL fallback
    // (the in-memory ring died with server 1) and verifies against the
    // same trust anchor, byte-identical to what server 1 returned.
    for (session_id, _, log, _) in &pre_crash {
        let fetched = client2
            .fetch_log(*session_id)
            .expect("WAL fallback serves it");
        assert_eq!(
            &fetched, log,
            "session {session_id} changed across the crash"
        );
    }

    // The pre-crash deployment survived sealing: the old deploy id
    // still serves invokes, and the new session id is strictly greater
    // than every pre-crash id (ids are never re-issued).
    let outcome = client2
        .invoke(&deployed, "run", &[Value::I32(50)], b"", "alice")
        .expect("pre-crash deploy id still serves");
    let max_pre_crash = pre_crash.iter().map(|(id, ..)| *id).max().unwrap();
    assert!(
        outcome.session_id > max_pre_crash,
        "session id {} re-entered pre-crash range (max {max_pre_crash})",
        outcome.session_id
    );
    // So did every deploy the checkpoint never saw.
    for handle in &late {
        client2
            .invoke(handle, "run", &[Value::I32(7)], b"", "bob")
            .expect("deploy-log-only deployment serves");
    }
    shutdown(addr2, handle2);

    // Offline audit of the image: exactly the acknowledged records,
    // each exactly once, and settlement equals the sum of individually
    // verified invoices with no truncation drift.
    let infra = dep.infrastructure();
    let (durable, recovery) = Durable::open(
        &image,
        DurableOptions::default(),
        infra.accounting_enclave(),
        infra.pricing,
    )
    .expect("offline open of the image");
    // (The image was audited after server 2 also ran, so it includes
    // server 2's post-crash invokes too.) The 6 single invokes and the
    // 8 pipelined ones are all acknowledged pre-crash records.
    assert_eq!(pre_crash.len(), 6 + 8);
    assert_eq!(recovery.records_replayed, pre_crash.len() + 1 + late.len());
    assert_eq!(recovery.deployments.len(), 1 + late.len());
    assert_eq!(recovery.duplicates_dropped, 0);

    let records = durable.read_all_records().expect("read back");
    let mut seen = std::collections::HashSet::new();
    let mut invoice_sums: BTreeMap<String, u128> = BTreeMap::new();
    for rec in &records {
        assert!(
            seen.insert(rec.signed.log.session_id),
            "session {} replayed twice",
            rec.signed.log.session_id
        );
        dep.workload_provider()
            .verify_log(&rec.signed)
            .expect("every stored log verifies");
        *invoice_sums.entry(rec.tenant.clone()).or_default() +=
            infra.pricing.invoice(&rec.signed.log).total();
    }
    for (session_id, tenant, _, invoice_total) in &pre_crash {
        let rec = records
            .iter()
            .find(|r| r.signed.log.session_id == *session_id)
            .expect("acknowledged request present");
        assert_eq!(&rec.tenant, tenant);
        assert_eq!(
            infra.pricing.invoice(&rec.signed.log).total(),
            *invoice_total,
            "re-priced invoice drifted from what the client was billed"
        );
    }
    let settlements = durable
        .settlements(infra.accounting_enclave())
        .expect("signed settlements");
    assert_eq!(settlements.len(), 2, "alice and bob");
    for signed in &settlements {
        signed
            .verify(&dep.authority, infra.accounting_enclave().measurement())
            .expect("settlement signature verifies");
        assert_eq!(
            signed.statement.total_nano(),
            invoice_sums[&signed.statement.tenant],
            "settlement drifted from summed invoices for {}",
            signed.statement.tenant
        );
    }

    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&image).unwrap();
}

/// A crash can tear the final WAL frame mid-write. The torn record was
/// never acknowledged, so recovery truncates it and serves everything
/// before it.
#[test]
fn torn_final_frame_recovers_the_acknowledged_prefix() {
    let live = tmpdir("torn-live");
    let image = tmpdir("torn-image");

    let (addr, handle) = Server::bind("127.0.0.1:0", durable_cfg(&live))
        .expect("bind")
        .spawn();
    let mut client = connect(addr);
    let deployed = client
        .deploy(&work_module(), Level::LoopBased)
        .expect("deploy");
    let mut sessions = Vec::new();
    for i in 0..4u64 {
        let outcome = client
            .invoke(&deployed, "run", &[Value::I32(64 + i as i32)], b"", "carol")
            .expect("invoke");
        sessions.push((outcome.session_id, outcome.log.clone()));
    }
    copy_dir(&live, &image);
    shutdown(addr, handle);

    // Tear the final frame: chop 3 bytes off the last segment, leaving
    // a frame whose payload is shorter than its header claims.
    let seg = last_wal_segment(&image);
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
    let (torn_session, _) = sessions.pop().unwrap();

    let (addr2, handle2) = Server::bind("127.0.0.1:0", durable_cfg(&image))
        .expect("torn tail must not prevent recovery")
        .spawn();
    let mut client2 = connect(addr2);
    for (session_id, log) in &sessions {
        let fetched = client2
            .fetch_log(*session_id)
            .expect("intact prefix serves");
        assert_eq!(&fetched, log);
    }
    // The torn session is gone — and reported as such, not mis-served.
    assert!(client2.fetch_log(torn_session).is_err());
    // New ids still climb past the pre-crash range (lease, not WAL,
    // carries the high-water mark).
    let outcome = client2
        .invoke(&deployed, "run", &[Value::I32(5)], b"", "carol")
        .expect("serving continues");
    assert!(outcome.session_id > torn_session);
    shutdown(addr2, handle2);

    std::fs::remove_dir_all(&live).unwrap();
    std::fs::remove_dir_all(&image).unwrap();
}

// ----------------------------------------- replay edge cases (direct)

fn sample_record(session: u64, tenant: &str) -> UsageRecord {
    UsageRecord {
        tenant: tenant.to_string(),
        signed: SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: 10 * session,
                peak_memory_bytes: 4096,
                memory_integral: u128::from(session) << 16,
                io_bytes_in: 1,
                io_bytes_out: 1,
                module_hash: sha256(b"m"),
                session_id: session,
            },
            quote: Quote {
                mrenclave: Measurement(sha256(b"ae")),
                report_data: [3u8; 64],
                platform: "ae-host".into(),
                signature: sha256(b"sig"),
            },
        },
    }
}

/// A crashed compaction can leave a record's frame twice on disk.
/// Replay must fold it exactly once — billing a request twice is as
/// wrong as dropping it.
#[test]
fn duplicated_frames_are_folded_exactly_once() {
    let dir = tmpdir("dup-fold");
    let dep = Deployment::new(SEED);
    let infra = dep.infrastructure();
    let ae = infra.accounting_enclave();
    {
        let (durable, _) =
            Durable::open(&dir, DurableOptions::default(), ae, infra.pricing).unwrap();
        for s in 1..=3 {
            durable
                .append_usage("dave", &sample_record(s, "dave").signed, ae)
                .unwrap();
        }
    }
    // Double every frame in the (single) WAL segment, as an interrupted
    // compaction merge might: 6 frames on disk, 3 unique sessions.
    let seg = last_wal_segment(&dir);
    let bytes = std::fs::read(&seg).unwrap();
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes[6..]); // skip the segment header
    std::fs::write(&seg, &doubled).unwrap();

    let (durable, recovery) =
        Durable::open(&dir, DurableOptions::default(), ae, infra.pricing).unwrap();
    assert_eq!(recovery.records_replayed, 3);
    assert_eq!(recovery.duplicates_dropped, 3);
    // Folded once: the rollup counts 3 requests, not 6.
    assert_eq!(durable.rollups()["dave"].requests, 3);
    // And a live duplicate append is still refused.
    assert!(matches!(
        durable.append_usage("dave", &sample_record(2, "dave").signed, ae),
        Err(DurableError::DuplicateSession(2))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A state directory sealed under one seed must be refused — with a
/// clean error naming the problem, never a panic or silent reset —
/// when opened under another.
#[test]
fn foreign_enclave_snapshot_is_refused_with_a_clean_error() {
    let dir = tmpdir("foreign");
    {
        let dep = Deployment::new(SEED);
        let infra = dep.infrastructure();
        let (durable, _) = Durable::open(
            &dir,
            DurableOptions::default(),
            infra.accounting_enclave(),
            infra.pricing,
        )
        .unwrap();
        durable.checkpoint(infra.accounting_enclave()).unwrap();
    }
    let other = Deployment::new(SEED + 1);
    let infra = other.infrastructure();
    let err = Durable::open(
        &dir,
        DurableOptions::default(),
        infra.accounting_enclave(),
        infra.pricing,
    )
    .expect_err("foreign snapshot must not open");
    assert!(matches!(err, DurableError::ForeignSnapshot(_)), "{err}");
    assert!(
        err.to_string().contains("different enclave"),
        "error should explain the mismatch: {err}"
    );

    // The server surfaces the same failure as a bind error, not a
    // panic.
    let bad = ServerConfig {
        seed: SEED + 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    assert!(Server::bind("127.0.0.1:0", bad).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A clean drain checkpoints, so a `--fsync never` server still loses
/// nothing across a graceful restart (the policy only widens the
/// window a *crash* can lose).
#[test]
fn graceful_drain_checkpoints_even_without_fsync() {
    let dir = tmpdir("drain");
    let cfg = ServerConfig {
        seed: SEED,
        state_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::bind("127.0.0.1:0", cfg.clone())
        .expect("bind")
        .spawn();
    let mut client = connect(addr);
    let deployed = client
        .deploy(&work_module(), Level::LoopBased)
        .expect("deploy");
    let outcome = client
        .invoke(&deployed, "run", &[Value::I32(10)], b"", "erin")
        .expect("invoke");
    shutdown(addr, handle);

    let (addr2, handle2) = Server::bind("127.0.0.1:0", cfg).expect("reopen").spawn();
    let mut client2 = connect(addr2);
    let fetched = client2
        .fetch_log(outcome.session_id)
        .expect("drained state recovered");
    assert_eq!(fetched, outcome.log);
    shutdown(addr2, handle2);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------- lazy rehydration

/// A restart instruments no logged module until that module is
/// invoked: right after the rebind the artifact cache has seen no
/// miss, each deployment's first invoke adds exactly one (two
/// connections racing one id share it), and every rehydrated
/// deployment answers and accounts exactly as before the restart.
#[test]
fn restart_rehydrates_each_deployment_on_its_first_invoke() {
    let dir = tmpdir("lazy");
    let levels = [
        Level::Naive,
        Level::FlowBased,
        Level::LoopBased,
        Level::Naive,
        Level::LoopBased,
    ];
    let args = [Value::I32(40)];
    let (addr, handle) = Server::bind("127.0.0.1:0", durable_cfg(&dir))
        .expect("bind")
        .spawn();
    let mut client = connect(addr);
    let before: Vec<_> = levels
        .iter()
        .enumerate()
        .map(|(bias, &level)| {
            let deployed = client
                .deploy(&biased_work_module(bias as i32), level)
                .expect("deploy");
            let outcome = client
                .invoke(&deployed, "run", &args, b"", "gina")
                .expect("invoke");
            (deployed, outcome)
        })
        .collect();
    shutdown(addr, handle);

    let (addr, handle) = Server::bind("127.0.0.1:0", durable_cfg(&dir))
        .expect("rebind")
        .spawn();
    let mut client = connect(addr);
    let misses = |client: &mut Client| client.stats().expect("stats").instr_cache.misses;
    assert_eq!(misses(&mut client), 0, "bind instrumented a logged module");
    let same_as_before = |after: &InvokeOutcome, before: &InvokeOutcome| {
        assert_eq!(after.results, before.results);
        assert_eq!(
            after.log.log.weighted_instructions,
            before.log.log.weighted_instructions
        );
    };

    // Two connections race the first invoke of one rehydrated id.
    let (raced, raced_before) = &before[0];
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut racer = connect(addr);
                    start.wait();
                    racer
                        .invoke(raced, "run", &args, b"", "gina")
                        .expect("raced first invoke")
                })
            })
            .collect();
        for racer in racers {
            same_as_before(&racer.join().expect("racer"), raced_before);
        }
    });
    assert_eq!(misses(&mut client), 1, "a raced rehydration loaded twice");

    for (k, (deployed, outcome)) in before.iter().enumerate().skip(1) {
        let after = client
            .invoke(deployed, "run", &args, b"", "gina")
            .expect("first invoke after restart");
        same_as_before(&after, outcome);
        assert_eq!(misses(&mut client), 1 + k as u64);
    }
    shutdown(addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `tests/golden/state_registry_v1/` logs deploys 1 and 2 under seed
/// `0x901d` with module bytes that are not valid wasm. The server still
/// binds on it; each of those ids fails only its own invokes, naming
/// the id, with the load error cached rather than retried, and a fresh
/// deployment on the same server serves verified invokes.
#[test]
fn a_logged_module_that_no_longer_loads_fails_only_its_own_invokes() {
    const GOLDEN_SEED: u64 = 0x901d;
    let dir = tmpdir("unloadable");
    copy_dir(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/state_registry_v1"),
        &dir,
    );
    let cfg = ServerConfig {
        seed: GOLDEN_SEED,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::bind("127.0.0.1:0", cfg)
        .expect("an unloadable logged module must not stop bind")
        .spawn();
    let mut client =
        Client::connect(addr, TrustAnchor::new(GOLDEN_SEED), TIMEOUT).expect("connect + attest");
    let fresh = client
        .deploy(&work_module(), Level::LoopBased)
        .expect("fresh deploy");
    assert_eq!(fresh.deploy_id, 3, "ids resume past the logged deployments");

    let logged = DeployHandle {
        deploy_id: 1,
        ..fresh.clone()
    };
    let mut misses = Vec::new();
    for _ in 0..2 {
        match client.invoke(&logged, "run", &[Value::I32(3)], b"", "hana") {
            Err(NetError::Server(message)) => {
                assert!(message.contains("deploy id 1"), "{message}");
            }
            other => panic!("an unloadable deployment must answer an error: {other:?}"),
        }
        misses.push(client.stats().expect("stats").instr_cache.misses);
    }
    assert_eq!(misses[0], misses[1], "a failed rehydration was retried");

    let outcome = client
        .invoke(&fresh, "run", &[Value::I32(3)], b"", "hana")
        .expect("fresh invoke verified");
    assert_eq!(outcome.results, vec![Value::I32(6)]);
    client.shutdown().expect("shutdown accepted");
    handle.join().expect("server drains and exits");
    std::fs::remove_dir_all(&dir).unwrap();
}
