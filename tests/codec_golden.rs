//! Golden bytes for every persisted and transmitted encoding of the
//! signed usage log, and a committed state directory that must keep
//! replaying.
//!
//! The files under `tests/golden/` were written once and are never
//! regenerated: a refactor of the codecs or of the framed logs must
//! reproduce them byte for byte, and the state directory in
//! `tests/golden/state/` (a two-segment WAL plus a fleet journal) must
//! replay to exactly the records and events that produced it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use acctee::{Deployment, InstrumentationEvidence, Level, ResourceUsageLog, SignedLog};
use acctee_durable::{
    encode_record, DeployRecord, Durable, DurableOptions, FsyncPolicy, RegistryState,
    SnapshotStore, TenantRollup, UsageRecord, Wal, DEPLOY_LOG_FILE,
};
use acctee_fleet::journal::JournalSubmission;
use acctee_fleet::{Journal, UnitSpec, WorkloadKind};
use acctee_interp::Value;
use acctee_net::wire::{encode_response, Response};
use acctee_sgx::crypto::sha256;
use acctee_sgx::{Measurement, Quote};

/// Segment size that puts the golden WAL's three records on two
/// segments.
const GOLDEN_SEGMENT_BYTES: u64 = 600;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(golden_dir().join(name)).unwrap_or_else(|e| panic!("golden file {name}: {e}"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acctee-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quote(tag: &[u8]) -> Quote {
    Quote {
        mrenclave: Measurement(sha256(tag)),
        report_data: std::array::from_fn(|i| i as u8 ^ 0x5a),
        platform: "ae-host-golden".into(),
        signature: sha256(b"golden-signature"),
    }
}

fn signed_log(session: u64) -> SignedLog {
    SignedLog {
        log: ResourceUsageLog {
            weighted_instructions: 0x0123_4567_89ab_cdef ^ session,
            peak_memory_bytes: 3 << 16,
            memory_integral: (0xfeed_u128 << 80) | u128::from(session),
            io_bytes_in: 17 + session,
            io_bytes_out: 4242,
            module_hash: sha256(b"golden-module"),
            session_id: session,
        },
        quote: quote(b"golden-ae"),
    }
}

fn record(session: u64) -> UsageRecord {
    UsageRecord {
        tenant: format!("tenant-{}", session % 2),
        signed: signed_log(session),
    }
}

fn spec(id: u64) -> UnitSpec {
    UnitSpec {
        id,
        kind: if id.is_multiple_of(2) {
            WorkloadKind::SubsetSum
        } else {
            WorkloadKind::Msieve
        },
        count: 5 + id as u32,
        seed: 1000 + id,
    }
}

fn registry_state() -> RegistryState {
    let mut rollups = BTreeMap::new();
    rollups.insert(
        "tenant-0".to_string(),
        TenantRollup {
            requests: 2,
            weighted_instructions: 1 << 66,
            peak_memory_max: 3 << 16,
            memory_integral: (1 << 81) + 5,
            io_bytes: 9000,
            compute_nano: 11,
            memory_nano: 12,
            io_nano: 13,
            integral_remainder: 14,
        },
    );
    RegistryState {
        next_deploy: 3,
        session_lease: 4096,
        wal_watermark: 2,
        deployments: vec![
            DeployRecord {
                deploy_id: 1,
                level: Level::Naive,
                module: b"\0asm golden one".to_vec(),
            },
            DeployRecord {
                deploy_id: 2,
                level: Level::FlowBased,
                module: b"\0asm golden two".to_vec(),
            },
        ],
        rollups,
    }
}

/// Appends one event of each of the six kinds.
fn write_every_event(j: &mut Journal) {
    j.unit_added(&spec(0), 750).unwrap();
    j.check_scheduled(0).unwrap();
    j.submission(0, "node-golden", -77, &record(40)).unwrap();
    j.unit_done(0, &[40]).unwrap();
    j.quarantine("node-rogue", "counter mismatch").unwrap();
    j.session_lease(2048).unwrap();
}

#[test]
fn usage_record_bytes_are_pinned() {
    assert_eq!(encode_record(&record(7)), golden("usage_record.bin"));
}

#[test]
fn invoke_ok_frame_bytes_are_pinned() {
    let frame = encode_response(&Response::InvokeOk {
        session_id: 9,
        results: vec![
            Value::I32(-1),
            Value::I64(i64::MIN),
            Value::F32(f32::from_bits(0x7fc0_0001)),
            Value::F64(-0.0),
        ],
        output: b"golden output".to_vec(),
        log: signed_log(9),
        invoice_total: (7u128 << 70) + 3,
    });
    assert_eq!(frame, golden("invoke_ok.frame"));
}

#[test]
fn deploy_ok_frame_bytes_are_pinned() {
    let frame = encode_response(&Response::DeployOk {
        deploy_id: 5,
        module: b"\0asm instrumented golden".to_vec(),
        evidence: InstrumentationEvidence {
            original_hash: sha256(b"original"),
            instrumented_hash: sha256(b"instrumented"),
            level: Level::LoopBased,
            weight_hash: sha256(b"weights"),
            counter_global: 3,
            quote: quote(b"golden-ie"),
        },
    });
    assert_eq!(frame, golden("deploy_ok.frame"));
}

#[test]
fn journal_frames_of_every_event_kind_are_pinned() {
    let dir = tmpdir("events");
    {
        let (mut j, _) = Journal::open(&dir).unwrap();
        write_every_event(&mut j);
    }
    assert_eq!(
        std::fs::read(dir.join("fleet.log")).unwrap(),
        golden("fleet_events.log")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sealed_registry_state_bytes_are_pinned() {
    let dir = tmpdir("seal");
    let dep = Deployment::new(0x901d);
    let ae = dep.infrastructure().accounting_enclave();
    let mut store = SnapshotStore::open(&dir).unwrap();
    store.save(ae, &registry_state()).unwrap();
    assert_eq!(
        std::fs::read(dir.join("registry-00000001.seal")).unwrap(),
        golden("registry.seal")
    );
    // The pinned blob also still loads to the state that sealed it.
    let reload = tmpdir("seal-reload");
    std::fs::write(
        reload.join("registry-00000001.seal"),
        golden("registry.seal"),
    )
    .unwrap();
    let back = SnapshotStore::open(&reload).unwrap().load(ae).unwrap();
    assert_eq!(back, Some(registry_state()));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reload).unwrap();
}

#[test]
fn deploy_log_frame_bytes_are_pinned() {
    // One checkpoint makes the epoch 1; deploy id 7 is sealed under it.
    let dir = tmpdir("deploy-log");
    let dep = Deployment::new(0x901d);
    let infra = dep.infrastructure();
    let ae = infra.accounting_enclave();
    let open = |dir: &Path| Durable::open(dir, DurableOptions::default(), ae, infra.pricing);
    let (durable, _) = open(&dir).unwrap();
    durable.checkpoint(ae).unwrap();
    let deploy = golden_deploy(7);
    durable
        .record_deploy(deploy.deploy_id, deploy.level, deploy.module.clone(), ae)
        .unwrap();
    drop(durable);
    let log = std::fs::read(dir.join(DEPLOY_LOG_FILE)).unwrap();
    assert_eq!(log, golden("deploys.log"));
    // The pinned frame also still opens to the deployment it sealed.
    let reload = tmpdir("deploy-log-reload");
    std::fs::write(reload.join(DEPLOY_LOG_FILE), golden("deploys.log")).unwrap();
    let (_, rec) = open(&reload).unwrap();
    assert_eq!(rec.deployments, vec![deploy]);
    assert_eq!(rec.next_deploy, 8);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reload).unwrap();
}

#[test]
fn committed_state_dir_replays_unchanged() {
    // Replay on a copy: opening truncates and may rewrite files.
    let dir = tmpdir("state");
    for entry in std::fs::read_dir(golden_dir().join("state")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }

    let (wal, replay) = Wal::open(&dir, FsyncPolicy::Always, GOLDEN_SEGMENT_BYTES).unwrap();
    assert_eq!(replay.records, (1..=3).map(record).collect::<Vec<_>>());
    assert_eq!(replay.duplicates_dropped, 0);
    assert_eq!(replay.torn_bytes_discarded, 0);
    assert_eq!(wal.segment_count(), 2);
    assert_eq!(wal.max_session(), 3);
    assert_eq!(wal.get(2).unwrap(), Some(record(2)));
    drop(wal);

    let (_, replay) = Journal::open(&dir).unwrap();
    assert_eq!(replay.units.len(), 2);
    let (u0, u1) = (&replay.units[0], &replay.units[1]);
    assert_eq!((u0.spec, u0.deadline_ms, u0.checks), (spec(0), 750, 1));
    assert_eq!(
        u0.submissions,
        vec![
            JournalSubmission {
                worker: "node-golden".into(),
                result: -77,
                record: record(40),
            },
            JournalSubmission {
                worker: "node-other".into(),
                result: -77,
                record: record(41),
            },
        ]
    );
    assert_eq!(u0.done, Some(vec![40, 41]));
    assert_eq!((u1.spec, u1.deadline_ms, u1.checks), (spec(1), 900, 0));
    assert!(u1.submissions.is_empty());
    assert_eq!(u1.done, None);
    assert_eq!(replay.quarantined.len(), 1);
    assert_eq!(
        replay.quarantined.get("node-rogue").map(String::as_str),
        Some("counter mismatch")
    );
    assert_eq!(replay.session_floor, 2048);
    assert_eq!(replay.torn_bytes_discarded, 0);
    assert_eq!(replay.duplicate_submissions_dropped, 0);
    assert_eq!(replay.duplicate_done_dropped, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn golden_deploy(deploy_id: u64) -> DeployRecord {
    let (level, module): (Level, &[u8]) = match deploy_id {
        1 => (Level::Naive, b"\0asm golden one"),
        2 => (Level::FlowBased, b"\0asm golden two"),
        _ => (Level::LoopBased, b"\0asm golden three"),
    };
    DeployRecord {
        deploy_id,
        level,
        module: module.to_vec(),
    }
}

/// `tests/golden/state_registry_v1/` is a state directory written
/// under seed `0x901d` by the registry that sealed every deployment
/// into each snapshot: deploys 1 and 2 (`golden_deploy`), usage
/// records 1 and 2 on the WAL, then a checkpoint. It must keep
/// opening with both deployments byte for byte, and a later deploy
/// plus a checkpoint must lose none of them.
#[test]
fn registry_v1_state_dir_rehydrates_its_deployments() {
    let dir = tmpdir("registry-v1");
    for entry in std::fs::read_dir(golden_dir().join("state_registry_v1")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let dep = Deployment::new(0x901d);
    let infra = dep.infrastructure();
    let ae = infra.accounting_enclave();
    let open = || Durable::open(&dir, DurableOptions::default(), ae, infra.pricing).unwrap();

    let (durable, rec) = open();
    assert!(rec.snapshot_restored);
    assert_eq!(rec.deployments, vec![golden_deploy(1), golden_deploy(2)]);
    assert_eq!(rec.next_deploy, 3);
    assert_eq!(rec.records_replayed, 2);
    assert_eq!(
        durable.read_all_records().unwrap(),
        vec![record(1), record(2)]
    );
    let deploy = golden_deploy(3);
    durable
        .record_deploy(deploy.deploy_id, deploy.level, deploy.module, ae)
        .unwrap();
    durable.checkpoint(ae).unwrap();
    drop(durable);

    let (_, rec) = open();
    assert_eq!(
        rec.deployments,
        (1..=3).map(golden_deploy).collect::<Vec<_>>()
    );
    assert_eq!(rec.next_deploy, 4);
    assert_eq!(rec.records_replayed, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
