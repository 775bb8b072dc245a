//! End-to-end fleet coordination: attested membership, redundant
//! spot checks, cheater quarantine, deadline-driven re-dispatch, and
//! crash-resume without lost or double-credited units.
//!
//! Workers run as threads against a real TCP coordinator — the same
//! wire path the multi-process bench uses, minus the process spawn.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use acctee::{Deployment, SignedLog};
use acctee_fleet::{
    reconcile, run_worker, Behavior, Coordinator, CoordinatorHandle, FleetConfig, Journal,
    ReconcileConfig, UnitSpec, WorkerConfig, WorkerExit, WorkloadKind,
};
use acctee_interp::Value;
use acctee_net::wire::{self, FleetAck, FleetSubmission};
use acctee_net::{Request, Response};

const SEED: u64 = 0xacc7ee;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acctee-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> FleetConfig {
    FleetConfig {
        seed: SEED,
        state_dir: tmpdir(tag),
        deadline_ms: 10_000,
        ..FleetConfig::default()
    }
}

fn spawn_coordinator(cfg: FleetConfig, specs: &[UnitSpec]) -> CoordinatorHandle {
    let c = Coordinator::open("127.0.0.1:0", cfg, specs).unwrap();
    let (_, handle) = c.spawn().unwrap();
    handle
}

fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
    behavior: Behavior,
) -> std::thread::JoinHandle<acctee_fleet::WorkerSummary> {
    let name = name.to_string();
    std::thread::spawn(move || {
        let cfg = WorkerConfig {
            behavior,
            ..WorkerConfig::new(&name, SEED)
        };
        run_worker(&addr.to_string(), &cfg).unwrap()
    })
}

#[test]
fn honest_fleet_produces_bit_identical_redundant_counters() {
    // Redundancy 1.0: every unit runs on two distinct nodes, and the
    // campaign only completes because each pair's signed counters and
    // results agree bit-for-bit.
    let cfg = FleetConfig {
        redundancy: 1.0,
        probation_checks: 0,
        ..config("honest")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(8, WorkloadKind::SubsetSum, 8, 1000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    let workers: Vec<_> = (0..3)
        .map(|i| spawn_worker(addr, &format!("node-{i}"), Behavior::Honest))
        .collect();
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    let report = handle.report();
    assert_eq!(report.completed, 8);
    assert_eq!(report.checks_scheduled, 8);
    assert_eq!(report.checks_mismatched, 0);
    assert_eq!(report.rejected, 0);
    assert!(report.workers.iter().all(|w| !w.quarantined));
    for w in workers {
        let summary = w.join().unwrap();
        assert_eq!(summary.exit, WorkerExit::CampaignDone);
    }
    handle.stop();
    // Audit the journal directly: every completed unit credited two
    // submissions from two distinct workers with identical counters.
    let (_, replay) = Journal::open(&state_dir).unwrap();
    for u in &replay.units {
        let credited = u.done.as_ref().unwrap();
        assert!(credited.len() >= 2, "unit {} under-replicated", u.spec.id);
        let subs: Vec<_> = u
            .submissions
            .iter()
            .filter(|s| credited.contains(&s.record.signed.log.session_id))
            .collect();
        let names: std::collections::HashSet<_> = subs.iter().map(|s| &s.worker).collect();
        assert!(
            names.len() >= 2,
            "unit {} replicated on one node",
            u.spec.id
        );
        for pair in subs.windows(2) {
            assert_eq!(pair[0].result, pair[1].result);
            assert_eq!(
                pair[0].record.signed.log.weighted_instructions,
                pair[1].record.signed.log.weighted_instructions
            );
            assert_eq!(
                pair[0].record.signed.log.memory_integral,
                pair[1].record.signed.log.memory_integral
            );
        }
        // And the agreed result is actually the right answer.
        assert_eq!(subs[0].result, u.spec.expected_result());
    }
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn result_flipping_cheater_is_detected_quarantined_and_unpaid() {
    // The cheater executes genuinely (its signed log verifies) but
    // flips the result — the one attack only redundant execution can
    // catch, since results are not bound into the log.
    let cfg = FleetConfig {
        redundancy: 1.0,
        probation_checks: 1,
        ..config("cheater")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(8, WorkloadKind::SubsetSum, 8, 2000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    let honest: Vec<_> = (0..2)
        .map(|i| spawn_worker(addr, &format!("honest-{i}"), Behavior::Honest))
        .collect();
    let cheat = spawn_worker(addr, "cheat", Behavior::FlipResult);
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    let report = handle.report();
    assert_eq!(report.completed, 8);
    assert!(report.checks_mismatched >= 1, "no mismatch ever detected");
    let row = report.workers.iter().find(|w| w.name == "cheat").unwrap();
    assert!(row.quarantined, "cheater not quarantined");
    assert!(report
        .workers
        .iter()
        .filter(|w| w.name != "cheat")
        .all(|w| !w.quarantined));
    // Reimbursement: the cheater's statement is attested and zero.
    let statements = handle.reconcile(&ReconcileConfig::default()).unwrap();
    let cheat_stmt = statements
        .iter()
        .find(|s| s.statement.worker == "cheat")
        .unwrap();
    assert_eq!(cheat_stmt.statement.paid_nano, 0);
    assert_eq!(cheat_stmt.statement.units_credited, 0);
    assert!(statements
        .iter()
        .filter(|s| s.statement.worker != "cheat")
        .all(|s| s.statement.paid_nano > 0));
    for h in honest {
        assert_eq!(h.join().unwrap().exit, WorkerExit::CampaignDone);
    }
    let summary = cheat.join().unwrap();
    assert!(matches!(summary.exit, WorkerExit::Quarantined(_)));
    handle.stop();
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn log_inflating_cheater_is_rejected_by_verification_alone() {
    // Inflating the counters breaks the quote binding — attestation
    // catches it on first contact, no redundancy needed.
    let cfg = FleetConfig {
        redundancy: 0.0,
        probation_checks: 0,
        ..config("inflate")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(6, WorkloadKind::SubsetSum, 8, 3000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    let honest = spawn_worker(addr, "honest", Behavior::Honest);
    let cheat = spawn_worker(addr, "inflate", Behavior::InflateWic);
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    let report = handle.report();
    assert_eq!(report.completed, 6);
    assert!(report.rejected >= 1);
    let row = report.workers.iter().find(|w| w.name == "inflate").unwrap();
    assert!(row.quarantined);
    assert_eq!(honest.join().unwrap().exit, WorkerExit::CampaignDone);
    let summary = cheat.join().unwrap();
    assert!(summary.rejected >= 1 || matches!(summary.exit, WorkerExit::Quarantined(_)));
    handle.stop();
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn rogue_enclave_never_joins() {
    let cfg = FleetConfig {
        probation_checks: 0,
        ..config("rogue")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(2, WorkloadKind::SubsetSum, 6, 4000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    let rogue = spawn_worker(addr, "rogue", Behavior::RogueEnclave);
    let summary = rogue.join().unwrap();
    assert!(
        matches!(&summary.exit, WorkerExit::Rejected(r) if r.contains("quote")),
        "rogue exit: {:?}",
        summary.exit
    );
    assert_eq!(summary.completed, 0);
    // The rogue never became a member at all.
    assert!(handle.report().workers.is_empty());
    let honest = spawn_worker(addr, "honest", Behavior::Honest);
    assert!(handle.wait_done(Duration::from_secs(60)));
    assert_eq!(honest.join().unwrap().exit, WorkerExit::CampaignDone);
    handle.stop();
    std::fs::remove_dir_all(&state_dir).unwrap();
}

/// The volunteer-computing claim of §2.1 on the real fleet, at the
/// default spot-check rate (5 % of units sampled, one probation check
/// per new node): each unit is executed about once rather than twice
/// as under full redundancy, every credited result is right, a
/// modified enclave never joins, a forged log is never paid, and every
/// statement pays exactly the rate times the attested weighted
/// instructions, so over-credit is zero, even for a node that claims
/// every credited log twice.
///
/// The cast has no `FlipResult` node. At 5 % sampling a result
/// flipper's unchecked units can complete before a check catches it,
/// and quarantine does not reopen done units, so its wrong results
/// could stand; that attack has its own test at redundancy 1.0
/// (`result_flipping_cheater_is_detected_quarantined_and_unpaid`).
#[test]
fn volunteer_campaign_pays_only_attested_work_at_default_sampling() {
    let cfg = config("volunteer");
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(16, WorkloadKind::SubsetSum, 8, 8000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    // The cheaters go first, alone: a campaign this small can finish
    // before a late joiner holds any work. Honest nodes start once the
    // inflater has been caught.
    let rogue = spawn_worker(addr, "rogue", Behavior::RogueEnclave);
    let inflate = spawn_worker(addr, "inflate", Behavior::InflateWic);
    let rogue_exit = rogue.join().unwrap().exit;
    assert!(
        matches!(&rogue_exit, WorkerExit::Rejected(r) if r.contains("quote")),
        "rogue exit: {rogue_exit:?}"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !handle
        .report()
        .workers
        .iter()
        .any(|w| w.name == "inflate" && w.quarantined)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "inflater never caught"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(matches!(
        inflate.join().unwrap().exit,
        WorkerExit::Quarantined(_)
    ));
    let honest: Vec<_> = (0..2)
        .map(|i| spawn_worker(addr, &format!("honest-{i}"), Behavior::Honest))
        .collect();
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    for h in honest {
        assert_eq!(h.join().unwrap().exit, WorkerExit::CampaignDone);
    }
    let report = handle.report();
    assert_eq!(report.completed, 16);
    assert!(report.workers.iter().all(|w| w.name != "rogue"));
    // Executions per credited unit (perfbench's
    // `fleet.executions_per_unit`): full redundancy reads 2.0.
    let executions: u64 = report.workers.iter().map(|w| w.completed).sum();
    let per_unit = executions as f64 / report.completed as f64;
    assert!(per_unit < 2.0, "{executions} executions for 16 units");

    let cfg = ReconcileConfig::default();
    let statements = handle.reconcile(&cfg).unwrap();
    handle.stop();
    let dep = Deployment::new(SEED);
    let ae = dep.infrastructure().accounting_enclave();
    let inflate = statements
        .iter()
        .find(|s| s.statement.worker == "inflate")
        .expect("the quarantined inflater gets an attested statement");
    assert_eq!(inflate.statement.paid_nano, 0);
    for s in &statements {
        s.verify(&dep.authority, ae.measurement()).unwrap();
        assert_eq!(
            s.statement.paid_nano,
            cfg.rate * u128::from(s.statement.weighted_instructions),
            "{} over-credited",
            s.statement.worker
        );
    }
    let credited: u64 = statements.iter().map(|s| s.statement.units_credited).sum();
    assert_eq!(credited, executions);

    // Audit against the journal: every credited result is right, the
    // statements pay exactly the distinct credited sessions, and
    // claiming each credited log twice adds nothing.
    let (_, replay) = Journal::open(&state_dir).unwrap();
    for u in &replay.units {
        let done = u.done.as_deref().expect("unit done");
        for sub in u
            .submissions
            .iter()
            .filter(|s| done.contains(&s.record.signed.log.session_id))
        {
            assert_eq!(sub.result, u.spec.expected_result(), "unit {}", u.spec.id);
        }
    }
    let pairs: Vec<(String, SignedLog)> = replay
        .credited_pairs()
        .into_iter()
        .map(|(w, r)| (w, r.signed))
        .collect();
    assert_eq!(pairs.len() as u64, executions);
    let claimed_twice: Vec<(String, SignedLog)> = pairs.iter().chain(&pairs).cloned().collect();
    let quarantined = ["inflate".to_string()];
    let replayed = reconcile(
        &claimed_twice,
        &quarantined,
        dep.workload_provider(),
        ae,
        &cfg,
    )
    .unwrap();
    assert_eq!(replayed, statements, "a replayed log changed a statement");
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn timed_out_unit_is_redispatched_exactly_once_via_deadline_trap() {
    // deadline_ms=1 guarantees the first attempt traps in-enclave with
    // the interpreter's own `DeadlineExceeded` (there is no separate
    // fleet timer); the growth factor then makes the retry's budget
    // effectively unbounded, so the unit completes on the second try.
    let cfg = FleetConfig {
        redundancy: 0.0,
        probation_checks: 0,
        deadline_ms: 1,
        deadline_growth: 600_000,
        ..config("deadline")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(1, WorkloadKind::SubsetSum, 18, 5000);
    let handle = spawn_coordinator(cfg, &specs);
    let addr = handle.addr();
    let worker = spawn_worker(addr, "solo", Behavior::Honest);
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    let report = handle.report();
    assert_eq!(report.completed, 1);
    assert_eq!(
        report.redispatched, 1,
        "timed-out unit must be re-dispatched exactly once"
    );
    let summary = worker.join().unwrap();
    assert_eq!(summary.exit, WorkerExit::CampaignDone);
    assert_eq!(summary.trapped, 1);
    assert!(
        summary.trap_reasons[0].contains("wall-clock deadline exceeded"),
        "trap reason {:?} is not the interpreter's deadline trap",
        summary.trap_reasons
    );
    handle.stop();
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn killed_coordinator_resumes_without_losing_or_double_crediting() {
    // Phase 1: run a campaign and stop the coordinator mid-flight.
    // `stop()` takes no graceful shutdown actions on the journal —
    // nothing is flushed or finalised that a kill -9 would lose — so
    // from the journal's perspective this *is* the crash. (The bench
    // repeats this cross-process with a real SIGKILL.)
    let cfg = FleetConfig {
        redundancy: 0.3,
        probation_checks: 1,
        ..config("resume")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(12, WorkloadKind::SubsetSum, 8, 6000);
    let handle = spawn_coordinator(cfg.clone(), &specs);
    let addr = handle.addr();
    // The early nodes are honest but pace each submission by 100 ms,
    // so the stop below lands mid-campaign however fast the
    // coordinator acknowledges (unpaced, 12 small units can all finish
    // between two polls).
    let w1: Vec<_> = (0..2)
        .map(|i| spawn_worker(addr, &format!("early-{i}"), Behavior::Slow(100)))
        .collect();
    // Let some units complete, then pull the plug.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let r = handle.report();
        if r.completed >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "phase 1 never made progress"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = handle.report();
    handle.stop();
    assert!(!before.done, "campaign finished before the crash point");
    // The orphaned workers hammer a dead address until their reconnect
    // budget expires; they are not part of phase 2's assertions beyond
    // not panicking.
    drop(w1);
    // Phase 2: reopen the same state directory. Same seed, same
    // journal — the campaign resumes where the acknowledgements
    // stopped.
    let handle = spawn_coordinator(cfg, &[]);
    let resumed = handle.report();
    assert_eq!(resumed.units_total, 12);
    assert!(
        resumed.completed >= before.completed,
        "resume lost completed units: {} < {}",
        resumed.completed,
        before.completed
    );
    let addr = handle.addr();
    let w2: Vec<_> = (0..2)
        .map(|i| spawn_worker(addr, &format!("late-{i}"), Behavior::Honest))
        .collect();
    assert!(handle.wait_done(Duration::from_secs(120)), "resume stalled");
    assert_eq!(handle.report().completed, 12);
    for w in w2 {
        assert_eq!(w.join().unwrap().exit, WorkerExit::CampaignDone);
    }
    handle.stop();
    // The journal is the audit surface: no unit lost (all done), no
    // unit completed twice (no duplicate done frames), no submission
    // credited twice (session ids are unique by construction — the
    // journal's replay drops duplicates and counts them).
    let (_, replay) = Journal::open(&state_dir).unwrap();
    assert_eq!(replay.units.len(), 12);
    assert!(replay.units.iter().all(|u| u.done.is_some()), "unit lost");
    assert_eq!(replay.duplicate_done_dropped, 0, "unit completed twice");
    let credited = replay.credited_pairs();
    let mut sessions: Vec<u64> = credited
        .iter()
        .map(|(_, r)| r.signed.log.session_id)
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), credited.len(), "a session credited twice");
    for u in &replay.units {
        let done = u.done.as_deref().unwrap_or_default();
        for sub in u
            .submissions
            .iter()
            .filter(|s| done.contains(&s.record.signed.log.session_id))
        {
            assert_eq!(sub.result, u.spec.expected_result(), "unit {}", u.spec.id);
        }
    }
    std::fs::remove_dir_all(&state_dir).unwrap();
}

/// One request/response exchange on a raw coordinator connection.
fn exchange(stream: &mut TcpStream, req: &Request) -> Response {
    wire::write_request(stream, req).unwrap();
    wire::read_response(stream).unwrap()
}

#[test]
fn reopened_finished_campaign_signs_identical_statements_and_acks_late_submits_stale() {
    let cfg = FleetConfig {
        redundancy: 0.0,
        probation_checks: 0,
        ..config("finished")
    };
    let state_dir = cfg.state_dir.clone();
    let specs = UnitSpec::campaign(4, WorkloadKind::SubsetSum, 8, 7000);
    let handle = spawn_coordinator(cfg.clone(), &specs);
    let worker = spawn_worker(handle.addr(), "node-0", Behavior::Honest);
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    assert_eq!(worker.join().unwrap().exit, WorkerExit::CampaignDone);
    let signed = handle.reconcile(&ReconcileConfig::default()).unwrap();
    handle.stop();
    let (_, replay) = Journal::open(&state_dir).unwrap();
    let unit = &replay.units[0];
    let late = unit.submissions[0].clone();
    assert_eq!(
        unit.done.as_deref(),
        Some(&[late.record.signed.log.session_id][..])
    );

    // The restart rebuilds no module for a done unit; what it signs is
    // still exactly what was signed before the stop.
    let handle = spawn_coordinator(cfg, &[]);
    assert!(handle.report().done);
    assert_eq!(
        handle.reconcile(&ReconcileConfig::default()).unwrap(),
        signed
    );

    // The node that earned the unit rejoins and submits its credited
    // log again: stale, never credited twice.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Request::FleetHello {
        worker: late.worker.clone(),
    };
    let Response::FleetChallenge { nonce } = exchange(&mut stream, &hello) else {
        panic!("no challenge");
    };
    let dep = Deployment::new(SEED);
    let join = Request::FleetJoin {
        worker: late.worker.clone(),
        quote: dep
            .infrastructure()
            .accounting_enclave()
            .attest_channel(&nonce)
            .unwrap(),
    };
    let Response::FleetWelcome { worker_id } = exchange(&mut stream, &join) else {
        panic!("rejoin refused");
    };
    let submit = Request::FleetSubmit {
        worker_id,
        unit_id: unit.spec.id,
        session_id: late.record.signed.log.session_id,
        submission: FleetSubmission::Completed {
            results: vec![Value::I64(late.result)],
            log: Box::new(late.record.signed.clone()),
        },
    };
    match exchange(&mut stream, &submit) {
        Response::FleetAckOk { ack } => assert_eq!(ack, FleetAck::Stale),
        other => panic!("late submit answered {other:?}"),
    }
    assert_eq!(
        handle.reconcile(&ReconcileConfig::default()).unwrap(),
        signed
    );
    handle.stop();
    std::fs::remove_dir_all(&state_dir).unwrap();
}
