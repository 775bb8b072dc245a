//! The fleet workload: an in-process coordinator on a fresh journal and
//! two honest in-process workers at the default redundancy and
//! probation. The workers reach the coordinator through a proxy that
//! times each frame exchange, so the fleet plane's latencies are
//! observed from the worker's side of the wire without touching it.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Scope;
use std::time::{Duration, Instant};

use acctee::Deployment;
use acctee_fleet::{
    run_worker, Coordinator, FleetConfig, Journal, ReconcileConfig, SignedNodeStatement,
    WorkerConfig, WorkerExit,
};
use acctee_net::wire::{read_request, read_response, write_request, write_response};
use acctee_net::{FleetAck, Request, Response};

use crate::cpu::{self, Meter};
use crate::gen;
use crate::trace::{Recorder, Span};

/// Honest workers (one per generator thread).
pub const WORKERS: usize = 2;
/// Upper bound on one campaign; a stall past it fails the rep.
const CAMPAIGN_LIMIT: Duration = Duration::from_secs(120);

/// One rep of the campaign.
#[derive(Default)]
pub struct FleetRep {
    /// Coordinator open, then both workers' attested join: wall time,
    /// and the program's CPU up to the second worker's welcome, s.
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    /// Stop, re-open on the same journal, verified reconcile.
    pub recover_s: f64,
    /// Coordinator open to the last accepted ack, plus the verified
    /// reconcile.
    pub life_s: f64,
    /// First worker start to the last accepted submission's ack.
    pub measure_s: f64,
    /// Program CPU from the first worker start until the workers and
    /// the proxy have ended, from coordinator open through the
    /// reconcile, and over the recovery, ms.
    pub measure_cpu_ms: f64,
    pub life_cpu_ms: f64,
    pub recover_cpu_ms: f64,
    pub units_credited: u64,
    pub executions: u64,
    /// Worker-observed `FleetSubmit` → ack, µs.
    pub submit_us: Vec<f64>,
    /// Worker-observed assignment (or previous ack) → ack, ms.
    pub cold_ms: Vec<f64>,
    /// Worker-observed `FleetHello` → `FleetWelcome`, ms.
    pub join_ms: Vec<f64>,
    pub reconcile_ms: f64,
    pub journal_open_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// What the proxy saw on one worker connection.
#[derive(Default)]
struct Exchange {
    hello: Option<Instant>,
    welcome: Option<Instant>,
    /// The program's CPU reading when the welcome arrived.
    welcome_cpu: Option<u64>,
    submit_us: Vec<f64>,
    cold_ms: Vec<f64>,
    rejected: u64,
    /// When the last accepted submission's ack arrived.
    last_accept: Option<Instant>,
}

/// Forwards one worker connection frame by frame, timing each
/// exchange. The fleet protocol is strict request/response, so one
/// thread per connection suffices. The thread's CPU is the benchmark's
/// and is taken out of `meter`'s readings when it ends.
fn pipe(down: TcpStream, upstream: SocketAddr, meter: &Meter, rec: Option<&Recorder>) -> Exchange {
    let ex = forward(down, upstream, meter, rec);
    meter.exclude(cpu::thread_ns());
    ex
}

fn forward(
    down: TcpStream,
    upstream: SocketAddr,
    meter: &Meter,
    rec: Option<&Recorder>,
) -> Exchange {
    let mut ex = Exchange::default();
    let Ok(mut up) = TcpStream::connect(upstream) else {
        return ex;
    };
    let _ = up.set_nodelay(true);
    let _ = down.set_nodelay(true);
    let (Ok(down_r), Ok(up_r)) = (down.try_clone(), up.try_clone()) else {
        return ex;
    };
    let (mut down_r, mut up_r, mut down) = (BufReader::new(down_r), BufReader::new(up_r), down);
    let mut since: Option<Instant> = None;
    while let Ok(Some(req)) = read_request(&mut down_r) {
        let start_ns = rec.map_or(0, Recorder::now_ns);
        let sent = Instant::now();
        if write_request(&mut up, &req).is_err() {
            break;
        }
        let Ok(resp) = read_response(&mut up_r) else {
            break;
        };
        let got = Instant::now();
        match (&req, &resp) {
            (Request::FleetHello { .. }, _) => ex.hello = Some(sent),
            (Request::FleetJoin { .. }, Response::FleetWelcome { .. }) => {
                ex.welcome = Some(got);
                ex.welcome_cpu = Some(meter.now());
            }
            (Request::FleetPull { .. }, Response::FleetAssign { units, .. })
                if !units.is_empty() =>
            {
                since = Some(got);
            }
            (Request::FleetSubmit { .. }, Response::FleetAckOk { ack }) => {
                ex.submit_us.push((got - sent).as_secs_f64() * 1e6);
                if let Some(s) = since {
                    ex.cold_ms.push((got - s).as_secs_f64() * 1e3);
                }
                since = Some(got);
                match ack {
                    FleetAck::Accepted => ex.last_accept = Some(got),
                    FleetAck::Stale => {}
                    _ => ex.rejected += 1,
                }
                if let Some(rec) = rec {
                    let id = rec.id();
                    rec.record(Span {
                        name: "client.submit",
                        id,
                        parent: 0,
                        req: id,
                        start_ns,
                        end_ns: rec.now_ns(),
                    });
                }
            }
            _ => {}
        }
        if write_response(&mut down, &resp).is_err() {
            break;
        }
    }
    ex
}

/// Accepts worker connections until `stop` is set (and a wake-up
/// connection arrives), piping each to `upstream`.
fn proxy<'s>(
    scope: &'s Scope<'s, '_>,
    listener: TcpListener,
    upstream: SocketAddr,
    stop: &'s AtomicBool,
    meter: &'s Meter,
    rec: Option<&'s Recorder>,
) -> Vec<Exchange> {
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(down) = stream {
            conns.push(scope.spawn(move || pipe(down, upstream, meter, rec)));
        }
    }
    meter.exclude(cpu::thread_ns());
    conns
        .into_iter()
        .map(|h| h.join().expect("proxy thread"))
        .collect()
}

/// Verifies every statement against the coordinator's published
/// identity (its seed's authority and accounting enclave).
fn verified(statements: &[SignedNodeStatement], identity: &Deployment) -> bool {
    let ae = identity.infrastructure().accounting_enclave().measurement();
    !statements.is_empty()
        && statements
            .iter()
            .all(|s| s.verify(&identity.authority, ae).is_ok())
}

/// One campaign: open, join, run to completion, reconcile, check the
/// journal, then stop and recover.
pub fn rep(seed: u64, rep: u64, dir: &Path, meter: &Meter, rec: Option<&Recorder>) -> FleetRep {
    let specs = gen::fleet_units(seed, rep);
    let _ = std::fs::remove_dir_all(dir);
    let config = FleetConfig {
        state_dir: dir.to_path_buf(),
        ..FleetConfig::default()
    };
    let mut out = FleetRep {
        attempted: specs.len() as u64 + 2,
        ..FleetRep::default()
    };
    // What the coordinator's seed publishes: the identity its
    // statements and its workers' logs verify against.
    let identity = Deployment::new(config.seed);

    let t0 = Instant::now();
    let cpu0 = meter.now();
    let coordinator =
        Coordinator::open("127.0.0.1:0", config.clone(), &specs).expect("open coordinator");
    let (upstream, handle) = coordinator.spawn().expect("spawn coordinator");
    let open_s = t0.elapsed().as_secs_f64();
    let open_cpu = meter.now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = listener.local_addr().expect("proxy address");
    let stop = AtomicBool::new(false);
    let cpu1 = meter.now();
    let (exchanges, finished, exits, workers_started) = std::thread::scope(|s| {
        let stop = &stop;
        let accept = s.spawn(move || proxy(s, listener, upstream, stop, meter, rec));
        let started = Instant::now();
        let workers: Vec<_> = (0..WORKERS)
            .map(|i| {
                let cfg = WorkerConfig::new(&format!("node-{i}"), config.seed);
                s.spawn(move || run_worker(&proxy_addr.to_string(), &cfg))
            })
            .collect();
        // Only a completion barrier: it polls, so the campaign's end is
        // taken from the proxy's last accepted ack below.
        let finished = handle.wait_done(CAMPAIGN_LIMIT);
        let exits: Vec<bool> = workers
            .into_iter()
            .map(|w| {
                matches!(
                    w.join().expect("worker thread"),
                    Ok(summary) if summary.exit == WorkerExit::CampaignDone
                )
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(proxy_addr);
        let exchanges = accept.join().expect("proxy accept thread");
        (exchanges, finished, exits, started)
    });
    let done_at = exchanges
        .iter()
        .filter_map(|ex| ex.last_accept)
        .max()
        .unwrap_or(workers_started);
    out.measure_s = (done_at - workers_started).as_secs_f64();
    out.measure_cpu_ms = cpu::ms(cpu1, meter.now());
    let t = Instant::now();
    let statements = handle.reconcile(&ReconcileConfig::default());
    out.reconcile_ms = t.elapsed().as_secs_f64() * 1e3;
    out.life_cpu_ms = cpu::ms(cpu0, meter.now());
    let statements_ok = statements.as_deref().is_ok_and(|s| verified(s, &identity));
    // Open to the last ack, then the verified reconcile: the workers'
    // exit and the completion poll in between are the benchmark's.
    out.life_s = (done_at - t0 + t.elapsed()).as_secs_f64();
    let report = handle.report();
    out.executions = report.workers.iter().map(|w| w.completed).sum();
    handle.stop();

    let mut join_s = 0f64;
    for ex in &exchanges {
        if let (Some(h), Some(w)) = (ex.hello, ex.welcome) {
            out.join_ms.push((w - h).as_secs_f64() * 1e3);
            join_s = join_s.max((w - workers_started).as_secs_f64());
        }
        out.submit_us.extend_from_slice(&ex.submit_us);
        out.cold_ms.extend_from_slice(&ex.cold_ms);
        out.failed += ex.rejected;
    }
    out.setup_s = open_s + join_s;
    // The first worker welcomed may start on a unit before the second
    // is welcomed; that share is counted as set-up.
    let joined_cpu = exchanges.iter().filter_map(|ex| ex.welcome_cpu).max();
    out.setup_cpu_s =
        cpu::ms(cpu0, open_cpu) / 1e3 + cpu::ms(cpu1, joined_cpu.unwrap_or(cpu1)) / 1e3;
    if !finished || exits.iter().any(|ok| !ok) || out.join_ms.len() != WORKERS {
        out.failed += 1;
    }
    if !statements_ok {
        out.failed += 1;
    }

    // Every unit must be complete, credited with the right answer and
    // a log that verifies.
    let t = Instant::now();
    let journal = Journal::open(dir);
    out.journal_open_s = t.elapsed().as_secs_f64();
    match journal {
        Ok((_, replay)) => {
            for spec in &specs {
                let good = replay
                    .units
                    .iter()
                    .find(|u| u.spec.id == spec.id)
                    .is_some_and(|u| {
                        u.done.as_ref().is_some_and(|sessions| {
                            !sessions.is_empty()
                                && sessions.iter().all(|sid| {
                                    u.submissions.iter().any(|sub| {
                                        sub.record.signed.log.session_id == *sid
                                            && sub.result == spec.expected_result()
                                            && identity
                                                .workload_provider()
                                                .verify_log(&sub.record.signed)
                                                .is_ok()
                                    })
                                })
                        })
                    });
                if good {
                    out.units_credited += 1;
                } else {
                    out.failed += 1;
                }
            }
        }
        Err(_) => out.failed += specs.len() as u64,
    }

    // Recovery: re-open on the same journal and produce a verified
    // reconciliation from the rehydrated campaign.
    let t = Instant::now();
    let cpu3 = meter.now();
    let recovered = Coordinator::open("127.0.0.1:0", config.clone(), &[])
        .and_then(Coordinator::spawn)
        .map(|(_, handle)| {
            let ok = handle
                .reconcile(&ReconcileConfig::default())
                .is_ok_and(|s| verified(&s, &identity));
            (ok, handle)
        });
    out.recover_s = t.elapsed().as_secs_f64();
    out.recover_cpu_ms = cpu::ms(cpu3, meter.now());
    match recovered {
        Ok((ok, handle)) => {
            handle.stop();
            if !ok {
                out.failed += 1;
            }
        }
        Err(_) => out.failed += 1,
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}
