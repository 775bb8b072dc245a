//! The serving workloads: a real `Server` on loopback with the default
//! configuration plus a fresh state directory, driven by two verifying
//! clients in closed loop. Each rep sends one seeded plan, so the WAL
//! and registry reach the same size in every rep.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acctee_net::{Client, DeployHandle, InvokeSpec, Server, ServerConfig, TrustAnchor};

use crate::check::Checker;
use crate::cpu::{self, Meter};
use crate::gen::{self, ModuleSpec, Op, Workload};
use crate::trace::{Recorder, Span};

/// Socket timeout for the load generator's connections.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one connection saw during the measured phase.
#[derive(Default)]
pub struct ConnOut {
    /// Client-observed latency per invoke, µs (a pipelined window's
    /// latency counts once per invoke in it).
    pub invoke_us: Vec<f64>,
    /// Deploy → first verified result, ms.
    pub cold_ms: Vec<f64>,
    /// Σ client time spent on invoke ops, ns, and the invokes in them.
    pub invoke_ns: u128,
    pub invokes: u64,
    /// Verified invokes with correct output (including deploys' first).
    pub credited: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// One rep of a serving workload.
pub struct RepOut {
    /// Set-up wall time, and the program's CPU over it, s.
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    pub recover_s: f64,
    pub measure_s: f64,
    /// Set-up start to the end of the measured phase.
    pub life_s: f64,
    /// Program CPU over the measured phase, over set-up plus the
    /// measured phase, and over the recovery, ms.
    pub measure_cpu_ms: f64,
    pub life_cpu_ms: f64,
    pub recover_cpu_ms: f64,
    pub conns: Vec<ConnOut>,
    /// Set-up's deploys, each to its first verified result, ms.
    pub setup_cold_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    /// What the server's `Stats` frame reported after the measured phase.
    pub server: StageSums,
    /// Ops outside the measured phase (set-up, recovery).
    pub attempted: u64,
    pub failed: u64,
    /// Verified, correct set-up calls.
    pub credited: u64,
}

/// Server-reported timings from one `Stats` frame.
#[derive(Default)]
pub struct StageSums {
    /// `(stage, Σ ns, count)` per request stage.
    pub stages: Vec<(String, u64, u64)>,
    /// Accept→respond of invokes: `(Σ ns, count)`.
    pub accept_respond: (u64, u64),
}

fn stage_sums(conn: &mut Client) -> Option<StageSums> {
    let snap = conn.stats().ok()?;
    Some(StageSums {
        stages: snap
            .stages
            .iter()
            .map(|(name, l)| (name.clone(), l.sum_ns, l.count))
            .collect(),
        accept_respond: (snap.latency.sum_ns, snap.latency.count),
    })
}

fn start(dir: &Path) -> (std::net::SocketAddr, JoinHandle<()>) {
    let config = ServerConfig {
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config)
        .expect("bind a loopback server")
        .spawn()
}

/// Graceful stop: `Shutdown` on one connection, close the rest, join.
fn stop(mut conns: Vec<Client>, server: JoinHandle<()>) -> bool {
    let ok = conns.first_mut().is_some_and(|c| c.shutdown().is_ok());
    drop(conns);
    server.join().is_ok() && ok
}

fn connect(addr: std::net::SocketAddr, anchor: &TrustAnchor) -> Client {
    Client::connect(addr, anchor.clone(), IO_TIMEOUT).expect("connect and attest")
}

/// Deploys `spec` (the client verifies the evidence) and makes its
/// first call (the client verifies the log); the output must check.
fn deploy_and_call(conn: &mut Client, spec: &ModuleSpec, ck: &Checker) -> Option<DeployHandle> {
    let handle = conn.deploy(&spec.bytes, spec.level).ok()?;
    let c = &spec.first;
    let out = conn
        .invoke(&handle, c.func, &c.args, &c.input, &c.tenant)
        .ok()?;
    let wic = out.log.log.weighted_instructions;
    ck.check(&spec.label, c, &out.results, &out.output, wic)
        .then_some(handle)
}

/// Runs one connection's ops in closed loop.
fn drive(
    conn: &mut Client,
    ops: &[Op],
    plan: &gen::Plan,
    handles: &[Option<DeployHandle>],
    ck: &Checker,
    rec: Option<&Recorder>,
) -> ConnOut {
    let mut out = ConnOut::default();
    for op in ops {
        let req = rec.map_or(0, Recorder::id);
        let start_ns = rec.map_or(0, Recorder::now_ns);
        let name = match op {
            Op::Invoke(c) => {
                out.attempted += 1;
                let Some(h) = &handles[c.slot] else {
                    out.failed += 1;
                    continue;
                };
                let t = Instant::now();
                let r = conn.invoke(h, c.func, &c.args, &c.input, &c.tenant);
                let dt = t.elapsed();
                out.invoke_us.push(dt.as_secs_f64() * 1e6);
                out.invoke_ns += dt.as_nanos();
                out.invokes += 1;
                let label = &plan.setup[c.slot].label;
                match r {
                    Ok(o)
                        if ck.check(
                            label,
                            c,
                            &o.results,
                            &o.output,
                            o.log.log.weighted_instructions,
                        ) =>
                    {
                        out.credited += 1
                    }
                    _ => out.failed += 1,
                }
                "client.invoke"
            }
            Op::Window(calls) => {
                out.attempted += calls.len() as u64;
                let Some(h) = &handles[calls[0].slot] else {
                    out.failed += calls.len() as u64;
                    continue;
                };
                let specs: Vec<InvokeSpec> = calls
                    .iter()
                    .map(|c| InvokeSpec {
                        func: c.func.to_string(),
                        args: c.args.clone(),
                        input: c.input.clone(),
                        tenant: c.tenant.clone(),
                    })
                    .collect();
                let t = Instant::now();
                // verify_every = 1: every signed log is verified.
                let r = conn.invoke_pipelined(h, &specs, 1);
                let dt = t.elapsed();
                out.invoke_ns += dt.as_nanos();
                out.invokes += calls.len() as u64;
                for _ in calls {
                    out.invoke_us.push(dt.as_secs_f64() * 1e6);
                }
                match r {
                    Ok(items) if items.len() == calls.len() => {
                        let label = &plan.setup[calls[0].slot].label;
                        for (c, item) in calls.iter().zip(items) {
                            match item {
                                Ok(o)
                                    if ck.check(
                                        label,
                                        c,
                                        &o.results,
                                        &o.output,
                                        o.log.log.weighted_instructions,
                                    ) =>
                                {
                                    out.credited += 1
                                }
                                _ => out.failed += 1,
                            }
                        }
                    }
                    _ => out.failed += calls.len() as u64,
                }
                "client.window"
            }
            Op::Deploy(spec) => {
                out.attempted += 1;
                let t = Instant::now();
                if deploy_and_call(conn, spec, ck).is_some() {
                    out.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    out.credited += 1;
                } else {
                    out.failed += 1;
                }
                "client.deploy"
            }
        };
        if let Some(rec) = rec {
            rec.record(Span {
                name,
                id: req,
                parent: 0,
                req,
                start_ns,
                end_ns: rec.now_ns(),
            });
        }
    }
    out
}

/// One rep: set up, measure, stop, recover. State lives in `dir`.
pub fn rep(
    w: Workload,
    seed: u64,
    rep: u64,
    dir: &Path,
    ck: &Checker,
    meter: &Meter,
    rec: Option<&Recorder>,
) -> RepOut {
    let plan = gen::plan(w, seed, rep);
    let anchor = TrustAnchor::new(ServerConfig::default().seed);
    let _ = std::fs::remove_dir_all(dir);
    let mut attempted = 0;
    let mut failed = 0;
    let mut credited = 0;

    let t0 = Instant::now();
    let cpu0 = meter.now();
    let (addr, server) = start(dir);
    let mut connect_ms = Vec::new();
    let mut conns: Vec<Client> = (0..plan.conns.len())
        .map(|_| {
            let t = Instant::now();
            let c = connect(addr, &anchor);
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            c
        })
        .collect();
    let mut setup_cold_ms = Vec::new();
    let handles: Vec<Option<DeployHandle>> = plan
        .setup
        .iter()
        .map(|spec| {
            attempted += 1;
            let t = Instant::now();
            let h = deploy_and_call(&mut conns[0], spec, ck);
            if h.is_some() {
                setup_cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                credited += 1;
            } else {
                failed += 1;
            }
            h
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_cpu_s = cpu::ms(cpu0, meter.now()) / 1e3;

    let t1 = Instant::now();
    let cpu1 = meter.now();
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(&plan.conns)
            .map(|(conn, ops)| {
                let (plan, handles) = (&plan, &handles);
                s.spawn(move || drive(conn, ops, plan, handles, ck, rec))
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let measure_s = t1.elapsed().as_secs_f64();
    let life_s = t0.elapsed().as_secs_f64();
    let cpu2 = meter.now();

    attempted += 1;
    let server_sums = stage_sums(&mut conns[0]).unwrap_or_else(|| {
        failed += 1;
        StageSums::default()
    });
    if !stop(conns, server) {
        failed += 1;
    }

    // Recovery: reopen on the same state directory and invoke a
    // rehydrated deployment, verified and checked like any other call.
    attempted += 1;
    let t2 = Instant::now();
    let cpu3 = meter.now();
    let (addr, server) = start(dir);
    let mut conn = connect(addr, &anchor);
    let first = &plan.setup[0].first;
    let recovered = handles[0].as_ref().is_some_and(|h| {
        conn.invoke(h, first.func, &first.args, &first.input, &first.tenant)
            .is_ok_and(|o| {
                let wic = o.log.log.weighted_instructions;
                ck.check(&plan.setup[0].label, first, &o.results, &o.output, wic)
            })
    });
    let recover_s = t2.elapsed().as_secs_f64();
    let recover_cpu_ms = cpu::ms(cpu3, meter.now());
    if !recovered {
        failed += 1;
    }
    if !stop(vec![conn], server) {
        failed += 1;
    }
    let _ = std::fs::remove_dir_all(dir);

    RepOut {
        setup_s,
        setup_cpu_s,
        recover_s,
        measure_s,
        life_s,
        measure_cpu_ms: cpu::ms(cpu1, cpu2),
        life_cpu_ms: cpu::ms(cpu0, cpu2),
        recover_cpu_ms,
        conns: outs,
        setup_cold_ms,
        connect_ms,
        server: server_sums,
        attempted,
        failed,
        credited,
    }
}

/// Deploys and calls each spec once on a fresh server and returns its
/// `Stats` stage sums — the server-side cross-check for a workload that
/// does not run through the serving plane — with the count of failed
/// ops among the `specs.len() + 1` it made.
pub fn stage_probe(dir: &Path, specs: &[ModuleSpec], ck: &Checker) -> (StageSums, u64) {
    let anchor = TrustAnchor::new(ServerConfig::default().seed);
    let _ = std::fs::remove_dir_all(dir);
    let (addr, server) = start(dir);
    let mut conn = connect(addr, &anchor);
    let mut failed = specs
        .iter()
        .filter(|s| deploy_and_call(&mut conn, s, ck).is_none())
        .count() as u64;
    let sums = stage_sums(&mut conn);
    if sums.is_none() || !stop(vec![conn], server) {
        failed += 1;
    }
    let _ = std::fs::remove_dir_all(dir);
    (sums.unwrap_or_default(), failed)
}
