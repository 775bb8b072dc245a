//! Tracing for the per-layer metrics: spans kept in memory and written
//! when the run ends, and the in-process replay that times every
//! server-side layer's public function on the run's own requests.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acctee::enclave::LoadedWorkload;
use acctee::{Deployment, InstrumentationEvidence, IoMeter, WeightTable};
use acctee_durable::UsageRecord;
use acctee_fleet::{
    reconcile, result_key, FleetConfig, Journal, ReconcileConfig, UnitSpec, WorkloadKind,
};
use acctee_interp::{CompiledModule, Engine, Imports, Instance};
use acctee_net::wire::{
    decode_request_frame, encode_request, encode_response, read_response, Request, Response,
};
use acctee_net::{Durable, DurableOptions, FleetAck, FleetSubmission, ServerConfig};
use acctee_wasm::decode::decode_module;
use acctee_wasm::encode::encode_module;
use acctee_wasm::validate::validate_module;

use crate::check::Checker;
use crate::gen::{Call, ModuleSpec};
use crate::stats;

/// One timed call into a layer. `parent` is 0 for a root; spans of
/// one request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Runs `f` inside one span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start_ns = self.now_ns();
        let out = f();
        self.record(Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Per span name: `(count, Σ self time in ns)`. A span's self time is
/// its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            *covered.entry(p.id).or_default() += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own as f64;
    }
    out
}

/// Mean self time of `name` in nanoseconds (0 when never recorded).
pub fn mean_ns(table: &BTreeMap<&'static str, (u64, f64)>, name: &str) -> f64 {
    table
        .get(name)
        .map_or(0.0, |&(n, sum)| if n == 0 { 0.0 } else { sum / n as f64 })
}

/// Writes the spans as a JSON array, one object per line, after a
/// header object carrying the run's stamp.
pub fn write_spans(path: &Path, stamp: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    let _ = writeln!(out, "{{\"stamp\": {stamp}, \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
            s.name,
            s.id,
            s.parent,
            s.req,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// The layers `handle_invoke` (serving) or the coordinator's submit
/// path (fleet) runs on the blocking path of one request, whose mean
/// self times the sum-check adds up.
pub const SERVING_CHAIN: [&str; 6] = [
    "net.request_codec",
    "durable.lease",
    "core.execute",
    "durable.append",
    "net.response_codec",
    "core.verify_log",
];
pub const FLEET_CHAIN: [&str; 4] = [
    "net.request_codec",
    "core.verify_log",
    "fleet.journal_append",
    "net.response_codec",
];

/// What the replay sends: deployments in order, then invokes against
/// them (`usize` indexes `deploys`).
pub struct ReplayInput {
    pub deploys: Vec<ModuleSpec>,
    pub invokes: Vec<(usize, Call)>,
    /// The campaign unit behind each invoke (fleet only).
    pub units: Vec<UnitSpec>,
    /// Frames are fleet submissions/acks instead of invokes.
    pub fleet_frames: bool,
    /// Threads for the contended-append measurement.
    pub conns: usize,
}

/// A deployment as the replay holds it: what the client keeps, what
/// the server loaded, and the compiled artifact the AE would share.
struct Loaded {
    bytes: Vec<u8>,
    evidence: InstrumentationEvidence,
    workload: LoadedWorkload,
    artifact: Arc<CompiledModule>,
}

/// Replay results that are not span means.
#[derive(Default)]
pub struct ReplayOut {
    pub attempted: u64,
    pub failed: u64,
    /// Named values (counts, ratios, seconds) ready to report.
    pub values: BTreeMap<&'static str, f64>,
}

impl ReplayOut {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("replay check failed: {why}");
    }
}

/// Replays `input` through the server-side layers' public functions, in
/// the order the server calls them, with one span per call. State goes
/// under `dir`, which must not exist yet.
pub fn replay(rec: &Recorder, dir: &Path, input: &ReplayInput, ck: &Checker) -> ReplayOut {
    let cfg = ServerConfig::default();
    let mut dep = Deployment::new(cfg.seed);
    dep.set_engine(cfg.engine);
    dep.set_time_budget(cfg.request_deadline);
    let infra = dep.infrastructure();
    let ae = infra.accounting_enclave();
    let provider = dep.workload_provider();
    let weights = WeightTable::calibrated();
    let opts = DurableOptions {
        fsync: cfg.fsync,
        ..DurableOptions::default()
    };
    let durable_dir = dir.join("durable");
    let (durable, _) = Durable::open(&durable_dir, opts, ae, infra.pricing).expect("open durable");
    let mut out = ReplayOut::default();
    let mut frame_bytes = Vec::new();
    let mut size_ratio = Vec::new();
    let mut record_deploy_ms = Vec::new();

    // Deploys, as handle_deploy runs them, then the client's check.
    let mut seen = HashSet::new();
    let mut loaded: Vec<Option<Loaded>> = Vec::new();
    for (i, spec) in input.deploys.iter().enumerate() {
        out.attempted += 1;
        let req = rec.id();
        let start_ns = rec.now_ns();
        rec.time("net.deploy_codec", req, req, || {
            codec_request(&Request::Deploy {
                level: spec.level,
                module: spec.bytes.clone(),
                trace_id: req,
            })
        });
        let miss = seen.insert(spec.cache_key());
        let name = if miss {
            "core.instrument_miss"
        } else {
            "core.instrument_hit"
        };
        let deployed = rec
            .time(name, req, req, || dep.instrument(&spec.bytes, spec.level))
            .ok()
            .and_then(|(bytes, evidence)| {
                let workload = rec
                    .time("core.load", req, req, || infra.load(&bytes, &evidence))
                    .ok()?;
                let t = Instant::now();
                rec.time("durable.record_deploy", req, req, || {
                    durable.record_deploy(i as u64 + 1, spec.level, spec.bytes.clone(), ae)
                })
                .ok()?;
                record_deploy_ms.push(t.elapsed().as_secs_f64() * 1e3);
                rec.time("net.deploy_codec", req, req, || {
                    codec_response(&Response::DeployOk {
                        deploy_id: i as u64 + 1,
                        module: bytes.clone(),
                        evidence: evidence.clone(),
                    })
                });
                rec.time("core.verify_evidence", req, req, || {
                    provider.verify_evidence(&bytes, &evidence)
                })
                .ok()?;
                Some((bytes, evidence, workload))
            })
            .map(|(bytes, evidence, workload)| {
                let artifact = rec
                    .time("interp.compile", 0, req, || {
                        CompiledModule::compile(workload.module())
                    })
                    .expect("validated modules compile");
                Loaded {
                    bytes,
                    evidence,
                    workload,
                    artifact,
                }
            });
        rec.record(Span {
            name: "replay.deploy",
            id: req,
            parent: 0,
            req,
            start_ns,
            end_ns: rec.now_ns(),
        });
        // Components of the instrument/load steps, timed on their own.
        let valid = rec.time("wasm.decode_validate", 0, req, || {
            decode_module(&spec.bytes).is_ok_and(|m| validate_module(&m).is_ok())
        });
        if !valid {
            out.fail("module did not decode and validate");
        }
        let module = decode_module(&spec.bytes).expect("generated modules decode");
        let inst = rec.time("instrument.pass", 0, req, || {
            acctee_instrument::instrument(&module, spec.level, &weights)
        });
        if let Ok(inst) = inst {
            size_ratio.push(encode_module(&inst.module).len() as f64 / spec.bytes.len() as f64);
        }
        if deployed.is_none() {
            out.fail("deploy did not load");
        }
        loaded.push(deployed);
    }

    // Invokes, as handle_invoke runs them, then the client's check.
    let mut logs = Vec::new();
    let mut weighted = 0u64;
    let mut executed = 0u64;
    for (k, (d, call)) in input.invokes.iter().enumerate() {
        out.attempted += 1;
        let Some(Loaded {
            bytes,
            evidence,
            workload,
            artifact,
        }) = &loaded[*d]
        else {
            out.fail("invoke against a failed deploy");
            continue;
        };
        let session = k as u64 + 1;
        let req = rec.id();
        let start_ns = rec.now_ns();
        // Fleet submissions reach the coordinator's journal, not the
        // WAL; the WAL steps still run so every workload prices them,
        // but off the request's chain.
        let wal_parent = if input.fleet_frames { 0 } else { req };
        let mut frames = 0;
        if !input.fleet_frames {
            frames += rec.time("net.request_codec", req, req, || {
                codec_request(&Request::Invoke {
                    deploy_id: *d as u64 + 1,
                    func: call.func.to_string(),
                    args: call.args.clone(),
                    input: call.input.clone(),
                    tenant: call.tenant.clone(),
                    trace_id: req,
                })
            });
        }
        if rec
            .time("durable.lease", wal_parent, req, || {
                durable.ensure_lease(session, ae)
            })
            .is_err()
        {
            out.fail("session lease not persisted");
            continue;
        }
        let result = rec.time("core.execute", req, req, || {
            infra.execute_billed(workload, call.func, &call.args, &call.input, session)
        });
        let Ok((outcome, invoice)) = result else {
            out.fail("accounted execution failed");
            continue;
        };
        let log = outcome.log.clone();
        if rec
            .time("durable.append", wal_parent, req, || {
                durable.append_usage(&call.tenant, &log, ae)
            })
            .is_err()
        {
            out.fail("usage record not appended");
        }
        let response = if input.fleet_frames {
            frames += rec.time("net.request_codec", req, req, || {
                codec_request(&Request::FleetSubmit {
                    worker_id: 1,
                    unit_id: k as u64,
                    session_id: session,
                    submission: FleetSubmission::Completed {
                        results: outcome.results.clone(),
                        log: Box::new(log.clone()),
                    },
                })
            });
            Response::FleetAckOk {
                ack: FleetAck::Accepted,
            }
        } else {
            Response::InvokeOk {
                session_id: session,
                results: outcome.results.clone(),
                output: outcome.output.clone(),
                log: log.clone(),
                invoice_total: invoice.total(),
            }
        };
        frames += rec.time("net.response_codec", req, req, || codec_response(&response));
        let verified = rec.time("core.verify_log", req, req, || provider.verify_log(&log));
        rec.record(Span {
            name: "replay.invoke",
            id: req,
            parent: 0,
            req,
            start_ns,
            end_ns: rec.now_ns(),
        });
        frame_bytes.push(frames as f64);
        let wic = log.log.weighted_instructions;
        weighted += wic;
        if verified.is_err()
            || !ck.check(
                &input.deploys[*d].label,
                call,
                &outcome.results,
                &outcome.output,
                wic,
            )
        {
            out.fail("log, output or bill did not check");
        }

        // The execute step's parts, each on the default engine with no
        // observer, so their sum against core.execute is the accounting
        // observer's cost.
        let meter = IoMeter::with_input(&call.input);
        let instance = rec.time("interp.instantiate", 0, req, || {
            let imports = meter.register(Imports::new());
            // As the accounting enclave does: the compiled engines share
            // the deploy's artifact, the tree engine needs none.
            if ae.exec_config.engine == Engine::Tree {
                Instance::with_config(workload.module(), imports, ae.exec_config)
            } else {
                let artifact = Arc::clone(artifact);
                Instance::with_artifact(workload.module(), imports, ae.exec_config, artifact)
            }
        });
        if let Ok(mut instance) = instance {
            let bare = rec.time("interp.invoke", 0, req, || {
                instance.invoke(call.func, &call.args)
            });
            if bare.is_err() {
                out.fail("bare invoke trapped");
            }
            executed += instance.stats().instructions;
        } else {
            out.fail("bare instantiate failed");
        }
        rec.time("sgx.sign", 0, req, || ae.sign_binding(&log.log.binding()))
            .expect("quoting succeeds");
        // What a fleet worker does with a unit: check, load, execute.
        let unit = rec.time("fleet.unit_exec", 0, req, || {
            provider.verify_evidence(bytes, evidence)?;
            let w = infra.load(bytes, evidence)?;
            infra.execute_billed(&w, call.func, &call.args, &call.input, session)
        });
        if unit.is_err() {
            out.fail("worker-path execution failed");
        }
        logs.push((call.tenant.clone(), log, result_key(&outcome.results)));
    }

    // The durable plane's restart and contention costs on these logs.
    drop(durable);
    let t = Instant::now();
    let reopened = Durable::open(&durable_dir, opts, ae, infra.pricing);
    out.values
        .insert("durable.open_s", t.elapsed().as_secs_f64());
    if let Ok((_, recovery)) = reopened {
        if recovery.records_replayed != logs.len() {
            out.fail("reopened WAL lost or gained records");
        }
    } else {
        out.fail("WAL did not reopen");
    }
    let wal_bytes: u64 = std::fs::read_dir(&durable_dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let contended_dir = dir.join("durable-contended");
    let (contended, _) =
        Durable::open(&contended_dir, opts, ae, infra.pricing).expect("open durable");
    let appended = std::thread::scope(|s| {
        let handles: Vec<_> = (0..input.conns.max(1))
            .map(|t| {
                let (contended, logs) = (&contended, &logs);
                s.spawn(move || {
                    let mut n = 0u64;
                    for (tenant, log, _) in logs.iter().skip(t).step_by(input.conns.max(1)) {
                        let ok = rec.time("durable.append_contended", 0, 0, || {
                            contended.append_usage(tenant, log, ae)
                        });
                        n += u64::from(ok.is_ok());
                    }
                    n
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("append thread"))
            .sum::<u64>()
    });
    if appended != logs.len() as u64 {
        out.fail("contended append failed");
    }

    // The fleet plane's journal and reconciliation on the same logs.
    let journal_dir = dir.join("journal");
    let (mut journal, _) = Journal::open(&journal_dir).expect("open journal");
    for (k, (tenant, log, result)) in logs.iter().enumerate() {
        // A serving invoke is journaled as a one-execution unit; the
        // spec only names it (the journal never rebuilds the module).
        let spec = input.units.get(k).copied().unwrap_or(UnitSpec {
            id: k as u64,
            kind: WorkloadKind::SubsetSum,
            count: 0,
            seed: k as u64,
        });
        let record = UsageRecord {
            tenant: tenant.clone(),
            signed: log.clone(),
        };
        let ok = journal
            .unit_added(&spec, FleetConfig::default().deadline_ms)
            .and_then(|()| {
                rec.time("fleet.journal_append", 0, 0, || {
                    journal.submission(spec.id, tenant, *result, &record)
                })
            })
            .and_then(|()| journal.unit_done(spec.id, &[log.log.session_id]));
        if ok.is_err() {
            out.fail("journal append failed");
        }
    }
    drop(journal);
    let t = Instant::now();
    let journal_ok = Journal::open(&journal_dir).is_ok();
    out.values
        .insert("fleet.journal_open_s", t.elapsed().as_secs_f64());
    let credited: Vec<_> = logs
        .iter()
        .map(|(t, l, _)| (t.clone(), l.clone()))
        .collect();
    let statements = rec.time("fleet.reconcile", 0, 0, || {
        reconcile(&credited, &[], provider, ae, &ReconcileConfig::default())
    });
    let credited_units: u64 = statements
        .map(|s| s.iter().map(|s| s.statement.units_credited).sum())
        .unwrap_or(0);
    if !journal_ok || credited_units != logs.len() as u64 {
        out.fail("journal reopen or reconcile credit mismatch");
    }

    out.values
        .insert("core.weighted_instructions", weighted as f64);
    out.values.insert("interp.executed_instrs", executed as f64);
    out.values
        .insert("instrument.size_ratio", stats::mean(&size_ratio));
    out.values
        .insert("net.frame_bytes", stats::mean(&frame_bytes));
    out.values.insert(
        "durable.record_deploy_p50_ms",
        stats::median(&record_deploy_ms),
    );
    out.values.insert(
        "durable.record_deploy_last_ms",
        record_deploy_ms.last().copied().unwrap_or(0.0),
    );
    out.values.insert(
        "durable.wal_bytes_per_record",
        wal_bytes as f64 / logs.len().max(1) as f64,
    );
    out
}

/// Encodes a request frame and decodes it back; returns its length.
fn codec_request(req: &Request) -> usize {
    let frame = encode_request(req);
    let decoded = decode_request_frame(&frame).expect("own frame decodes");
    assert!(decoded.is_some(), "own frame is complete");
    frame.len()
}

/// Encodes a response frame and reads it back; returns its length.
fn codec_response(resp: &Response) -> usize {
    let frame = encode_response(resp);
    read_response(&mut frame.as_slice()).expect("own frame reads back");
    frame.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_the_covered_part_of_children() {
        let spans = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 90, 120),
            span("a", 4, 0, 0, 5),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 70.0));
        assert_eq!(t["a"], (2, 25.0));
        assert_eq!(mean_ns(&t, "a"), 12.5);
        assert_eq!(mean_ns(&t, "missing"), 0.0);
    }
}
