//! `perfbench` — the end-to-end benchmark of the AccTEE serving and
//! fleet planes, with per-layer tracing.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tenant_compute --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run repeats whole reps (set up, send one seeded plan, stop,
//! recover) until `--seconds` have passed, checks every output, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Why each
//! workload and metric exists is in `METHODOLOGY.md`.

mod check;
mod cpu;
mod fleet;
mod gen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acctee::Level;
use acctee_interp::Engine;
use acctee_net::ServerConfig;

use check::Checker;
use gen::Workload;
use trace::{mean_ns, Recorder, ReplayInput};

/// Where runs keep state and write span files, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench";
/// Reps an untraced run makes even when `--seconds` is short, so
/// set-up and recovery times are medians.
const MIN_REPS: usize = 3;
/// Invokes the traced replay sends (the first of rep 0's plan), so its
/// counts repeat exactly for a seed.
const REPLAY_INVOKES: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What the host saw during one rep.
struct HostFigures {
    /// Share of the host's CPU time the hypervisor stole.
    steal: f64,
    /// Highest resident set sampled.
    peak_rss_mib: f64,
}

/// One rep's figures: program CPU (the end-to-end metrics) and the
/// wall-clock times a client saw (reported with the per-layer ones).
struct RepFigures {
    host: HostFigures,
    /// Set-up: the program's CPU, and wall time, s.
    setup_cpu_s: f64,
    setup_s: f64,
    /// Measured-phase CPU per verified invoke (fleet: per accepted
    /// execution), µs.
    invoke_cpu_us: f64,
    /// CPU from set-up start to the end of the measured phase (fleet:
    /// through the reconcile) per credited unit, µs.
    unit_cpu_us: f64,
    recover_cpu_ms: f64,
    recover_s: f64,
    invoke_us: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Verified invokes (fleet: accepted executions) per measured second.
    rps: f64,
    /// Credited units per second of the rep's life.
    units_per_s: f64,
}

/// Everything the untraced or traced phase measured, over its reps.
#[derive(Default)]
struct Pooled {
    reps: Vec<RepFigures>,
    /// Client time per invoke request, for the sum-check.
    client_ns: f64,
    client_requests: u64,
    connect_ms: Vec<f64>,
    stages: BTreeMap<String, (u64, u64)>,
    accept_respond: (u64, u64),
    /// Executions (fleet: accepted submissions; serving: invokes sent)
    /// and what earned credit (fleet: units; serving: invokes).
    executions: u64,
    credited: u64,
    reconcile_ms: Vec<f64>,
    journal_open_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Pooled {
    fn add_serving(&mut self, r: serve::RepOut, host: HostFigures) {
        let mut invoke_us = Vec::new();
        let mut cold_ms = r.setup_cold_ms.clone();
        let mut invokes = 0;
        for c in &r.conns {
            invoke_us.extend_from_slice(&c.invoke_us);
            cold_ms.extend_from_slice(&c.cold_ms);
            invokes += c.credited;
            self.executions += c.attempted;
            self.client_ns += c.invoke_ns as f64;
            self.client_requests += c.invokes;
            self.attempted += c.attempted;
            self.failed += c.failed;
        }
        self.reps.push(RepFigures {
            host,
            setup_cpu_s: r.setup_cpu_s,
            setup_s: r.setup_s,
            invoke_cpu_us: r.measure_cpu_ms * 1e3 / invokes as f64,
            unit_cpu_us: r.life_cpu_ms * 1e3 / (r.credited + invokes) as f64,
            recover_cpu_ms: r.recover_cpu_ms,
            recover_s: r.recover_s,
            invoke_us,
            cold_ms,
            rps: invokes as f64 / r.measure_s,
            units_per_s: (r.credited + invokes) as f64 / r.life_s,
        });
        self.credited += invokes;
        self.connect_ms.extend_from_slice(&r.connect_ms);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.add_stages(&r.server);
    }

    fn add_stages(&mut self, sums: &serve::StageSums) {
        for (name, sum, count) in &sums.stages {
            let e = self.stages.entry(name.clone()).or_default();
            e.0 += sum;
            e.1 += count;
        }
        self.accept_respond.0 += sums.accept_respond.0;
        self.accept_respond.1 += sums.accept_respond.1;
    }

    fn add_fleet(&mut self, r: fleet::FleetRep, host: HostFigures) {
        self.client_ns += r.submit_us.iter().sum::<f64>() * 1e3;
        self.client_requests += r.submit_us.len() as u64;
        let executions = r.executions as f64;
        self.reps.push(RepFigures {
            host,
            setup_cpu_s: r.setup_cpu_s,
            setup_s: r.setup_s,
            invoke_cpu_us: r.measure_cpu_ms * 1e3 / executions,
            unit_cpu_us: r.life_cpu_ms * 1e3 / r.units_credited as f64,
            recover_cpu_ms: r.recover_cpu_ms,
            recover_s: r.recover_s,
            rps: r.executions as f64 / r.measure_s,
            units_per_s: r.units_credited as f64 / r.life_s,
            invoke_us: r.submit_us,
            cold_ms: r.cold_ms,
        });
        self.connect_ms.extend_from_slice(&r.join_ms);
        self.executions += r.executions;
        self.credited += r.units_credited;
        self.reconcile_ms.push(r.reconcile_ms);
        self.journal_open_s.push(r.journal_open_s);
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    fn client_us(&self) -> f64 {
        self.client_ns / self.client_requests.max(1) as f64 / 1e3
    }

    fn stage_us(&self, stage: &str) -> f64 {
        self.stages
            .get(stage)
            .map_or(0.0, |&(sum, n)| sum as f64 / n.max(1) as f64 / 1e3)
    }
}

/// Host CPU counters from the `cpu` line of `/proc/stat`: `(steal,
/// total)` jiffies, or zeros where the file does not exist.
fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The process's resident set, KiB (0 where `/proc` is missing).
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// How often the resident set is sampled while reps run.
const RSS_SAMPLE: Duration = Duration::from_millis(10);

/// Runs reps until `seconds` have passed and at least `min_reps` ran.
/// A sampler thread tracks each rep's peak resident set; its CPU is
/// kept out of the program's.
fn measure(
    args: &Args,
    dir: &Path,
    seconds: f64,
    min_reps: usize,
    ck: &Checker,
    rec: Option<&Recorder>,
) -> Pooled {
    let mut p = Pooled::default();
    let peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let meter = cpu::Meter::default();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut used = 0;
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(rss_kib(), Ordering::Relaxed);
                let now = cpu::thread_ns();
                meter.exclude(now - used);
                used = now;
                std::thread::sleep(RSS_SAMPLE);
            }
        });
        let started = Instant::now();
        while p.reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
            let rep = p.reps.len() as u64;
            let rep_dir = dir.join(format!("rep{rep}"));
            let (steal0, total0) = host_cpu();
            let out = match args.workload {
                Workload::FleetCampaign => Err(fleet::rep(args.seed, rep, &rep_dir, &meter, rec)),
                w => Ok(serve::rep(w, args.seed, rep, &rep_dir, ck, &meter, rec)),
            };
            let (steal1, total1) = host_cpu();
            let host = HostFigures {
                steal: (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
                peak_rss_mib: peak.swap(rss_kib(), Ordering::Relaxed) as f64 / 1024.0,
            };
            match out {
                Ok(r) => p.add_serving(r, host),
                Err(r) => p.add_fleet(r, host),
            }
            ck.end_rep(rep);
        }
        done.store(true, Ordering::Relaxed);
    });
    p
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Means over the reps of each rep's own figure: the program's CPU
/// over set-up and per operation, and its peak resident set. CPU time
/// adds up, so a mean weighs every rep's work; a median jumped between
/// the two modes some figures have (recovery's CPU on `billing_small`
/// clusters near 5.8 and 8.2 ms).
fn end_to_end(p: &Pooled) -> (Vec<Metric>, String) {
    let of = |f: fn(&RepFigures) -> f64| -> f64 {
        stats::mean(&p.reps.iter().map(f).collect::<Vec<_>>())
    };
    let steal: Vec<f64> = p.reps.iter().map(|r| r.host.steal).collect();
    let note = format!(
        "e2e reps={} steal_median={:.3} steal_max={:.3} invokes={}",
        p.reps.len(),
        stats::median(&steal),
        steal.iter().copied().fold(0.0, f64::max),
        p.reps.iter().map(|r| r.invoke_us.len()).sum::<usize>(),
    );
    let metrics = vec![
        m("setup_s", of(|r| r.setup_cpu_s), "s"),
        m("invoke_cpu_us", of(|r| r.invoke_cpu_us), "us"),
        m("unit_cpu_us", of(|r| r.unit_cpu_us), "us"),
        m("recover_cpu_ms", of(|r| r.recover_cpu_ms), "ms"),
        m("peak_rss_mib", of(|r| r.host.peak_rss_mib), "MiB"),
    ];
    (metrics, note)
}

/// The wall-clock times a client saw, as medians over the reps of each
/// rep's figure. The invoke tail is the median over batches of reps of
/// each batch's percentile; the cold-start tail pools every rep's
/// samples. They follow the host's disk and scheduler as much as the
/// program, so they are reported without a bound. The note names the
/// percentile the tail could support and how many batches it took.
fn client_wall(p: &Pooled) -> (Vec<Metric>, String) {
    let of = |f: fn(&RepFigures) -> f64| -> f64 {
        stats::median(&p.reps.iter().map(f).collect::<Vec<_>>())
    };
    let per_rep: Vec<&[f64]> = p.reps.iter().map(|r| r.invoke_us.as_slice()).collect();
    let cold_ms: Vec<f64> = p
        .reps
        .iter()
        .flat_map(|r| r.cold_ms.iter().copied())
        .collect();
    let p99 = stats::batched_tail(&per_rep, 99.0);
    let note = format!(
        "invoke_tail=p{} tail_batches={}",
        p99.percentile, p99.batches
    );
    let metrics = vec![
        m("client.setup_s", of(|r| r.setup_s), "s"),
        m("client.invoke_rps", of(|r| r.rps), "1/s"),
        m(
            "client.invoke_p50_us",
            of(|r| stats::median(&r.invoke_us)),
            "us",
        ),
        m("client.invoke_p99_us", p99.value, "us"),
        m(
            "client.cold_start_p50_ms",
            of(|r| stats::median(&r.cold_ms)),
            "ms",
        ),
        m(
            "client.cold_start_tail_ms",
            stats::top_mean(&cold_ms, 0.10),
            "ms",
        ),
        m("client.units_per_s", of(|r| r.units_per_s), "1/s"),
        m("client.recover_s", of(|r| r.recover_s), "s"),
    ];
    (metrics, note)
}

/// The deployments and invokes of rep 0, in the order the run sent
/// them (set-up first, then the connections interleaved), capped at
/// [`REPLAY_INVOKES`] invokes.
fn replay_input(args: &Args) -> ReplayInput {
    let mut deploys = Vec::new();
    let mut invokes = Vec::new();
    let mut units = Vec::new();
    if args.workload == Workload::FleetCampaign {
        units = gen::fleet_units(args.seed, 0);
        for spec in &units {
            let call = gen::Call {
                slot: 0,
                func: spec.func(),
                args: Vec::new(),
                input: Vec::new(),
                tenant: "fleet".into(),
                expect: gen::Expect::Int(spec.expected_result()),
            };
            invokes.push((deploys.len(), call.clone()));
            deploys.push(gen::ModuleSpec {
                label: format!(
                    "unit/{}/c{}/{:016x}",
                    spec.kind.name(),
                    spec.count,
                    spec.seed
                ),
                bytes: spec.module_bytes(),
                level: Level::LoopBased,
                first: call,
            });
        }
    } else {
        let plan = gen::plan(args.workload, args.seed, 0);
        for (slot, spec) in plan.setup.iter().enumerate() {
            invokes.push((slot, spec.first.clone()));
        }
        deploys.extend(plan.setup.iter().cloned());
        let longest = plan.conns.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for ops in &plan.conns {
                match ops.get(i) {
                    Some(gen::Op::Invoke(c)) => invokes.push((c.slot, c.clone())),
                    Some(gen::Op::Window(cs)) => {
                        invokes.extend(cs.iter().map(|c| (c.slot, c.clone())));
                    }
                    Some(gen::Op::Deploy(spec)) => {
                        invokes.push((deploys.len(), spec.first.clone()));
                        deploys.push(spec.clone());
                    }
                    None => {}
                }
            }
        }
    }
    invokes.truncate(REPLAY_INVOKES);
    ReplayInput {
        deploys,
        invokes,
        units,
        fleet_frames: args.workload == Workload::FleetCampaign,
        conns: 2,
    }
}

/// The traced run: an untraced phase (client means, server stage
/// means), a traced phase (client spans), then the replay of rep 0's
/// requests through each layer.
fn per_layer(args: &Args, dir: &Path, stamp: &str, ck: &Checker) -> (Vec<Metric>, u64, u64) {
    let half = args.seconds / 2.0;
    let plain = measure(args, &dir.join("untraced"), half, 1, ck, None);
    let rec = Recorder::new();
    let traced = measure(args, &dir.join("traced"), half, 1, ck, Some(&rec));
    let input = replay_input(args);
    let replayed = trace::replay(&rec, &dir.join("replay"), &input, ck);
    let mut attempted = plain.attempted + traced.attempted + replayed.attempted;
    let mut failed = plain.failed + traced.failed + replayed.failed;
    // The fleet plane has no Stats frame: cross-check the serving
    // stages on the campaign's own modules.
    let fleet = args.workload == Workload::FleetCampaign;
    let probe = fleet.then(|| {
        let specs = &input.deploys[..input.deploys.len().min(40)];
        let (sums, probe_failed) = serve::stage_probe(&dir.join("probe"), specs, ck);
        attempted += specs.len() as u64 + 1;
        failed += probe_failed;
        let mut p = Pooled::default();
        p.add_stages(&sums);
        p
    });
    let stages = probe.as_ref().unwrap_or(&plain);

    let spans = rec.spans();
    let table = trace::self_times(&spans);
    let us = |name: &str| mean_ns(&table, name) / 1e3;
    let ms = |name: &str| mean_ns(&table, name) / 1e6;
    let chain: &[&str] = if fleet {
        &trace::FLEET_CHAIN
    } else {
        &trace::SERVING_CHAIN
    };
    let client_us = plain.client_us();
    let layers_us: f64 = chain.iter().map(|n| us(n)).sum();
    let sign = us("sgx.sign");
    let v = |name: &str| replayed.values.get(name).copied().unwrap_or(0.0);
    let executions_per_unit = plain.executions as f64 / plain.credited.max(1) as f64;
    let (reconcile_ms, journal_open_s) = if fleet {
        (
            stats::median(&plain.reconcile_ms),
            stats::median(&plain.journal_open_s),
        )
    } else {
        (ms("fleet.reconcile"), v("fleet.journal_open_s"))
    };
    let (mut metrics, note) = client_wall(&plain);
    println!("wall {note}");
    metrics.extend([
        m("net.request_codec_us", us("net.request_codec"), "us"),
        m("net.response_codec_us", us("net.response_codec"), "us"),
        m("net.frame_bytes", v("net.frame_bytes"), "bytes"),
        m(
            "net.connect_attest_ms",
            stats::mean(&plain.connect_ms),
            "ms",
        ),
        m("net.stage.parse_us", stages.stage_us("parse"), "us"),
        m("net.stage.admission_us", stages.stage_us("admission"), "us"),
        m("net.stage.execute_us", stages.stage_us("execute"), "us"),
        m(
            "net.stage.instrument_us",
            stages.stage_us("instrument"),
            "us",
        ),
        m(
            "net.accept_respond_us",
            stages.accept_respond.0 as f64 / stages.accept_respond.1.max(1) as f64 / 1e3,
            "us",
        ),
        m("net.unattributed_us", client_us - layers_us, "us"),
        m("core.execute_us", us("core.execute"), "us"),
        m(
            "core.observer_tax_ratio",
            us("core.execute") / (us("interp.instantiate") + us("interp.invoke") + sign),
            "ratio",
        ),
        m("core.load_us", us("core.load"), "us"),
        m("core.instrument_miss_ms", ms("core.instrument_miss"), "ms"),
        m("core.verify_evidence_us", us("core.verify_evidence"), "us"),
        m("core.verify_log_us", us("core.verify_log"), "us"),
        m(
            "core.weighted_instructions",
            v("core.weighted_instructions"),
            "count",
        ),
        m("instrument.pass_ms", ms("instrument.pass"), "ms"),
        m("instrument.size_ratio", v("instrument.size_ratio"), "ratio"),
        m("wasm.decode_validate_us", us("wasm.decode_validate"), "us"),
        m("interp.instantiate_us", us("interp.instantiate"), "us"),
        m("interp.invoke_us", us("interp.invoke"), "us"),
        m("interp.compile_ms", ms("interp.compile"), "ms"),
        m(
            "interp.executed_instrs",
            v("interp.executed_instrs"),
            "count",
        ),
        m("sgx.sign_us", sign, "us"),
        m("durable.append_us", us("durable.append"), "us"),
        m(
            "durable.append_contended_us",
            us("durable.append_contended"),
            "us",
        ),
        m("durable.lease_us", us("durable.lease"), "us"),
        m(
            "durable.record_deploy_p50_ms",
            v("durable.record_deploy_p50_ms"),
            "ms",
        ),
        m(
            "durable.record_deploy_last_ms",
            v("durable.record_deploy_last_ms"),
            "ms",
        ),
        m("durable.open_s", v("durable.open_s"), "s"),
        m(
            "durable.wal_bytes_per_record",
            v("durable.wal_bytes_per_record"),
            "bytes",
        ),
        m("fleet.journal_append_us", us("fleet.journal_append"), "us"),
        m("fleet.unit_exec_ms", ms("fleet.unit_exec"), "ms"),
        m("fleet.executions_per_unit", executions_per_unit, "ratio"),
        m("fleet.reconcile_ms", reconcile_ms, "ms"),
        m("fleet.journal_open_s", journal_open_s, "s"),
        m("sumcheck.client_us", client_us, "us"),
        m("sumcheck.layers_us", layers_us, "us"),
        m("trace.overhead_us", traced.client_us() - client_us, "us"),
    ]);

    let path = Path::new(WORK_DIR).join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if trace::write_spans(&path, stamp, &spans).is_err() {
        failed += 1;
    }
    println!("spans {} ({} spans)", path.display(), spans.len());
    println!("{:<36} {:>8} {:>14}", "layer span", "count", "self mean us");
    for (name, (n, sum)) in &table {
        println!("{name:<36} {n:>8} {:>14.3}", sum / *n as f64 / 1e3);
    }
    println!(
        "sumcheck workload={} client_us={client_us:.3} layers_us={layers_us:.3} \
         unattributed_us={:.3} chain={} tracing_overhead_us={:.3}",
        args.workload.name(),
        client_us - layers_us,
        chain.join("+"),
        traced.client_us() - client_us
    );
    (metrics, attempted, failed)
}

/// What a result file must say about what it measured.
fn stamp(args: &Args) -> String {
    let cfg = ServerConfig::default();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{cores},\
         \"engine\":\"{}\",\"io\":\"{}\",\"fsync\":\"{}\",\"level\":\"{}\",\"commit\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Engine::default().name(),
        cfg.io_mode.name(),
        cfg.fsync.name(),
        Level::default(),
        commit()
    )
}

/// The checked-out commit: `.git/HEAD` resolved one level by hand,
/// else "unknown" (a source export has no history).
fn commit() -> String {
    let git = PathBuf::from(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match head.trim() {
        "" => "unknown".into(),
        hash => hash.into(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <tenant_compute|billing_small|\
                 deploy_churn|fleet_campaign> --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let dir = Path::new(WORK_DIR).join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let stamp = stamp(&args);
    println!("stamp {stamp}");
    let ck = Checker::default();
    let (metrics, attempted, failed) = if args.trace {
        per_layer(&args, &dir, &stamp, &ck)
    } else {
        let p = measure(&args, &dir, args.seconds, MIN_REPS, &ck, None);
        let (metrics, note) = end_to_end(&p);
        println!("{note}");
        let (wall, note) = client_wall(&p);
        let wall: Vec<String> = wall
            .iter()
            .map(|w| format!("{}={:.4}{}", w.name, w.value, w.unit))
            .collect();
        println!("wall {note} {}", wall.join(" "));
        (metrics, p.attempted, p.failed)
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves span files in place; removes the directory only if empty.
    let _ = std::fs::remove_dir(WORK_DIR);

    // A figure that is not a number (an empty sample set, a zero
    // denominator) is a broken measurement: it fails the run and is
    // left out rather than printed as a perfect 0.
    let (finite, broken): (Vec<&Metric>, Vec<&Metric>) =
        metrics.iter().partition(|metric| metric.value.is_finite());
    for metric in &broken {
        eprintln!("perfbench: {} is {}", metric.name, metric.value);
    }
    let failed = failed + broken.len() as u64;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, metric) in finite.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.value,
            metric.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
