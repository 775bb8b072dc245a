//! `acctee` — command-line front end to the two-way sandbox.
//!
//! ```text
//! acctee wat2wasm <in.wat> <out.wasm>     assemble text to binary
//! acctee wasm2wat <in.wasm>               disassemble to text (stdout)
//! acctee validate <in.wasm|in.wat>        validate a module
//! acctee instrument <in> <out.wasm> [--level naive|flow|loop]
//! acctee run <in> [--invoke F] [--arg V]* [--input STR] [--fuel N]
//! acctee account <in> [--invoke F] [--arg V]* [--input STR]
//!                                          full pipeline: instrument,
//!                                          attest, execute, verify,
//!                                          print the signed log
//! acctee serve --listen ADDR               attested network server
//!              [--log-level L]             structured stderr logging
//!              [--state-dir DIR]           durable WAL, deploy log, sealed checkpoints
//!              [--fsync always|never]
//! acctee deploy <in> --connect ADDR        deploy over the network
//! acctee invoke <in> --connect ADDR [--invoke F] [--arg V]*
//!                                          deploy + attested invoke,
//!                                          log verified client-side
//! acctee fetch-log --connect ADDR --session N
//!                                          re-fetch a verified log
//! acctee settle --state-dir DIR [--seed S] offline: verify the WAL,
//!                                          print signed settlements
//! acctee replay --state-dir DIR [--seed S] offline: audit every record
//! acctee stats --connect ADDR              live server stats
//!              [--prom] [--watch SECS]     Prometheus text / refresh
//! acctee top --connect ADDR [--watch SECS] per-tenant usage table
//! acctee recent --connect ADDR [--limit N] flight-recorder records
//! acctee shutdown --connect ADDR           drain and stop a server
//! acctee fleet coordinate --listen ADDR --state-dir DIR
//!              [--units N] [--workload subsetsum|msieve] [--unit-count C]
//!              [--redundancy F] [--probation N] [--deadline-ms N]
//!              [--rate R] [--bonus B]       run a campaign: attested
//!                                          workers, durable dispatch,
//!                                          spot checks, signed payouts
//! acctee fleet work --connect ADDR --name N
//!              [--capacity C] [--behavior honest|flip|inflate|slow|rogue]
//!                                          serve a coordinator as a node
//! acctee fleet status --connect ADDR       campaign progress snapshot
//! ```
//!
//! Arguments of the invoked function are parsed against its signature
//! (`17`, `-3`, `2.5`, …).
//!
//! Observability: `run` and `account` accept `--trace-out FILE`
//! (Chrome trace-event JSON, loadable in Perfetto) and
//! `--metrics-out FILE` (Prometheus text exposition). With either flag
//! present, `run` additionally instruments the module through the
//! [`acctee::InstrumentationCache`] and executes under a
//! [`ProfilingObserver`], so the exported metrics cover
//! instrumentation pass durations, cache hit/miss counts, the
//! hot-function profile and end-to-end invocation latency.

use std::process::ExitCode;
use std::sync::Arc;

use acctee::{Deployment, InstrumentationCache, InstrumentationEnclave, Level, PricingModel};
use acctee_durable::{Durable, DurableOptions, FsyncPolicy};
use acctee_fleet::{
    run_worker, Behavior, Coordinator, FleetConfig, ReconcileConfig, UnitSpec, WorkerConfig,
    WorkerExit, WorkloadKind,
};
use acctee_instrument::{instrument, WeightTable};
use acctee_interp::{Config, Engine, Imports, Instance, ProfilingObserver, Value};
use acctee_net::{wire, Client, InvokeSpec, Server, ServerConfig, TrustAnchor};
use acctee_sgx::{AttestationAuthority, Platform};
use acctee_telemetry::{CollectingSink, Telemetry};
use acctee_wasm::decode::decode_module;
use acctee_wasm::encode::encode_module;
use acctee_wasm::text::{parse_module, print_module};
use acctee_wasm::types::ValType;
use acctee_wasm::validate::validate_module;
use acctee_wasm::Module;

fn load_module(path: &str) -> Result<Module, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"\0asm") {
        decode_module(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        parse_module(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn parse_level(s: &str) -> Result<Level, String> {
    match s {
        "naive" => Ok(Level::Naive),
        "flow" | "flow-based" => Ok(Level::FlowBased),
        "loop" | "loop-based" => Ok(Level::LoopBased),
        other => Err(format!("unknown level {other:?} (naive|flow|loop)")),
    }
}

fn parse_args_for(module: &Module, func: &str, raw: &[String]) -> Result<Vec<Value>, String> {
    let idx = module
        .exported_func(func)
        .ok_or_else(|| format!("no exported function {func:?}"))?;
    let ty = module.func_type(idx).ok_or("missing function type")?;
    if ty.params.len() != raw.len() {
        return Err(format!(
            "{func:?} takes {} args, got {}",
            ty.params.len(),
            raw.len()
        ));
    }
    ty.params
        .iter()
        .zip(raw)
        .map(|(t, s)| {
            let bad = |e: std::num::ParseIntError| format!("bad {t} {s:?}: {e}");
            Ok(match t {
                ValType::I32 => Value::I32(s.parse().map_err(bad)?),
                ValType::I64 => Value::I64(s.parse().map_err(bad)?),
                ValType::F32 => Value::F32(s.parse().map_err(|e| format!("bad f32: {e}"))?),
                ValType::F64 => Value::F64(s.parse().map_err(|e| format!("bad f64: {e}"))?),
            })
        })
        .collect()
}

struct Opts {
    invoke: String,
    args: Vec<String>,
    input: Vec<u8>,
    fuel: Option<u64>,
    engine: Engine,
    level: Level,
    cache_capacity: Option<usize>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    listen: Option<String>,
    connect: Option<String>,
    seed: u64,
    workers: usize,
    queue_depth: usize,
    tenant_inflight: usize,
    tenant: String,
    request_deadline_ms: Option<u64>,
    io_timeout_ms: u64,
    state_dir: Option<String>,
    fsync: FsyncPolicy,
    session: Option<u64>,
    repeat: usize,
    out: Option<String>,
    log_level: Option<String>,
    prom: bool,
    watch_secs: Option<u64>,
    limit: u32,
    units: u64,
    workload: String,
    unit_count: u32,
    redundancy: f64,
    probation: u32,
    deadline_ms: u64,
    name: String,
    behavior: String,
    capacity: u32,
    rate: u128,
    bonus: u128,
    rest: Vec<String>,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        invoke: "main".into(),
        args: Vec::new(),
        input: Vec::new(),
        fuel: None,
        engine: Engine::default(),
        level: Level::LoopBased,
        cache_capacity: None,
        trace_out: None,
        metrics_out: None,
        listen: None,
        connect: None,
        seed: 0xacc7ee,
        workers: 4,
        queue_depth: 16,
        tenant_inflight: 4,
        tenant: "cli".into(),
        request_deadline_ms: None,
        io_timeout_ms: 5000,
        state_dir: None,
        fsync: FsyncPolicy::Always,
        session: None,
        repeat: 1,
        out: None,
        log_level: None,
        prom: false,
        watch_secs: None,
        limit: 32,
        units: 32,
        workload: "subsetsum".into(),
        unit_count: 8,
        redundancy: 0.05,
        probation: 1,
        deadline_ms: 10_000,
        name: "node".into(),
        behavior: "honest".into(),
        capacity: 2,
        rate: 3,
        bonus: 0,
        rest: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--invoke" => o.invoke = want(&mut it)?,
            "--arg" => o.args.push(want(&mut it)?),
            "--input" => o.input = want(&mut it)?.into_bytes(),
            "--fuel" => o.fuel = Some(want(&mut it)?.parse().map_err(|e| format!("{e}"))?),
            "--engine" => o.engine = want(&mut it)?.parse()?,
            "--level" => o.level = parse_level(&want(&mut it)?)?,
            "--cache-capacity" => {
                o.cache_capacity = Some(want(&mut it)?.parse().map_err(|e| format!("{e}"))?);
            }
            "--trace-out" => o.trace_out = Some(want(&mut it)?),
            "--metrics-out" => o.metrics_out = Some(want(&mut it)?),
            "--listen" => o.listen = Some(want(&mut it)?),
            "--connect" => o.connect = Some(want(&mut it)?),
            "--seed" => o.seed = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => o.workers = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--queue" => o.queue_depth = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--tenant-inflight" => {
                o.tenant_inflight = want(&mut it)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--tenant" => o.tenant = want(&mut it)?,
            "--request-deadline-ms" => {
                o.request_deadline_ms = Some(want(&mut it)?.parse().map_err(|e| format!("{e}"))?);
            }
            "--io-timeout-ms" => {
                o.io_timeout_ms = want(&mut it)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--state-dir" => o.state_dir = Some(want(&mut it)?),
            "--fsync" => {
                let v = want(&mut it)?;
                o.fsync = FsyncPolicy::parse(&v)
                    .ok_or_else(|| format!("--fsync: unknown policy `{v}` (always|never)"))?;
            }
            "--session" => o.session = Some(want(&mut it)?.parse().map_err(|e| format!("{e}"))?),
            "--repeat" => o.repeat = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--out" => o.out = Some(want(&mut it)?),
            "--log-level" => o.log_level = Some(want(&mut it)?),
            "--prom" => o.prom = true,
            "--watch" => {
                o.watch_secs = Some(want(&mut it)?.parse().map_err(|e| format!("{e}"))?);
            }
            "--limit" => o.limit = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--units" => o.units = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--workload" => o.workload = want(&mut it)?,
            "--unit-count" => o.unit_count = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--redundancy" => o.redundancy = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--probation" => o.probation = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--deadline-ms" => {
                o.deadline_ms = want(&mut it)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--name" => o.name = want(&mut it)?,
            "--behavior" => o.behavior = want(&mut it)?,
            "--capacity" => o.capacity = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--rate" => o.rate = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            "--bonus" => o.bonus = want(&mut it)?.parse().map_err(|e| format!("{e}"))?,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}; see `acctee help`"));
            }
            other => o.rest.push(other.to_string()),
        }
    }
    Ok(o)
}

/// Writes the collected trace and the metrics snapshot to the files
/// requested by `--trace-out` / `--metrics-out`.
fn flush_telemetry(opts: &Opts, sink: &CollectingSink) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let events = sink.events();
        let json = acctee_telemetry::to_chrome_json(&events);
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[trace: {} events -> {path}]", events.len());
    }
    if let Some(path) = &opts.metrics_out {
        let text = acctee_telemetry::global().metrics().export_prometheus();
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[metrics -> {path}]");
    }
    Ok(())
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(
            "usage: acctee <wat2wasm|wasm2wat|validate|instrument|run|account> ...\n\
                    see `acctee help`"
                .into(),
        );
    };
    let opts = parse_opts(&argv[1..])?;
    let sink = if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        let (tel, sink) = Telemetry::collecting();
        // Register the cache counters up front so they appear in the
        // exposition even when the command never touches the cache.
        tel.metrics().counter("acctee_cache_hits_total");
        tel.metrics().counter("acctee_cache_misses_total");
        tel.metrics().counter("acctee_cache_evictions_total");
        tel.metrics()
            .counter("acctee_cache_singleflight_waits_total");
        tel.metrics().counter("acctee_artifact_compiles_total");
        acctee_telemetry::install(Arc::new(tel));
        Some(sink)
    } else {
        None
    };
    let result = dispatch(cmd, &opts);
    if let Some(sink) = sink {
        // Flush even on command failure: a trace of the failed run is
        // exactly what one wants when debugging it.
        let flushed = flush_telemetry(&opts, &sink);
        acctee_telemetry::reset();
        result.and(flushed)
    } else {
        result
    }
}

/// Refuses the positional arguments of a command that takes none.
fn no_positionals(cmd: &str, stray: &[String]) -> Result<(), String> {
    match stray.first() {
        Some(arg) => Err(format!(
            "{cmd} takes no argument {arg:?}; see `acctee help`"
        )),
        None => Ok(()),
    }
}

fn dispatch(cmd: &str, opts: &Opts) -> Result<(), String> {
    const NO_POSITIONALS: [&str; 8] = [
        "serve",
        "fetch-log",
        "settle",
        "replay",
        "stats",
        "top",
        "recent",
        "shutdown",
    ];
    if NO_POSITIONALS.contains(&cmd) {
        no_positionals(cmd, &opts.rest)?;
    }
    match cmd {
        "help" => {
            println!("acctee — WebAssembly two-way sandbox with trusted resource accounting");
            println!("commands: wat2wasm, wasm2wat, validate, instrument, run, account,");
            println!("          serve, deploy, invoke, fetch-log, settle, replay,");
            println!("          stats, top, recent, shutdown, fleet");
            println!("run/account flags: --invoke F --arg V --input STR --fuel N --level L");
            println!("                   --engine tree|regs (default regs)");
            println!("                   --cache-capacity N (bound the instrumentation cache)");
            println!("                   --trace-out FILE --metrics-out FILE");
            println!("serve flags:       --listen ADDR --workers N --queue N");
            println!("                   --tenant-inflight N --seed S --engine E");
            println!("                   --request-deadline-ms N --io-timeout-ms N");
            println!("                   --log-level off|error|warn|info|debug|trace");
            println!("                   --state-dir DIR (WAL, deploy log, sealed checkpoints)");
            println!("                   --fsync always|never (default always)");
            println!("deploy/invoke:     --connect ADDR --seed S --level L [--out FILE]");
            println!("                   invoke also: --invoke F --arg V --input STR --tenant T");
            println!("                   --repeat N (pipeline N invokes on one connection)");
            println!("fetch-log:         --connect ADDR --session N (verified log by id)");
            println!("settle:            --state-dir DIR [--seed S] (offline signed bill)");
            println!("replay:            --state-dir DIR [--seed S] (audit the usage WAL)");
            println!("stats:             --connect ADDR [--prom] [--watch SECS]");
            println!("top:               --connect ADDR [--watch SECS]");
            println!("recent:            --connect ADDR [--limit N]");
            println!("fleet coordinate:  --listen ADDR --state-dir DIR [--units N]");
            println!("                   --workload subsetsum|msieve --unit-count C");
            println!("                   --redundancy F --probation N --deadline-ms N");
            println!("                   --rate R --bonus B --seed S");
            println!("fleet work:        --connect ADDR --name N [--capacity C]");
            println!("                   --behavior honest|flip|inflate|slow|rogue");
            println!("fleet status:      --connect ADDR");
            Ok(())
        }
        "wat2wasm" => {
            let [inp, out] = opts.rest.as_slice() else {
                return Err("usage: acctee wat2wasm <in.wat> <out.wasm>".into());
            };
            let m = load_module(inp)?;
            validate_module(&m).map_err(|e| e.to_string())?;
            std::fs::write(out, encode_module(&m)).map_err(|e| e.to_string())?;
            Ok(())
        }
        "wasm2wat" => {
            let [inp] = opts.rest.as_slice() else {
                return Err("usage: acctee wasm2wat <in.wasm>".into());
            };
            print!("{}", print_module(&load_module(inp)?));
            Ok(())
        }
        "validate" => {
            let [inp] = opts.rest.as_slice() else {
                return Err("usage: acctee validate <module>".into());
            };
            validate_module(&load_module(inp)?).map_err(|e| e.to_string())?;
            println!("ok");
            Ok(())
        }
        "instrument" => {
            let [inp, out] = opts.rest.as_slice() else {
                return Err("usage: acctee instrument <in> <out.wasm> [--level L]".into());
            };
            let m = load_module(inp)?;
            let r = instrument(&m, opts.level, &WeightTable::calibrated())
                .map_err(|e| e.to_string())?;
            std::fs::write(out, encode_module(&r.module)).map_err(|e| e.to_string())?;
            println!(
                "{}: {} -> {} bytes (+{:.1}%), {} increments ({} elided, {} loops hoisted)",
                opts.level,
                r.stats.size_before,
                r.stats.size_after,
                r.stats.size_overhead() * 100.0,
                r.stats.increments,
                r.stats.elided,
                r.stats.loops_hoisted
            );
            Ok(())
        }
        "run" => {
            let [inp] = opts.rest.as_slice() else {
                return Err("usage: acctee run <module> [--invoke F] [--arg V]...".into());
            };
            let m = load_module(inp)?;
            validate_module(&m).map_err(|e| e.to_string())?;
            let args = parse_args_for(&m, &opts.invoke, &opts.args)?;
            let hub = acctee_telemetry::global();
            // With telemetry on, route the module through the
            // instrumentation cache first and execute the instrumented
            // copy, so pass durations, cache counters and the injected
            // counter's overhead all land in the exported data.
            let m = if hub.enabled() {
                let authority = AttestationAuthority::new(0xacc7ee);
                let platform = Platform::new("acctee-cli", 0xacc7ee);
                let qe = authority.provision(&platform);
                let ie = InstrumentationEnclave::launch(&platform, qe, WeightTable::calibrated());
                let cache = match opts.cache_capacity {
                    Some(n) => InstrumentationCache::with_capacity(n),
                    None => InstrumentationCache::new(),
                };
                let bytes = encode_module(&m);
                let (ib, _ev) = cache
                    .instrument(&ie, &bytes, opts.level)
                    .map_err(|e| e.to_string())?;
                decode_module(&ib).map_err(|e| e.to_string())?
            } else {
                m
            };
            let meter = acctee::IoMeter::with_input(&opts.input);
            let imports = meter.register(Imports::new());
            let mut inst = Instance::with_config(
                &m,
                imports,
                Config {
                    fuel: opts.fuel,
                    engine: opts.engine,
                    ..Config::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let out = if hub.enabled() {
                let span = hub
                    .span("cli.run", "cli")
                    .with_arg("function", opts.invoke.as_str());
                let mut prof = ProfilingObserver::unit(&m);
                let out = inst
                    .invoke_observed(&opts.invoke, &args, &mut prof)
                    .map_err(|e| e.to_string())?;
                let report = prof.report(10);
                for f in &report.hot_functions {
                    hub.metrics()
                        .counter_with(
                            "acctee_profile_self_weight_total",
                            &[("function", f.name.as_str())],
                        )
                        .add(f.self_weight);
                }
                hub.metrics()
                    .counter("acctee_profile_weight_total")
                    .add(report.total_weight);
                eprint!("{}", report.render());
                drop(span);
                out
            } else {
                inst.invoke(&opts.invoke, &args)
                    .map_err(|e| e.to_string())?
            };
            for v in out {
                println!("{v}");
            }
            let output = meter.take_output();
            if !output.is_empty() {
                println!("output: {}", String::from_utf8_lossy(&output));
            }
            let s = inst.stats();
            eprintln!(
                "[{} instructions, {} loads, {} stores, peak memory {} B]",
                s.instructions, s.loads, s.stores, s.peak_memory_bytes
            );
            Ok(())
        }
        "account" => {
            let [inp] = opts.rest.as_slice() else {
                return Err("usage: acctee account <module> [--invoke F] [--arg V]...".into());
            };
            let m = load_module(inp)?;
            let args = parse_args_for(&m, &opts.invoke, &opts.args)?;
            let bytes = encode_module(&m);
            let hub = acctee_telemetry::global();
            let _span = hub
                .span("cli.account", "cli")
                .with_arg("function", opts.invoke.as_str());
            let mut dep = Deployment::new(0xacc7ee);
            if let Some(n) = opts.cache_capacity {
                dep = dep.with_cache_capacity(n);
            }
            dep.set_engine(opts.engine);
            let (ib, ev) = dep
                .instrument(&bytes, opts.level)
                .map_err(|e| e.to_string())?;
            let outcome = dep
                .execute(&ib, &ev, &opts.invoke, &args, &opts.input)
                .map_err(|e| e.to_string())?;
            dep.workload_provider()
                .verify_log(&outcome.log)
                .map_err(|e| e.to_string())?;
            println!("results: {:?}", outcome.results);
            let log = &outcome.log.log;
            println!("signed resource usage log (verified):");
            println!("  weighted instructions: {}", log.weighted_instructions);
            println!("  peak memory:           {} B", log.peak_memory_bytes);
            println!("  memory integral:       {}", log.memory_integral);
            println!(
                "  io:                    {} in / {} out",
                log.io_bytes_in, log.io_bytes_out
            );
            let inv = PricingModel::default().invoice(log);
            println!("  invoice:               {} nano-credits", inv.total());
            Ok(())
        }
        "serve" => cmd_serve(opts),
        "deploy" => cmd_deploy(opts),
        "invoke" => cmd_invoke(opts),
        "fetch-log" => cmd_fetch_log(opts),
        "settle" => cmd_settle(opts),
        "replay" => cmd_replay(opts),
        "stats" => cmd_stats(opts),
        "top" => cmd_top(opts),
        "recent" => cmd_recent(opts),
        "shutdown" => {
            let mut client = connect_client(opts)?;
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server draining");
            Ok(())
        }
        "fleet" => cmd_fleet(opts),
        other => Err(format!("unknown command {other:?}; try `acctee help`")),
    }
}

/// Connects an attested client using the CLI's trust options.
fn connect_client(opts: &Opts) -> Result<Client, String> {
    let addr = opts
        .connect
        .as_deref()
        .ok_or("--connect ADDR is required")?;
    let timeout = std::time::Duration::from_millis(opts.io_timeout_ms);
    Client::connect(addr, TrustAnchor::new(opts.seed), timeout).map_err(|e| e.to_string())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = opts.listen.as_deref().ok_or("--listen ADDR is required")?;
    // Structured stderr logging: `--log-level info` for lifecycle and
    // shed decisions, `debug` for per-request lines. Default off.
    if let Some(level) = &opts.log_level {
        acctee_telemetry::set_log_level(level.parse()?);
    }
    let config = ServerConfig {
        seed: opts.seed,
        engine: opts.engine,
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        tenant_inflight: opts.tenant_inflight,
        io_timeout: std::time::Duration::from_millis(opts.io_timeout_ms),
        request_deadline: opts
            .request_deadline_ms
            .map(std::time::Duration::from_millis),
        cache_capacity: opts.cache_capacity,
        state_dir: opts.state_dir.as_ref().map(std::path::PathBuf::from),
        fsync: opts.fsync,
        ..ServerConfig::default()
    };
    let server = Server::bind(addr, config).map_err(|e| e.to_string())?;
    // Scripts scrape this line for the ephemeral port; flush so it is
    // visible before the (blocking) serve loop starts.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    println!("server drained, exiting");
    Ok(())
}

fn cmd_deploy(opts: &Opts) -> Result<(), String> {
    let [inp] = opts.rest.as_slice() else {
        return Err("usage: acctee deploy <module> --connect ADDR [--level L] [--out FILE]".into());
    };
    let m = load_module(inp)?;
    validate_module(&m).map_err(|e| e.to_string())?;
    let mut client = connect_client(opts)?;
    let handle = client
        .deploy(&encode_module(&m), opts.level)
        .map_err(|e| e.to_string())?;
    println!("deploy id: {}", handle.deploy_id);
    println!(
        "instrumented module: {} bytes (evidence verified)",
        handle.module.len()
    );
    if let Some(out) = &opts.out {
        std::fs::write(out, &handle.module).map_err(|e| format!("{out}: {e}"))?;
        println!("instrumented module -> {out}");
    }
    Ok(())
}

fn cmd_invoke(opts: &Opts) -> Result<(), String> {
    let [inp] = opts.rest.as_slice() else {
        return Err(
            "usage: acctee invoke <module> --connect ADDR [--invoke F] [--arg V]...".into(),
        );
    };
    let m = load_module(inp)?;
    let args = parse_args_for(&m, &opts.invoke, &opts.args)?;
    let mut client = connect_client(opts)?;
    // Deploy-then-invoke: the server's instrumentation cache makes the
    // repeat deploy of an already-seen module cheap.
    let handle = client
        .deploy(&encode_module(&m), opts.level)
        .map_err(|e| e.to_string())?;
    let outcome = if opts.repeat > 1 {
        // Keep-alive pipelining: all invokes ride the one attested
        // session, written back-to-back and read in order. Every signed
        // log is still verified client-side.
        let specs: Vec<InvokeSpec> = (0..opts.repeat)
            .map(|_| InvokeSpec {
                func: opts.invoke.clone(),
                args: args.clone(),
                input: opts.input.clone(),
                tenant: opts.tenant.clone(),
            })
            .collect();
        let outcomes = client
            .invoke_many(&handle, &specs)
            .map_err(|e| e.to_string())?;
        println!(
            "pipelined {} invokes on one connection (all logs verified)",
            outcomes.len()
        );
        outcomes
            .into_iter()
            .next_back()
            .ok_or("no outcomes returned")?
    } else {
        client
            .invoke(&handle, &opts.invoke, &args, &opts.input, &opts.tenant)
            .map_err(|e| e.to_string())?
    };
    println!("results: {:?}", outcome.results);
    if !outcome.output.is_empty() {
        println!("output: {}", String::from_utf8_lossy(&outcome.output));
    }
    let log = &outcome.log.log;
    println!("signed resource usage log (verified over the wire):");
    println!("  session id:            {}", outcome.session_id);
    println!("  weighted instructions: {}", log.weighted_instructions);
    println!("  peak memory:           {} B", log.peak_memory_bytes);
    println!("  memory integral:       {}", log.memory_integral);
    println!(
        "  io:                    {} in / {} out",
        log.io_bytes_in, log.io_bytes_out
    );
    println!(
        "  invoice:               {} nano-credits",
        outcome.invoice_total
    );
    Ok(())
}

fn cmd_fetch_log(opts: &Opts) -> Result<(), String> {
    let session_id = opts
        .session
        .ok_or("--session N is required (the session id from the invoke)")?;
    let mut client = connect_client(opts)?;
    let signed = client.fetch_log(session_id).map_err(|e| e.to_string())?;
    let log = &signed.log;
    println!("signed resource usage log (verified over the wire):");
    println!("  session id:            {}", log.session_id);
    println!("  weighted instructions: {}", log.weighted_instructions);
    println!("  peak memory:           {} B", log.peak_memory_bytes);
    println!("  memory integral:       {}", log.memory_integral);
    println!(
        "  io:                    {} in / {} out",
        log.io_bytes_in, log.io_bytes_out
    );
    Ok(())
}

/// Reconstructs the deployment from the seed and opens the state
/// directory offline — the same enclave identity the server used, so
/// sealed snapshots unseal and every stored quote verifies.
fn open_durable_offline(opts: &Opts) -> Result<(Deployment, Durable), String> {
    let dir = opts
        .state_dir
        .as_deref()
        .ok_or("--state-dir DIR is required")?;
    let dep = Deployment::new(opts.seed);
    let infra = dep.infrastructure();
    let (durable, recovery) = Durable::open(
        std::path::Path::new(dir),
        DurableOptions {
            fsync: FsyncPolicy::Never, // read-mostly; nothing to protect
        },
        infra.accounting_enclave(),
        infra.pricing,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "replayed {} usage records ({} duplicate frames dropped, {} torn bytes discarded)",
        recovery.records_replayed, recovery.duplicates_dropped, recovery.torn_bytes_discarded
    );
    println!(
        "deploy log: {} deployments ({} torn bytes discarded)",
        recovery.deployments.len(),
        recovery.deploy_torn_bytes_discarded
    );
    if recovery.snapshot_restored {
        println!(
            "sealed registry restored: next session {}",
            recovery.next_session
        );
    }
    Ok((dep, durable))
}

fn cmd_settle(opts: &Opts) -> Result<(), String> {
    let (dep, durable) = open_durable_offline(opts)?;
    let infra = dep.infrastructure();
    let ae = infra.accounting_enclave();
    // Verify every stored record's enclave signature and re-price it;
    // the signed statements must match these sums exactly.
    let mut invoice_totals: std::collections::BTreeMap<String, u128> = Default::default();
    for rec in durable.read_all_records().map_err(|e| e.to_string())? {
        dep.workload_provider()
            .verify_log(&rec.signed)
            .map_err(|e| format!("session {}: {e}", rec.signed.log.session_id))?;
        *invoice_totals.entry(rec.tenant).or_default() +=
            infra.pricing.invoice(&rec.signed.log).total();
    }
    let settlements = durable.settlements(ae).map_err(|e| e.to_string())?;
    for signed in &settlements {
        signed
            .verify(&dep.authority, ae.measurement())
            .map_err(|e| e.to_string())?;
        let s = &signed.statement;
        let expected = invoice_totals.get(&s.tenant).copied().unwrap_or_default();
        if s.total_nano() != expected {
            return Err(format!(
                "settlement drift for {}: statement {} vs summed invoices {}",
                s.tenant,
                s.total_nano(),
                expected
            ));
        }
        println!(
            "tenant {:<16} {:>6} requests  {:>14} nano-credits  (compute {} / memory {} / io {}, remainder {}/2^20, through session {})",
            s.tenant,
            s.requests,
            s.total_nano(),
            s.compute_nano,
            s.memory_nano,
            s.io_nano,
            s.integral_remainder,
            s.upto_session
        );
    }
    println!(
        "settlement verified: {} tenants, every statement enclave-signed and equal to its summed per-request invoices",
        settlements.len()
    );
    Ok(())
}

fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let (dep, durable) = open_durable_offline(opts)?;
    let pricing = dep.infrastructure().pricing;
    let records = durable.read_all_records().map_err(|e| e.to_string())?;
    let mut total = 0u128;
    println!(
        "{:>10}  {:<16} {:>12} {:>12} {:>14}",
        "session", "tenant", "instructions", "peak B", "nano-credits"
    );
    for rec in &records {
        dep.workload_provider()
            .verify_log(&rec.signed)
            .map_err(|e| format!("session {}: {e}", rec.signed.log.session_id))?;
        let inv = pricing.invoice(&rec.signed.log).total();
        total += inv;
        println!(
            "{:>10}  {:<16} {:>12} {:>12} {:>14}",
            rec.signed.log.session_id,
            rec.tenant,
            rec.signed.log.weighted_instructions,
            rec.signed.log.peak_memory_bytes,
            inv
        );
    }
    println!(
        "{} records, all enclave signatures verified, {} nano-credits total",
        records.len(),
        total
    );
    Ok(())
}

/// Renders a nanosecond duration at human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

fn print_snapshot(s: &acctee_net::StatsSnapshot) {
    println!(
        "uptime {}  workers {}/{} busy  queue {}/{}  connections {} total / {} active",
        fmt_ns(s.uptime_ns),
        s.workers_busy,
        s.workers,
        s.queue_depth,
        s.queue_capacity,
        s.connections_total,
        s.connections_active
    );
    let kinds: Vec<String> = s
        .requests_by_kind
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    println!(
        "requests {} total  [{}]",
        s.requests_total(),
        kinds.join(", ")
    );
    println!(
        "shed {} (queue {}, tenant {})  errors {}  timeouts {}",
        s.shed_total(),
        s.shed_queue_total,
        s.shed_tenant_total,
        s.errors_total,
        s.timeouts_total
    );
    println!(
        "wal: {} commits covering {} usage records",
        s.wal_commits_total, s.wal_committed_records_total
    );
    println!(
        "instr cache: {} hits / {} misses, {} evictions, {} singleflight waits",
        s.instr_cache.hits,
        s.instr_cache.misses,
        s.instr_cache.evictions,
        s.instr_cache.singleflight_waits
    );
    println!(
        "invoke latency: n={}  p50 {}  p90 {}  p99 {}",
        s.latency.count,
        fmt_ns(s.latency.p50_ns),
        fmt_ns(s.latency.p90_ns),
        fmt_ns(s.latency.p99_ns)
    );
    for (stage, l) in &s.stages {
        if l.count > 0 {
            println!(
                "  stage {stage:<10} n={:<6} p50 {}  p90 {}  p99 {}",
                l.count,
                fmt_ns(l.p50_ns),
                fmt_ns(l.p90_ns),
                fmt_ns(l.p99_ns)
            );
        }
    }
}

fn print_tenants(s: &acctee_net::StatsSnapshot) {
    println!(
        "{:<16} {:>8} {:>10} {:>8} {:>16} {:>20}",
        "TENANT", "INFLIGHT", "REQUESTS", "SHED", "WEIGHTED_INSTR", "INVOICE_NANO"
    );
    for t in &s.tenants {
        println!(
            "{:<16} {:>8} {:>10} {:>8} {:>16} {:>20}",
            t.tenant,
            t.inflight,
            t.requests_total,
            t.shed_total,
            t.weighted_instructions_total,
            t.invoice_nanocredits_total
        );
    }
    if s.tenants.is_empty() {
        println!("(no tenants yet)");
    }
}

/// Runs `show` once, or repeatedly every `--watch` interval with a
/// fresh attested connection per refresh (the server's idle timeout
/// would close a connection that only talks every N seconds).
fn watch_loop(
    opts: &Opts,
    mut show: impl FnMut(&mut Client) -> Result<(), String>,
) -> Result<(), String> {
    let Some(secs) = opts.watch_secs else {
        return show(&mut connect_client(opts)?);
    };
    loop {
        show(&mut connect_client(opts)?)?;
        println!("---");
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1)));
    }
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let prom = opts.prom;
    watch_loop(opts, move |client| {
        if prom {
            let text = client.stats_prometheus().map_err(|e| e.to_string())?;
            // Refuse to relay exposition text the strict parser rejects:
            // a scrape target that emits garbage should fail loudly here,
            // not at ingestion time.
            acctee_telemetry::parse_prometheus(&text)
                .map_err(|e| format!("server sent malformed exposition text: {e}"))?;
            print!("{text}");
        } else {
            print_snapshot(&client.stats().map_err(|e| e.to_string())?);
        }
        Ok(())
    })
}

fn cmd_top(opts: &Opts) -> Result<(), String> {
    watch_loop(opts, |client| {
        print_tenants(&client.stats().map_err(|e| e.to_string())?);
        Ok(())
    })
}

fn cmd_recent(opts: &Opts) -> Result<(), String> {
    let mut client = connect_client(opts)?;
    let records = client.recent(opts.limit).map_err(|e| e.to_string())?;
    println!(
        "{:<18} {:<9} {:<12} {:<12} {:<8} {:>10}  ERROR",
        "TRACE_ID", "KIND", "TENANT", "FUNC", "OUTCOME", "TOTAL"
    );
    for r in &records {
        println!(
            "{:#018x} {:<9} {:<12} {:<12} {:<8} {:>10}  {}",
            r.trace_id,
            r.kind,
            r.tenant,
            r.func,
            r.outcome.name(),
            fmt_ns(r.total_ns),
            r.error
        );
    }
    if records.is_empty() {
        println!("(flight recorder is empty)");
    }
    Ok(())
}

fn cmd_fleet(opts: &Opts) -> Result<(), String> {
    if let [sub, stray @ ..] = opts.rest.as_slice() {
        no_positionals(&format!("fleet {sub}"), stray)?;
    }
    match opts.rest.first().map(String::as_str) {
        Some("coordinate") => cmd_fleet_coordinate(opts),
        Some("work") => cmd_fleet_work(opts),
        Some("status") => cmd_fleet_status(opts),
        _ => Err("usage: acctee fleet <coordinate|work|status> ...".into()),
    }
}

fn cmd_fleet_coordinate(opts: &Opts) -> Result<(), String> {
    let addr = opts.listen.as_deref().ok_or("--listen ADDR is required")?;
    let state_dir = opts
        .state_dir
        .as_deref()
        .ok_or("--state-dir DIR is required")?;
    let kind = WorkloadKind::parse(&opts.workload)
        .ok_or_else(|| format!("--workload: unknown workload `{}`", opts.workload))?;
    let specs = UnitSpec::campaign(opts.units, kind, opts.unit_count, opts.seed);
    let config = FleetConfig {
        seed: opts.seed,
        state_dir: std::path::PathBuf::from(state_dir),
        redundancy: opts.redundancy,
        probation_checks: opts.probation,
        deadline_ms: opts.deadline_ms,
        io_timeout: std::time::Duration::from_millis(opts.io_timeout_ms),
        ..FleetConfig::default()
    };
    let coordinator = Coordinator::open(addr, config, &specs).map_err(|e| e.to_string())?;
    let (bound, handle) = coordinator.spawn().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the ephemeral port; flush so it is
    // visible before the campaign loop starts.
    println!("listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Poll often enough that a short campaign still reports progress;
    // the last line printed is the count at completion.
    let mut last = 0u64;
    loop {
        let done = handle.wait_done(std::time::Duration::from_millis(200));
        let r = handle.report();
        if r.completed != last {
            last = r.completed;
            println!(
                "progress: {}/{} units ({} pending, {} in flight, {} checks, {} redispatched)",
                r.completed,
                r.units_total,
                r.pending,
                r.inflight,
                r.checks_scheduled,
                r.redispatched
            );
            let _ = std::io::stdout().flush();
        }
        if done {
            break;
        }
    }
    let r = handle.report();
    println!(
        "campaign complete: {}/{} units, {} spot checks ({} mismatched), {} redispatched, {} rejected",
        r.completed, r.units_total, r.checks_scheduled, r.checks_mismatched, r.redispatched, r.rejected
    );
    for w in &r.workers {
        if w.quarantined {
            println!("quarantined: {}", w.name);
        }
    }
    let statements = handle
        .reconcile(&ReconcileConfig {
            rate: opts.rate,
            bonus_pool: opts.bonus,
            ..ReconcileConfig::default()
        })
        .map_err(|e| e.to_string())?;
    // Verify out-of-band what any node could: rebuild the trust anchor
    // from the seed and check each signed statement.
    let dep = Deployment::new(opts.seed);
    let ae = dep.infrastructure().accounting_enclave().measurement();
    for s in &statements {
        s.verify(&dep.authority, ae).map_err(|e| e.to_string())?;
        let st = &s.statement;
        println!(
            "statement {:<12} {:>4} credited  {:>12} wic  {:>14} nano paid  {:>10} bonus  (enclave-signed, verified)",
            st.worker, st.units_credited, st.weighted_instructions, st.paid_nano, st.bonus_nano
        );
    }
    handle.stop();
    Ok(())
}

fn cmd_fleet_work(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .connect
        .as_deref()
        .ok_or("--connect ADDR is required")?;
    let behavior = Behavior::parse(&opts.behavior)
        .ok_or_else(|| format!("--behavior: unknown behavior `{}`", opts.behavior))?;
    let cfg = WorkerConfig {
        behavior,
        capacity: opts.capacity,
        ..WorkerConfig::new(&opts.name, opts.seed)
    };
    let summary = run_worker(addr, &cfg).map_err(|e| e.to_string())?;
    match &summary.exit {
        WorkerExit::CampaignDone => println!("campaign done"),
        WorkerExit::Quarantined(reason) => println!("quarantined: {reason}"),
        WorkerExit::Rejected(reason) => println!("join rejected: {reason}"),
    }
    println!(
        "worker {}: {} completed, {} trapped, {} stale, {} rejected",
        opts.name, summary.completed, summary.trapped, summary.stale, summary.rejected
    );
    Ok(())
}

fn cmd_fleet_status(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .connect
        .as_deref()
        .ok_or("--connect ADDR is required")?;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let timeout = std::time::Duration::from_millis(opts.io_timeout_ms);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    wire::write_request(&mut stream, &wire::Request::FleetStatus).map_err(|e| e.to_string())?;
    let fleet = match wire::read_response(&mut stream).map_err(|e| e.to_string())? {
        wire::Response::FleetStatusOk { fleet } => fleet,
        wire::Response::Error { message } => return Err(message),
        other => return Err(format!("unexpected response: {other:?}")),
    };
    // One write: a reader that stops at the first line (`| grep -q`)
    // cannot close the pipe between lines and fail a later print.
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: {}/{} units complete  {} pending  {} in flight  done={}",
        fleet.completed, fleet.units_total, fleet.pending, fleet.inflight, fleet.done
    );
    let _ = writeln!(
        out,
        "checks: {} scheduled, {} mismatched;  {} redispatched, {} rejected",
        fleet.checks_scheduled, fleet.checks_mismatched, fleet.redispatched, fleet.rejected
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>9}  QUARANTINED",
        "WORKER", "COMPLETED", "INFLIGHT"
    );
    for w in &fleet.workers {
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>9}  {}",
            w.name,
            w.completed,
            w.inflight,
            if w.quarantined { "yes" } else { "no" }
        );
    }
    if fleet.workers.is_empty() {
        out.push_str("(no workers joined yet)\n");
    }
    use std::io::Write as _;
    std::io::stdout()
        .write_all(out.as_bytes())
        .map_err(|e| format!("stdout: {e}"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_flag(name: &str) -> Result<Engine, String> {
        parse_opts(&["--engine".to_string(), name.to_string()]).map(|o| o.engine)
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_refused() {
        for flag in ["--io", "--shards", "--listne"] {
            let refused = parse_opts(&argv(&["--listen", "127.0.0.1:0", flag, "3"]));
            assert_eq!(
                refused.err(),
                Some(format!("unknown flag {flag}; see `acctee help`"))
            );
        }
        // A flag's value may itself start with a dash.
        let o = parse_opts(&argv(&["m.wat", "--arg", "-3"])).unwrap();
        assert_eq!((o.rest, o.args), (argv(&["m.wat"]), argv(&["-3"])));
    }

    #[test]
    fn commands_without_positionals_refuse_a_stray_one() {
        // Refused before anything binds or connects.
        let stray = parse_opts(&argv(&["thread", "--listen", "127.0.0.1:0"])).unwrap();
        for cmd in ["serve", "stats", "shutdown", "settle"] {
            let err = dispatch(cmd, &stray).unwrap_err();
            assert!(err.contains("takes no argument \"thread\""), "{cmd}: {err}");
        }
        for sub in ["coordinate", "work", "status"] {
            let opts = parse_opts(&argv(&[sub, "extra", "--listen", "127.0.0.1:0"])).unwrap();
            let err = dispatch("fleet", &opts).unwrap_err();
            assert_eq!(
                err,
                format!("fleet {sub} takes no argument \"extra\"; see `acctee help`")
            );
        }
    }

    #[test]
    fn engine_flag_accepts_exactly_tree_and_regs() {
        assert_eq!(engine_flag("tree"), Ok(Engine::Tree));
        assert_eq!(engine_flag("regs"), Ok(Engine::Regs));
        assert_eq!(
            engine_flag("bytecode"),
            Err("unknown engine \"bytecode\" (tree|regs)".to_string())
        );
    }

    #[test]
    fn fsync_flag_accepts_exactly_always_and_never() {
        let fsync = |v: &str| parse_opts(&argv(&["--fsync", v])).map(|o| o.fsync);
        assert_eq!(fsync("always"), Ok(FsyncPolicy::Always));
        assert_eq!(fsync("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            fsync("every=8"),
            Err("--fsync: unknown policy `every=8` (always|never)".to_string())
        );
    }
}
