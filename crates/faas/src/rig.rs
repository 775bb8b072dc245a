//! The Fig 9 rig: serves one function on the three paths this
//! repository has, one request per path per round, and derives every
//! Fig 9 row from those samples.
//!
//! * **plain** — the uninstrumented module, compiled once at
//!   [`Rig::start`], a fresh instance per request sharing that
//!   [`CompiledModule`], host I/O through [`IoMeter::register`]. Rows
//!   `WASM`, `WASM-SGX SIM` and `WASM-SGX HW`.
//! * **served** — an in-process [`Server`] on an ephemeral loopback
//!   port with [`ServerConfig::default`], the function deployed at
//!   [`Level::LoopBased`]; each request is a verified
//!   [`Client::invoke`], timed at the client. The served path always
//!   meters I/O, so rows `WASM-SGX HW instr.` and `WASM-SGX HW I/O`
//!   share this one sample.
//! * **js** — the MiniJS version, run directly. Row `JS`.
//!
//! Each path's response is checked against the function's native
//! result before the round is returned. What the real stack cannot
//! produce (the HTTP front end, SGX-LKL, enclave transitions, the
//! hardware-mode slowdown, OpenFaaS) is added by the
//! [`OverheadModel`]; see [`Round::service_ns`].

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acctee::{IoMeter, Level, ResourceUsageLog};
use acctee_interp::{CompiledModule, Config, Imports, Instance};
use acctee_net::{Client, DeployHandle, Server, ServerConfig, TrustAnchor};
use acctee_script::{Interpreter, Value as JsValue};
use acctee_wasm::encode::encode_module;
use acctee_wasm::Module;
use acctee_workloads::faas_fns;

use crate::setup::{OverheadModel, Setup};

/// Client-side socket timeout of the served path.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Which function is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionKind {
    /// Reply with the request payload.
    Echo,
    /// Bilinear resize to 64x64 RGB.
    Resize,
}

impl FunctionKind {
    /// Fig 9 label.
    pub fn name(self) -> &'static str {
        match self {
            FunctionKind::Echo => "echo",
            FunctionKind::Resize => "resize",
        }
    }

    fn module(self) -> Module {
        match self {
            FunctionKind::Echo => faas_fns::echo_module(),
            FunctionKind::Resize => faas_fns::resize_module(),
        }
    }

    fn js_source(self) -> &'static str {
        match self {
            FunctionKind::Echo => faas_fns::ECHO_JS,
            FunctionKind::Resize => faas_fns::RESIZE_JS,
        }
    }

    /// The response a correct function gives to `payload` (for
    /// resize, a [`faas_fns::test_image`]-style `[w][h][pixels]`).
    fn expected(self, payload: &[u8]) -> Vec<u8> {
        match self {
            FunctionKind::Echo => payload.to_vec(),
            FunctionKind::Resize => {
                let dim = |at: usize| {
                    u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes")) as usize
                };
                faas_fns::resize_native(dim(0), dim(4), &payload[8..])
            }
        }
    }
}

/// One timed request on one path.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall-clock nanoseconds the request took.
    pub ns: u64,
    /// The response.
    pub output: Vec<u8>,
}

/// One request per path, all with the same payload.
#[derive(Debug, Clone)]
pub struct Round {
    /// The function served.
    pub kind: FunctionKind,
    /// Request payload bytes.
    pub payload_len: usize,
    /// The uninstrumented module, in process.
    pub plain: Sample,
    /// The verified invoke on the in-process server.
    pub served: Sample,
    /// The MiniJS version.
    pub js: Sample,
    /// The served request's signed usage log, verified by the client.
    pub log: ResourceUsageLog,
}

impl Round {
    /// The sample `setup`'s row is derived from.
    pub fn sample(&self, setup: Setup) -> &Sample {
        match setup {
            Setup::Js => &self.js,
            s if s.instrumented() => &self.served,
            _ => &self.plain,
        }
    }

    /// `setup`'s service time in this round: its path's measured time
    /// plus what [`OverheadModel::default`] adds for `setup`.
    pub fn service_ns(&self, setup: Setup) -> u64 {
        OverheadModel::default().service_ns(
            self.kind,
            setup,
            self.sample(setup).ns,
            self.payload_len,
        )
    }
}

/// The median of `setup`'s service time over `rounds`.
///
/// # Panics
///
/// Panics if `rounds` is empty.
pub fn median_service_ns(rounds: &[Round], setup: Setup) -> u64 {
    let mut ns: Vec<u64> = rounds.iter().map(|r| r.service_ns(setup)).collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// One function, ready to serve on every path.
pub struct Rig {
    kind: FunctionKind,
    module: Module,
    artifact: Arc<CompiledModule>,
    server: LoopbackServer,
    deployed: DeployHandle,
}

impl Rig {
    /// Compiles the plain module, starts the server and deploys the
    /// function on it.
    ///
    /// # Errors
    ///
    /// Returns a message if compilation, the bind or the verified
    /// deploy fails.
    pub fn start(kind: FunctionKind) -> Result<Rig, String> {
        let module = kind.module();
        let artifact = CompiledModule::compile(&module).map_err(msg)?;
        let config = ServerConfig::default();
        let anchor = TrustAnchor::new(config.seed);
        let (addr, thread) = Server::bind("127.0.0.1:0", config).map_err(msg)?.spawn();
        let server = LoopbackServer {
            addr,
            anchor,
            thread: Some(thread),
        };
        let deployed = server
            .connect()?
            .deploy(&encode_module(&module), Level::LoopBased)
            .map_err(msg)?;
        Ok(Rig {
            kind,
            module,
            artifact,
            server,
            deployed,
        })
    }

    /// Serves `payload` once on each path, timing each request, and
    /// checks every response against the function's native result.
    ///
    /// # Errors
    ///
    /// Returns a message if a path fails or answers wrongly.
    pub fn round(&self, payload: &[u8]) -> Result<Round, String> {
        let plain = timed(|| self.plain(payload))?;
        // A fresh connection per request, attested outside the timed
        // span: a round's other paths can outlast the server's idle
        // timeout.
        let mut client = self.server.connect()?;
        let mut log = None;
        let served = timed(|| {
            let outcome = client
                .invoke(&self.deployed, "main", &[], payload, "fig9")
                .map_err(msg)?;
            log = Some(outcome.log.log);
            Ok(outcome.output)
        })?;
        let js = timed(|| self.js(payload))?;
        let expected = self.kind.expected(payload);
        for (path, sample) in [("plain", &plain), ("served", &served), ("js", &js)] {
            if sample.output != expected {
                return Err(format!("{} on {path}: wrong response", self.kind.name()));
            }
        }
        Ok(Round {
            kind: self.kind,
            payload_len: payload.len(),
            plain,
            served,
            js,
            log: log.expect("set by the served request"),
        })
    }

    fn plain(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let meter = IoMeter::with_input(payload);
        let imports = meter.register(Imports::new());
        let mut inst = Instance::with_artifact(
            &self.module,
            imports,
            Config::default(),
            self.artifact.clone(),
        )
        .map_err(msg)?;
        inst.invoke("main", &[]).map_err(msg)?;
        Ok(meter.take_output())
    }

    fn js(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let mut interp = Interpreter::new();
        let input = payload.iter().map(|b| JsValue::Num(f64::from(*b)));
        interp.set_global("input", JsValue::array(input.collect()));
        let out = interp.run(self.kind.js_source()).map_err(msg)?;
        let arr = out.as_array().ok_or("the function must return an array")?;
        let bytes = arr
            .borrow()
            .iter()
            .map(|v| v.as_num().unwrap_or(0.0) as u8)
            .collect();
        Ok(bytes)
    }
}

/// The in-process server; dropping it shuts the server down.
struct LoopbackServer {
    addr: SocketAddr,
    anchor: TrustAnchor,
    thread: Option<JoinHandle<()>>,
}

impl LoopbackServer {
    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr, self.anchor.clone(), TIMEOUT).map_err(msg)
    }
}

impl Drop for LoopbackServer {
    /// Shuts the server down and waits for it to drain; if it cannot
    /// be reached, it is left to end with the process.
    fn drop(&mut self) {
        let stopped = self.connect().and_then(|mut c| c.shutdown().map_err(msg));
        if let (Ok(()), Some(thread)) = (stopped, self.thread.take()) {
            let _ = thread.join();
        }
    }
}

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn timed(f: impl FnOnce() -> Result<Vec<u8>, String>) -> Result<Sample, String> {
    let start = Instant::now();
    let output = f()?;
    Ok(Sample {
        ns: start.elapsed().as_nanos() as u64,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_workloads::faas_fns::{test_image, OUT_SIZE};

    #[test]
    fn echo_round_serves_every_path() {
        let rig = Rig::start(FunctionKind::Echo).unwrap();
        let round = rig.round(b"ping").unwrap();
        for setup in Setup::ALL {
            assert_eq!(round.sample(*setup).output, b"ping", "{setup}");
        }
    }

    #[test]
    fn overheads_rank_paths() {
        let rig = Rig::start(FunctionKind::Echo).unwrap();
        let round = rig.round(b"ping").unwrap();
        // Rows that share a sample rank by the model alone.
        let [wasm, sim, hw, instr, io] = [
            Setup::Wasm,
            Setup::WasmSgxSim,
            Setup::WasmSgxHw,
            Setup::WasmSgxHwInstr,
            Setup::WasmSgxHwIo,
        ]
        .map(|s| round.service_ns(s));
        assert!(wasm < sim && sim < hw, "{wasm} {sim} {hw}");
        assert_eq!(instr, io);
    }

    #[test]
    fn resize_round_is_correct_on_every_path() {
        let img = test_image(16, 16);
        let expected = faas_fns::resize_native(16, 16, &img[8..]);
        let rig = Rig::start(FunctionKind::Resize).unwrap();
        let round = rig.round(&img).unwrap();
        for setup in Setup::ALL {
            let out = &round.sample(*setup).output;
            assert_eq!(out.len(), OUT_SIZE * OUT_SIZE * 3, "{setup}");
            assert_eq!(*out, expected, "{setup}");
        }
    }

    #[test]
    fn served_path_is_correct_and_metered() {
        let img = test_image(16, 16);
        let expected = faas_fns::resize_native(16, 16, &img[8..]);
        let rig = Rig::start(FunctionKind::Resize).unwrap();
        let round = rig.round(&img).unwrap();
        assert_eq!(round.sample(Setup::WasmSgxHwInstr).output, expected);
        assert!(
            round.log.weighted_instructions > 0,
            "the served path is metered"
        );
    }

    #[test]
    fn served_round_reports_request_bytes() {
        let rig = Rig::start(FunctionKind::Echo).unwrap();
        let round = rig.round(b"ping").unwrap();
        assert_eq!((round.log.io_bytes_in, round.log.io_bytes_out), (4, 4));

        let img = test_image(16, 16);
        let rig = Rig::start(FunctionKind::Resize).unwrap();
        let round = rig.round(&img).unwrap();
        assert_eq!(round.log.io_bytes_in, img.len() as u64);
        assert_eq!(round.log.io_bytes_out, (OUT_SIZE * OUT_SIZE * 3) as u64);
    }
}
