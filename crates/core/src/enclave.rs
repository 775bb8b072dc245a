//! The two enclaves of AccTEE (§3.3): the instrumentation enclave (IE)
//! and the accounting enclave (AE).
//!
//! Both run as simulated SGX enclaves whose code identity is publicly
//! known, so either party can pre-compute the expected measurement and
//! check it against quotes.

use acctee_instrument::{instrument, Level, WeightTable};
use acctee_interp::{
    Accounting, CompiledModule, Config, Imports, Instance, InstrWeights, Observer, Value,
    WeightsKey,
};
use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::enclave::report_data;
use acctee_sgx::{Enclave, Measurement, Platform, QuotingEnclave};
use acctee_wasm::decode::decode_module;
use acctee_wasm::encode::encode_module;
use acctee_wasm::instr::Instr;
use acctee_wasm::Module;

use crate::error::AccTeeError;
use crate::evidence::InstrumentationEvidence;
use crate::io::IoMeter;
use crate::log::{ResourceUsageLog, SignedLog};

/// The publicly auditable code identity of the instrumentation
/// enclave, parameterised by the weight table it embeds (§3.7: the
/// weights are part of the attested environment).
pub fn ie_code(weights: &WeightTable) -> Vec<u8> {
    let mut code = b"acctee-instrumentation-enclave-v1".to_vec();
    code.extend_from_slice(&weights.to_bytes());
    code
}

/// The publicly auditable code identity of the accounting enclave.
pub fn ae_code(weights: &WeightTable) -> Vec<u8> {
    let mut code = b"acctee-accounting-enclave-v1".to_vec();
    code.extend_from_slice(&weights.to_bytes());
    code
}

/// The canonical digest an [`AccountingEnclave::attest_channel`] quote
/// binds for a given nonce (clients recompute this to check the
/// binding).
pub fn channel_binding(nonce: &[u8; 32]) -> Digest {
    let mut payload = Vec::with_capacity(32 + 17);
    payload.extend_from_slice(b"acctee-net-attest");
    payload.extend_from_slice(nonce);
    sha256(&payload)
}

/// The instrumentation enclave: validates, instruments and signs.
pub struct InstrumentationEnclave {
    enclave: Enclave,
    qe: QuotingEnclave,
    weights: WeightTable,
    /// Hash of `weights`, precomputed once — part of every evidence
    /// binding and of the instrumentation-cache key.
    weight_hash: Digest,
}

impl std::fmt::Debug for InstrumentationEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InstrumentationEnclave({})", self.enclave.measurement())
    }
}

impl InstrumentationEnclave {
    /// Launches the IE on `platform`, with `qe` as its local quoting
    /// enclave.
    pub fn launch(platform: &Platform, qe: QuotingEnclave, weights: WeightTable) -> Self {
        let enclave = platform.create_enclave(&ie_code(&weights));
        let weight_hash = sha256(&weights.to_bytes());
        InstrumentationEnclave {
            enclave,
            qe,
            weights,
            weight_hash,
        }
    }

    /// The IE's measurement (for the parties' allow-lists).
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// Hash of the weight table this enclave instruments with. Keys
    /// the instrumentation cache: two enclaves agree on it iff they
    /// would produce interchangeable instrumented modules.
    pub fn weight_hash(&self) -> Digest {
        self.weight_hash
    }

    /// Instruments `module_bytes` at `level`, returning the
    /// instrumented binary and signed evidence.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::BadModule`] on malformed input,
    /// [`AccTeeError::Instrumentation`] if the module does not
    /// validate, [`AccTeeError::Attestation`] if quoting fails.
    pub fn instrument(
        &self,
        module_bytes: &[u8],
        level: Level,
    ) -> Result<(Vec<u8>, InstrumentationEvidence), AccTeeError> {
        let hub = acctee_telemetry::global();
        let _span = hub
            .span("enclave.ie.instrument", "enclave")
            .with_arg("bytes", module_bytes.len())
            .with_arg("level", level.to_string());
        let module = {
            let _s = hub.span("enclave.ie.decode", "enclave");
            decode_module(module_bytes).map_err(|e| AccTeeError::BadModule(e.to_string()))?
        };
        let result = instrument(&module, level, &self.weights)
            .map_err(|e| AccTeeError::Instrumentation(e.to_string()))?;
        let instrumented_bytes = {
            let _s = hub.span("enclave.ie.encode", "enclave");
            encode_module(&result.module)
        };
        let original_hash = sha256(module_bytes);
        let instrumented_hash = sha256(&instrumented_bytes);
        let weight_hash = self.weight_hash;
        let binding = crate::evidence::binding(
            &original_hash,
            &instrumented_hash,
            level,
            &weight_hash,
            result.counter_global,
        );
        let quote = {
            let _s = hub.span("enclave.ie.quote", "enclave");
            self.qe.quote(&self.enclave.report(report_data(&binding)))?
        };
        Ok((
            instrumented_bytes,
            InstrumentationEvidence {
                original_hash,
                instrumented_hash,
                level,
                weight_hash,
                counter_global: result.counter_global,
                quote,
            },
        ))
    }
}

/// A workload verified and loaded into the accounting enclave, ready
/// for (repeated) execution.
#[derive(Debug, Clone)]
pub struct LoadedWorkload {
    module: Module,
    module_hash: Digest,
    counter_global: u32,
    /// The loading enclave's weights, lowered into the artifact so the
    /// memory integral runs batched on the register tier.
    weights: InstrWeights,
    /// Compile-once/serve-many artifact, built lazily on the first
    /// compiled-engine execution and shared by every later one
    /// (`None` inside = compilation failed; executions fall back to
    /// the per-instance compile, which reports the error).
    artifact: std::sync::OnceLock<Option<std::sync::Arc<CompiledModule>>>,
}

impl LoadedWorkload {
    /// The decoded instrumented module (for inspection in tests).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The shared artifact, built with this workload's weights on
    /// first use.
    fn artifact(&self) -> Option<std::sync::Arc<CompiledModule>> {
        self.artifact
            .get_or_init(|| {
                acctee_telemetry::global()
                    .metrics()
                    .counter("acctee_artifact_compiles_total")
                    .inc();
                CompiledModule::compile_weighted(&self.module, self.weights.clone()).ok()
            })
            .clone()
    }
}

/// The outcome of one accounted execution.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Values returned by the invoked function.
    pub results: Vec<Value>,
    /// Bytes written by the workload through the I/O interface.
    pub output: Vec<u8>,
    /// The signed resource usage log.
    pub log: SignedLog,
}

/// Observer computing the memory integral ∫ mem d(wic) alongside the
/// execution (the [`crate::log::MemoryPolicy::Integral`] policy).
///
/// Weighted delivery: on the register tier with an artifact lowered
/// under the same weights, each straight-line segment arrives as one
/// weighted sum, and `memory.grow` closes its segment before
/// reporting the new size — so `Σ segment × mem` equals the
/// per-instruction `Σ weight × mem` every other path computes, bit
/// for bit.
struct MemoryIntegral<'w> {
    weights: &'w WeightTable,
    key: WeightsKey,
    cur_mem: u64,
    integral: u128,
}

impl Observer for MemoryIntegral<'_> {
    fn on_instr(&mut self, instr: &Instr) {
        let w = self.weights.weight(instr);
        self.integral += u128::from(w) * u128::from(self.cur_mem);
    }

    fn on_weighted_block(&mut self, _instrs: u64, weighted: u64) {
        self.integral += u128::from(weighted) * u128::from(self.cur_mem);
    }

    fn on_mem_grow(&mut self, new_size_bytes: usize) {
        self.cur_mem = new_size_bytes as u64;
    }

    fn accounting(&self) -> Accounting {
        Accounting::Weighted(self.key)
    }
}

/// The accounting enclave: verifies evidence, executes workloads and
/// signs resource usage logs.
pub struct AccountingEnclave {
    enclave: Enclave,
    qe: QuotingEnclave,
    weights: WeightTable,
    /// Hash of `weights`, checked against every evidence at `load`.
    weight_hash: Digest,
    /// `weights` as the interpreter's lowering consumes them, keyed by
    /// `weight_hash`.
    instr_weights: InstrWeights,
    expected_ie: Measurement,
    /// Interpreter limits applied to workloads.
    pub exec_config: Config,
}

impl std::fmt::Debug for AccountingEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AccountingEnclave({})", self.enclave.measurement())
    }
}

impl AccountingEnclave {
    /// Launches the AE on `platform`. `expected_ie` is the measurement
    /// of the instrumentation enclave whose evidence it accepts.
    pub fn launch(
        platform: &Platform,
        qe: QuotingEnclave,
        weights: WeightTable,
        expected_ie: Measurement,
    ) -> Self {
        let enclave = platform.create_enclave(&ae_code(&weights));
        let weight_hash = sha256(&weights.to_bytes());
        let table = weights.clone();
        let instr_weights = InstrWeights::new(WeightsKey(weight_hash), move |i| table.weight(i));
        AccountingEnclave {
            enclave,
            qe,
            weights,
            weight_hash,
            instr_weights,
            expected_ie,
            exec_config: Config::default(),
        }
    }

    /// The AE's measurement (for the parties' allow-lists).
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// Produces a quote over a caller-supplied channel nonce: the
    /// server side of the networked attestation handshake. The report
    /// data binds `sha256("acctee-net-attest" || nonce)`, so a remote
    /// client that verifies the quote and recomputes the binding knows
    /// it is talking to *this* accounting enclave, live, on this
    /// connection (the fresh nonce defeats quote replay).
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] if quoting fails.
    pub fn attest_channel(&self, nonce: &[u8; 32]) -> Result<acctee_sgx::Quote, AccTeeError> {
        let binding = channel_binding(nonce);
        let quote = self.qe.quote(&self.enclave.report(report_data(&binding)))?;
        Ok(quote)
    }

    /// Seals `data` to this accounting enclave's identity, for durable
    /// state the AE must be able to trust across restarts (deployment
    /// registry, billing rollups). The nonce must be unique per seal —
    /// the durable layer derives it from a monotonic snapshot sequence
    /// number so no two seals ever share one.
    pub fn seal_state(&self, nonce: [u8; 16], data: &[u8]) -> acctee_sgx::seal::Sealed {
        acctee_sgx::seal::seal(&self.enclave, nonce, data)
    }

    /// Unseals state previously sealed by [`Self::seal_state`].
    /// Returns `None` when the blob was sealed by a different enclave
    /// identity (other code, other platform) or was tampered with.
    pub fn unseal_state(&self, sealed: &acctee_sgx::seal::Sealed) -> Option<Vec<u8>> {
        acctee_sgx::seal::unseal(&self.enclave, sealed)
    }

    /// Quotes an arbitrary 32-byte binding digest — used to sign
    /// settlement statements, whose canonical binding is computed by
    /// the billing layer. The verifier checks the quote against this
    /// AE's measurement and recomputes the binding, exactly as for
    /// usage logs.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] if quoting fails.
    pub fn sign_binding(&self, binding: &Digest) -> Result<acctee_sgx::Quote, AccTeeError> {
        let quote = self.qe.quote(&self.enclave.report(report_data(binding)))?;
        Ok(quote)
    }

    /// Verifies evidence against the attestation authority and loads
    /// the workload.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::EvidenceMismatch`] when hashes, weight table or
    /// IE measurement disagree; [`AccTeeError::Attestation`] when the
    /// quote is invalid; [`AccTeeError::BadModule`] on undecodable
    /// bytes.
    pub fn load(
        &self,
        authority: &acctee_sgx::AttestationAuthority,
        module_bytes: &[u8],
        evidence: &InstrumentationEvidence,
    ) -> Result<LoadedWorkload, AccTeeError> {
        let _span = acctee_telemetry::span("enclave.ae.verify_load", "enclave")
            .with_arg("bytes", module_bytes.len());
        let attested = authority.verify(&evidence.quote)?;
        if attested != self.expected_ie {
            return Err(AccTeeError::EvidenceMismatch(format!(
                "evidence signed by {attested}, expected {}",
                self.expected_ie
            )));
        }
        if evidence.quote.report_data[..32] != evidence.binding() {
            return Err(AccTeeError::EvidenceMismatch(
                "quote does not bind this evidence".into(),
            ));
        }
        let module_hash = sha256(module_bytes);
        if module_hash != evidence.instrumented_hash {
            return Err(AccTeeError::EvidenceMismatch(
                "module bytes do not match evidence".into(),
            ));
        }
        if self.weight_hash != evidence.weight_hash {
            return Err(AccTeeError::EvidenceMismatch(
                "weight table differs from attested environment".into(),
            ));
        }
        let module =
            decode_module(module_bytes).map_err(|e| AccTeeError::BadModule(e.to_string()))?;
        Ok(LoadedWorkload {
            module,
            module_hash,
            counter_global: evidence.counter_global,
            weights: self.instr_weights.clone(),
            artifact: std::sync::OnceLock::new(),
        })
    }

    /// Executes `func` on a loaded workload, metering CPU, memory and
    /// I/O, and returns the signed log.
    ///
    /// # Errors
    ///
    /// Propagates workload traps as [`AccTeeError::Trap`]; attestation
    /// failures if the log cannot be quoted.
    pub fn execute(
        &self,
        workload: &LoadedWorkload,
        func: &str,
        args: &[Value],
        input: &[u8],
        session_id: u64,
    ) -> Result<ExecutionOutcome, AccTeeError> {
        let hub = acctee_telemetry::global();
        let mut span = hub
            .span("enclave.ae.execute", "enclave")
            .with_arg("func", func)
            .with_arg("engine", self.exec_config.engine.name());
        let meter = IoMeter::with_input(input);
        let imports = meter.register(Imports::new());
        // Under the compiled engines, repeated executions of one loaded
        // workload share a single artifact (§3.3 compile-once/
        // serve-many) instead of recompiling per call. It carries the
        // workload's weights, so on the register tier the memory
        // integral arrives as one weighted sum per segment.
        let shared = if self.exec_config.engine != acctee_interp::Engine::Tree {
            workload.artifact()
        } else {
            None
        };
        let mut instance = match shared {
            Some(artifact) => {
                Instance::with_artifact(&workload.module, imports, self.exec_config, artifact)?
            }
            None => Instance::with_config(&workload.module, imports, self.exec_config)?,
        };
        let mut integral = MemoryIntegral {
            weights: &self.weights,
            key: WeightsKey(self.weight_hash),
            cur_mem: instance.memory().map_or(0, |m| m.size_bytes() as u64),
            integral: 0,
        };
        let results = instance.invoke_observed(func, args, &mut integral)?;
        let counter = instance
            .global_by_index(workload.counter_global)
            .map_or(0, |v| v.as_i64() as u64);
        span.record_arg("weighted_instructions", counter);
        let log = ResourceUsageLog {
            weighted_instructions: counter,
            peak_memory_bytes: instance.stats().peak_memory_bytes as u64,
            memory_integral: integral.integral,
            io_bytes_in: meter.bytes_in(),
            io_bytes_out: meter.bytes_out(),
            module_hash: workload.module_hash,
            session_id,
        };
        let quote = {
            let _s = hub.span("enclave.ae.sign_log", "enclave");
            self.qe
                .quote(&self.enclave.report(report_data(&log.binding())))?
        };
        Ok(ExecutionOutcome {
            results,
            output: meter.take_output(),
            log: SignedLog { log, quote },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_sgx::AttestationAuthority;
    use acctee_wasm::builder::{Bound, ModuleBuilder};
    use acctee_wasm::types::ValType;

    fn setup() -> (
        AttestationAuthority,
        InstrumentationEnclave,
        AccountingEnclave,
    ) {
        let authority = AttestationAuthority::new(1);
        let ie_platform = Platform::new("provider-build", 10);
        let ae_platform = Platform::new("provider-exec", 20);
        let weights = WeightTable::uniform();
        let ie = InstrumentationEnclave::launch(
            &ie_platform,
            authority.provision(&ie_platform),
            weights.clone(),
        );
        let ae = AccountingEnclave::launch(
            &ae_platform,
            authority.provision(&ae_platform),
            weights,
            ie.measurement(),
        );
        (authority, ie, ae)
    }

    fn workload_bytes() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.func("main", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.local_get(acc);
                f.i64_const(2);
                f.num(acctee_wasm::op::NumOp::I64Add);
                f.local_set(acc);
            });
            f.local_get(acc);
        });
        b.export_func("main", f);
        encode_module(&b.build())
    }

    #[test]
    fn full_pipeline_produces_verifiable_log() {
        let (authority, ie, ae) = setup();
        let (bytes, evidence) = ie.instrument(&workload_bytes(), Level::LoopBased).unwrap();
        let loaded = ae.load(&authority, &bytes, &evidence).unwrap();
        let out = ae
            .execute(&loaded, "main", &[Value::I32(10)], b"", 99)
            .unwrap();
        assert_eq!(out.results, vec![Value::I64(20)]);
        assert!(out.log.log.weighted_instructions > 0);
        assert_eq!(out.log.log.session_id, 99);
        // The quote verifies and binds exactly this log.
        let m = authority.verify(&out.log.quote).unwrap();
        assert_eq!(m, ae.measurement());
        assert_eq!(out.log.quote.report_data[..32], out.log.log.binding());
    }

    #[test]
    fn channel_attestation_binds_the_nonce() {
        let (authority, _ie, ae) = setup();
        let nonce = [7u8; 32];
        let quote = ae.attest_channel(&nonce).unwrap();
        // A remote client verifies the quote and recomputes the
        // binding for its own nonce.
        assert_eq!(authority.verify(&quote).unwrap(), ae.measurement());
        assert_eq!(quote.report_data[..32], channel_binding(&nonce));
        // A different nonce (replayed quote) does not bind.
        assert_ne!(quote.report_data[..32], channel_binding(&[8u8; 32]));
    }

    #[test]
    fn tampered_module_rejected_at_load() {
        let (authority, ie, ae) = setup();
        let (mut bytes, evidence) = ie.instrument(&workload_bytes(), Level::Naive).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            ae.load(&authority, &bytes, &evidence),
            Err(AccTeeError::EvidenceMismatch(_))
        ));
    }

    #[test]
    fn evidence_from_unknown_enclave_rejected() {
        let (authority, _ie, ae) = setup();
        // A rogue "IE" with different code (e.g. one that skips
        // instrumentation) produces evidence; the AE must reject it.
        let rogue_platform = Platform::new("rogue", 66);
        let rogue_qe = authority.provision(&rogue_platform);
        let mut weights = WeightTable::uniform();
        weights.set(&Instr::Nop, 0); // different table -> different code
        let rogue = InstrumentationEnclave::launch(&rogue_platform, rogue_qe, weights);
        let (bytes, evidence) = rogue.instrument(&workload_bytes(), Level::Naive).unwrap();
        assert!(matches!(
            ae.load(&authority, &bytes, &evidence),
            Err(AccTeeError::EvidenceMismatch(_))
        ));
    }

    #[test]
    fn counter_matches_weighted_observer() {
        let (authority, ie, ae) = setup();
        let (bytes, evidence) = ie.instrument(&workload_bytes(), Level::FlowBased).unwrap();
        let loaded = ae.load(&authority, &bytes, &evidence).unwrap();
        let out = ae
            .execute(&loaded, "main", &[Value::I32(25)], b"", 0)
            .unwrap();
        // Independently compute the oracle on the original module. The
        // instrumented module's own counter must equal the weighted
        // count of original instructions.
        let original = decode_module(&workload_bytes()).unwrap();
        let weights = WeightTable::uniform();
        let mut oracle = acctee_interp::CountingObserver::with_weight(|i| weights.weight(i));
        let tree = Config {
            engine: acctee_interp::Engine::Tree,
            ..Config::default()
        };
        let mut inst = Instance::with_config(&original, Imports::new(), tree).unwrap();
        inst.invoke_observed("main", &[Value::I32(25)], &mut oracle)
            .unwrap();
        assert_eq!(out.log.log.weighted_instructions, oracle.count);
    }

    #[test]
    fn memory_integral_grows_with_memory() {
        let (authority, ie, ae) = setup();
        let (bytes, evidence) = ie.instrument(&workload_bytes(), Level::Naive).unwrap();
        let loaded = ae.load(&authority, &bytes, &evidence).unwrap();
        let small = ae
            .execute(&loaded, "main", &[Value::I32(10)], b"", 0)
            .unwrap();
        let large = ae
            .execute(&loaded, "main", &[Value::I32(1000)], b"", 0)
            .unwrap();
        assert!(large.log.log.memory_integral > small.log.log.memory_integral);
        assert_eq!(small.log.log.peak_memory_bytes, 65536);
    }

    #[test]
    fn trapping_workload_reports_trap() {
        let (authority, ie, ae) = setup();
        let mut b = ModuleBuilder::new();
        let f = b.func("main", &[], &[], |f| {
            f.emit(Instr::Unreachable);
        });
        b.export_func("main", f);
        let bytes = encode_module(&b.build());
        let (bytes, evidence) = ie.instrument(&bytes, Level::Naive).unwrap();
        let loaded = ae.load(&authority, &bytes, &evidence).unwrap();
        assert!(matches!(
            ae.execute(&loaded, "main", &[], b"", 0),
            Err(AccTeeError::Trap(_))
        ));
    }
}
