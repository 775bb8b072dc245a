//! The two mutually distrusting parties and their protocol (Fig. 1),
//! plus [`Deployment`], a convenience bundle wiring a full AccTEE
//! installation together.

use std::sync::Arc;

use acctee_instrument::{Level, WeightTable};
use acctee_interp::{Engine, Value};
use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::{AttestationAuthority, Measurement, Platform};

use crate::cache::InstrumentationCache;
use crate::enclave::{AccountingEnclave, ExecutionOutcome, InstrumentationEnclave, LoadedWorkload};
use crate::error::AccTeeError;
use crate::evidence::InstrumentationEvidence;
use crate::log::SignedLog;
use crate::pricing::{Invoice, PricingModel};

/// The workload provider's verification state: what it must know to
/// trust evidence and logs without trusting the infrastructure.
#[derive(Debug, Clone)]
pub struct WorkloadProvider {
    authority: AttestationAuthority,
    expected_ie: Measurement,
    expected_ae: Measurement,
    weight_hash: Digest,
}

impl WorkloadProvider {
    /// Builds the provider's expectations. In practice these come from
    /// auditing the public enclave code and computing the measurements
    /// independently (§3.3).
    pub fn new(
        authority: AttestationAuthority,
        expected_ie: Measurement,
        expected_ae: Measurement,
        weights: &WeightTable,
    ) -> WorkloadProvider {
        WorkloadProvider {
            authority,
            expected_ie,
            expected_ae,
            weight_hash: sha256(&weights.to_bytes()),
        }
    }

    /// Verifies instrumentation evidence for `module_bytes`.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] or [`AccTeeError::EvidenceMismatch`].
    pub fn verify_evidence(
        &self,
        module_bytes: &[u8],
        evidence: &InstrumentationEvidence,
    ) -> Result<(), AccTeeError> {
        let m = self.authority.verify(&evidence.quote)?;
        if m != self.expected_ie {
            return Err(AccTeeError::EvidenceMismatch(format!(
                "evidence from {m}, expected {}",
                self.expected_ie
            )));
        }
        if evidence.quote.report_data[..32] != evidence.binding() {
            return Err(AccTeeError::EvidenceMismatch(
                "quote binding mismatch".into(),
            ));
        }
        if sha256(module_bytes) != evidence.instrumented_hash {
            return Err(AccTeeError::EvidenceMismatch("module hash mismatch".into()));
        }
        if evidence.weight_hash != self.weight_hash {
            return Err(AccTeeError::EvidenceMismatch(
                "unexpected weight table".into(),
            ));
        }
        Ok(())
    }

    /// Verifies a signed resource usage log from the accounting
    /// enclave.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] or [`AccTeeError::LogMismatch`].
    pub fn verify_log(&self, signed: &SignedLog) -> Result<(), AccTeeError> {
        let m = self.authority.verify(&signed.quote)?;
        if m != self.expected_ae {
            return Err(AccTeeError::LogMismatch(format!(
                "log from {m}, expected {}",
                self.expected_ae
            )));
        }
        if signed.quote.report_data[..32] != signed.log.binding() {
            return Err(AccTeeError::LogMismatch(
                "quote does not bind this log".into(),
            ));
        }
        Ok(())
    }
}

/// The infrastructure provider: hosts the accounting enclave and bills
/// by the mutually trusted log.
pub struct InfrastructureProvider {
    authority: AttestationAuthority,
    ae: AccountingEnclave,
    /// The provider's published pricing.
    pub pricing: PricingModel,
}

impl std::fmt::Debug for InfrastructureProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InfrastructureProvider")
            .field("ae", &self.ae)
            .finish()
    }
}

impl InfrastructureProvider {
    /// Creates a provider around an accounting enclave.
    pub fn new(
        authority: AttestationAuthority,
        ae: AccountingEnclave,
        pricing: PricingModel,
    ) -> InfrastructureProvider {
        InfrastructureProvider {
            authority,
            ae,
            pricing,
        }
    }

    /// The hosted accounting enclave.
    pub fn accounting_enclave(&self) -> &AccountingEnclave {
        &self.ae
    }

    /// Selects the interpreter engine the AE executes workloads on.
    /// The engine is an infrastructure-side performance choice; the
    /// accounting result is engine-independent (the counter is part of
    /// the attested workload, not the engine).
    pub fn set_engine(&mut self, engine: Engine) {
        self.ae.exec_config.engine = engine;
    }

    /// Applies a wall-clock budget to every accounted execution: a
    /// workload that runs past it traps with the interpreter's
    /// `DeadlineExceeded` instead of occupying the enclave forever.
    /// `None` (the default) disables the deadline.
    pub fn set_time_budget(&mut self, budget: Option<std::time::Duration>) {
        self.ae.exec_config.time_budget = budget;
    }

    /// Verifies evidence and loads a workload for execution.
    ///
    /// # Errors
    ///
    /// See [`AccountingEnclave::load`].
    pub fn load(
        &self,
        module_bytes: &[u8],
        evidence: &InstrumentationEvidence,
    ) -> Result<LoadedWorkload, AccTeeError> {
        self.ae.load(&self.authority, module_bytes, evidence)
    }

    /// Executes a loaded workload and returns the outcome plus the
    /// invoice implied by the provider's pricing.
    ///
    /// # Errors
    ///
    /// See [`AccountingEnclave::execute`].
    pub fn execute_billed(
        &self,
        workload: &LoadedWorkload,
        func: &str,
        args: &[Value],
        input: &[u8],
        session_id: u64,
    ) -> Result<(ExecutionOutcome, Invoice), AccTeeError> {
        let outcome = self.ae.execute(workload, func, args, input, session_id)?;
        let invoice = self.pricing.invoice(&outcome.log.log);
        Ok((outcome, invoice))
    }
}

/// A complete AccTEE installation: authority, two platforms, both
/// enclaves and both parties — the wiring every example and experiment
/// needs.
pub struct Deployment {
    /// The attestation root of trust.
    pub authority: AttestationAuthority,
    ie: InstrumentationEnclave,
    infra: InfrastructureProvider,
    workload_provider: WorkloadProvider,
    /// Shared instrumentation cache (§3.3): repeated deployments of
    /// one module instrument once. `Arc` so serving threads can hold
    /// the cache without holding the deployment.
    cache: Arc<InstrumentationCache>,
    next_session: u64,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("infra", &self.infra)
            .finish()
    }
}

impl Deployment {
    /// Wires up a deterministic deployment from a seed, using the
    /// calibrated weight table.
    pub fn new(seed: u64) -> Deployment {
        Deployment::with_weights(seed, WeightTable::calibrated())
    }

    /// Wires up a deployment with an explicit weight table.
    pub fn with_weights(seed: u64, weights: WeightTable) -> Deployment {
        let authority = AttestationAuthority::new(seed);
        let ie_platform = Platform::new("ie-host", seed.wrapping_add(1));
        let ae_platform = Platform::new("ae-host", seed.wrapping_add(2));
        let ie = InstrumentationEnclave::launch(
            &ie_platform,
            authority.provision(&ie_platform),
            weights.clone(),
        );
        let ae = AccountingEnclave::launch(
            &ae_platform,
            authority.provision(&ae_platform),
            weights.clone(),
            ie.measurement(),
        );
        let workload_provider = WorkloadProvider::new(
            authority.clone(),
            ie.measurement(),
            ae.measurement(),
            &weights,
        );
        let infra = InfrastructureProvider::new(authority.clone(), ae, PricingModel::default());
        Deployment {
            authority,
            ie,
            infra,
            workload_provider,
            cache: Arc::new(InstrumentationCache::new()),
            next_session: 1,
        }
    }

    /// Replaces the instrumentation cache with one bounded to
    /// `capacity` entries (the CLI's `--cache-capacity`). Statistics
    /// restart from zero.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Deployment {
        self.cache = Arc::new(InstrumentationCache::with_capacity(capacity));
        self
    }

    /// The shared instrumentation cache (for statistics and for
    /// handing to serving threads).
    pub fn cache(&self) -> &Arc<InstrumentationCache> {
        &self.cache
    }

    /// The workload provider's verifier handle.
    pub fn workload_provider(&self) -> &WorkloadProvider {
        &self.workload_provider
    }

    /// The infrastructure provider.
    pub fn infrastructure(&self) -> &InfrastructureProvider {
        &self.infra
    }

    /// Selects the AE's interpreter engine (see
    /// [`InfrastructureProvider::set_engine`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.infra.set_engine(engine);
    }

    /// Applies a per-execution wall-clock budget (see
    /// [`InfrastructureProvider::set_time_budget`]).
    pub fn set_time_budget(&mut self, budget: Option<std::time::Duration>) {
        self.infra.set_time_budget(budget);
    }

    /// Instruments a module through the shared cache (running the IE
    /// only on a miss) and verifies the evidence as the workload
    /// provider would — a cache hit re-verifies the stored evidence,
    /// so it is exactly as trustworthy as a fresh instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation or verification failures.
    pub fn instrument(
        &self,
        module_bytes: &[u8],
        level: Level,
    ) -> Result<(Vec<u8>, InstrumentationEvidence), AccTeeError> {
        let (bytes, evidence) = self.cache.instrument(&self.ie, module_bytes, level)?;
        self.workload_provider.verify_evidence(&bytes, &evidence)?;
        Ok((bytes, evidence))
    }

    /// Loads and executes in one step, verifying the log on behalf of
    /// the workload provider.
    ///
    /// # Errors
    ///
    /// Propagates load, execution and verification failures.
    pub fn execute(
        &mut self,
        module_bytes: &[u8],
        evidence: &InstrumentationEvidence,
        func: &str,
        args: &[Value],
        input: &[u8],
    ) -> Result<ExecutionOutcome, AccTeeError> {
        let loaded = self.infra.load(module_bytes, evidence)?;
        let session = self.next_session;
        self.next_session += 1;
        let (outcome, _invoice) = self
            .infra
            .execute_billed(&loaded, func, args, input, session)?;
        self.workload_provider.verify_log(&outcome.log)?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_wasm::builder::ModuleBuilder;
    use acctee_wasm::encode::encode_module;
    use acctee_wasm::types::ValType;

    fn wasm() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let f = b.func("main", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.i32_const(2);
            f.i32_mul();
        });
        b.export_func("main", f);
        encode_module(&b.build())
    }

    #[test]
    fn deployment_end_to_end() {
        let mut dep = Deployment::new(7);
        let (bytes, evidence) = dep.instrument(&wasm(), Level::LoopBased).unwrap();
        let out = dep
            .execute(&bytes, &evidence, "main", &[Value::I32(21)], b"")
            .unwrap();
        assert_eq!(out.results, vec![Value::I32(42)]);
        dep.workload_provider().verify_log(&out.log).unwrap();
    }

    #[test]
    fn session_ids_increment() {
        let mut dep = Deployment::new(7);
        let (bytes, evidence) = dep.instrument(&wasm(), Level::Naive).unwrap();
        let a = dep
            .execute(&bytes, &evidence, "main", &[Value::I32(1)], b"")
            .unwrap();
        let b = dep
            .execute(&bytes, &evidence, "main", &[Value::I32(1)], b"")
            .unwrap();
        assert_ne!(a.log.log.session_id, b.log.log.session_id);
    }

    #[test]
    fn forged_log_rejected_by_workload_provider() {
        let mut dep = Deployment::new(7);
        let (bytes, evidence) = dep.instrument(&wasm(), Level::Naive).unwrap();
        let out = dep
            .execute(&bytes, &evidence, "main", &[Value::I32(1)], b"")
            .unwrap();
        // Infrastructure provider tries to inflate the bill after the
        // fact: the quote no longer binds the log.
        let mut forged = out.log.clone();
        forged.log.weighted_instructions *= 10;
        assert!(matches!(
            dep.workload_provider().verify_log(&forged),
            Err(AccTeeError::LogMismatch(_))
        ));
    }

    #[test]
    fn repeated_instrumentation_is_served_from_the_cache() {
        let dep = Deployment::new(7).with_cache_capacity(4);
        let a = dep.instrument(&wasm(), Level::LoopBased).unwrap();
        let b = dep.instrument(&wasm(), Level::LoopBased).unwrap();
        assert_eq!(a, b);
        assert_eq!(dep.cache().hits(), 1);
        assert_eq!(dep.cache().misses(), 1);
    }

    #[test]
    fn bytecode_engine_accounts_identically_across_repeat_executions() {
        // The AE's shared register-tier artifact must not change any
        // accounting result vs the tree-walker or vs a fresh compile.
        let mut tree = Deployment::new(7);
        tree.set_engine(Engine::Tree);
        let mut regs = Deployment::new(7);
        regs.set_engine(Engine::Regs);
        let (bytes, evidence) = tree.instrument(&wasm(), Level::LoopBased).unwrap();
        let (bytes_r, evidence_r) = regs.instrument(&wasm(), Level::LoopBased).unwrap();
        assert_eq!(bytes, bytes_r);
        let a = tree
            .execute(&bytes, &evidence, "main", &[Value::I32(21)], b"")
            .unwrap();
        // Two executions on one loaded workload share the artifact.
        let loaded = regs.infrastructure().load(&bytes_r, &evidence_r).unwrap();
        for _ in 0..2 {
            let (out, _) = regs
                .infrastructure()
                .execute_billed(&loaded, "main", &[Value::I32(21)], b"", 1)
                .unwrap();
            assert_eq!(out.results, a.results);
            assert_eq!(
                out.log.log.weighted_instructions,
                a.log.log.weighted_instructions
            );
            assert_eq!(out.log.log.memory_integral, a.log.log.memory_integral);
        }
    }

    #[test]
    fn billed_execution_produces_invoice() {
        let dep = Deployment::new(7);
        let (bytes, evidence) = dep.instrument(&wasm(), Level::LoopBased).unwrap();
        let loaded = dep.infrastructure().load(&bytes, &evidence).unwrap();
        let (outcome, invoice) = dep
            .infrastructure()
            .execute_billed(&loaded, "main", &[Value::I32(3)], b"", 1)
            .unwrap();
        assert_eq!(outcome.results, vec![Value::I32(6)]);
        assert!(invoice.total() > 0);
        assert_eq!(
            invoice.compute,
            u128::from(outcome.log.log.weighted_instructions)
        );
    }
}
