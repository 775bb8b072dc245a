//! Billing aggregator: folds verified usage logs into per-tenant
//! metering rollups and issues signed settlement statements.
//!
//! The fold is **lossless**: each invoice component is summed exactly
//! in `u128`, and for the integral memory policy the sub-MiB
//! remainder `(integral * rate) mod 2^20` — the part
//! `PricingModel::invoice` floors away per request — is carried in
//! [`TenantRollup::integral_remainder`]. The invariant
//!
//! ```text
//! memory_nano * 2^20 + integral_remainder == rate * Σ memory_integral
//! ```
//!
//! holds exactly, so a settlement statement never drifts from the sum
//! of the individually priced invoices, no matter how many logs fold
//! into it.
//!
//! A [`SettlementStatement`] is hashed into a binding (same
//! length-framed, domain-separated construction as
//! `ResourceUsageLog::binding`) and signed by the accounting enclave
//! as a [`SignedSettlement`], so a tenant can verify a provider's bill
//! with the same attestation chain it trusts for per-request logs.

use std::collections::BTreeMap;

use acctee::{AccountingEnclave, Invoice, PricingModel, ResourceUsageLog};
use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::{AttestationAuthority, Measurement, Quote};

use crate::DurableError;
use acctee::codec::{CodecError, Dec, Enc};

/// Exact per-tenant metering totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantRollup {
    /// Accounted requests folded in.
    pub requests: u64,
    /// Σ weighted instructions.
    pub weighted_instructions: u128,
    /// Highest single-request peak memory seen.
    pub peak_memory_max: u64,
    /// Σ memory integrals (byte-instructions).
    pub memory_integral: u128,
    /// Σ I/O bytes, both directions.
    pub io_bytes: u128,
    /// Σ invoice compute components (nano-credits).
    pub compute_nano: u128,
    /// Σ invoice memory components (nano-credits).
    pub memory_nano: u128,
    /// Σ invoice I/O components (nano-credits).
    pub io_nano: u128,
    /// Σ `(memory_integral * rate) mod 2^20` — the sub-MiB scaled
    /// remainders floored off the per-request memory charges, carried
    /// exactly so settlement is lossless.
    pub integral_remainder: u128,
}

impl TenantRollup {
    /// Total billed nano-credits (the floored per-request charges; the
    /// remainder is reported alongside, not silently rounded in).
    pub fn total_nano(&self) -> u128 {
        self.compute_nano + self.memory_nano + self.io_nano
    }

    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u64(self.requests);
        e.u128(self.weighted_instructions);
        e.u64(self.peak_memory_max);
        e.u128(self.memory_integral);
        e.u128(self.io_bytes);
        e.u128(self.compute_nano);
        e.u128(self.memory_nano);
        e.u128(self.io_nano);
        e.u128(self.integral_remainder);
    }

    pub(crate) fn decode(d: &mut Dec) -> Result<TenantRollup, CodecError> {
        Ok(TenantRollup {
            requests: d.u64()?,
            weighted_instructions: d.u128()?,
            peak_memory_max: d.u64()?,
            memory_integral: d.u128()?,
            io_bytes: d.u128()?,
            compute_nano: d.u128()?,
            memory_nano: d.u128()?,
            io_nano: d.u128()?,
            integral_remainder: d.u128()?,
        })
    }
}

/// Folds usage logs into per-tenant rollups under one pricing model.
#[derive(Debug)]
pub struct Aggregator {
    pricing: PricingModel,
    rollups: BTreeMap<String, TenantRollup>,
    max_folded: u64,
}

impl Aggregator {
    /// A fresh aggregator for `pricing`.
    pub fn new(pricing: PricingModel) -> Aggregator {
        Aggregator {
            pricing,
            rollups: BTreeMap::new(),
            max_folded: 0,
        }
    }

    /// Folds one log under `tenant`, returning the invoice it priced.
    ///
    /// The caller guarantees once-per-session folding (the WAL's
    /// session-id uniqueness provides it on the durable path).
    pub fn fold(&mut self, tenant: &str, log: &ResourceUsageLog) -> Invoice {
        let invoice = self.pricing.invoice(log);
        // Only a tenant's first log allocates its key.
        if !self.rollups.contains_key(tenant) {
            self.rollups
                .insert(tenant.to_string(), TenantRollup::default());
        }
        let r = self.rollups.get_mut(tenant).expect("inserted above");
        r.requests += 1;
        r.weighted_instructions += u128::from(log.weighted_instructions);
        r.peak_memory_max = r.peak_memory_max.max(log.peak_memory_bytes);
        r.memory_integral += log.memory_integral;
        r.io_bytes += u128::from(log.io_bytes_in) + u128::from(log.io_bytes_out);
        r.compute_nano += invoice.compute;
        r.memory_nano += invoice.memory;
        r.io_nano += invoice.io;
        if self.pricing.memory_policy == acctee::log::MemoryPolicy::Integral {
            r.integral_remainder += log
                .memory_integral
                .saturating_mul(u128::from(self.pricing.per_mebi_byte_instruction))
                & ((1 << 20) - 1);
        }
        self.max_folded = self.max_folded.max(log.session_id);
        invoice
    }

    /// Per-tenant rollups, ordered by tenant name.
    pub fn rollups(&self) -> &BTreeMap<String, TenantRollup> {
        &self.rollups
    }

    /// Highest session id folded so far (0 when none).
    pub fn max_folded(&self) -> u64 {
        self.max_folded
    }

    /// The pricing model this aggregator folds under.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Builds the settlement statement for one tenant, if any usage
    /// was folded for it.
    pub fn statement(&self, tenant: &str) -> Option<SettlementStatement> {
        self.rollups.get(tenant).map(|r| SettlementStatement {
            tenant: tenant.to_string(),
            requests: r.requests,
            upto_session: self.max_folded,
            compute_nano: r.compute_nano,
            memory_nano: r.memory_nano,
            io_nano: r.io_nano,
            integral_remainder: r.integral_remainder,
        })
    }

    /// Settlement statements for every tenant, in name order.
    pub fn statements(&self) -> Vec<SettlementStatement> {
        self.rollups
            .keys()
            .filter_map(|t| self.statement(t))
            .collect()
    }
}

/// One tenant's bill for everything folded up to a session high-water
/// mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettlementStatement {
    /// The billed tenant.
    pub tenant: String,
    /// Requests covered.
    pub requests: u64,
    /// Highest session id covered by this statement.
    pub upto_session: u64,
    /// Total compute charge (nano-credits).
    pub compute_nano: u128,
    /// Total memory charge (nano-credits).
    pub memory_nano: u128,
    /// Total I/O charge (nano-credits).
    pub io_nano: u128,
    /// Exact sub-MiB scaled remainder not folded into `memory_nano`.
    pub integral_remainder: u128,
}

impl SettlementStatement {
    /// The grand total in nano-credits.
    pub fn total_nano(&self) -> u128 {
        self.compute_nano + self.memory_nano + self.io_nano
    }

    /// Digest the accounting enclave signs: domain-separated,
    /// length-framed tenant name, then fixed-width fields in order.
    pub fn binding(&self) -> Digest {
        let mut e = Enc(Vec::with_capacity(128));
        e.raw(b"acctee-settle-v1");
        e.bytes(self.tenant.as_bytes());
        e.u64(self.requests);
        e.u64(self.upto_session);
        e.u128(self.compute_nano);
        e.u128(self.memory_nano);
        e.u128(self.io_nano);
        e.u128(self.integral_remainder);
        sha256(&e.0)
    }
}

/// A settlement statement quoted by the accounting enclave.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedSettlement {
    /// The statement.
    pub statement: SettlementStatement,
    /// Accounting-enclave quote whose report data binds the statement.
    pub quote: Quote,
}

impl SignedSettlement {
    /// Has the accounting enclave quote `statement`.
    ///
    /// # Errors
    ///
    /// [`DurableError::Attestation`] if quoting fails.
    pub fn sign(
        statement: SettlementStatement,
        ae: &AccountingEnclave,
    ) -> Result<SignedSettlement, DurableError> {
        let quote = ae
            .sign_binding(&statement.binding())
            .map_err(|e| DurableError::Attestation(e.to_string()))?;
        Ok(SignedSettlement { statement, quote })
    }

    /// Verifies the quote chain: issued by a registered platform,
    /// from the expected accounting enclave, binding this statement.
    ///
    /// # Errors
    ///
    /// [`DurableError::Attestation`] on any mismatch.
    pub fn verify(
        &self,
        authority: &AttestationAuthority,
        expected_ae: Measurement,
    ) -> Result<(), DurableError> {
        let m = authority
            .verify(&self.quote)
            .map_err(|e| DurableError::Attestation(e.to_string()))?;
        if m != expected_ae {
            return Err(DurableError::Attestation(format!(
                "settlement quoted by {m}, expected {expected_ae}"
            )));
        }
        if self.quote.report_data[..32] != self.statement.binding() {
            return Err(DurableError::Attestation(
                "quote does not bind this settlement statement".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::log::MemoryPolicy;
    use acctee::Deployment;

    fn log(session: u64, integral: u128) -> ResourceUsageLog {
        ResourceUsageLog {
            weighted_instructions: 1_000 + session,
            peak_memory_bytes: 65_536,
            memory_integral: integral,
            io_bytes_in: 10,
            io_bytes_out: 5,
            module_hash: sha256(b"m"),
            session_id: session,
        }
    }

    fn integral_pricing() -> PricingModel {
        PricingModel {
            memory_policy: MemoryPolicy::Integral,
            ..Default::default()
        }
    }

    #[test]
    fn settlement_total_equals_sum_of_invoices() {
        let mut agg = Aggregator::new(integral_pricing());
        let mut invoice_sum = 0u128;
        for s in 1..=50u64 {
            // Awkward integrals: never MiB-aligned.
            let inv = agg.fold("acme", &log(s, (u128::from(s) << 18) + 777));
            invoice_sum += inv.total();
        }
        let stmt = agg.statement("acme").unwrap();
        assert_eq!(stmt.total_nano(), invoice_sum);
        assert_eq!(stmt.requests, 50);
        assert_eq!(stmt.upto_session, 50);
    }

    #[test]
    fn integral_remainder_makes_the_fold_exact() {
        let pricing = integral_pricing();
        let rate = u128::from(pricing.per_mebi_byte_instruction);
        let mut agg = Aggregator::new(pricing);
        let mut integral_sum = 0u128;
        for s in 1..=37u64 {
            let integral = (u128::from(s) * 99_991) + 3; // never aligned
            integral_sum += integral;
            agg.fold("acme", &log(s, integral));
        }
        let r = &agg.rollups()["acme"];
        // The lossless invariant: floored charges plus carried
        // remainder reconstruct the exact scaled product.
        assert_eq!(
            r.memory_nano * (1 << 20) + r.integral_remainder,
            rate * integral_sum
        );
        assert_eq!(r.memory_integral, integral_sum);
    }

    #[test]
    fn peak_policy_keeps_remainder_zero() {
        let mut agg = Aggregator::new(PricingModel::default());
        for s in 1..=5u64 {
            agg.fold("acme", &log(s, 12_345));
        }
        assert_eq!(agg.rollups()["acme"].integral_remainder, 0);
    }

    #[test]
    fn tenants_roll_up_independently() {
        let mut agg = Aggregator::new(PricingModel::default());
        agg.fold("a", &log(1, 0));
        agg.fold("b", &log(2, 0));
        agg.fold("a", &log(3, 0));
        assert_eq!(agg.rollups()["a"].requests, 2);
        assert_eq!(agg.rollups()["b"].requests, 1);
        assert_eq!(agg.statements().len(), 2);
        assert_eq!(agg.max_folded(), 3);
    }

    #[test]
    fn binding_is_sensitive_to_every_field() {
        let base = SettlementStatement {
            tenant: "acme".into(),
            requests: 3,
            upto_session: 9,
            compute_nano: 100,
            memory_nano: 200,
            io_nano: 300,
            integral_remainder: 7,
        };
        let b = base.binding();
        let variants = [
            SettlementStatement {
                tenant: "acmf".into(),
                ..base.clone()
            },
            SettlementStatement {
                requests: 4,
                ..base.clone()
            },
            SettlementStatement {
                upto_session: 10,
                ..base.clone()
            },
            SettlementStatement {
                compute_nano: 101,
                ..base.clone()
            },
            SettlementStatement {
                memory_nano: 201,
                ..base.clone()
            },
            SettlementStatement {
                io_nano: 301,
                ..base.clone()
            },
            SettlementStatement {
                integral_remainder: 8,
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(v.binding(), b, "binding ignored a field change");
        }
    }

    #[test]
    fn signed_settlement_verifies_and_rejects_tampering() {
        let dep = Deployment::new(0x5e771e);
        let ae = dep.infrastructure().accounting_enclave();
        let mut agg = Aggregator::new(dep.infrastructure().pricing);
        agg.fold("acme", &log(1, 500));
        let stmt = agg.statement("acme").unwrap();
        let signed = SignedSettlement::sign(stmt, ae).unwrap();
        signed
            .verify(&dep.authority, ae.measurement())
            .expect("honest settlement verifies");
        // Tampering with the statement breaks the binding.
        let mut forged = signed.clone();
        forged.statement.compute_nano += 1;
        assert!(forged.verify(&dep.authority, ae.measurement()).is_err());
        // Pinning a different expected measurement refuses the quote
        // (the AE's measurement is its code identity, so an impostor
        // enclave cannot produce it).
        assert!(signed
            .verify(&dep.authority, Measurement(sha256(b"impostor")))
            .is_err());
    }

    #[test]
    fn rollup_encoding_round_trips() {
        let r = TenantRollup {
            requests: 5,
            weighted_instructions: 1 << 70,
            peak_memory_max: 1 << 30,
            memory_integral: (1 << 90) + 17,
            io_bytes: 999,
            compute_nano: 1,
            memory_nano: 2,
            io_nano: 3,
            integral_remainder: (1 << 20) - 1,
        };
        let mut e = Enc::default();
        r.encode(&mut e);
        let mut d = Dec::new(&e.0);
        let back = TenantRollup::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, r);
    }
}
