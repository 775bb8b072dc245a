//! Reimbursement reconciliation: folding a campaign's credited,
//! verified usage logs through the [`crate::reimburse`] escrow into
//! per-node statements signed by the coordinator's accounting enclave.
//!
//! The statement mirrors the durable plane's `SignedSettlement`
//! pattern: a canonical, domain-separated binding digest quoted by the
//! AE, verifiable by anyone holding the attestation authority and the
//! expected AE measurement. A node can therefore prove what it is owed
//! without trusting the coordinator's bookkeeping, and the coordinator
//! can prove it paid only for attested work.

use std::collections::BTreeMap;

use acctee::codec::Enc;
use acctee::{AccTeeError, AccountingEnclave, SignedLog, WorkloadProvider};
use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::{AttestationAuthority, Measurement, Quote};

use crate::reimburse::{split_bounty, Escrow};

/// Reconciliation economics.
#[derive(Debug, Clone, Copy)]
pub struct ReconcileConfig {
    /// Nano-tokens per weighted instruction released from escrow.
    pub rate: u128,
    /// Total escrow funding the campaign draws on.
    pub escrow: u128,
    /// Optional bounty pool split across honest nodes by verified
    /// weighted instructions (largest-remainder apportionment).
    pub bonus_pool: u128,
}

impl Default for ReconcileConfig {
    fn default() -> ReconcileConfig {
        ReconcileConfig {
            rate: 3,
            escrow: u128::MAX / 2,
            bonus_pool: 0,
        }
    }
}

/// One node's reconciled campaign outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatement {
    /// The node.
    pub worker: String,
    /// Credited executions (units, plus spot-check replicas).
    pub units_credited: u64,
    /// Sum of verified weighted instruction counts.
    pub weighted_instructions: u64,
    /// Escrow released for attested work, in nano-tokens.
    pub paid_nano: u128,
    /// Bounty-pool share, in nano-tokens.
    pub bonus_nano: u128,
}

impl NodeStatement {
    /// Digest the coordinator's accounting enclave signs:
    /// domain-separated, length-framed node name, then fixed-width
    /// fields in order.
    pub fn binding(&self) -> Digest {
        let mut e = Enc(Vec::with_capacity(96));
        e.raw(b"acctee-fleet-statement-v1");
        e.bytes(self.worker.as_bytes());
        e.u64(self.units_credited);
        e.u64(self.weighted_instructions);
        e.u128(self.paid_nano);
        e.u128(self.bonus_nano);
        sha256(&e.0)
    }
}

/// A node statement quoted by the coordinator's accounting enclave.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedNodeStatement {
    /// The statement.
    pub statement: NodeStatement,
    /// AE quote whose report data binds the statement.
    pub quote: Quote,
}

impl SignedNodeStatement {
    /// Has the coordinator's accounting enclave quote `statement`.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] if quoting fails.
    pub fn sign(
        statement: NodeStatement,
        ae: &AccountingEnclave,
    ) -> Result<SignedNodeStatement, AccTeeError> {
        let quote = ae.sign_binding(&statement.binding())?;
        Ok(SignedNodeStatement { statement, quote })
    }

    /// Verifies the quote chain: issued by a registered platform, from
    /// the expected accounting enclave, binding this statement.
    ///
    /// # Errors
    ///
    /// [`AccTeeError::Attestation`] when the quote chain fails;
    /// [`AccTeeError::LogMismatch`] when the quote is genuine but does
    /// not bind this statement (or came from the wrong enclave).
    pub fn verify(
        &self,
        authority: &AttestationAuthority,
        expected_ae: Measurement,
    ) -> Result<(), AccTeeError> {
        let m = authority.verify(&self.quote)?;
        if m != expected_ae {
            return Err(AccTeeError::LogMismatch(format!(
                "statement quoted by {m}, expected {expected_ae}"
            )));
        }
        if self.quote.report_data[..32] != self.statement.binding() {
            return Err(AccTeeError::LogMismatch(
                "quote does not bind this node statement".into(),
            ));
        }
        Ok(())
    }
}

/// Folds credited `(worker, log)` pairs through an escrow into signed
/// per-node statements, in node-name order.
///
/// Quarantined nodes earn nothing — their statement still appears
/// (zeroed) so the campaign's verdict on them is itself attested.
/// Every released payment re-verifies the log against `verifier`, and
/// the escrow's session-id replay set makes double-crediting
/// structurally impossible even if the caller passes a duplicated
/// pair. The bounty pool is split across paid nodes by verified
/// weighted instructions via largest-remainder apportionment.
///
/// # Errors
///
/// [`AccTeeError::Attestation`] if the coordinator's AE fails to quote
/// a statement.
pub fn reconcile(
    credited: &[(String, SignedLog)],
    quarantined: &[String],
    verifier: &WorkloadProvider,
    ae: &AccountingEnclave,
    cfg: &ReconcileConfig,
) -> Result<Vec<SignedNodeStatement>, AccTeeError> {
    let mut escrow = Escrow::new(cfg.escrow, cfg.rate);
    let mut rows: BTreeMap<String, NodeStatement> = BTreeMap::new();
    for q in quarantined {
        rows.entry(q.clone()).or_insert_with(|| NodeStatement {
            worker: q.clone(),
            units_credited: 0,
            weighted_instructions: 0,
            paid_nano: 0,
            bonus_nano: 0,
        });
    }
    for (worker, log) in credited {
        let row = rows.entry(worker.clone()).or_insert_with(|| NodeStatement {
            worker: worker.clone(),
            units_credited: 0,
            weighted_instructions: 0,
            paid_nano: 0,
            bonus_nano: 0,
        });
        if quarantined.contains(worker) {
            continue;
        }
        // A log that fails verification or replays a session releases
        // nothing; the row simply doesn't grow.
        if let Ok(paid) = escrow.release(verifier, worker, log) {
            row.units_credited += 1;
            row.weighted_instructions += log.log.weighted_instructions;
            row.paid_nano += paid;
        }
    }
    if cfg.bonus_pool > 0 {
        let names: Vec<String> = rows.keys().cloned().collect();
        let weights: Vec<u64> = names
            .iter()
            .map(|n| rows[n].weighted_instructions)
            .collect();
        for (name, share) in names.iter().zip(split_bounty(cfg.bonus_pool, &weights)) {
            rows.get_mut(name).unwrap().bonus_nano = share;
        }
    }
    rows.into_values()
        .map(|s| SignedNodeStatement::sign(s, ae))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::{Deployment, Level};
    use acctee_wasm::encode::encode_module;
    use acctee_workloads::subsetsum::subsetsum_module;

    /// Runs `n` sessions on one deployment and returns the logs.
    fn logs(dep: &mut Deployment, n: usize) -> Vec<SignedLog> {
        let module = encode_module(&subsetsum_module(4, 9));
        let (bytes, ev) = dep.instrument(&module, Level::LoopBased).unwrap();
        (0..n)
            .map(|_| dep.execute(&bytes, &ev, "run", &[], b"").unwrap().log)
            .collect()
    }

    #[test]
    fn honest_nodes_are_paid_and_statements_verify() {
        let mut dep = Deployment::new(5);
        let l = logs(&mut dep, 3);
        let credited = vec![
            ("alice".to_string(), l[0].clone()),
            ("bob".to_string(), l[1].clone()),
            ("alice".to_string(), l[2].clone()),
        ];
        let cfg = ReconcileConfig {
            rate: 2,
            escrow: u128::MAX / 2,
            bonus_pool: 1_000,
        };
        let ae = dep.infrastructure().accounting_enclave();
        let stmts = reconcile(&credited, &[], dep.workload_provider(), ae, &cfg).unwrap();
        assert_eq!(stmts.len(), 2);
        let alice = &stmts[0].statement;
        let bob = &stmts[1].statement;
        assert_eq!(alice.worker, "alice");
        assert_eq!(alice.units_credited, 2);
        assert_eq!(
            alice.paid_nano,
            u128::from(alice.weighted_instructions) * cfg.rate
        );
        assert_eq!(bob.units_credited, 1);
        assert_eq!(alice.bonus_nano + bob.bonus_nano, cfg.bonus_pool);
        for s in &stmts {
            s.verify(&dep.authority, ae.measurement()).unwrap();
        }
    }

    #[test]
    fn quarantined_nodes_get_zeroed_attested_statements() {
        let mut dep = Deployment::new(5);
        let l = logs(&mut dep, 2);
        let credited = vec![
            ("honest".to_string(), l[0].clone()),
            ("cheat".to_string(), l[1].clone()),
        ];
        let ae = dep.infrastructure().accounting_enclave();
        let stmts = reconcile(
            &credited,
            &["cheat".to_string()],
            dep.workload_provider(),
            ae,
            &ReconcileConfig {
                bonus_pool: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let cheat = stmts
            .iter()
            .find(|s| s.statement.worker == "cheat")
            .unwrap();
        assert_eq!(cheat.statement.paid_nano, 0);
        assert_eq!(cheat.statement.bonus_nano, 0);
        assert_eq!(cheat.statement.units_credited, 0);
        cheat.verify(&dep.authority, ae.measurement()).unwrap();
        let honest = stmts
            .iter()
            .find(|s| s.statement.worker == "honest")
            .unwrap();
        assert!(honest.statement.paid_nano > 0);
        assert_eq!(honest.statement.bonus_nano, 100);
    }

    #[test]
    fn duplicated_pairs_cannot_double_pay() {
        let mut dep = Deployment::new(5);
        let l = logs(&mut dep, 1);
        let credited = vec![
            ("alice".to_string(), l[0].clone()),
            ("alice".to_string(), l[0].clone()),
        ];
        let ae = dep.infrastructure().accounting_enclave();
        let stmts = reconcile(
            &credited,
            &[],
            dep.workload_provider(),
            ae,
            &ReconcileConfig::default(),
        )
        .unwrap();
        assert_eq!(stmts[0].statement.units_credited, 1);
    }

    #[test]
    fn tampered_statement_fails_verification() {
        let mut dep = Deployment::new(5);
        let l = logs(&mut dep, 1);
        let ae = dep.infrastructure().accounting_enclave();
        let stmts = reconcile(
            &[("alice".to_string(), l[0].clone())],
            &[],
            dep.workload_provider(),
            ae,
            &ReconcileConfig::default(),
        )
        .unwrap();
        let mut forged = stmts[0].clone();
        forged.statement.paid_nano += 1;
        assert!(forged.verify(&dep.authority, ae.measurement()).is_err());
    }
}
