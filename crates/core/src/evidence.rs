//! Instrumentation evidence (paper Fig. 3): the signed statement that a
//! particular instrumented module was produced by the instrumentation
//! enclave from a particular original module, under a particular
//! weight table.

use acctee_instrument::Level;
use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::Quote;

/// The evidence accompanying an instrumented module.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentationEvidence {
    /// SHA-256 of the original (pre-instrumentation) module binary.
    pub original_hash: Digest,
    /// SHA-256 of the instrumented module binary.
    pub instrumented_hash: Digest,
    /// Instrumentation level used.
    pub level: Level,
    /// SHA-256 of the weight table used (§3.7: part of the attested
    /// environment).
    pub weight_hash: Digest,
    /// Index of the injected counter global.
    pub counter_global: u32,
    /// Quote from the instrumentation enclave binding all of the
    /// above into its `report_data`.
    pub quote: Quote,
}

impl InstrumentationEvidence {
    /// The canonical digest the quote binds (placed in report data).
    pub fn binding(&self) -> Digest {
        binding(
            &self.original_hash,
            &self.instrumented_hash,
            self.level,
            &self.weight_hash,
            self.counter_global,
        )
    }
}

/// Computes the canonical evidence digest.
pub fn binding(
    original_hash: &Digest,
    instrumented_hash: &Digest,
    level: Level,
    weight_hash: &Digest,
    counter_global: u32,
) -> Digest {
    let mut payload = Vec::with_capacity(32 * 3 + 16);
    payload.extend_from_slice(b"acctee-evidence-v1");
    payload.extend_from_slice(original_hash);
    payload.extend_from_slice(instrumented_hash);
    payload.push(level.tag());
    payload.extend_from_slice(weight_hash);
    payload.extend_from_slice(&counter_global.to_le_bytes());
    sha256(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_is_sensitive_to_every_field() {
        let h1 = sha256(b"a");
        let h2 = sha256(b"b");
        let w = sha256(b"w");
        let base = binding(&h1, &h2, Level::Naive, &w, 3);
        assert_ne!(base, binding(&h2, &h2, Level::Naive, &w, 3));
        assert_ne!(base, binding(&h1, &h1, Level::Naive, &w, 3));
        assert_ne!(base, binding(&h1, &h2, Level::FlowBased, &w, 3));
        assert_ne!(base, binding(&h1, &h2, Level::Naive, &h1, 3));
        assert_ne!(base, binding(&h1, &h2, Level::Naive, &w, 4));
        assert_eq!(base, binding(&h1, &h2, Level::Naive, &w, 3));
    }
}
