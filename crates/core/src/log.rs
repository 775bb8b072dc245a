//! The resource usage log (paper Fig. 1/3): what both parties end up
//! trusting.

use acctee_sgx::crypto::{sha256, Digest};
use acctee_sgx::Quote;

use crate::codec::Enc;

/// Memory accounting policy (§3.5 "Memory"): either peak linear-memory
/// size, or the integral of memory size over the instruction counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPolicy {
    /// Bill the peak linear-memory size.
    #[default]
    Peak,
    /// Bill the integral of memory size over executed instructions
    /// (byte-instructions).
    Integral,
}

/// The metered resources of one workload execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsageLog {
    /// Final value of the weighted instruction counter.
    pub weighted_instructions: u64,
    /// Peak linear-memory size in bytes.
    pub peak_memory_bytes: u64,
    /// ∫ memory-size d(instruction-counter): byte-instructions.
    pub memory_integral: u128,
    /// Bytes read into the module.
    pub io_bytes_in: u64,
    /// Bytes written out of the module.
    pub io_bytes_out: u64,
    /// SHA-256 of the instrumented module that was executed.
    pub module_hash: Digest,
    /// Caller-chosen session identifier (anti-replay).
    pub session_id: u64,
}

impl ResourceUsageLog {
    /// Canonical digest bound into the accounting enclave's quote:
    /// SHA-256 of a domain tag and the log's canonical encoding, so the
    /// signed, stored and transmitted field orders are one order.
    pub fn binding(&self) -> Digest {
        let mut e = Enc(Vec::with_capacity(96));
        e.raw(b"acctee-log-v1");
        e.log(self);
        sha256(&e.0)
    }
}

/// A log plus the accounting enclave's quote over it.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedLog {
    /// The metered resources.
    pub log: ResourceUsageLog,
    /// Quote binding [`ResourceUsageLog::binding`] in its report data.
    pub quote: Quote,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_changes_with_fields() {
        let base = ResourceUsageLog {
            weighted_instructions: 10,
            peak_memory_bytes: 4096,
            memory_integral: 40_960,
            io_bytes_in: 1,
            io_bytes_out: 2,
            module_hash: sha256(b"m"),
            session_id: 7,
        };
        let b0 = base.binding();
        let mut l = base;
        l.weighted_instructions += 1;
        assert_ne!(b0, l.binding());
        let mut l = base;
        l.memory_integral += 1;
        assert_ne!(b0, l.binding());
        let mut l = base;
        l.session_id += 1;
        assert_ne!(b0, l.binding());
        assert_eq!(b0, base.binding());
    }
}
