//! Remote attestation: quoting enclave + attestation service.
//!
//! In real SGX, the quoting enclave signs reports with an EPID /
//! ECDSA key provisioned by Intel, and the Intel Attestation Service
//! (IAS) vouches for the signature. The simulation collapses this into
//! an [`AttestationAuthority`] holding a root secret: each registered
//! platform's quoting enclave gets a derived key, quotes are MACs under
//! that key, and verification goes back through the authority — exactly
//! the trust topology of IAS, with MACs standing in for signatures
//! (unforgeable within the simulation; documented substitution, see
//! DESIGN.md §2).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::crypto::{digest_eq, Digest, HmacKey};
use crate::enclave::{Measurement, Platform, Report};

/// Why attestation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// The local report MAC did not verify on this platform.
    BadReport,
    /// The platform is not registered with the authority.
    UnknownPlatform,
    /// The quote signature did not verify.
    BadQuote,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::BadReport => write!(f, "local report verification failed"),
            AttestationError::UnknownPlatform => write!(f, "platform not registered"),
            AttestationError::BadQuote => write!(f, "quote signature invalid"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// A remotely verifiable quote: a report plus the quoting enclave's
/// signature over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested enclave's measurement.
    pub mrenclave: Measurement,
    /// User data bound into the report.
    pub report_data: [u8; 64],
    /// Name of the platform whose quoting enclave signed.
    pub platform: String,
    /// Signature (MAC under the platform's provisioned key).
    pub signature: Digest,
}

impl Quote {
    /// The MAC of mrenclave || report_data || platform under `key`.
    fn signature_under(&self, key: &HmacKey) -> Digest {
        key.mac_parts(&[
            &self.mrenclave.0,
            &self.report_data,
            self.platform.as_bytes(),
        ])
    }
}

/// The root of trust: registers platforms (provisioning) and verifies
/// quotes (the IAS role).
#[derive(Debug, Clone)]
pub struct AttestationAuthority {
    root: HmacKey,
    /// Each genuine platform's quote key, derived once when the
    /// platform is provisioned or recognized.
    registered: Arc<Mutex<HashMap<String, HmacKey>>>,
}

impl AttestationAuthority {
    /// Creates an authority with a deterministic root secret.
    pub fn new(seed: u64) -> AttestationAuthority {
        let mut material = b"acctee-attestation-root".to_vec();
        material.extend_from_slice(&seed.to_le_bytes());
        AttestationAuthority {
            root: HmacKey::new(&crate::crypto::sha256(&material)),
            registered: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Registers `platform` as genuine and returns its quote key.
    fn register(&self, platform: &str) -> HmacKey {
        let key = HmacKey::new(&self.root.mac(platform.as_bytes()));
        self.registered
            .lock()
            .expect("registry lock")
            .insert(platform.to_string(), key.clone());
        key
    }

    /// Provisions a platform's quoting enclave, returning it. This is
    /// the moment the authority decides the platform is genuine.
    pub fn provision(&self, platform: &Platform) -> QuotingEnclave {
        QuotingEnclave {
            platform: platform.clone(),
            quote_key: self.register(&platform.name),
        }
    }

    /// Marks a platform name as genuine *without* provisioning a
    /// quoting enclave — the remote-verifier side of
    /// [`AttestationAuthority::provision`]. A networked client that
    /// reconstructs the authority from its root seed (the shared trust
    /// anchor, exactly as parties share trust in IAS) uses this to
    /// accept quotes from the well-known platform names it audited,
    /// without ever holding those platforms' quoting keys.
    pub fn recognize(&self, platform_name: &str) {
        self.register(platform_name);
    }

    /// Verifies a quote, returning the attested measurement.
    ///
    /// # Errors
    ///
    /// [`AttestationError::UnknownPlatform`] if the platform was never
    /// provisioned; [`AttestationError::BadQuote`] if the signature
    /// does not verify.
    pub fn verify(&self, quote: &Quote) -> Result<Measurement, AttestationError> {
        let key = self
            .registered
            .lock()
            .expect("registry lock")
            .get(&quote.platform)
            .cloned()
            .ok_or(AttestationError::UnknownPlatform)?;
        if !digest_eq(&quote.signature_under(&key), &quote.signature) {
            return Err(AttestationError::BadQuote);
        }
        Ok(quote.mrenclave)
    }
}

/// The platform's quoting enclave: converts local reports into
/// remotely-verifiable quotes.
#[derive(Debug, Clone)]
pub struct QuotingEnclave {
    platform: Platform,
    quote_key: HmacKey,
}

impl QuotingEnclave {
    /// Produces a quote from a local report.
    ///
    /// # Errors
    ///
    /// [`AttestationError::BadReport`] if the report does not verify on
    /// this platform (it was forged or produced elsewhere).
    pub fn quote(&self, report: &Report) -> Result<Quote, AttestationError> {
        if !self.platform.verify_report(report) {
            return Err(AttestationError::BadReport);
        }
        let mut q = Quote {
            mrenclave: report.mrenclave,
            report_data: report.report_data,
            platform: self.platform.name.clone(),
            signature: [0; 32],
        };
        q.signature = q.signature_under(&self.quote_key);
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::report_data;

    fn setup() -> (AttestationAuthority, Platform, QuotingEnclave) {
        let authority = AttestationAuthority::new(42);
        let platform = Platform::new("prov-1", 7);
        let qe = authority.provision(&platform);
        (authority, platform, qe)
    }

    #[test]
    fn end_to_end_attestation() {
        let (authority, platform, qe) = setup();
        let enclave = platform.create_enclave(b"accounting-enclave-v1");
        let report = enclave.report(report_data(b"session-key-hash"));
        let quote = qe.quote(&report).unwrap();
        let m = authority.verify(&quote).unwrap();
        assert_eq!(m, enclave.measurement());
    }

    #[test]
    fn forged_quotes_rejected() {
        let (authority, platform, qe) = setup();
        let enclave = platform.create_enclave(b"code");
        let quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();

        let mut wrong_measurement = quote.clone();
        wrong_measurement.mrenclave = Measurement::of(b"evil");
        assert_eq!(
            authority.verify(&wrong_measurement),
            Err(AttestationError::BadQuote)
        );

        let mut wrong_data = quote.clone();
        wrong_data.report_data[0] ^= 0xff;
        assert_eq!(
            authority.verify(&wrong_data),
            Err(AttestationError::BadQuote)
        );

        let mut wrong_sig = quote;
        wrong_sig.signature[0] ^= 1;
        assert_eq!(
            authority.verify(&wrong_sig),
            Err(AttestationError::BadQuote)
        );
    }

    #[test]
    fn recognized_platform_verifies_without_provisioning() {
        // A remote verifier rebuilds the authority from the shared
        // root seed and recognizes the audited platform name: quotes
        // verify exactly as on the original authority, and unknown
        // names still fail.
        let (_, platform, qe) = setup();
        let enclave = platform.create_enclave(b"code");
        let quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        let remote = AttestationAuthority::new(42);
        assert_eq!(
            remote.verify(&quote),
            Err(AttestationError::UnknownPlatform)
        );
        remote.recognize("prov-1");
        assert_eq!(remote.verify(&quote).unwrap(), enclave.measurement());
    }

    #[test]
    fn unprovisioned_platform_rejected() {
        let (authority, _platform, _qe) = setup();
        let rogue = Platform::new("rogue", 666);
        let rogue_authority = AttestationAuthority::new(666);
        let rogue_qe = rogue_authority.provision(&rogue);
        let enclave = rogue.create_enclave(b"code");
        let quote = rogue_qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        assert_eq!(
            authority.verify(&quote),
            Err(AttestationError::UnknownPlatform)
        );
    }

    #[test]
    fn report_from_other_platform_not_quotable() {
        let (_authority, _platform, qe) = setup();
        let other = Platform::new("other", 9);
        let enclave = other.create_enclave(b"code");
        let report = enclave.report(report_data(b"x"));
        assert_eq!(qe.quote(&report), Err(AttestationError::BadReport));
    }

    #[test]
    fn unregistered_name_is_unknown_even_with_other_platforms_cached() {
        let (authority, platform, qe) = setup();
        authority.recognize("audited");
        let enclave = platform.create_enclave(b"code");
        let mut quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        quote.platform = "never-registered".to_string();
        assert_eq!(
            authority.verify(&quote),
            Err(AttestationError::UnknownPlatform)
        );
    }

    #[test]
    fn recognizing_a_provisioned_platform_keeps_its_quotes_verifying() {
        let (authority, platform, qe) = setup();
        authority.recognize("prov-1");
        let enclave = platform.create_enclave(b"code");
        let quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        assert_eq!(authority.verify(&quote).unwrap(), enclave.measurement());
        let fresh = qe.quote(&enclave.report(report_data(b"y"))).unwrap();
        assert_eq!(authority.verify(&fresh).unwrap(), enclave.measurement());
    }

    #[test]
    fn quote_relabelled_to_another_registered_platform_is_bad() {
        let (authority, platform, qe) = setup();
        let other = Platform::new("prov-2", 8);
        let _other_qe = authority.provision(&other);
        authority.recognize("audited");
        let enclave = platform.create_enclave(b"code");
        let quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        for name in ["prov-2", "audited"] {
            let mut relabelled = quote.clone();
            relabelled.platform = name.to_string();
            assert_eq!(
                authority.verify(&relabelled),
                Err(AttestationError::BadQuote),
                "{name}"
            );
        }
    }

    #[test]
    fn quoting_and_verifying_cost_a_fixed_number_of_compressions() {
        use crate::crypto::compressions;
        let (authority, platform, qe) = setup();
        let enclave = platform.create_enclave(b"code");
        let report = enclave.report(report_data(b"x"));
        // A quote verifies its 96-byte report (2 inner blocks + 1 outer)
        // and signs 96 + 6 bytes of payload (2 + 1), with every key
        // already absorbed.
        let before = compressions();
        let quote = qe.quote(&report).unwrap();
        assert_eq!(compressions() - before, 3 + 3);
        // Verification uses the cached quote key: one signature check.
        let before = compressions();
        authority.verify(&quote).unwrap();
        assert_eq!(compressions() - before, 3);
    }

    #[test]
    fn different_authorities_do_not_trust_each_other() {
        let (_, platform, qe) = setup();
        let enclave = platform.create_enclave(b"code");
        let quote = qe.quote(&enclave.report(report_data(b"x"))).unwrap();
        let other_authority = AttestationAuthority::new(43);
        // Other authority never provisioned this platform.
        assert_eq!(
            other_authority.verify(&quote),
            Err(AttestationError::UnknownPlatform)
        );
    }
}
