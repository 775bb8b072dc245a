//! Enclave lifecycle: platforms, measurements, reports.

use crate::crypto::{digest_eq, hex, sha256, Digest, HmacKey};
use crate::seal::SealKeys;

/// An enclave measurement (MRENCLAVE): the SHA-256 of the enclave's
/// code and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub Digest);

impl Measurement {
    /// Measures a code blob.
    pub fn of(code: &[u8]) -> Measurement {
        Measurement(sha256(code))
    }

    /// Hex rendering for logs and audit trails.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mrenclave:{}", &self.to_hex()[..16])
    }
}

/// A local attestation report: the enclave's identity plus 64 bytes of
/// user data (typically a hash binding a public key or payload to the
/// enclave), MAC'd with the platform's report key so that only the
/// local quoting enclave can verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Identity of the reporting enclave.
    pub mrenclave: Measurement,
    /// Caller-chosen data bound into the report.
    pub report_data: [u8; 64],
    /// MAC over (mrenclave || report_data) under the platform key.
    pub mac: Digest,
}

impl Report {
    fn mac_under(key: &HmacKey, mrenclave: &Measurement, report_data: &[u8; 64]) -> Digest {
        key.mac_parts(&[&mrenclave.0, report_data])
    }
}

/// A simulated SGX-capable platform. Owns the platform report key that
/// links enclaves to the local quoting enclave.
#[derive(Debug, Clone)]
pub struct Platform {
    platform_key: HmacKey,
    /// A stable identifier for logs.
    pub name: String,
}

impl Platform {
    /// Creates a platform; `seed` determines its keys (deterministic so
    /// experiments are reproducible).
    pub fn new(name: &str, seed: u64) -> Platform {
        let mut material = Vec::new();
        material.extend_from_slice(b"acctee-platform-key");
        material.extend_from_slice(name.as_bytes());
        material.extend_from_slice(&seed.to_le_bytes());
        Platform {
            platform_key: HmacKey::new(&sha256(&material)),
            name: name.to_string(),
        }
    }

    /// Loads `code` into a new enclave on this platform.
    pub fn create_enclave(&self, code: &[u8]) -> Enclave {
        let mrenclave = Measurement::of(code);
        let seal = SealKeys::derive(&seal_key(&self.platform_key, &mrenclave));
        Enclave {
            mrenclave,
            platform_key: self.platform_key.clone(),
            seal,
        }
    }

    /// Verifies a report produced by an enclave on this platform
    /// (local attestation, used by the quoting enclave).
    pub fn verify_report(&self, report: &Report) -> bool {
        let expected =
            Report::mac_under(&self.platform_key, &report.mrenclave, &report.report_data);
        digest_eq(&expected, &report.mac)
    }
}

/// A running enclave: can produce local-attestation reports and derive
/// sealing keys. The host only interacts with it through this handle.
#[derive(Debug, Clone)]
pub struct Enclave {
    mrenclave: Measurement,
    platform_key: HmacKey,
    seal: SealKeys,
}

impl Enclave {
    /// The enclave's measurement.
    pub fn measurement(&self) -> Measurement {
        self.mrenclave
    }

    /// Produces a local-attestation report binding `report_data`.
    pub fn report(&self, report_data: [u8; 64]) -> Report {
        let mac = Report::mac_under(&self.platform_key, &self.mrenclave, &report_data);
        Report {
            mrenclave: self.mrenclave,
            report_data,
            mac,
        }
    }

    /// Derives the enclave's sealing key (stable across restarts on the
    /// same platform for the same measurement). Only tests read it;
    /// sealing uses the keys derived from it, [`Enclave::seal_keys`].
    #[cfg(test)]
    pub(crate) fn seal_key(&self) -> Digest {
        seal_key(&self.platform_key, &self.mrenclave)
    }

    /// The cipher and MAC keys [`crate::seal`] uses, derived once from
    /// the sealing key when the enclave was created.
    pub(crate) fn seal_keys(&self) -> &SealKeys {
        &self.seal
    }
}

fn seal_key(platform_key: &HmacKey, mrenclave: &Measurement) -> Digest {
    platform_key.mac_parts(&[b"seal", &mrenclave.0])
}

/// Packs at most 64 bytes into report data (zero padded).
///
/// # Panics
///
/// Panics if `data` exceeds 64 bytes.
pub fn report_data(data: &[u8]) -> [u8; 64] {
    assert!(data.len() <= 64, "report data is at most 64 bytes");
    let mut out = [0u8; 64];
    out[..data.len()].copy_from_slice(data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic_and_code_sensitive() {
        let a = Measurement::of(b"enclave-code-v1");
        let b = Measurement::of(b"enclave-code-v1");
        let c = Measurement::of(b"enclave-code-v2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.to_string().starts_with("mrenclave:"));
    }

    #[test]
    fn reports_verify_on_their_platform_only() {
        let p1 = Platform::new("alpha", 1);
        let p2 = Platform::new("beta", 2);
        let e = p1.create_enclave(b"code");
        let r = e.report(report_data(b"hello"));
        assert!(p1.verify_report(&r));
        assert!(!p2.verify_report(&r));
    }

    #[test]
    fn tampered_report_fails() {
        let p = Platform::new("alpha", 1);
        let e = p.create_enclave(b"code");
        let mut r = e.report(report_data(b"hello"));
        r.report_data[0] ^= 1;
        assert!(!p.verify_report(&r));
        let mut r2 = e.report(report_data(b"hello"));
        r2.mrenclave = Measurement::of(b"other");
        assert!(!p.verify_report(&r2));
    }

    #[test]
    fn seal_keys_differ_by_measurement_and_platform() {
        let p1 = Platform::new("alpha", 1);
        let p2 = Platform::new("beta", 2);
        let k1 = p1.create_enclave(b"a").seal_key();
        let k2 = p1.create_enclave(b"b").seal_key();
        let k3 = p2.create_enclave(b"a").seal_key();
        let k1_again = p1.create_enclave(b"a").seal_key();
        assert_eq!(k1, k1_again);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn a_report_costs_a_fixed_number_of_compressions() {
        let e = Platform::new("alpha", 1).create_enclave(b"code");
        // 32 + 64 bytes of payload: two inner blocks and one outer,
        // the platform key having been absorbed once.
        let before = crate::crypto::compressions();
        e.report(report_data(b"hello"));
        assert_eq!(crate::crypto::compressions() - before, 3);
    }

    #[test]
    fn debug_output_shows_no_key_material() {
        let p = Platform::new("alpha", 1);
        let e = p.create_enclave(b"code");
        let mut material = b"acctee-platform-key".to_vec();
        material.extend_from_slice(b"alpha");
        material.extend_from_slice(&1u64.to_le_bytes());
        let platform_key = sha256(&material);
        for shown in [format!("{p:?}"), format!("{e:?}"), format!("{e:#?}")] {
            assert!(shown.contains("HmacKey(..)"), "{shown}");
            for key in [platform_key, e.seal_key()] {
                assert!(!shown.contains(&hex(&key)), "{shown}");
                assert!(!shown.contains(&format!("{key:?}")), "{shown}");
                assert!(!shown.contains(&format!("{key:#?}")), "{shown}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 bytes")]
    fn oversized_report_data_panics() {
        report_data(&[0u8; 65]);
    }
}
