//! Canonical on-disk encoding of one accounted usage record.
//!
//! A [`UsageRecord`] is the durable unit the write-ahead log stores:
//! the tenant that was billed plus the accounting enclave's
//! [`SignedLog`], written with the shared [`acctee::codec`] (so the log
//! fields are, by construction, the preimage
//! [`ResourceUsageLog::binding`](acctee::ResourceUsageLog::binding)
//! hashes). The record has its own version tag, and caps every length
//! prefix at 64 KiB: the WAL must be able to evolve (or stay
//! frozen) independently of the wire protocol version.

use acctee::codec::{Dec, Enc};
use acctee::SignedLog;

use crate::DurableError;

/// Version tag leading every encoded record.
pub const RECORD_VERSION: u16 = 1;

/// Upper bound on any length prefix inside a record (tenant and
/// platform names); hostile lengths beyond it are rejected before any
/// allocation.
pub(crate) const MAX_FIELD: u32 = 1 << 16;

/// One accounted request, as persisted: the billed tenant plus the
/// signed resource usage log.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRecord {
    /// The tenant the invoice was folded under.
    pub tenant: String,
    /// The accounting enclave's signed log.
    pub signed: SignedLog,
}

/// Writes a record from its borrowed parts: version tag, tenant, then
/// the signed log.
pub(crate) fn put_record(e: &mut Enc, tenant: &str, signed: &SignedLog) {
    e.u16(RECORD_VERSION);
    e.bytes(tenant.as_bytes());
    e.signed_log(signed);
}

/// Encodes a record into its canonical byte form (the WAL frame
/// payload).
pub fn encode_record(rec: &UsageRecord) -> Vec<u8> {
    let mut e = Enc::default();
    put_record(&mut e, &rec.tenant, &rec.signed);
    e.0
}

/// Decodes a canonical record; total, never panics.
///
/// # Errors
///
/// [`DurableError::Decode`] on a version mismatch, truncation,
/// hostile length, non-UTF-8 text or trailing bytes.
pub fn decode_record(buf: &[u8]) -> Result<UsageRecord, DurableError> {
    let mut d = Dec::with_field_limit(buf, MAX_FIELD);
    let version = d.u16()?;
    if version != RECORD_VERSION {
        return Err(DurableError::Decode(format!(
            "unsupported record version {version}"
        )));
    }
    let tenant = d.string()?;
    let signed = d.signed_log()?;
    d.finish()?;
    Ok(UsageRecord { tenant, signed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee::ResourceUsageLog;
    use acctee_sgx::crypto::sha256;
    use acctee_sgx::{Measurement, Quote};

    pub(crate) fn sample_log(session_id: u64) -> ResourceUsageLog {
        ResourceUsageLog {
            weighted_instructions: 123_456,
            peak_memory_bytes: 65_536,
            memory_integral: (77u128 << 64) | 0xdead_beef,
            io_bytes_in: 42,
            io_bytes_out: 7,
            module_hash: sha256(b"module"),
            session_id,
        }
    }

    fn sample(session_id: u64) -> UsageRecord {
        UsageRecord {
            tenant: "tenant-a".into(),
            signed: SignedLog {
                log: sample_log(session_id),
                quote: Quote {
                    mrenclave: Measurement(sha256(b"ae")),
                    report_data: [9u8; 64],
                    platform: "ae-host".into(),
                    signature: sha256(b"sig"),
                },
            },
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let rec = sample(17);
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn encoding_and_binding_preimage_never_diverge() {
        // The satellite bugfix pin: encode → decode → binding must be
        // the identity for every representable log, including extreme
        // field values, so no sub-field can be dropped or reordered by
        // the on-disk format without the binding (what the enclave
        // signed) catching it.
        let extremes = [
            ResourceUsageLog::default(),
            sample_log(u64::MAX),
            ResourceUsageLog {
                weighted_instructions: u64::MAX,
                peak_memory_bytes: u64::MAX,
                memory_integral: u128::MAX,
                io_bytes_in: u64::MAX,
                io_bytes_out: u64::MAX,
                module_hash: [0xff; 32],
                session_id: u64::MAX,
            },
            ResourceUsageLog {
                memory_integral: 1,
                ..ResourceUsageLog::default()
            },
        ];
        for log in extremes {
            let rec = UsageRecord {
                tenant: "t".into(),
                signed: SignedLog {
                    log,
                    quote: sample(0).signed.quote,
                },
            };
            let back = decode_record(&encode_record(&rec)).unwrap();
            assert_eq!(back.signed.log, log);
            assert_eq!(back.signed.log.binding(), log.binding());
        }
    }

    #[test]
    fn adjacent_field_swap_changes_the_encoding() {
        // io_bytes_in and io_bytes_out are adjacent same-width fields;
        // a swapped encoding must not round-trip to the same binding.
        let mut a = sample(1);
        a.signed.log.io_bytes_in = 3;
        a.signed.log.io_bytes_out = 4;
        let mut b = a.clone();
        b.signed.log.io_bytes_in = 4;
        b.signed.log.io_bytes_out = 3;
        assert_ne!(encode_record(&a), encode_record(&b));
        assert_ne!(a.signed.log.binding(), b.signed.log.binding());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_record(&sample(5));
        for n in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_record(&sample(5));
        bytes.push(0);
        assert!(matches!(
            decode_record(&bytes),
            Err(DurableError::Decode(_))
        ));
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        let mut e = Enc::default();
        e.u16(RECORD_VERSION);
        e.u32(u32::MAX); // tenant "length"
        assert!(decode_record(&e.0).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_record(&sample(5));
        bytes[0] = 0xfe;
        bytes[1] = 0xff;
        assert!(decode_record(&bytes).is_err());
    }
}
