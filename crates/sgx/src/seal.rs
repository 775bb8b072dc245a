//! Sealing: encrypting data to an enclave identity.
//!
//! Real SGX derives a sealing key from the enclave measurement and the
//! platform's fuse keys; we derive it the same way from the simulated
//! platform key. The cipher is a SHA-256-based stream cipher with an
//! encrypt-then-MAC tag — not production cryptography, but it provides
//! the confidentiality + integrity contract the AccTEE protocol needs
//! within the simulation.

use crate::crypto::{digest_eq, Digest, HmacKey};
use crate::enclave::Enclave;

/// A sealed blob: nonce, ciphertext and integrity tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Per-seal nonce.
    pub nonce: [u8; 16],
    /// The encrypted payload.
    pub ciphertext: Vec<u8>,
    /// MAC over nonce || ciphertext.
    pub tag: Digest,
}

/// The two keys an enclave seals under, both derived from its sealing
/// key (platform key and measurement): `enc` generates the keystream,
/// `mac` tags nonce || ciphertext.
#[derive(Debug, Clone)]
pub(crate) struct SealKeys {
    enc: HmacKey,
    mac: HmacKey,
}

impl SealKeys {
    pub(crate) fn derive(seal_key: &Digest) -> SealKeys {
        let seal_key = HmacKey::new(seal_key);
        SealKeys {
            enc: HmacKey::new(&seal_key.mac(b"seal-enc")),
            mac: HmacKey::new(&seal_key.mac(b"seal-mac")),
        }
    }

    fn tag(&self, nonce: &[u8; 16], ciphertext: &[u8]) -> Digest {
        self.mac.mac_parts(&[nonce, ciphertext])
    }

    /// XORs `data` with the keystream: block `i` of 32 bytes is
    /// HMAC(enc, nonce || i as little-endian u64).
    fn apply_keystream(&self, nonce: &[u8; 16], data: &mut [u8]) {
        let mut input = [0u8; 24];
        input[..16].copy_from_slice(nonce);
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            input[16..].copy_from_slice(&(i as u64).to_le_bytes());
            let ks = self.enc.mac(&input);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Seals `data` to `enclave`'s identity. The nonce must be unique per
/// seal; the caller supplies it (deterministic tests pass fixed
/// nonces, production embedders pass fresh randomness).
pub fn seal(enclave: &Enclave, nonce: [u8; 16], data: &[u8]) -> Sealed {
    let keys = enclave.seal_keys();
    let mut ciphertext = data.to_vec();
    keys.apply_keystream(&nonce, &mut ciphertext);
    let tag = keys.tag(&nonce, &ciphertext);
    Sealed {
        nonce,
        ciphertext,
        tag,
    }
}

/// Unseals a blob; fails if the blob was not sealed to this enclave's
/// identity or was tampered with.
///
/// # Errors
///
/// Returns `Err(())`-like `None` when the tag does not verify.
pub fn unseal(enclave: &Enclave, sealed: &Sealed) -> Option<Vec<u8>> {
    let keys = enclave.seal_keys();
    if !digest_eq(&keys.tag(&sealed.nonce, &sealed.ciphertext), &sealed.tag) {
        return None;
    }
    let mut plain = sealed.ciphertext.clone();
    keys.apply_keystream(&sealed.nonce, &mut plain);
    Some(plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::Platform;

    #[test]
    fn seal_round_trip() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let sealed = seal(&e, [7; 16], b"secret weights table");
        assert_ne!(sealed.ciphertext, b"secret weights table");
        assert_eq!(unseal(&e, &sealed).unwrap(), b"secret weights table");
    }

    #[test]
    fn other_enclave_cannot_unseal() {
        let p = Platform::new("p", 1);
        let e1 = p.create_enclave(b"code-a");
        let e2 = p.create_enclave(b"code-b");
        let sealed = seal(&e1, [7; 16], b"secret");
        assert!(unseal(&e2, &sealed).is_none());
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let e1 = Platform::new("p1", 1).create_enclave(b"code");
        let e2 = Platform::new("p2", 2).create_enclave(b"code");
        let sealed = seal(&e1, [7; 16], b"secret");
        assert!(unseal(&e2, &sealed).is_none());
    }

    #[test]
    fn tampering_detected() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let mut sealed = seal(&e, [7; 16], b"secret");
        sealed.ciphertext[0] ^= 1;
        assert!(unseal(&e, &sealed).is_none());
        let mut sealed2 = seal(&e, [7; 16], b"secret");
        sealed2.nonce[0] ^= 1;
        assert!(unseal(&e, &sealed2).is_none());
    }

    #[test]
    fn large_payloads_and_empty_payloads() {
        let p = Platform::new("p", 1);
        let e = p.create_enclave(b"code");
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(unseal(&e, &seal(&e, [1; 16], &big)).unwrap(), big);
        assert_eq!(unseal(&e, &seal(&e, [2; 16], b"")).unwrap(), b"");
    }

    #[test]
    fn sealing_costs_only_keystream_and_tag_compressions() {
        use crate::crypto::compressions;
        let e = Platform::new("p", 1).create_enclave(b"code");
        for n in [0usize, 1, 31, 32, 33, 39, 40, 100, 1000] {
            let data = vec![0xa5; n];
            // Each 32-byte keystream block MACs 24 bytes (one inner
            // block, one outer); the tag MACs 16 + n bytes. No key is
            // absorbed per call.
            let expected = 2 * n.div_ceil(32) as u64 + ((n + 16 + 9).div_ceil(64) + 1) as u64;
            let before = compressions();
            let sealed = seal(&e, [3; 16], &data);
            assert_eq!(compressions() - before, expected, "seal {n}");
            let before = compressions();
            assert_eq!(unseal(&e, &sealed).as_deref(), Some(&data[..]));
            assert_eq!(compressions() - before, expected, "unseal {n}");
        }
    }

    /// The sealed-blob format, pinned byte for byte. Every registry
    /// checkpoint and deploy-log frame on disk was sealed this way, so
    /// a change to the cipher that moves any of these bytes would stop
    /// them opening. The reference hex was computed independently with
    /// Python's `hashlib`/`hmac` from the construction in this module.
    #[test]
    fn seal_format_is_pinned() {
        const PINNED: [(usize, &str, &str); 6] = [
            (
                0,
                "",
                "1afc95c75b27a4b166a31481fbc4b926ac916690b4e39724ad0c431540e2c267",
            ),
            (
                1,
                "ca",
                "d72b63fe2591374d7286edf6b0d3ae408e753e540fad2539e26bce410dfa6d7d",
            ),
            (
                31,
                "cae27b7c60805c44fe96e9222e59f1b8f787d3656ff3ab9a36589ea660af2a",
                "64021d95308a0d8492e72190a59cd072e735c5f72b15d839fdcb471c566fdb1f",
            ),
            (
                32,
                "cae27b7c60805c44fe96e9222e59f1b8f787d3656ff3ab9a36589ea660af2a2e",
                "bb74ca51d8f82521fd9edc93e373b922bf2063e18cd117589bf1307f008df4ec",
            ),
            (
                33,
                "cae27b7c60805c44fe96e9222e59f1b8f787d3656ff3ab9a36589ea660af2a2e58",
                "8e12e4712284710296d15e06a2327219c323cdb084f3a75f8fa6a3134dde6994",
            ),
            (
                100,
                "cae27b7c60805c44fe96e9222e59f1b8f787d3656ff3ab9a36589ea660af2a2e\
                 58b046ad5c2e5c3363af2ae8b791dabee4d9fe76cf5de84d5c0b81b5bacac721\
                 9f6939e1b14b719e8680ff255b3d0f922bd8faf528d2672fe465346d7745de52\
                 d32598be",
                "15aff6805615c0ba6b384d51e9aa4f1cb35399ac3686a9ff2ae573370696a08d",
            ),
        ];
        let e = Platform::new("seal-pin", 0x5ea1).create_enclave(b"seal-pin-enclave");
        let other = Platform::new("seal-pin", 0x5ea1).create_enclave(b"seal-pin-other");
        let nonce: [u8; 16] = std::array::from_fn(|i| 0x10 + i as u8);
        let hex_bytes = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        for (len, ciphertext, tag) in PINNED {
            let plain: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 256) as u8).collect();
            let sealed = seal(&e, nonce, &plain);
            assert_eq!(hex_bytes(&sealed.ciphertext), ciphertext, "len {len}");
            assert_eq!(crate::crypto::hex(&sealed.tag), tag, "len {len}");
            assert_eq!(
                unseal(&e, &sealed).as_deref(),
                Some(&plain[..]),
                "len {len}"
            );
            assert_eq!(unseal(&other, &sealed), None, "len {len}: other enclave");
            let mut bad_tag = sealed.clone();
            bad_tag.tag[len % 32] ^= 0x01;
            assert_eq!(unseal(&e, &bad_tag), None, "len {len}: flipped tag");
            if len > 0 {
                let mut bad_ct = sealed.clone();
                bad_ct.ciphertext[len - 1] ^= 0x80;
                assert_eq!(unseal(&e, &bad_ct), None, "len {len}: flipped ciphertext");
            }
        }
    }
}
