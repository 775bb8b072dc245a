//! From-scratch cryptographic primitives: SHA-256 and HMAC-SHA-256.
//!
//! No cryptography crate is on the approved dependency list, so the
//! simulation implements FIPS 180-4 SHA-256 directly (validated against
//! the NIST test vectors in the unit tests) and builds HMAC (RFC 2104)
//! and a keyed signature scheme on top. Within the simulation the MACs
//! are unforgeable without the key, which is the property the
//! attestation protocol relies on. Keys that sign repeatedly are held
//! as [`HmacKey`]s, which absorb the key once rather than per MAC.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// An incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return self;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // One call for the whole run of full blocks, so the hardware
        // path keeps the state in registers between them.
        let (blocks, tail) = rest.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the message length in bits in the
        // last 8 bytes of a block. `buf_len` is below 64 here; from 56
        // on the length no longer fits and takes a block of its own.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
thread_local! {
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// SHA-256 block compressions run so far on this thread. Tests count
/// with it, so a change that hashes more than it should fails
/// deterministically rather than by a timing threshold.
#[cfg(test)]
pub(crate) fn compressions() -> u64 {
    COMPRESSIONS.with(|c| c.get())
}

/// Compresses `blocks` into `state` in order, on the CPU's SHA
/// extensions when it has them and on the portable [`compress`]
/// otherwise. Both give the same state bit for bit; nothing but the
/// CPU chooses between them.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        #[cfg(test)]
        COMPRESSIONS.with(|c| c.set(c.get() + blocks.len() as u64));
        // SAFETY: `shani::detected` confirmed through CPUID that this
        // CPU has every feature `shani::compress_blocks` is compiled
        // for (sha, sse2, ssse3, sse4.1). The function reads and writes
        // only through its two reference arguments.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// The portable FIPS 180-4 compression function: the fallback on CPUs
/// without SHA extensions and the oracle the hardware path is tested
/// against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    COMPRESSIONS.with(|c| c.set(c.get() + 1));
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-256 on the x86_64 SHA extensions (SHA-NI). `SHA256RNDS2` runs
/// two rounds on the state split as ABEF and CDGH; `SHA256MSG1/2`
/// extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this CPU has every feature [`compress_blocks`] needs,
    /// asked once per process.
    pub(super) fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Lanes 0..4 hold the big-endian words at `block[at..at + 16]`.
    #[target_feature(enable = "sse2,ssse3")]
    fn load_words(block: &[u8; 64], at: usize) -> __m128i {
        let half = |i: usize| i64::from_le_bytes(block[i..i + 8].try_into().expect("8-byte slice"));
        // Reverses the bytes of each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x(half(at + 8), half(at)), bswap)
    }

    /// Rounds `4 * quad .. 4 * quad + 4` on message words `w`.
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[quad * 4..quad * 4 + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The hardware counterpart of [`super::compress`], over a run of
    /// blocks so the state stays in registers between them.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // `_mm_set_epi32` lists lanes from 3 down to 0: lane 3 of
        // ABEF is `a`, lane 0 of CDGH is `h`.
        let s = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Entering quad `q`, `w0..w3` hold schedule words 4q..4q+16
            // (the last four quads extend words that go unused).
            let [mut w0, mut w1, mut w2, mut w3] = [0, 16, 32, 48].map(|at| load_words(block, at));
            for quad in 0..16 {
                rounds4(&mut abef, &mut cdgh, w0, quad);
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(t, w3));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// An HMAC-SHA-256 key (RFC 2104) with its ipad and opad blocks
/// already absorbed. A key that signs many messages is absorbed once:
/// each [`HmacKey::mac`] then hashes only the message and one outer
/// block, two compressions fewer than keying from scratch.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`; keys longer than a block are hashed first.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of `msg`.
    pub fn mac(&self, msg: &[u8]) -> Digest {
        self.mac_parts(&[msg])
    }

    /// The MAC of the concatenation of `parts`, without building it.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// The absorbed states are as good as the key, so `{:?}` shows neither.
impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

/// HMAC-SHA-256 (RFC 2104) under a key used once; a key that signs
/// repeatedly belongs in an [`HmacKey`].
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(msg)
}

/// Constant-time-ish digest comparison (sufficient for a simulation;
/// no real attacker measures this process's timing).
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Renders a digest as lowercase hex.
pub fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    // RFC 4231 test vectors.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key() {
        // RFC 4231 case 6: 131-byte key, hashed down first.
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// `(i % 251)` for `i` in `0..len`: no 64-byte block repeats.
    fn counting_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    // Reference hex from Python's `hashlib.sha256`. The lengths sit on
    // the padding edges: 55 is the longest message whose length field
    // fits its last block, 56..=63 spill the padding into a second one.
    #[test]
    fn sha256_padding_boundaries() {
        const VECTORS: [(usize, &str); 10] = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
            ),
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                1000,
                "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d",
            ),
        ];
        for (len, want) in VECTORS {
            assert_eq!(hex(&sha256(&counting_bytes(len))), want, "len {len}");
        }
    }

    // Reference hex from Python's `hmac` module. Keys of up to 64 bytes
    // are zero-padded, longer ones are hashed first.
    #[test]
    fn hmac_key_length_boundaries() {
        const VECTORS: [(usize, &str); 6] = [
            (
                0,
                "f50c8157520b0c1aa1ff29e8273b06d48e0a993ffeff696538019e6761c161b7",
            ),
            (
                1,
                "30e25daca1e402edda4027a5be255ad550a7490011f374cafc28d53dd6105779",
            ),
            (
                32,
                "2ddac5d222bc74033e4cf64d3b07d9717dd76bf0f7826d244a08c972d442fa1e",
            ),
            (
                64,
                "6e67abe60e80691f8b48b7fd776e3fb7dec7774e8c5f303ef00f62e369b794f6",
            ),
            (
                65,
                "c492464f2a8ce29bbd45f564761c25daef181bae690bd19634de9e15c8e13186",
            ),
            (
                131,
                "76cd03b1a24fc89c4db035b00b67f88501e853434a4df11874dae4671ef60c76",
            ),
        ];
        let msg = b"acctee hmac boundary vector";
        for (key_len, want) in VECTORS {
            let key: Vec<u8> = (0..key_len).map(|i| (0x40 + i) as u8).collect();
            assert_eq!(hex(&hmac_sha256(&key, msg)), want, "key len {key_len}");
        }
    }

    #[test]
    fn hmac_key_matches_one_shot_and_parts_match_whole() {
        let msg = counting_bytes(200);
        for key_len in [0, 1, 32, 64, 65, 131] {
            let raw: Vec<u8> = (0..key_len).map(|i| (0x40 + i) as u8).collect();
            let key = HmacKey::new(&raw);
            for len in [0, 1, 55, 56, 63, 64, 65, 200] {
                let whole = hmac_sha256(&raw, &msg[..len]);
                assert_eq!(key.mac(&msg[..len]), whole, "key {key_len}, len {len}");
                for split in [0, len / 3, len] {
                    let (a, b) = msg[..len].split_at(split);
                    assert_eq!(key.mac_parts(&[a, &[], b]), whole, "split {split}");
                }
            }
        }
    }

    #[test]
    fn compression_counts() {
        // A message of n bytes plus the 9 bytes of padding fills
        // ceil((n + 9) / 64) blocks.
        let before = compressions();
        sha256(&[0; 55]);
        sha256(&[0; 56]);
        assert_eq!(compressions() - before, 1 + 2);
        // A run of full blocks counts one per block on either backend.
        let before = compressions();
        sha256(&[0; 640]);
        assert_eq!(compressions() - before, 10 + 1);
        // An absorbed key costs its two pad blocks once; each MAC then
        // costs the message blocks and one outer block.
        let before = compressions();
        let key = HmacKey::new(b"k");
        assert_eq!(compressions() - before, 2);
        let before = compressions();
        key.mac(&[0; 55]);
        key.mac(&[0; 56]);
        assert_eq!(compressions() - before, (1 + 1) + (2 + 1));
    }

    /// Whether [`compress_blocks`] runs on the SHA extensions here.
    fn hardware_backend() -> bool {
        #[cfg(target_arch = "x86_64")]
        return shani::detected();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// A seeded xorshift64* stream, so a failing case replays.
    fn seeded(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// SHA-256 on the portable [`compress`] alone, padding by hand.
    fn portable_sha256(msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        for block in padded.as_chunks::<64>().0 {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn backends_agree_on_random_states_and_blocks() {
        if !hardware_backend() {
            // Written to the stream itself, past the test harness's
            // capture, so a passing run still says what it covered.
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "no SHA extensions on this CPU: ran the portable backend only"
            );
        }
        let mut next = seeded(0x5eed_acc7_ee00_0001);
        let mut blocks = vec![[0u8; 64]; 4];
        for case in 0..10_000 {
            let start: [u32; 8] = std::array::from_fn(|_| next() as u32);
            // Runs of 1..=4 blocks, so state carried across blocks in
            // registers is checked too.
            let run = &mut blocks[..1 + case % 4];
            for block in run.iter_mut() {
                block.fill_with(|| next() as u8);
            }
            let mut dispatched = start;
            compress_blocks(&mut dispatched, run);
            let mut portable = start;
            for block in run.iter() {
                compress(&mut portable, block);
            }
            assert_eq!(dispatched, portable, "case {case}: start {start:08x?}");
        }
    }

    #[test]
    fn update_at_every_split_matches_portable() {
        let msg = counting_bytes(300);
        let want = portable_sha256(&msg);
        assert_eq!(sha256(&msg), want);
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]).update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn digest_eq_works() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 1;
        assert!(!digest_eq(&a, &b));
    }
}
