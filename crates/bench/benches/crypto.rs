//! Benches for the SGX simulator's crypto substrate: the cost of
//! measurement, MACs and sealing that every attested interaction pays.
//! Harness-free (`fn main`), timed with `acctee_bench::bench`.

use acctee_bench::bench;
use acctee_sgx::crypto::{hmac_sha256, sha256};
use acctee_sgx::{enclave::report_data, AttestationAuthority, Platform};

fn main() {
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        let ns = bench(&format!("crypto/sha256/{size}"), 30, || {
            std::hint::black_box(sha256(std::hint::black_box(&data)));
        });
        // Bytes per microsecond are MB/s.
        let mb_s = size as f64 * 1e3 / ns.max(1) as f64;
        println!("{:<50} {mb_s:>12.0} MB/s", format!("crypto/sha256/{size}"));
        bench(&format!("crypto/hmac/{size}"), 30, || {
            std::hint::black_box(hmac_sha256(b"key", &data));
        });
    }

    let authority = AttestationAuthority::new(1);
    let platform = Platform::new("bench", 1);
    let qe = authority.provision(&platform);
    let enclave = platform.create_enclave(b"bench-enclave");
    bench("attestation/quote+verify", 30, || {
        let quote = qe
            .quote(&enclave.report(report_data(b"payload")))
            .expect("quote");
        std::hint::black_box(authority.verify(&quote).expect("verify"));
    });
    // 16 KiB is about one darknet module: what a restart unseals per
    // logged deployment.
    for (label, size) in [("4k", 4096usize), ("16k", 16384)] {
        let data = vec![7u8; size];
        bench(&format!("attestation/seal+unseal-{label}"), 30, || {
            let sealed = acctee_sgx::seal::seal(&enclave, [9; 16], &data);
            std::hint::black_box(acctee_sgx::seal::unseal(&enclave, &sealed).expect("unseal"));
        });
    }
}
