//! Benches for the framed logs' checksum: CRC-32 throughput on the
//! dispatched path (the carry-less-multiply kernel where the CPU has
//! one) and on the portable byte-wise loop, and the time to replay one
//! 4 MiB usage-WAL segment, which checks every frame's CRC.
//! Harness-free (`fn main`), timed with `acctee_bench::bench`.

use acctee::{ResourceUsageLog, SignedLog};
use acctee_bench::bench;
use acctee_durable::framed::{crc32, crc32_portable};
use acctee_durable::{FsyncPolicy, UsageRecord, Wal};
use acctee_sgx::crypto::sha256;
use acctee_sgx::{Measurement, Quote};

/// Bytes of WAL segment the replay row reads.
const SEGMENT_BYTES: u64 = 4 << 20;

fn record(session: u64) -> UsageRecord {
    UsageRecord {
        tenant: format!("tenant-{}", session % 16),
        signed: SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: session * 1_000,
                peak_memory_bytes: 65_536,
                memory_integral: u128::from(session) << 19,
                io_bytes_in: 64,
                io_bytes_out: 64,
                module_hash: sha256(b"echo"),
                session_id: session,
            },
            quote: Quote {
                mrenclave: Measurement(sha256(b"ae")),
                report_data: [7u8; 64],
                platform: "ae-host".into(),
                signature: sha256(&session.to_le_bytes()),
            },
        },
    }
}

fn main() {
    for (label, size) in [("256", 256usize), ("4k", 4096), ("1m", 1 << 20)] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        for (path, f) in [
            ("dispatched", crc32 as fn(&[u8]) -> u32),
            ("portable", crc32_portable),
        ] {
            let name = format!("framed/crc32/{path}/{label}");
            let ns = bench(&name, 30, || {
                std::hint::black_box(f(std::hint::black_box(&data)));
            });
            // Bytes per microsecond are MB/s.
            let mb_s = size as f64 * 1e3 / ns;
            println!("{name:<50} {mb_s:>12.0} MB/s");
        }
    }

    // One segment of usage records, replayed from the page cache: the
    // work `Wal::open` does on a restart, decoding included.
    let dir = std::env::temp_dir().join(format!("acctee-bench-framed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never, 2 * SEGMENT_BYTES).expect("open");
    let mut session = 0;
    while std::fs::metadata(dir.join("wal-00000001.log"))
        .expect("segment")
        .len()
        < SEGMENT_BYTES
    {
        session += 1;
        let rec = record(session);
        wal.append(&rec.tenant, &rec.signed).expect("append");
    }
    drop(wal);
    let ns = bench("framed/wal-replay/4MiB", 10, || {
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Never, 2 * SEGMENT_BYTES).expect("replay");
        assert_eq!(replay.records.len() as u64, session);
        std::hint::black_box(wal);
    });
    println!(
        "{:<50} {:>12.2} ms ({session} records)",
        "framed/wal-replay/4MiB",
        ns / 1e6
    );
    let _ = std::fs::remove_dir_all(&dir);
}
