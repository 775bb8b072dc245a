//! Heap allocations per served invoke: the fixed per-request cost of a
//! FaaS echo call (paper §5.2, Fig 9), counted exactly instead of timed.
//!
//! A counting global allocator (this test binary only) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` process-wide and per thread.
//! An in-process durable [`Server`] with the default configuration
//! serves one [`Client`] that pipelines windows of
//! [`WINDOW`] echo invokes with 2 KiB inputs. After a warm-up long
//! enough to fill the flight recorder's ring, the server's share of a
//! measured run — process allocations minus the client thread's own —
//! is divided by the invokes served and must stay within [`BUDGET`].
//!
//! Run with `--nocapture` to see the figure:
//! `cargo test --release -p acctee-integration --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use acctee::Level;
use acctee_net::{Client, DeployHandle, InvokeSpec, Server, ServerConfig, TrustAnchor};
use acctee_wasm::encode::encode_module;
use acctee_workloads::faas_fns;

/// Server-side allocations allowed per pipelined echo invoke. The
/// served path makes 23.5 (EXPERIMENTS.md, "Allocation-lean served
/// invoke"; 77.5 before it was trimmed). The headroom is small on
/// purpose: copying each flight-recorder record again (+3), building
/// the debug line while logging is off (+5) or allocating import names
/// per instance (+6) must fail this test.
const BUDGET: f64 = 26.0;
/// Invokes pipelined per window (perfbench `billing_small`'s window).
const WINDOW: usize = 8;
/// Warm-up windows: more invokes than the flight recorder's ring holds,
/// so the measured run sees every buffer at its steady size.
const WARMUP_WINDOWS: usize = 48;
/// Measured windows.
const MEASURED_WINDOWS: usize = 64;
/// Request input size.
const INPUT_BYTES: usize = 2048;

/// Counts every allocator call, then defers to the system allocator.
struct Counting;

/// Allocator calls made by any thread.
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocator calls made by the current thread. A `const` `Cell`
    /// needs no lazy initialisation and no destructor, so touching it
    /// from inside the allocator cannot recurse into it.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread is being torn down; such
    // a late call still counts process-wide.
    let _ = THREAD.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it
// touches only an atomic and a const thread-local `Cell`, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller's obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn thread_count() -> u64 {
    THREAD.with(Cell::get)
}

/// Sends `windows` pipelined windows of echo invokes and checks every
/// response echoes its input.
fn run_windows(client: &mut Client, handle: &DeployHandle, windows: usize) {
    for w in 0..windows {
        let specs: Vec<InvokeSpec> = (0..WINDOW)
            .map(|i| InvokeSpec {
                func: "main".into(),
                args: Vec::new(),
                input: (0..INPUT_BYTES)
                    .map(|b| (b + w * WINDOW + i) as u8)
                    .collect(),
                tenant: format!("tenant-{}", w % 4),
            })
            .collect();
        let outs = client
            .invoke_pipelined(handle, &specs, 1)
            .expect("window transported");
        for (spec, out) in specs.iter().zip(outs) {
            let out = out.expect("invoke served and verified");
            assert_eq!(out.output, spec.input, "echo returns its input");
        }
    }
}

#[test]
fn served_echo_invoke_stays_within_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("acctee-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let seed = config.seed;
    let (addr, server) = Server::bind("127.0.0.1:0", config)
        .expect("bind an ephemeral loopback port")
        .spawn();
    let mut client = Client::connect(addr, TrustAnchor::new(seed), Duration::from_secs(30))
        .expect("connect and attest");
    let module = encode_module(&faas_fns::echo_module());
    let handle = client
        .deploy(&module, Level::LoopBased)
        .expect("deploy echo");
    run_windows(&mut client, &handle, WARMUP_WINDOWS);

    let process_before = PROCESS.load(Ordering::Relaxed);
    let client_before = thread_count();
    run_windows(&mut client, &handle, MEASURED_WINDOWS);
    let process = PROCESS.load(Ordering::Relaxed) - process_before;
    let client_side = thread_count() - client_before;

    client.shutdown().expect("shutdown accepted");
    drop(client);
    server.join().expect("server drains and exits");
    let _ = std::fs::remove_dir_all(&dir);

    let invokes = (MEASURED_WINDOWS * WINDOW) as f64;
    let per_invoke = (process - client_side) as f64 / invokes;
    println!(
        "alloc_budget: {per_invoke:.2} server-side allocations per invoke \
         (budget {BUDGET}; client thread {:.2} per invoke)",
        client_side as f64 / invokes
    );
    assert!(
        per_invoke <= BUDGET,
        "{per_invoke:.2} server-side allocations per invoke exceed the budget of {BUDGET}"
    );
}
