//! Real multi-threaded request serving.
//!
//! The closed-loop simulator ([`crate::sim`]) computes throughput from
//! deterministic service times; this module complements it by actually
//! serving a batch of requests on a worker-thread pool (an
//! `std::sync::mpsc` channel behind a mutex as the dispatch queue),
//! demonstrating that the platform's per-request isolation model
//! (fresh instance per request, no shared mutable state) parallelises
//! safely. Each served request opens a telemetry span and feeds the
//! `acctee_faas_request_latency_seconds` histogram, so a batch leaves
//! behind both a per-thread trace and latency percentiles.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::platform::{FaasPlatform, RequestStats};

/// Whether a request-failure message is the interpreter's wall-clock
/// deadline trap (the single source of truth for timeout
/// classification — `handle` stringifies traps on the way out).
fn is_timeout(msg: &str) -> bool {
    msg.contains(&acctee_interp::Trap::DeadlineExceeded.to_string())
}

/// Best-effort human-readable message out of a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The result of a parallel batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Wall time for the whole batch.
    pub elapsed: Duration,
    /// Per-request stats, in completion order.
    pub stats: Vec<RequestStats>,
    /// Requests that failed (trap/script error), with messages.
    pub failures: Vec<String>,
    /// How many of `failures` were wall-clock deadline timeouts (see
    /// [`crate::FaasPlatform::with_request_deadline`]).
    pub timeouts: usize,
}

impl BatchReport {
    /// Requests completed (successes plus failures).
    pub fn completed(&self) -> usize {
        self.stats.len() + self.failures.len()
    }

    /// Requests per second over the batch — every completed request,
    /// failures included (a failed request still consumed a worker).
    /// See [`BatchReport::success_throughput`] for successes only.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return 0.0;
        }
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }

    /// Successful requests per second over the batch.
    pub fn success_throughput(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return 0.0;
        }
        self.stats.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) of per-request service
    /// latency, in nanoseconds, over this batch's successful requests.
    /// Returns 0 for an empty batch. Exact (sorted-sample) rather than
    /// bucketed — the batch is already in memory.
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        if self.stats.is_empty() {
            return 0;
        }
        let mut lat: Vec<u64> = self.stats.iter().map(RequestStats::service_ns).collect();
        lat.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).max(1);
        lat[rank - 1]
    }

    /// Median service latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.latency_quantile_ns(0.50)
    }

    /// 95th-percentile service latency in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.latency_quantile_ns(0.95)
    }

    /// 99th-percentile service latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.latency_quantile_ns(0.99)
    }
}

impl FaasPlatform {
    /// Serves every payload in `payloads` once, using `workers`
    /// OS threads.
    pub fn serve_parallel(&self, payloads: &[Vec<u8>], workers: usize) -> BatchReport {
        let hub = acctee_telemetry::global();
        let latency = hub.metrics().histogram_with(
            "acctee_faas_request_latency_seconds",
            &[("function", self.kind().name())],
            1e-9,
        );
        let fail_counter = hub.metrics().counter_with(
            "acctee_faas_request_failures_total",
            &[("function", self.kind().name())],
        );
        let timeout_counter = hub.metrics().counter_with(
            "acctee_faas_request_timeouts_total",
            &[("function", self.kind().name())],
        );
        let io_in = hub.metrics().counter("acctee_faas_io_in_bytes_total");
        let io_out = hub.metrics().counter("acctee_faas_io_out_bytes_total");

        // Compile the shared artifact once, before any worker
        // spawns, so the whole pool shares one compilation instead of
        // racing to be first (OnceLock would still deduplicate, but
        // warming keeps the compile out of the first request's
        // latency).
        self.warm();

        let (tx, rx) = mpsc::channel::<&[u8]>();
        for p in payloads {
            tx.send(p).expect("queue open");
        }
        drop(tx);
        let rx = Arc::new(Mutex::new(rx));
        let batch_span = hub
            .span("faas.serve_parallel", "faas")
            .with_arg("requests", payloads.len())
            .with_arg("workers", workers.max(1));
        let start = Instant::now();
        let (stats, failures, timeouts) = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers.max(1) {
                let rx = rx.clone();
                let latency = latency.clone();
                let fail_counter = fail_counter.clone();
                let io_in = io_in.clone();
                let io_out = io_out.clone();
                let timeout_counter = timeout_counter.clone();
                handles.push(scope.spawn(move || {
                    let mut stats = Vec::new();
                    let mut failures = Vec::new();
                    let mut timeouts = 0usize;
                    loop {
                        // Hold the receiver lock only for the dequeue,
                        // not for the request. Recover a poisoned lock
                        // instead of cascading: the receiver holds no
                        // invariant a panicked holder could have
                        // broken mid-update (recv is transactional),
                        // so the queue stays servable and one
                        // panicked request cannot kill the pool.
                        let payload = match rx
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .recv()
                        {
                            Ok(p) => p,
                            Err(_) => break,
                        };
                        // A panic inside `handle` is a failed request,
                        // not a dead worker: catch it, record it, move
                        // on to the next request.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                self.handle(payload)
                            }));
                        match outcome {
                            Ok(Ok((_, s))) => {
                                latency.observe(s.service_ns());
                                io_in.add(s.io_bytes_in);
                                io_out.add(s.io_bytes_out);
                                stats.push(s);
                            }
                            Ok(Err(e)) => {
                                if is_timeout(&e) {
                                    timeouts += 1;
                                    timeout_counter.inc();
                                }
                                fail_counter.inc();
                                failures.push(e);
                            }
                            Err(panic) => {
                                fail_counter.inc();
                                failures.push(format!(
                                    "request panicked: {}",
                                    panic_message(panic.as_ref())
                                ));
                            }
                        }
                    }
                    (stats, failures, timeouts)
                }));
            }
            let mut stats = Vec::new();
            let mut failures = Vec::new();
            let mut timeouts = 0usize;
            for h in handles {
                // A worker dying outside the per-request catch (it
                // should not happen) costs its in-flight bookkeeping
                // but never the batch.
                match h.join() {
                    Ok((s, f, t)) => {
                        stats.extend(s);
                        failures.extend(f);
                        timeouts += t;
                    }
                    Err(panic) => {
                        failures.push(format!("worker died: {}", panic_message(panic.as_ref())))
                    }
                }
            }
            (stats, failures, timeouts)
        });
        drop(batch_span);
        BatchReport {
            elapsed: start.elapsed(),
            stats,
            failures,
            timeouts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::FunctionKind;
    use crate::setup::Setup;
    use acctee_interp::Engine;
    use acctee_workloads::faas_fns::test_image;

    #[test]
    fn parallel_batch_serves_everything() {
        let platform = FaasPlatform::deploy(FunctionKind::Resize, Setup::Wasm);
        let payloads: Vec<Vec<u8>> = (0..12).map(|_| test_image(32, 32)).collect();
        let report = platform.serve_parallel(&payloads, 4);
        assert_eq!(report.stats.len(), 12);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn parallel_matches_sequential_results() {
        // Determinism across threads: the resize of the same image is
        // identical whether served by 1 worker or 4.
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 64]).collect();
        let seq = platform.serve_parallel(&payloads, 1);
        let par = platform.serve_parallel(&payloads, 4);
        assert_eq!(seq.stats.len(), par.stats.len());
        assert!(seq.failures.is_empty() && par.failures.is_empty());
    }

    #[test]
    fn instrumented_platform_parallelises_too() {
        let platform = FaasPlatform::deploy(FunctionKind::Resize, Setup::WasmSgxHwInstr);
        let payloads: Vec<Vec<u8>> = (0..6).map(|_| test_image(16, 16)).collect();
        let report = platform.serve_parallel(&payloads, 3);
        assert_eq!(report.stats.len(), 6);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn latency_percentiles_are_ordered_and_cover_samples() {
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        let payloads: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 32]).collect();
        let report = platform.serve_parallel(&payloads, 2);
        let (p50, p95, p99) = (report.p50_ns(), report.p95_ns(), report.p99_ns());
        assert!(p50 > 0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        let max = report.stats.iter().map(|s| s.service_ns()).max().unwrap();
        assert_eq!(report.latency_quantile_ns(1.0), max);
    }

    #[test]
    fn empty_batch_has_zero_percentiles() {
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        let report = platform.serve_parallel(&[], 2);
        assert_eq!(report.stats.len(), 0);
        assert_eq!(report.p50_ns(), 0);
        assert_eq!(report.p99_ns(), 0);
    }

    #[test]
    fn worker_pool_survives_panicking_requests() {
        // Two poisoned payloads panic inside `handle`; before the
        // catch_unwind fix the first panic poisoned the queue mutex
        // and every remaining worker died on `.expect("queue lock")`.
        let mut platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        platform.panic_marker = Some(0xEE);
        let mut payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 16]).collect();
        payloads.push(vec![0xEE; 16]);
        payloads.push(vec![0xEE; 16]);
        let report = platform.serve_parallel(&payloads, 3);
        assert_eq!(report.stats.len(), 6, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 2);
        assert!(
            report
                .failures
                .iter()
                .all(|f| f.contains("request panicked")),
            "{:?}",
            report.failures
        );
        assert_eq!(report.completed(), 8);
    }

    #[test]
    fn throughput_counts_every_completed_request() {
        // 4 successes + 4 failures over the same wall time: batch
        // throughput must be exactly twice the success throughput —
        // the old accounting divided only successes by the elapsed
        // time and under-reported the served load.
        let mut platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        platform.panic_marker = Some(0xEE);
        let mut payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
        payloads.extend((0..4).map(|_| vec![0xEE; 16]));
        let report = platform.serve_parallel(&payloads, 2);
        assert_eq!(report.completed(), 8);
        assert_eq!(report.stats.len(), 4);
        assert!(report.throughput() > 0.0);
        let ratio = report.throughput() / report.success_throughput();
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn batch_compiles_the_bytecode_artifact_once() {
        let platform =
            FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm).with_engine(Engine::Regs);
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 32]).collect();
        let report = platform.serve_parallel(&payloads, 4);
        assert_eq!(report.stats.len(), 8);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // serve_parallel warmed the shared artifact up front, so no
        // later call (request or warm) ever compiles again.
        assert!(!platform.warm());
    }

    #[test]
    fn request_deadline_frees_workers_from_runaway_requests() {
        use acctee_wasm::builder::ModuleBuilder;
        use acctee_wasm::instr::BlockType;
        // A workload that never terminates: without the deadline this
        // batch would occupy both workers forever.
        let mut b = ModuleBuilder::new();
        let f = b.func("main", &[], &[], |f| {
            f.loop_(BlockType::Empty, |f| {
                f.br(0);
            });
        });
        b.export_func("main", f);
        let platform = FaasPlatform::deploy_module(b.build(), "main", Setup::Wasm)
            .unwrap()
            .with_request_deadline(Some(Duration::from_millis(40)));
        let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8]).collect();
        let report = platform.serve_parallel(&payloads, 2);
        assert_eq!(report.stats.len(), 0);
        assert_eq!(report.timeouts, 4, "{:?}", report.failures);
        assert_eq!(report.failures.len(), 4);
        assert!(report
            .failures
            .iter()
            .all(|f| f.contains("deadline exceeded")));
    }

    #[test]
    fn deadline_does_not_disturb_well_behaved_batches() {
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm)
            .with_request_deadline(Some(Duration::from_secs(10)));
        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 32]).collect();
        let report = platform.serve_parallel(&payloads, 3);
        assert_eq!(report.stats.len(), 6, "{:?}", report.failures);
        assert_eq!(report.timeouts, 0);
    }

    #[test]
    fn io_accounting_setup_reports_request_bytes() {
        let platform = FaasPlatform::deploy(FunctionKind::Echo, Setup::WasmSgxHwIo);
        let (_, stats) = platform.handle(&[7u8; 128]).unwrap();
        assert_eq!(stats.io_bytes_in, 128);
        assert_eq!(stats.io_bytes_out, 128);
        // Non-accounting setups keep the fields zero.
        let plain = FaasPlatform::deploy(FunctionKind::Echo, Setup::Wasm);
        let (_, stats) = plain.handle(&[7u8; 128]).unwrap();
        assert_eq!((stats.io_bytes_in, stats.io_bytes_out), (0, 0));
    }
}
