//! The live operational telemetry plane behind the `Stats`, `Health`
//! and `Recent` wire frames.
//!
//! Three pieces:
//!
//! * the **snapshot types** ([`StatsSnapshot`], [`HealthReport`],
//!   [`RequestRecord`]) — plain data with canonical wire encodings in
//!   [`crate::wire`], so a scrape is a point-in-time copy the client
//!   can hold, diff and render;
//! * [`ServerStats`] — the server-side aggregation: counters and
//!   latency histograms in a **per-server**
//!   [`acctee_telemetry::Registry`] (each `Server` owns its own, so
//!   concurrent servers in one process never mix series), per-tenant
//!   cumulative usage, and live gauges (worker occupancy, queue depth)
//!   on plain atomics;
//! * the [`FlightRecorder`] — a bounded ring of recent per-request
//!   records plus a separate bounded store of *notable* requests
//!   (shed, errored, timed out, or slower than a threshold), so the
//!   interesting ones survive being pushed out of the ring by bulk
//!   traffic.
//!
//! Everything here is approximate-by-design in one specific way: a
//! snapshot is assembled from independently updated atomics, so
//! cross-series sums taken mid-load may be off by the handful of
//! requests in flight at that instant. Each individual series is
//! exact.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use acctee_durable::WalCommits;
use acctee_telemetry::{Counter, Histogram, Registry};

use crate::server::lock_or_recover;

/// The request kinds the server counts, in display order. Fixed so a
/// snapshot (and the Prometheus exposition) always carries every
/// series, zero-valued or not — scrapers never see series appear.
pub const REQUEST_KINDS: [&str; 8] = [
    "attest",
    "deploy",
    "invoke",
    "fetch_log",
    "shutdown",
    "stats",
    "health",
    "recent",
];

/// The stages of the accept→respond path with per-stage latency
/// histograms. `parse` covers frame read + decode (first byte to
/// structured request), `admission` the tenant-slot acquisition,
/// `instrument` deploy-time instrumentation + load, `execute` the
/// accounted execution including log signing, `wal_append` staging the
/// usage record on the WAL, `commit` the WAL commit (fsync under
/// `--fsync always`) that the invoke's batch waited for — each invoke
/// in a batch records the batch's one commit — and `respond` the
/// response encode.
pub const STAGES: [&str; 7] = [
    "parse",
    "admission",
    "instrument",
    "execute",
    "wal_append",
    "commit",
    "respond",
];

/// How a recorded request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served successfully.
    Ok,
    /// Shed with `Busy` (queue or tenant limit); nothing executed.
    Shed,
    /// Failed with an error response.
    Error,
    /// Killed by the wall-clock deadline.
    Timeout,
}

impl RequestOutcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Error => "error",
            RequestOutcome::Timeout => "timeout",
        }
    }
}

/// One request as the flight recorder saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Client-generated trace id (0 when the client sent none).
    pub trace_id: u64,
    /// Request kind (`invoke`, `deploy`, ...).
    pub kind: String,
    /// Tenant (empty for non-invoke requests).
    pub tenant: String,
    /// Invoked function (empty for non-invoke requests).
    pub func: String,
    /// Session id of a successful invoke, 0 otherwise.
    pub session_id: u64,
    /// How it ended.
    pub outcome: RequestOutcome,
    /// Error message for failed requests (empty otherwise).
    pub error: String,
    /// Request start, nanoseconds since server start.
    pub start_ns: u64,
    /// End-to-end time, first request byte to response written.
    pub total_ns: u64,
    /// Per-stage durations in nanoseconds (see [`STAGES`]; only the
    /// stages the request actually went through appear).
    pub stages: Vec<(String, u64)>,
}

/// Count/sum/percentiles of one latency histogram, in nanoseconds.
/// Percentiles are log₂-bucket upper bounds (within 2× of exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations, ns.
    pub sum_ns: u64,
    /// Estimated 50th percentile, ns.
    pub p50_ns: u64,
    /// Estimated 90th percentile, ns.
    pub p90_ns: u64,
    /// Estimated 99th percentile, ns.
    pub p99_ns: u64,
}

impl LatencySummary {
    fn of(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            sum_ns: h.sum_raw(),
            p50_ns: h.quantile_raw(0.50),
            p90_ns: h.quantile_raw(0.90),
            p99_ns: h.quantile_raw(0.99),
        }
    }
}

/// Instrumentation-cache counters at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (each ran the instrumentation enclave).
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Threads that waited on another thread's in-flight
    /// instrumentation instead of duplicating it.
    pub singleflight_waits: u64,
}

/// Per-tenant live + cumulative numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name as sent in invoke requests.
    pub tenant: String,
    /// Invokes executing right now.
    pub inflight: u32,
    /// Invokes served (completed, any result).
    pub requests_total: u64,
    /// Invokes shed at this tenant's in-flight cap.
    pub shed_total: u64,
    /// Cumulative metered usage: weighted instructions across all
    /// signed logs.
    pub weighted_instructions_total: u64,
    /// Cumulative invoiced amount, nano-credits.
    pub invoice_nanocredits_total: u128,
}

/// A point-in-time copy of the server's operational state.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Nanoseconds since the server started.
    pub uptime_ns: u64,
    /// Worker count (event loops).
    pub workers: u32,
    /// Workers currently holding a connection.
    pub workers_busy: u32,
    /// Admission-queue capacity.
    pub queue_capacity: u32,
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: u32,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Connections currently being served.
    pub connections_active: u32,
    /// Requests served, per kind (every kind in [`REQUEST_KINDS`]).
    pub requests_by_kind: Vec<(String, u64)>,
    /// Connections shed at the admission queue.
    pub shed_queue_total: u64,
    /// Invokes shed at a tenant in-flight cap.
    pub shed_tenant_total: u64,
    /// Error responses sent.
    pub errors_total: u64,
    /// Executions killed by the wall-clock deadline.
    pub timeouts_total: u64,
    /// WAL fsyncs that made usage records durable (0 without a state
    /// directory).
    pub wal_commits_total: u64,
    /// Usage records those fsyncs covered: more than
    /// `wal_commits_total` when pipelined invokes share a commit.
    pub wal_committed_records_total: u64,
    /// Instrumentation-cache counters.
    pub instr_cache: CacheStats,
    /// Per-tenant stats, unordered.
    pub tenants: Vec<TenantStats>,
    /// Accept→respond latency of served invokes.
    pub latency: LatencySummary,
    /// Per-stage latency (every stage in [`STAGES`]).
    pub stages: Vec<(String, LatencySummary)>,
}

impl StatsSnapshot {
    /// Total requests across kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests_by_kind.iter().map(|(_, n)| n).sum()
    }

    /// Total shed (queue + tenant).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_total + self.shed_tenant_total
    }

    /// Requests of one kind.
    pub fn requests_of(&self, kind: &str) -> u64 {
        self.requests_by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, n)| *n)
    }
}

/// A cheap liveness probe (everything heavier lives in `Stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The server is accepting work (not draining).
    pub healthy: bool,
    /// A shutdown has been requested; in-flight work is completing.
    pub draining: bool,
    /// Nanoseconds since start.
    pub uptime_ns: u64,
    /// The protocol version the server speaks.
    pub wire_version: u16,
    /// Worker count (event loops).
    pub workers: u32,
    /// Admission-queue capacity.
    pub queue_capacity: u32,
    /// Modules currently deployed.
    pub deployments: u32,
    /// Sessions served since start (the monotonic session counter).
    pub sessions_served: u64,
}

// ------------------------------------------------------- flight recorder

/// Default ring capacity (recent requests kept).
pub const RECORDER_RING: usize = 256;
/// Default notable capacity (shed/errored/slow requests kept).
pub const RECORDER_NOTABLE: usize = 64;
/// Default slow threshold: requests at or above it are notable.
pub const SLOW_THRESHOLD_NS: u64 = 50_000_000;

/// Bounded in-memory store of recent request records. The ring holds
/// the last [`RECORDER_RING`] requests regardless of outcome; anything
/// shed, errored, timed out or slower than the threshold is *also*
/// kept in a separate notable ring, so a burst of fast successes
/// cannot evict the request the operator is hunting.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    ring_cap: usize,
    notable_cap: usize,
    slow_threshold_ns: u64,
}

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<RequestRecord>,
    notable: VecDeque<RequestRecord>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(RECORDER_RING, RECORDER_NOTABLE, SLOW_THRESHOLD_NS)
    }
}

impl FlightRecorder {
    /// A recorder with explicit bounds.
    pub fn new(ring_cap: usize, notable_cap: usize, slow_threshold_ns: u64) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner::default()),
            ring_cap: ring_cap.max(1),
            notable_cap: notable_cap.max(1),
            slow_threshold_ns,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether a record is kept in the notable store.
    fn is_notable(&self, rec: &RequestRecord) -> bool {
        rec.outcome != RequestOutcome::Ok || rec.total_ns >= self.slow_threshold_ns
    }

    /// Records one request.
    pub fn record(&self, rec: RequestRecord) {
        let notable = self.is_notable(&rec);
        let mut inner = self.lock();
        if inner.ring.len() == self.ring_cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(rec.clone());
        if notable {
            if inner.notable.len() == self.notable_cap {
                inner.notable.pop_front();
            }
            inner.notable.push_back(rec);
        }
    }

    /// Up to `limit` records, newest first: the recent ring, then any
    /// retained notable records that already fell out of it (dedup by
    /// identity of `(trace_id, start_ns)`).
    pub fn recent(&self, limit: usize) -> Vec<RequestRecord> {
        let inner = self.lock();
        let mut out: Vec<RequestRecord> = Vec::new();
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for rec in inner.ring.iter().rev().chain(inner.notable.iter().rev()) {
            if out.len() >= limit {
                break;
            }
            let id = (rec.trace_id, rec.start_ns);
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            out.push(rec.clone());
        }
        out
    }
}

// ------------------------------------------------------- server stats

#[derive(Debug, Default, Clone)]
struct TenantAccum {
    requests: u64,
    shed: u64,
    weighted_instructions: u64,
    invoice: u128,
}

/// Releases an occupancy gauge on drop.
pub struct BusyGuard<'a>(&'a AtomicU32);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Tenant accumulators are sharded by tenant-name hash so concurrent
/// invokes for different tenants never serialize on one map lock.
const TENANT_SHARDS: usize = 8;

/// The server-side aggregation point: every counter, gauge, histogram
/// and request record the stats plane serves. One instance per
/// [`crate::Server`].
///
/// Hot-path discipline (DESIGN.md §14): every fixed series is resolved
/// once at construction into the `*_c` / `*_hist` handle caches below,
/// so a per-request increment touches only that handle's own atomics —
/// never the registry mutex, never a label-vector allocation. The
/// registry still owns the series; the caches are just cloned
/// (Arc-backed) handles, so scrapes read exactly what the hot path
/// wrote.
pub struct ServerStats {
    start: Instant,
    registry: Registry,
    workers: u32,
    queue_capacity: u32,
    workers_busy: AtomicU32,
    queue_depth: AtomicU32,
    connections_active: AtomicU32,
    req_counters: [Counter; REQUEST_KINDS.len()],
    req_latency: [Histogram; REQUEST_KINDS.len()],
    stage_hists: [Histogram; STAGES.len()],
    shed_queue_c: Counter,
    shed_tenant_c: Counter,
    connections_c: Counter,
    errors_c: Counter,
    timeouts_c: Counter,
    tenants: Box<[Mutex<HashMap<String, TenantAccum>>]>,
    /// The bounded store behind the `Recent` frame.
    pub recorder: FlightRecorder,
}

impl ServerStats {
    /// Fresh stats for a server with `workers` workers and an
    /// admission queue of `queue_capacity`.
    pub fn new(workers: u32, queue_capacity: u32) -> ServerStats {
        let registry = Registry::new();
        // Resolving every fixed series up front does double duty: the
        // exposition is shape-stable from the first scrape, and the
        // returned handles become the hot-path cache.
        let req_counters = REQUEST_KINDS
            .map(|kind| registry.counter_with("acctee_net_requests_total", &[("kind", kind)]));
        let req_latency = REQUEST_KINDS.map(|kind| {
            registry.histogram_with(
                "acctee_net_request_latency_seconds",
                &[("kind", kind)],
                1e-9,
            )
        });
        let stage_hists = STAGES.map(|stage| {
            registry.histogram_with("acctee_net_stage_seconds", &[("stage", stage)], 1e-9)
        });
        let shed_queue_c = registry.counter_with("acctee_net_shed_total", &[("reason", "queue")]);
        let shed_tenant_c = registry.counter_with("acctee_net_shed_total", &[("reason", "tenant")]);
        let connections_c = registry.counter("acctee_net_connections_total");
        let errors_c = registry.counter("acctee_net_errors_total");
        let timeouts_c = registry.counter("acctee_net_timeouts_total");
        ServerStats {
            start: Instant::now(),
            registry,
            workers,
            queue_capacity,
            workers_busy: AtomicU32::new(0),
            queue_depth: AtomicU32::new(0),
            connections_active: AtomicU32::new(0),
            req_counters,
            req_latency,
            stage_hists,
            shed_queue_c,
            shed_tenant_c,
            connections_c,
            errors_c,
            timeouts_c,
            tenants: (0..TENANT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Position of `kind` in [`REQUEST_KINDS`] — a scan of eight
    /// static strings, far cheaper than the registry lookup it
    /// replaces.
    fn kind_index(kind: &str) -> Option<usize> {
        REQUEST_KINDS.iter().position(|k| *k == kind)
    }

    /// Nanoseconds since the server started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        self.connections_c.inc();
    }

    /// Marks a connection as actively served (until the guard drops).
    pub fn connection_active(&self) -> BusyGuard<'_> {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
        BusyGuard(&self.connections_active)
    }

    /// Marks a worker as occupied (until the guard drops).
    pub fn worker_busy(&self) -> BusyGuard<'_> {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
        BusyGuard(&self.workers_busy)
    }

    /// A connection entered the admission queue.
    pub fn queue_entered(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker dequeued a connection.
    pub fn queue_left(&self) {
        // Saturating: drain-time races must never wrap the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Counts one request of `kind`.
    pub fn request(&self, kind: &str) {
        match ServerStats::kind_index(kind) {
            Some(i) => self.req_counters[i].inc(),
            // Unknown kinds (future frames, ad-hoc records) still land
            // in the registry — slow path, but never lost.
            None => self
                .registry
                .counter_with("acctee_net_requests_total", &[("kind", kind)])
                .inc(),
        }
    }

    /// Observes the accept→respond latency of a `kind` request.
    pub fn observe_request(&self, kind: &str, ns: u64) {
        match ServerStats::kind_index(kind) {
            Some(i) => self.req_latency[i].observe(ns),
            None => self
                .registry
                .histogram_with(
                    "acctee_net_request_latency_seconds",
                    &[("kind", kind)],
                    1e-9,
                )
                .observe(ns),
        }
    }

    /// Observes one pipeline stage.
    pub fn observe_stage(&self, stage: &str, ns: u64) {
        match STAGES.iter().position(|s| *s == stage) {
            Some(i) => self.stage_hists[i].observe(ns),
            None => self
                .registry
                .histogram_with("acctee_net_stage_seconds", &[("stage", stage)], 1e-9)
                .observe(ns),
        }
    }

    /// Counts a connection shed at the admission queue.
    pub fn shed_queue(&self) {
        self.shed_queue_c.inc();
    }

    /// Counts an invoke shed at `tenant`'s in-flight cap.
    pub fn shed_tenant(&self, tenant: &str) {
        self.shed_tenant_c.inc();
        self.tenant_mut(tenant, |t| t.shed += 1);
    }

    /// Counts an error response.
    pub fn error_response(&self) {
        self.errors_c.inc();
    }

    /// Counts a deadline-killed execution.
    pub fn timeout(&self) {
        self.timeouts_c.inc();
    }

    /// Folds a served invoke into `tenant`'s cumulative usage.
    pub fn tenant_served(&self, tenant: &str, weighted_instructions: u64, invoice: u128) {
        self.tenant_mut(tenant, |t| {
            t.requests += 1;
            t.weighted_instructions += weighted_instructions;
            t.invoice += invoice;
        });
    }

    /// The shard holding `tenant`'s accumulator.
    fn tenant_shard(&self, tenant: &str) -> &Mutex<HashMap<String, TenantAccum>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tenant.hash(&mut h);
        &self.tenants[(h.finish() as usize) % self.tenants.len()]
    }

    fn tenant_mut(&self, tenant: &str, f: impl FnOnce(&mut TenantAccum)) {
        let mut map = lock_or_recover(self.tenant_shard(tenant));
        f(map.entry(tenant.to_string()).or_default());
    }

    /// Unions the tenant shards into one map (scrape path only).
    fn fold_tenants(&self) -> HashMap<String, TenantAccum> {
        let mut out = HashMap::new();
        for shard in self.tenants.iter() {
            for (name, t) in lock_or_recover(shard).iter() {
                out.insert(name.clone(), t.clone());
            }
        }
        out
    }

    /// Assembles a [`StatsSnapshot`]. `inflight` is the server's live
    /// per-tenant in-flight map; `cache` the instrumentation-cache
    /// counters; `wal` the durable plane's commit counters.
    pub fn snapshot(
        &self,
        inflight: &HashMap<String, usize>,
        cache: CacheStats,
        wal: WalCommits,
    ) -> StatsSnapshot {
        let requests_by_kind = REQUEST_KINDS
            .iter()
            .zip(&self.req_counters)
            .map(|(kind, c)| (kind.to_string(), c.get()))
            .collect();
        let stages = STAGES
            .iter()
            .zip(&self.stage_hists)
            .map(|(stage, h)| (stage.to_string(), LatencySummary::of(h)))
            .collect();
        let invoke = ServerStats::kind_index("invoke").expect("invoke is a fixed kind");
        let latency = LatencySummary::of(&self.req_latency[invoke]);
        let accum = self.fold_tenants();
        // Union of tenants with history and tenants in flight right
        // now (a tenant's first invoke is in flight before it has any
        // cumulative numbers).
        let mut tenants: Vec<TenantStats> = accum
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                inflight: inflight.get(name).copied().unwrap_or(0) as u32,
                requests_total: t.requests,
                shed_total: t.shed,
                weighted_instructions_total: t.weighted_instructions,
                invoice_nanocredits_total: t.invoice,
            })
            .collect();
        for (name, n) in inflight {
            if !accum.contains_key(name) {
                tenants.push(TenantStats {
                    tenant: name.clone(),
                    inflight: *n as u32,
                    requests_total: 0,
                    shed_total: 0,
                    weighted_instructions_total: 0,
                    invoice_nanocredits_total: 0,
                });
            }
        }
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        StatsSnapshot {
            uptime_ns: self.now_ns(),
            workers: self.workers,
            workers_busy: self.workers_busy.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            connections_total: self.connections_c.get(),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            requests_by_kind,
            shed_queue_total: self.shed_queue_c.get(),
            shed_tenant_total: self.shed_tenant_c.get(),
            errors_total: self.errors_c.get(),
            timeouts_total: self.timeouts_c.get(),
            wal_commits_total: wal.commits,
            wal_committed_records_total: wal.records,
            instr_cache: cache,
            tenants,
            latency,
            stages,
        }
    }

    /// Renders the Prometheus text exposition for this server: the
    /// registry's series plus gauges, cache and WAL commit counters and
    /// per-tenant series. Strictly parseable by
    /// [`acctee_telemetry::parse_prometheus`].
    pub fn render_prometheus(
        &self,
        inflight: &HashMap<String, usize>,
        cache: CacheStats,
        wal: WalCommits,
    ) -> String {
        use std::fmt::Write as _;
        // Live gauges are set at scrape time, then exported with
        // everything else.
        self.registry
            .gauge("acctee_net_workers")
            .set(f64::from(self.workers));
        self.registry
            .gauge("acctee_net_workers_busy")
            .set(f64::from(self.workers_busy.load(Ordering::Relaxed)));
        self.registry
            .gauge("acctee_net_queue_capacity")
            .set(f64::from(self.queue_capacity));
        self.registry
            .gauge("acctee_net_queue_depth")
            .set(f64::from(self.queue_depth.load(Ordering::Relaxed)));
        self.registry
            .gauge("acctee_net_connections_active")
            .set(f64::from(self.connections_active.load(Ordering::Relaxed)));
        self.registry
            .gauge("acctee_net_uptime_seconds")
            .set(self.start.elapsed().as_secs_f64());
        let mut out = self.registry.export_prometheus();

        for (name, value) in [
            ("acctee_cache_hits_total", cache.hits),
            ("acctee_cache_misses_total", cache.misses),
            ("acctee_cache_evictions_total", cache.evictions),
            (
                "acctee_cache_singleflight_waits_total",
                cache.singleflight_waits,
            ),
            ("acctee_wal_commits_total", wal.commits),
            ("acctee_wal_committed_records_total", wal.records),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }

        let snapshot_tenants = {
            let accum = self.fold_tenants();
            let mut names: Vec<String> = accum
                .keys()
                .chain(inflight.keys())
                .cloned()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            names.sort();
            names
                .into_iter()
                .map(|name| {
                    let t = accum.get(&name).cloned().unwrap_or_default();
                    let fl = inflight.get(&name).copied().unwrap_or(0);
                    (name, t, fl)
                })
                .collect::<Vec<_>>()
        };
        if !snapshot_tenants.is_empty() {
            let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "# TYPE acctee_net_tenant_inflight gauge");
            for (name, _, fl) in &snapshot_tenants {
                let _ = writeln!(
                    out,
                    "acctee_net_tenant_inflight{{tenant=\"{}\"}} {fl}",
                    esc(name)
                );
            }
            let _ = writeln!(out, "# TYPE acctee_net_tenant_requests_total counter");
            for (name, t, _) in &snapshot_tenants {
                let _ = writeln!(
                    out,
                    "acctee_net_tenant_requests_total{{tenant=\"{}\"}} {}",
                    esc(name),
                    t.requests
                );
            }
            let _ = writeln!(
                out,
                "# TYPE acctee_net_tenant_weighted_instructions_total counter"
            );
            for (name, t, _) in &snapshot_tenants {
                let _ = writeln!(
                    out,
                    "acctee_net_tenant_weighted_instructions_total{{tenant=\"{}\"}} {}",
                    esc(name),
                    t.weighted_instructions
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, outcome: RequestOutcome, total_ns: u64) -> RequestRecord {
        RequestRecord {
            trace_id,
            kind: "invoke".into(),
            tenant: "t".into(),
            func: "main".into(),
            session_id: trace_id,
            outcome,
            error: String::new(),
            start_ns: trace_id,
            total_ns,
            stages: vec![("execute".into(), total_ns)],
        }
    }

    #[test]
    fn ring_evicts_but_notable_records_survive() {
        let r = FlightRecorder::new(4, 4, 1_000_000);
        r.record(rec(1, RequestOutcome::Shed, 10));
        for i in 2..=10 {
            r.record(rec(i, RequestOutcome::Ok, 10));
        }
        // The shed record fell out of the 4-deep ring but is retained
        // as notable and still returned by recent().
        let recent = r.recent(16);
        assert!(recent.iter().any(|r| r.trace_id == 1));
        // Newest first: the ring's last record leads.
        assert_eq!(recent[0].trace_id, 10);
        // No duplicates even though notable overlaps the ring.
        let mut ids: Vec<u64> = recent.iter().map(|r| r.trace_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), recent.len());
    }

    #[test]
    fn slow_requests_are_notable_and_limit_is_respected() {
        let r = FlightRecorder::new(2, 2, 1_000);
        r.record(rec(1, RequestOutcome::Ok, 5_000)); // slow -> notable
        for i in 2..=5 {
            r.record(rec(i, RequestOutcome::Ok, 10));
        }
        assert!(r.recent(16).iter().any(|x| x.trace_id == 1));
        assert_eq!(r.recent(1).len(), 1);
    }

    #[test]
    fn snapshot_aggregates_counters_tenants_and_stages() {
        let s = ServerStats::new(4, 16);
        s.connection_opened();
        s.request("invoke");
        s.request("invoke");
        s.request("deploy");
        s.observe_request("invoke", 2_000_000);
        s.observe_stage("execute", 1_500_000);
        s.shed_tenant("alice");
        s.shed_queue();
        s.tenant_served("alice", 1000, 77);
        let mut inflight = HashMap::new();
        inflight.insert("bob".to_string(), 2usize);
        let wal = WalCommits {
            commits: 1,
            records: 8,
        };
        let snap = s.snapshot(&inflight, CacheStats::default(), wal);
        assert_eq!(
            (snap.wal_commits_total, snap.wal_committed_records_total),
            (1, 8)
        );
        assert_eq!(snap.requests_of("invoke"), 2);
        assert_eq!(snap.requests_of("deploy"), 1);
        assert_eq!(snap.requests_total(), 3);
        assert_eq!(snap.shed_queue_total, 1);
        assert_eq!(snap.shed_tenant_total, 1);
        assert_eq!(snap.shed_total(), 2);
        assert_eq!(snap.latency.count, 1);
        assert!(snap.latency.p50_ns >= 2_000_000);
        let exec = snap.stages.iter().find(|(n, _)| n == "execute").unwrap();
        assert_eq!(exec.1.count, 1);
        let alice = snap.tenants.iter().find(|t| t.tenant == "alice").unwrap();
        assert_eq!(alice.requests_total, 1);
        assert_eq!(alice.shed_total, 1);
        assert_eq!(alice.weighted_instructions_total, 1000);
        assert_eq!(alice.invoice_nanocredits_total, 77);
        let bob = snap.tenants.iter().find(|t| t.tenant == "bob").unwrap();
        assert_eq!(bob.inflight, 2);
        assert_eq!(bob.requests_total, 0);
    }

    #[test]
    fn tenant_shards_fold_into_one_snapshot() {
        let s = ServerStats::new(1, 1);
        // Enough tenants to land on every shard.
        for i in 0u64..32 {
            s.tenant_served(&format!("tenant-{i}"), i, u128::from(i));
        }
        let snap = s.snapshot(
            &HashMap::new(),
            CacheStats::default(),
            WalCommits::default(),
        );
        assert_eq!(snap.tenants.len(), 32);
        let t9 = snap
            .tenants
            .iter()
            .find(|t| t.tenant == "tenant-9")
            .unwrap();
        assert_eq!(t9.requests_total, 1);
        assert_eq!(t9.weighted_instructions_total, 9);
    }

    #[test]
    fn prometheus_rendering_is_strictly_parseable() {
        let s = ServerStats::new(2, 8);
        s.request("invoke");
        s.observe_request("invoke", 500_000);
        s.shed_tenant("a b\"c");
        s.tenant_served("a b\"c", 10, 1);
        let mut inflight = HashMap::new();
        inflight.insert("a b\"c".to_string(), 1usize);
        let text = s.render_prometheus(
            &inflight,
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
                singleflight_waits: 0,
            },
            WalCommits {
                commits: 2,
                records: 16,
            },
        );
        let exp =
            acctee_telemetry::parse_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n--\n{text}"));
        assert_eq!(
            exp.value("acctee_net_requests_total", &[("kind", "invoke")]),
            Some(1.0)
        );
        assert_eq!(exp.value("acctee_cache_hits_total", &[]), Some(3.0));
        assert_eq!(exp.value("acctee_wal_commits_total", &[]), Some(2.0));
        assert_eq!(
            exp.value("acctee_wal_committed_records_total", &[]),
            Some(16.0)
        );
        assert_eq!(
            exp.value("acctee_net_tenant_inflight", &[("tenant", "a b\"c")]),
            Some(1.0)
        );
        assert_eq!(exp.sum("acctee_net_shed_total"), 1.0);
    }
}
