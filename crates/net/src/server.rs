//! The attested serving front end: a TCP server speaking the
//! [`crate::wire`] protocol in front of a [`Deployment`].
//!
//! One I/O path (DESIGN.md §14): a blocking acceptor plus a readiness
//! loop per worker, each built on the small epoll wrapper in
//! [`crate::poll`]. Connections are non-blocking and keep-alive; a loop
//! buffers whole batches of pipelined frames
//! ([`crate::wire::decode_request_frame`]), serves them through the
//! frame pump ([`pump_frames`]) and coalesces the responses into one
//! write. Requests run to completion on the loop thread, so a loop is
//! both the poller and the worker for its connections.
//!
//! Overload degrades into visible shed: when the number of
//! accepted-but-unadopted connections reaches `queue_depth`, the
//! acceptor answers [`Response::Busy`] and closes. Per-tenant in-flight
//! limits bound how many loops a single tenant can hold across
//! connections.
//!
//! Hot-path state is **sharded** ([`ShardMap`]): deployments, the
//! per-tenant in-flight map and the signed-log store are each split
//! across `SHARDS` mutexes keyed by `hash(key) % SHARDS`, so no lock
//! is global on the request path. Sharding only re-homes the *lookup
//! structures* — session ids still come from one server-wide monotonic
//! counter and every execution still runs through the same accounting
//! enclave, so the signed usage logs are byte-identical to the
//! unsharded server's.
//!
//! Deadlines: connections are swept on an idle clock (`io_timeout`);
//! executions run under the deployment's wall-clock budget
//! (`ServerConfig::request_deadline`), so no request can pin a loop
//! forever.
//!
//! Shutdown: a `Shutdown` request flips the flag, wakes the acceptor
//! (loopback connect) and every event loop (wake byte). In-flight
//! responses are flushed, queued-but-unadopted connections are closed.
//!
//! Observability (DESIGN.md §12): every server owns a
//! [`ServerStats`] — counters, per-stage latency histograms, per-tenant
//! metered usage and a bounded flight recorder — queryable live over
//! the same attested channel via `Stats`, `Health` and `Recent`
//! frames.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;

use acctee::enclave::LoadedWorkload;
use acctee::{Deployment, SignedLog};
use acctee_durable::{Durable, DurableOptions, FsyncPolicy, WalCommits};
use acctee_interp::Engine;
use acctee_telemetry::logging;

use crate::poll::{Epoll, Event, Interest};
use crate::stats::{BusyGuard, CacheStats, RequestOutcome, RequestRecord, ServerStats};
use crate::wire::{
    decode_request_frame, encode_response_into, write_response, Request, Response, WIRE_VERSION,
};

/// How many signed logs the server retains for `FetchLog` (FIFO,
/// split evenly across log shards).
const LOG_RETENTION: usize = 4096;

/// Log target for server-side lines.
const LOG: &str = "net.server";

/// Lock shards for deployments / in-flight counts / retained logs.
const SHARDS: usize = 8;

/// Locks a mutex, recovering the data if a previous holder panicked.
///
/// Every shared map in the server goes through this one helper: the
/// maps hold plain data (no invariants spanning multiple entries), so
/// a poisoned lock after a worker panic is safe to keep serving from —
/// losing availability to poisoning would be strictly worse.
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How connection I/O is multiplexed: epoll event loops, the one
/// path (see the module docs). It exists only because perfbench stamps
/// its name on every run, and goes, with [`ServerConfig::io_mode`], at
/// the next change to perfbench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// A readiness loop per worker over epoll.
    #[default]
    Event,
}

impl IoMode {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            IoMode::Event => "event",
        }
    }
}

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Deployment seed — the shared root of trust clients reconstruct.
    pub seed: u64,
    /// Interpreter engine for accounted executions.
    pub engine: Engine,
    /// Event loops; each runs its connections' requests to completion.
    pub workers: usize,
    /// Admission bound on accepted-but-unserved connections; beyond it
    /// the acceptor sheds with [`Response::Busy`].
    pub queue_depth: usize,
    /// Maximum concurrently executing invokes per tenant.
    pub tenant_inflight: usize,
    /// Socket read/write timeout (idle connections are closed).
    pub io_timeout: Duration,
    /// Wall-clock budget per accounted execution (`None` = unlimited).
    pub request_deadline: Option<Duration>,
    /// Bound on the instrumentation cache (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Connection I/O multiplexing mode; one value, kept only for
    /// perfbench's run stamp (see [`IoMode`]).
    pub io_mode: IoMode,
    /// Durable state directory (`None` = in-memory only). When set,
    /// signed usage logs are write-ahead logged before responses leave
    /// the server, deployments and id high-water marks are sealed, and
    /// a restart recovers all of it (DESIGN.md §15).
    pub state_dir: Option<std::path::PathBuf>,
    /// When WAL appends reach disk (only meaningful with `state_dir`).
    pub fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            seed: 0xacc7ee,
            engine: Engine::default(),
            workers: 4,
            queue_depth: 16,
            tenant_inflight: 4,
            io_timeout: Duration::from_secs(5),
            request_deadline: Some(Duration::from_secs(10)),
            cache_capacity: None,
            io_mode: IoMode::default(),
            state_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A deployed workload: the artifact an `Invoke` executes against.
/// Verified and loaded into the AE at deploy time; the compiled
/// artifact inside is shared by every invoke. Clients keep the
/// instrumented bytes + evidence from the deploy response themselves,
/// so the server only retains the loaded form.
struct Deployed {
    workload: LoadedWorkload,
}

/// A hash-sharded map: `shards` independent mutexes, each guarding a
/// plain `HashMap`, keyed by `hash(key) % shards`. Two requests touch
/// the same lock only when their keys collide into one shard, so no
/// lock on the request path is global.
pub(crate) struct ShardMap<K, V> {
    shards: Box<[Mutex<HashMap<K, V>>]>,
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    fn new(shards: usize) -> ShardMap<K, V> {
        ShardMap {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Locks the shard that owns `key` (poison-recovering). The hash
    /// of a borrowed form must equal the owned key's (`str`/`String`,
    /// `u64`/`u64` — the std `Hash` contract the lookups rely on).
    fn lock<Q: Hash + ?Sized>(&self, key: &Q) -> MutexGuard<'_, HashMap<K, V>> {
        lock_or_recover(self.shard(key))
    }

    /// Total entries across shards (locks each shard in turn).
    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_or_recover(s).len()).sum()
    }

    /// A point-in-time union of every shard (for snapshots; never on
    /// the request hot path).
    fn fold(&self) -> HashMap<K, V>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = HashMap::new();
        for shard in &self.shards {
            for (k, v) in lock_or_recover(shard).iter() {
                out.insert(k.clone(), v.clone());
            }
        }
        out
    }
}

/// Bounded FIFO store of signed logs for `FetchLog` (one per shard).
#[derive(Default)]
struct LogStore {
    by_session: HashMap<u64, SignedLog>,
    order: VecDeque<u64>,
}

impl LogStore {
    fn insert(&mut self, log: SignedLog, retention: usize) {
        while self.order.len() >= retention.max(1) {
            if let Some(old) = self.order.pop_front() {
                self.by_session.remove(&old);
            }
        }
        self.order.push_back(log.log.session_id);
        self.by_session.insert(log.log.session_id, log);
    }
}

/// State shared between the acceptor and the event loops.
struct Shared {
    dep: Deployment,
    config: ServerConfig,
    local_addr: SocketAddr,
    deployments: ShardMap<u64, Arc<Deployed>>,
    next_deploy: AtomicU64,
    /// Server-wide monotonic session counter: ids are unique across
    /// connections and never reused, so every signed log is replay-
    /// distinguishable. Deliberately *not* sharded — a fetch_add is
    /// already contention-free.
    next_session: AtomicU64,
    /// Signed-log retention, sharded by `session_id % SHARDS` with
    /// `LOG_RETENTION / SHARDS` entries each.
    logs: Box<[Mutex<LogStore>]>,
    log_retention_per_shard: usize,
    inflight: ShardMap<String, usize>,
    shutdown: AtomicBool,
    /// Accepted connections handed to a loop but not yet adopted — the
    /// admission gauge the acceptor sheds on.
    backlog: AtomicUsize,
    /// One mailbox per event loop, in loop order.
    inboxes: Box<[Inbox]>,
    /// The telemetry plane behind `Stats`/`Health`/`Recent`.
    stats: ServerStats,
    /// The durable control plane (WAL + sealed registry + billing);
    /// `None` when serving without a state directory.
    durable: Option<Durable>,
}

impl Shared {
    fn cache_stats(&self) -> CacheStats {
        let cache = self.dep.cache();
        CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            singleflight_waits: cache.singleflight_waits(),
        }
    }

    fn wal_commits(&self) -> WalCommits {
        self.durable
            .as_ref()
            .map_or_else(WalCommits::default, Durable::wal_commits)
    }

    fn log_shard(&self, session_id: u64) -> &Mutex<LogStore> {
        &self.logs[(session_id % self.logs.len() as u64) as usize]
    }

    /// Writes one wake byte to every event loop.
    fn wake_loops(&self) {
        for inbox in self.inboxes.iter() {
            inbox.wake();
        }
    }
}

/// Decrements a tenant's in-flight count on drop, so panics and early
/// returns cannot leak a slot.
struct TenantSlot<'a> {
    shared: &'a Shared,
    tenant: String,
}

impl Drop for TenantSlot<'_> {
    fn drop(&mut self) {
        let mut map = self.shared.inflight.lock(self.tenant.as_str());
        if let Some(n) = map.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                map.remove(&self.tenant);
            }
        }
    }
}

/// The serving front end. Bind, then [`Server::run`] (blocking) or
/// [`Server::spawn`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    loops: Vec<LoopIo>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// wires up the deployment behind it.
    ///
    /// # Errors
    ///
    /// Propagates socket, epoll and durable-state errors.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut dep = Deployment::new(config.seed);
        if let Some(n) = config.cache_capacity {
            dep = dep.with_cache_capacity(n);
        }
        dep.set_engine(config.engine);
        dep.set_time_budget(config.request_deadline);
        let stats = ServerStats::new(config.workers.max(1) as u32, config.queue_depth as u32);
        let deployments = ShardMap::new(SHARDS);
        let mut next_deploy = 1u64;
        let mut next_session = 1u64;
        let durable = match &config.state_dir {
            Some(dir) => {
                let opts = DurableOptions {
                    fsync: config.fsync,
                };
                let infra = dep.infrastructure();
                let (durable, recovery) =
                    Durable::open(dir, opts, infra.accounting_enclave(), infra.pricing)
                        .map_err(std::io::Error::other)?;
                // Rehydrate logged deployments: re-instrument and
                // reload each module so pre-crash deploy ids keep
                // serving invokes. Determinism makes this exact — the
                // same module and level reproduce the same workload.
                for rec in &recovery.deployments {
                    let (bytes, evidence) = dep
                        .instrument(&rec.module, rec.level)
                        .map_err(std::io::Error::other)?;
                    let workload = dep
                        .infrastructure()
                        .load(&bytes, &evidence)
                        .map_err(std::io::Error::other)?;
                    deployments
                        .lock(&rec.deploy_id)
                        .insert(rec.deploy_id, Arc::new(Deployed { workload }));
                }
                next_deploy = recovery.next_deploy;
                next_session = recovery.next_session;
                logging::info(
                    LOG,
                    "durable state recovered",
                    &[
                        ("state_dir", dir.display().to_string()),
                        ("records", recovery.records_replayed.to_string()),
                        ("duplicates", recovery.duplicates_dropped.to_string()),
                        ("torn_bytes", recovery.torn_bytes_discarded.to_string()),
                        ("deployments", recovery.deployments.len().to_string()),
                        (
                            "deploy_torn_bytes",
                            recovery.deploy_torn_bytes_discarded.to_string(),
                        ),
                        ("next_session", next_session.to_string()),
                        ("fsync", config.fsync.name()),
                    ],
                );
                Some(durable)
            }
            None => None,
        };
        let (inboxes, loops) = (0..config.workers.max(1))
            .map(|_| new_loop())
            .collect::<std::io::Result<(Vec<_>, Vec<_>)>>()?;
        Ok(Server {
            listener,
            loops,
            shared: Arc::new(Shared {
                dep,
                local_addr,
                deployments,
                next_deploy: AtomicU64::new(next_deploy),
                next_session: AtomicU64::new(next_session),
                logs: (0..SHARDS)
                    .map(|_| Mutex::new(LogStore::default()))
                    .collect(),
                log_retention_per_shard: (LOG_RETENTION / SHARDS).max(1),
                inflight: ShardMap::new(SHARDS),
                shutdown: AtomicBool::new(false),
                backlog: AtomicUsize::new(0),
                inboxes: inboxes.into(),
                stats,
                durable,
                config,
            }),
        })
    }

    /// The bound address (the ephemeral port, if `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves until a `Shutdown` request arrives, then drains and
    /// returns. Blocks the calling thread.
    pub fn run(self) {
        let hub = acctee_telemetry::global();
        let _span = hub.span("net.serve", "net");
        let Server {
            listener,
            shared,
            loops,
        } = self;
        logging::info(
            LOG,
            "serving",
            &[
                ("addr", shared.local_addr.to_string()),
                ("workers", shared.config.workers.to_string()),
                ("queue_depth", shared.config.queue_depth.to_string()),
            ],
        );
        let shared = &*shared;
        std::thread::scope(|scope| {
            for (i, (io, inbox)) in loops.into_iter().zip(shared.inboxes.iter()).enumerate() {
                std::thread::Builder::new()
                    .name(format!("acctee-net-loop-{i}"))
                    .spawn_scoped(scope, move || event_loop(shared, inbox, io))
                    .expect("spawn event loop");
            }
            accept_loop(shared, &listener);
            // The acceptor saw the shutdown flag; make sure every loop
            // leaves its poll and sees it too.
            shared.wake_loops();
        });
        // Final checkpoint on a clean drain: fsync the WAL and seal
        // the registry so the next open restores fully regardless of
        // the fsync policy in force while serving.
        if let Some(durable) = &shared.durable {
            let ae = shared.dep.infrastructure().accounting_enclave();
            if let Err(e) = durable.checkpoint(ae) {
                logging::error(LOG, "final checkpoint failed", &[("error", e.to_string())]);
            }
        }
        logging::info(LOG, "drained", &[]);
    }

    /// Runs the server on a background thread, returning the bound
    /// address and the join handle (joins once shut down).
    pub fn spawn(self) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let addr = self.local_addr();
        let handle = std::thread::Builder::new()
            .name("acctee-net-acceptor".into())
            .spawn(move || self.run())
            .expect("spawn server");
        (addr, handle)
    }
}

/// Sheds a just-accepted connection with `Busy` (admission bound hit).
fn shed_at_accept(shared: &Shared, mut stream: TcpStream) {
    shared.stats.shed_queue();
    logging::warn(
        LOG,
        "connection shed",
        &[
            ("reason", "queue".to_string()),
            ("queue_depth", shared.config.queue_depth.to_string()),
        ],
    );
    let start_ns = shared.stats.now_ns();
    shared.stats.recorder.record(RequestRecord {
        trace_id: 0,
        kind: "accept".into(),
        tenant: String::new(),
        func: String::new(),
        session_id: 0,
        outcome: RequestOutcome::Shed,
        error: "admission queue full".into(),
        start_ns,
        total_ns: 0,
        stages: Vec::new(),
    });
    let _ = write_response(&mut stream, &Response::Busy);
}

/// Accepts connections until the shutdown flag is seen. Each one
/// passes admission control: past `queue_depth` accepted-but-unadopted
/// connections it is shed with `Busy`, otherwise it enters the backlog
/// and the least-loaded event loop's inbox.
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The shutdown wake-up connection (or a late client).
            break;
        }
        shared.stats.connection_opened();
        // Bounds the blocking `Busy` write of a shed.
        let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
        if shared.backlog.load(Ordering::SeqCst) >= shared.config.queue_depth {
            // Admission control: shed with an explicit Busy so the
            // client can back off, instead of queueing unboundedly.
            shed_at_accept(shared, stream);
            continue;
        }
        shared.backlog.fetch_add(1, Ordering::SeqCst);
        shared.stats.queue_entered();
        let inbox = shared
            .inboxes
            .iter()
            .min_by_key(|i| i.load.load(Ordering::SeqCst))
            .expect("at least one loop");
        inbox.load.fetch_add(1, Ordering::SeqCst);
        lock_or_recover(&inbox.queue).push_back(stream);
        inbox.wake();
    }
}

// ------------------------------------------------------- event loops

/// Token the per-loop wake pipe is registered under.
const WAKE_TOKEN: u64 = u64::MAX;

/// Read granularity for connection sockets.
const READ_CHUNK: usize = 16 * 1024;

/// Per-round read bound per connection: level-triggered polling picks
/// the rest up next round, so one firehose peer cannot starve the
/// loop's other connections.
const MAX_ROUND_RX: usize = 256 * 1024;

/// An event loop's mailbox from the acceptor.
struct Inbox {
    queue: Mutex<VecDeque<TcpStream>>,
    /// Connections this loop owns (queued + registered); the
    /// acceptor's least-loaded dispatch key.
    load: AtomicUsize,
    wake: UnixStream,
}

impl Inbox {
    fn wake(&self) {
        // Non-blocking: if the pipe is full a wake byte is already
        // pending, which is all a wake needs.
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// An event loop's own half: its poller, with the read end of the wake
/// pair already registered under [`WAKE_TOKEN`].
struct LoopIo {
    poller: Epoll,
    wake_rx: UnixStream,
}

/// Sets up one event loop in [`Server::bind`], so a setup failure fails
/// the bind instead of leaving a loop that never drains its inbox.
fn new_loop() -> std::io::Result<(Inbox, LoopIo)> {
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let mut poller = Epoll::new()?;
    poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read)?;
    let inbox = Inbox {
        queue: Mutex::new(VecDeque::new()),
        load: AtomicUsize::new(0),
        wake: wake_tx,
    };
    Ok((inbox, LoopIo { poller, wake_rx }))
}

/// One keep-alive connection owned by an event loop.
struct Conn<'a> {
    stream: TcpStream,
    /// Unconsumed request bytes (partial frames wait here).
    rx: Vec<u8>,
    /// Unwritten response bytes (`tx_pos..` is still pending).
    tx: Vec<u8>,
    tx_pos: usize,
    last_seen: Instant,
    /// Whether the poller registration currently includes writable.
    want_write: bool,
    /// Close once `tx` is flushed (EOF, bad frame, or shutdown).
    closing: bool,
    _active: BusyGuard<'a>,
}

impl Conn<'_> {
    /// Writes as much pending tx as the socket accepts. `Ok(true)`
    /// when nothing is pending.
    fn flush_tx(&mut self) -> std::io::Result<bool> {
        while self.tx_pos < self.tx.len() {
            match self.stream.write(&self.tx[self.tx_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero));
                }
                Ok(n) => self.tx_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.tx.clear();
        self.tx_pos = 0;
        Ok(true)
    }
}

fn event_loop(shared: &Shared, inbox: &Inbox, io: LoopIo) {
    let LoopIo {
        mut poller,
        wake_rx,
    } = io;
    let mut conns: HashMap<u64, Conn<'_>> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let sweep_every = (shared.config.io_timeout / 4).max(Duration::from_millis(50));
    let mut last_sweep = Instant::now();
    loop {
        let timeout = sweep_every.min(Duration::from_millis(500));
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let batch_start = Instant::now();
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                drain_wake(&wake_rx);
                adopt_connections(shared, inbox, &mut poller, &mut conns, &mut next_token);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if step_conn(shared, conn, ev, batch_start) {
                close_conn(&mut poller, &mut conns, ev.token, inbox);
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                update_interest(&mut poller, conn, ev.token);
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if last_sweep.elapsed() >= sweep_every {
            sweep_idle(shared, &mut poller, &mut conns, inbox);
            last_sweep = Instant::now();
        }
    }
    drain_and_close_all(shared, inbox, conns);
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&*wake_rx).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

/// Pulls newly dispatched connections out of the inbox and registers
/// them with the poller.
fn adopt_connections<'a>(
    shared: &'a Shared,
    inbox: &Inbox,
    poller: &mut Epoll,
    conns: &mut HashMap<u64, Conn<'a>>,
    next_token: &mut u64,
) {
    loop {
        let stream = lock_or_recover(&inbox.queue).pop_front();
        let Some(stream) = stream else { break };
        shared.backlog.fetch_sub(1, Ordering::SeqCst);
        shared.stats.queue_left();
        if shared.shutdown.load(Ordering::SeqCst) || stream.set_nonblocking(true).is_err() {
            // Draining (queued but never served) or a dead socket.
            inbox.load.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller
            .add(stream.as_raw_fd(), token, Interest::Read)
            .is_err()
        {
            inbox.load.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        conns.insert(
            token,
            Conn {
                stream,
                rx: Vec::new(),
                tx: Vec::new(),
                tx_pos: 0,
                last_seen: Instant::now(),
                want_write: false,
                closing: false,
                _active: shared.stats.connection_active(),
            },
        );
    }
}

/// Services one readiness event: read everything available, pump the
/// decoded frames, flush responses. Returns `true` when the
/// connection should close now.
fn step_conn(shared: &Shared, conn: &mut Conn<'_>, ev: Event, batch_start: Instant) -> bool {
    conn.last_seen = batch_start;
    if ev.hangup && !ev.readable {
        return true; // errored; nothing left to deliver
    }
    if ev.readable && !conn.closing {
        let mut eof = false;
        let mut chunk = [0u8; READ_CHUNK];
        let round_limit = conn.rx.len() + MAX_ROUND_RX;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rx.extend_from_slice(&chunk[..n]);
                    if conn.rx.len() >= round_limit {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if !conn.rx.is_empty() {
            // The loop counts as an occupied worker while it pumps.
            let _busy = shared.stats.worker_busy();
            if pump_frames(shared, &mut conn.rx, &mut conn.tx, batch_start) {
                conn.closing = true;
            }
        }
        if eof {
            conn.closing = true;
        }
    }
    match conn.flush_tx() {
        Ok(flushed) => flushed && conn.closing,
        Err(_) => true,
    }
}

fn update_interest(poller: &mut Epoll, conn: &mut Conn<'_>, token: u64) {
    let want = conn.tx_pos < conn.tx.len();
    if want != conn.want_write {
        let interest = if want {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        if poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.want_write = want;
        }
    }
}

fn close_conn(poller: &mut Epoll, conns: &mut HashMap<u64, Conn<'_>>, token: u64, inbox: &Inbox) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.remove(conn.stream.as_raw_fd());
        inbox.load.fetch_sub(1, Ordering::SeqCst);
        logging::debug(LOG, "connection closed", &[]);
    }
}

fn sweep_idle(
    shared: &Shared,
    poller: &mut Epoll,
    conns: &mut HashMap<u64, Conn<'_>>,
    inbox: &Inbox,
) {
    let idle: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| c.last_seen.elapsed() >= shared.config.io_timeout)
        .map(|(t, _)| *t)
        .collect();
    for token in idle {
        logging::debug(LOG, "connection idle timeout", &[]);
        close_conn(poller, conns, token, inbox);
    }
}

/// Drain at shutdown: close never-served queued connections, flush
/// pending responses on live ones (bounded blocking writes), close.
fn drain_and_close_all(shared: &Shared, inbox: &Inbox, conns: HashMap<u64, Conn<'_>>) {
    loop {
        let stream = lock_or_recover(&inbox.queue).pop_front();
        let Some(stream) = stream else { break };
        shared.backlog.fetch_sub(1, Ordering::SeqCst);
        shared.stats.queue_left();
        inbox.load.fetch_sub(1, Ordering::SeqCst);
        drop(stream);
    }
    for (_, mut conn) in conns {
        if conn.tx_pos < conn.tx.len() {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(shared.config.io_timeout));
            let pending = conn.tx.split_off(conn.tx_pos);
            let _ = conn.stream.write_all(&pending);
        }
        inbox.load.fetch_sub(1, Ordering::SeqCst);
    }
}

// ------------------------------------------------------- frame pump

/// Decodes and serves every complete frame in `rx`, appending the
/// responses to `tx` in request order (the pipelining contract).
/// Consumed bytes are drained from `rx`; a trailing partial frame is
/// left for the next read. Returns `true` when the connection must
/// close once `tx` is flushed (bad frame, `Shutdown`, or the server
/// is draining). The served frames are one batch for
/// [`finish_batch`]: their usage records share one WAL commit. A bad
/// frame's error is answered after them.
///
/// Pure buffer-in/buffer-out so tests can drive it without sockets or
/// a poller.
fn pump_frames(shared: &Shared, rx: &mut Vec<u8>, tx: &mut Vec<u8>, batch_start: Instant) -> bool {
    let mut consumed = 0usize;
    let mut close_after = false;
    let mut batch = Vec::new();
    let mut bad_frame = None;
    loop {
        let parse_started = Instant::now();
        match decode_request_frame(&rx[consumed..]) {
            Ok(Some((req, used))) => {
                let parse_ns = parse_started.elapsed().as_nanos() as u64;
                consumed += used;
                let shutdown_after = matches!(req, Request::Shutdown);
                let mut trace = ReqTrace::new(&req, parse_ns);
                let resp = handle_request(shared, req, &mut trace);
                batch.push((trace, resp));
                if shutdown_after || shared.shutdown.load(Ordering::SeqCst) {
                    close_after = true;
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                logging::warn(LOG, "bad frame", &[("error", e.to_string())]);
                bad_frame = Some(e);
                close_after = true;
                break;
            }
        }
    }
    finish_batch(shared, batch, tx, batch_start);
    if let Some(e) = bad_frame {
        encode_response_into(
            tx,
            &Response::Error {
                message: format!("bad frame: {e}"),
            },
        );
    }
    rx.drain(..consumed);
    close_after
}

/// Finishes a batch of served requests — every frame one pump
/// decoded — before any of its responses leaves:
/// one WAL commit covers every usage record the batch staged (its
/// `InvokeOk`s, when the server is durable) and is charged to each of
/// them, since each waited for it; then [`deliver`] settles the
/// responses against it. `started` is when the read that completed
/// the batch returned.
fn finish_batch(
    shared: &Shared,
    mut batch: Vec<(ReqTrace, Response)>,
    tx: &mut Vec<u8>,
    started: Instant,
) {
    let staged = |resp: &Response| matches!(resp, Response::InvokeOk { .. });
    let mut commit = Ok(());
    if let Some(durable) = &shared.durable {
        if batch.iter().any(|(_, resp)| staged(resp)) {
            let commit_started = Instant::now();
            commit = durable.commit().map_err(|e| {
                logging::error(LOG, "usage not persisted", &[("error", e.to_string())]);
                e.to_string()
            });
            let commit_ns = commit_started.elapsed().as_nanos() as u64;
            for (trace, _) in batch.iter_mut().filter(|(_, resp)| staged(resp)) {
                trace.stages.push(("commit".into(), commit_ns));
            }
        }
    }
    deliver(shared, batch, &commit, tx, started);
}

/// Settles each response of a batch against its commit
/// ([`fail_closed`]), publishes the `InvokeOk`s that survive to the
/// log ring and the tenant's served totals — so nothing is served from
/// memory before it is durable — then encodes them into `tx` in
/// request order and counts them.
fn deliver(
    shared: &Shared,
    batch: Vec<(ReqTrace, Response)>,
    commit: &Result<(), String>,
    tx: &mut Vec<u8>,
    started: Instant,
) {
    for (mut trace, resp) in batch {
        let resp = fail_closed(resp, commit);
        if let Response::InvokeOk {
            log, invoice_total, ..
        } = &resp
        {
            shared.stats.tenant_served(
                &trace.tenant,
                log.log.weighted_instructions,
                *invoice_total,
            );
            lock_or_recover(shared.log_shard(log.log.session_id))
                .insert(log.clone(), shared.log_retention_per_shard);
        }
        let respond_started = Instant::now();
        encode_response_into(tx, &resp);
        // "respond" is the encode; one socket write carries the whole
        // batch.
        trace.stages.push((
            "respond".into(),
            respond_started.elapsed().as_nanos() as u64,
        ));
        finish_request(shared, trace, &resp, started);
    }
}

/// A response as its batch's WAL commit leaves it: when the commit
/// failed, an `InvokeOk` becomes the error it would have been without
/// group commit — billing for usage the log may forget is what the
/// durable plane exists to prevent. Every other response stands.
fn fail_closed(resp: Response, commit: &Result<(), String>) -> Response {
    match (resp, commit) {
        (Response::InvokeOk { .. }, Err(e)) => Response::Error {
            message: format!("usage record not persisted: {e}"),
        },
        (resp, _) => resp,
    }
}

// ------------------------------------------------------- request path

/// Per-request context the handlers fill in for the stats plane: the
/// trace id, the stage timings, and how the request ended.
struct ReqTrace {
    trace_id: u64,
    kind: &'static str,
    tenant: String,
    func: String,
    session_id: u64,
    outcome: RequestOutcome,
    error: String,
    stages: Vec<(String, u64)>,
}

impl ReqTrace {
    fn new(req: &Request, parse_ns: u64) -> ReqTrace {
        let (tenant, func, trace_id) = match req {
            Request::Invoke {
                tenant,
                func,
                trace_id,
                ..
            } => (tenant.clone(), func.clone(), *trace_id),
            Request::Deploy { trace_id, .. } => (String::new(), String::new(), *trace_id),
            _ => (String::new(), String::new(), 0),
        };
        ReqTrace {
            trace_id,
            kind: kind_of(req),
            tenant,
            func,
            session_id: 0,
            outcome: RequestOutcome::Ok,
            error: String::new(),
            stages: vec![("parse".into(), parse_ns)],
        }
    }
}

/// Folds a finished request into counters, histograms and the flight
/// recorder. `started` is when its batch's bytes were read.
fn finish_request(shared: &Shared, mut trace: ReqTrace, resp: &Response, started: Instant) {
    // Handlers set Shed/Timeout themselves; any other error response
    // classifies here so attest/deploy/fetch_log failures count too.
    match resp {
        Response::Busy => trace.outcome = RequestOutcome::Shed,
        Response::Error { message } if trace.outcome == RequestOutcome::Ok => {
            trace.outcome = RequestOutcome::Error;
            trace.error = message.clone();
        }
        _ => {}
    }
    match trace.outcome {
        RequestOutcome::Error | RequestOutcome::Timeout => shared.stats.error_response(),
        _ => {}
    }
    let total_ns = started.elapsed().as_nanos() as u64;
    shared.stats.request(trace.kind);
    shared.stats.observe_request(trace.kind, total_ns);
    for (stage, ns) in &trace.stages {
        shared.stats.observe_stage(stage, *ns);
    }
    logging::debug(
        LOG,
        "request served",
        &[
            ("kind", trace.kind.to_string()),
            ("trace_id", format!("{:#018x}", trace.trace_id)),
            ("outcome", trace.outcome.name().to_string()),
            ("total_us", (total_ns / 1_000).to_string()),
        ],
    );
    shared.stats.recorder.record(RequestRecord {
        trace_id: trace.trace_id,
        kind: trace.kind.into(),
        tenant: trace.tenant,
        func: trace.func,
        session_id: trace.session_id,
        outcome: trace.outcome,
        error: trace.error,
        start_ns: shared.stats.now_ns().saturating_sub(total_ns),
        total_ns,
        stages: trace.stages,
    });
}

fn kind_of(req: &Request) -> &'static str {
    match req {
        Request::Attest { .. } => "attest",
        Request::Deploy { .. } => "deploy",
        Request::Invoke { .. } => "invoke",
        Request::FetchLog { .. } => "fetch_log",
        Request::Shutdown => "shutdown",
        Request::Stats { .. } => "stats",
        Request::Health => "health",
        Request::Recent { .. } => "recent",
        Request::FleetHello { .. }
        | Request::FleetJoin { .. }
        | Request::FleetPull { .. }
        | Request::FleetSubmit { .. }
        | Request::FleetStatus => "fleet",
    }
}

/// Upper bound a `Recent` request can ask for (the recorder holds
/// fewer anyway).
const RECENT_LIMIT_CAP: u32 = 1024;

fn handle_request(shared: &Shared, req: Request, trace: &mut ReqTrace) -> Response {
    match req {
        Request::Attest { nonce } => match shared
            .dep
            .infrastructure()
            .accounting_enclave()
            .attest_channel(&nonce)
        {
            Ok(quote) => Response::AttestOk { quote },
            Err(e) => {
                logging::error(LOG, "attestation failed", &[("error", e.to_string())]);
                error_resp(e)
            }
        },
        Request::Deploy { level, module, .. } => handle_deploy(shared, level, &module, trace),
        Request::Invoke {
            deploy_id,
            func,
            args,
            input,
            tenant,
            ..
        } => handle_invoke(shared, deploy_id, &func, &args, &input, &tenant, trace),
        Request::FetchLog { session_id } => {
            let hit = lock_or_recover(shared.log_shard(session_id))
                .by_session
                .get(&session_id)
                .cloned();
            match hit {
                Some(log) => Response::LogOk { log },
                // Ring-buffer miss: fall back to the write-ahead log,
                // which retains every accounted session (including
                // pre-restart ones the in-memory ring never saw).
                None => match shared.durable.as_ref().map(|d| d.lookup(session_id)) {
                    Some(Ok(Some(log))) => Response::LogOk { log },
                    Some(Err(e)) => {
                        logging::error(LOG, "wal lookup failed", &[("error", e.to_string())]);
                        error_resp(e)
                    }
                    Some(Ok(None)) | None => Response::Error {
                        message: format!("no log retained for session {session_id}"),
                    },
                },
            }
        }
        Request::Shutdown => {
            logging::info(LOG, "shutdown requested", &[]);
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor out of its blocking accept() and every
            // event loop out of its poll.
            shared.wake_loops();
            let _ = TcpStream::connect(shared.local_addr);
            Response::ShutdownOk
        }
        Request::Stats { prometheus } => {
            let inflight = shared.inflight.fold();
            let cache = shared.cache_stats();
            let wal = shared.wal_commits();
            if prometheus {
                Response::StatsTextOk {
                    text: shared.stats.render_prometheus(&inflight, cache, wal),
                }
            } else {
                Response::StatsOk {
                    snapshot: shared.stats.snapshot(&inflight, cache, wal),
                }
            }
        }
        Request::Health => {
            let draining = shared.shutdown.load(Ordering::SeqCst);
            Response::HealthOk {
                report: crate::stats::HealthReport {
                    healthy: !draining,
                    draining,
                    uptime_ns: shared.stats.now_ns(),
                    wire_version: WIRE_VERSION,
                    workers: shared.config.workers.max(1) as u32,
                    queue_capacity: shared.config.queue_depth as u32,
                    deployments: shared.deployments.len() as u32,
                    sessions_served: shared.next_session.load(Ordering::SeqCst) - 1,
                },
            }
        }
        Request::Recent { limit } => Response::RecentOk {
            records: shared
                .stats
                .recorder
                .recent(limit.min(RECENT_LIMIT_CAP) as usize),
        },
        // Fleet coordination frames are answered by a fleet
        // coordinator (`acctee fleet coordinate`), not the serving
        // plane.
        Request::FleetHello { .. }
        | Request::FleetJoin { .. }
        | Request::FleetPull { .. }
        | Request::FleetSubmit { .. }
        | Request::FleetStatus => Response::Error {
            message: "this endpoint is a serving node, not a fleet coordinator".into(),
        },
    }
}

fn error_resp(e: impl std::fmt::Display) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

fn handle_deploy(
    shared: &Shared,
    level: acctee::Level,
    module: &[u8],
    trace: &mut ReqTrace,
) -> Response {
    // The instrumentation cache makes repeat deploys of one module
    // cheap; each deploy still gets its own id (and its own loaded
    // workload, sharing the cached instrumented bytes).
    let instrument_started = Instant::now();
    let (bytes, evidence) = match shared.dep.instrument(module, level) {
        Ok(r) => r,
        Err(e) => return error_resp(e),
    };
    let workload = match shared.dep.infrastructure().load(&bytes, &evidence) {
        Ok(w) => w,
        Err(e) => return error_resp(e),
    };
    trace.stages.push((
        "instrument".into(),
        instrument_started.elapsed().as_nanos() as u64,
    ));
    let deploy_id = shared.next_deploy.fetch_add(1, Ordering::SeqCst);
    shared
        .deployments
        .lock(&deploy_id)
        .insert(deploy_id, Arc::new(Deployed { workload }));
    // Persist before acknowledging: a deploy id the client saw must
    // survive a restart. On failure the in-memory insert is rolled
    // back so the maps never advertise an unrecoverable deployment.
    if let Some(durable) = &shared.durable {
        if let Err(e) = durable.record_deploy(
            deploy_id,
            level,
            module.to_vec(),
            shared.dep.infrastructure().accounting_enclave(),
        ) {
            shared.deployments.lock(&deploy_id).remove(&deploy_id);
            logging::error(LOG, "deploy not persisted", &[("error", e.to_string())]);
            return error_resp(format!("deployment not persisted: {e}"));
        }
    }
    Response::DeployOk {
        deploy_id,
        module: bytes,
        evidence,
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_invoke(
    shared: &Shared,
    deploy_id: u64,
    func: &str,
    args: &[acctee_interp::Value],
    input: &[u8],
    tenant: &str,
    trace: &mut ReqTrace,
) -> Response {
    // Per-tenant admission: a tenant at its in-flight limit is shed
    // with Busy before any execution state is touched. Only this
    // tenant's shard is locked.
    let admission_started = Instant::now();
    let _slot = {
        let mut map = shared.inflight.lock(tenant);
        let n = map.entry(tenant.to_string()).or_insert(0);
        if *n >= shared.config.tenant_inflight {
            drop(map);
            shared.stats.shed_tenant(tenant);
            logging::warn(
                LOG,
                "request shed",
                &[
                    ("reason", "tenant".to_string()),
                    ("tenant", tenant.to_string()),
                    ("limit", shared.config.tenant_inflight.to_string()),
                ],
            );
            return Response::Busy;
        }
        *n += 1;
        TenantSlot {
            shared,
            tenant: tenant.to_string(),
        }
    };
    trace.stages.push((
        "admission".into(),
        admission_started.elapsed().as_nanos() as u64,
    ));
    let deployed = shared.deployments.lock(&deploy_id).get(&deploy_id).cloned();
    let Some(deployed) = deployed else {
        return Response::Error {
            message: format!("unknown deploy id {deploy_id}"),
        };
    };
    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    // Cover the id with the sealed session lease *before* executing:
    // once leased, a restart can never re-issue it — even if this
    // request dies before its log is appended. Cheap in the common
    // case (one lock, no I/O until allocation nears the lease edge).
    if let Some(durable) = &shared.durable {
        if let Err(e) =
            durable.ensure_lease(session_id, shared.dep.infrastructure().accounting_enclave())
        {
            logging::error(LOG, "session lease failed", &[("error", e.to_string())]);
            return error_resp(format!("session lease not persisted: {e}"));
        }
    }
    let execute_started = Instant::now();
    let result = shared.dep.infrastructure().execute_billed(
        &deployed.workload,
        func,
        args,
        input,
        session_id,
    );
    trace.stages.push((
        "execute".into(),
        execute_started.elapsed().as_nanos() as u64,
    ));
    match result {
        Ok((outcome, invoice)) => {
            trace.session_id = session_id;
            // Durability before acknowledgment: the signed log is
            // staged on the WAL here, and the batch's one commit
            // (fsync, under `always`) runs in `finish_batch` before the
            // response leaves the server. If the record cannot be
            // persisted the invoke fails closed — billing for usage
            // the log would forget is exactly what this plane exists
            // to prevent.
            if let Some(durable) = &shared.durable {
                let append_started = Instant::now();
                let staged = durable.stage_usage(
                    tenant,
                    &outcome.log,
                    shared.dep.infrastructure().accounting_enclave(),
                );
                trace.stages.push((
                    "wal_append".into(),
                    append_started.elapsed().as_nanos() as u64,
                ));
                if let Err(e) = staged {
                    logging::error(LOG, "usage not persisted", &[("error", e.to_string())]);
                    return error_resp(format!("usage record not persisted: {e}"));
                }
            }
            Response::InvokeOk {
                session_id,
                results: outcome.results,
                output: outcome.output,
                log: outcome.log,
                invoice_total: invoice.total(),
            }
        }
        Err(e) => {
            if matches!(
                e,
                acctee::AccTeeError::Trap(acctee_interp::Trap::DeadlineExceeded)
            ) {
                shared.stats.timeout();
                trace.outcome = RequestOutcome::Timeout;
                trace.error = e.to_string();
            }
            error_resp(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_request, read_response};

    #[test]
    fn lock_or_recover_recovers_a_poisoned_shard() {
        let map = ShardMap::<String, usize>::new(4);
        // Poison the shard that owns the key by panicking while
        // holding its lock...
        std::thread::scope(|scope| {
            let map = &map;
            let _ = scope
                .spawn(move || {
                    let _guard = map.lock("tenant-a");
                    panic!("poison the shard on purpose");
                })
                .join();
        });
        assert!(map.shard("tenant-a").is_poisoned());
        // ...then prove the map still serves reads and writes.
        map.lock("tenant-a").insert("tenant-a".into(), 7);
        assert_eq!(map.lock("tenant-a").get("tenant-a"), Some(&7));
        assert_eq!(map.len(), 1);
        assert_eq!(map.fold().get("tenant-a"), Some(&7));
    }

    #[test]
    fn shard_map_routes_str_and_string_lookups_identically() {
        let map = ShardMap::<String, usize>::new(8);
        for i in 0..64 {
            let key = format!("tenant-{i}");
            map.lock(key.as_str()).insert(key.clone(), i);
        }
        assert_eq!(map.len(), 64);
        for i in 0..64 {
            let key = format!("tenant-{i}");
            assert_eq!(map.lock(key.as_str()).get(&key), Some(&i));
        }
    }

    #[test]
    fn pump_frames_answers_pipelined_requests_in_order() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let mut rx = Vec::new();
        rx.extend_from_slice(&encode_request(&Request::Health));
        rx.extend_from_slice(&encode_request(&Request::Stats { prometheus: false }));
        rx.extend_from_slice(&encode_request(&Request::Health));
        let mut tx = Vec::new();
        let close = pump_frames(shared, &mut rx, &mut tx, Instant::now());
        assert!(!close);
        assert!(rx.is_empty(), "all complete frames consumed");
        let mut cursor = std::io::Cursor::new(tx);
        assert!(matches!(
            read_response(&mut cursor).unwrap(),
            Response::HealthOk { .. }
        ));
        assert!(matches!(
            read_response(&mut cursor).unwrap(),
            Response::StatsOk { .. }
        ));
        assert!(matches!(
            read_response(&mut cursor).unwrap(),
            Response::HealthOk { .. }
        ));
        let len = cursor.get_ref().len() as u64;
        assert_eq!(cursor.position(), len, "no trailing bytes");
        let snap = shared.stats.snapshot(
            &shared.inflight.fold(),
            shared.cache_stats(),
            shared.wal_commits(),
        );
        assert_eq!(snap.requests_of("health"), 2);
        assert_eq!(snap.requests_of("stats"), 1);
    }

    #[test]
    fn pump_frames_waits_for_partial_frames() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let bytes = encode_request(&Request::Health);
        let mut rx = bytes[..5].to_vec();
        let mut tx = Vec::new();
        assert!(!pump_frames(shared, &mut rx, &mut tx, Instant::now()));
        assert!(tx.is_empty(), "no response before the frame completes");
        assert_eq!(rx.len(), 5, "partial frame retained");
        rx.extend_from_slice(&bytes[5..]);
        assert!(!pump_frames(shared, &mut rx, &mut tx, Instant::now()));
        let mut cursor = std::io::Cursor::new(tx);
        assert!(matches!(
            read_response(&mut cursor).unwrap(),
            Response::HealthOk { .. }
        ));
    }

    #[test]
    fn pump_frames_answers_garbage_with_an_error_and_closes() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let mut rx = b"NOPE definitely not a frame".to_vec();
        let mut tx = Vec::new();
        assert!(pump_frames(shared, &mut rx, &mut tx, Instant::now()));
        let mut cursor = std::io::Cursor::new(tx);
        assert!(matches!(
            read_response(&mut cursor).unwrap(),
            Response::Error { .. }
        ));
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acctee-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_server(dir: &std::path::Path) -> Server {
        let cfg = ServerConfig {
            state_dir: Some(dir.to_path_buf()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", cfg).expect("bind")
    }

    /// `run(x) = x + 1`.
    fn inc_module() -> Vec<u8> {
        use acctee_wasm::builder::ModuleBuilder;
        use acctee_wasm::types::ValType;
        let mut b = ModuleBuilder::new();
        let f = b.func("run", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.i32_const(1);
            f.i32_add();
        });
        b.export_func("run", f);
        acctee_wasm::encode::encode_module(&b.build())
    }

    fn deploy(shared: &Shared) -> u64 {
        let req = Request::Deploy {
            level: acctee::Level::FlowBased,
            module: inc_module(),
            trace_id: 0,
        };
        match handle_request(shared, req.clone(), &mut ReqTrace::new(&req, 0)) {
            Response::DeployOk { deploy_id, .. } => deploy_id,
            other => panic!("deploy failed: {other:?}"),
        }
    }

    fn invoke_req(deploy_id: u64, arg: i32) -> Request {
        Request::Invoke {
            deploy_id,
            func: "run".into(),
            args: vec![acctee_interp::Value::I32(arg)],
            input: Vec::new(),
            tenant: format!("tenant-{}", arg % 2),
            trace_id: arg as u64,
        }
    }

    /// Every response in `tx`, in order.
    fn responses(tx: Vec<u8>) -> Vec<Response> {
        let len = tx.len() as u64;
        let mut cursor = std::io::Cursor::new(tx);
        let mut out = Vec::new();
        while cursor.position() < len {
            out.push(read_response(&mut cursor).unwrap());
        }
        out
    }

    /// The session id of an `InvokeOk` returning `arg + 1`.
    fn invoked(resp: &Response, arg: i32) -> u64 {
        match resp {
            Response::InvokeOk {
                session_id,
                results,
                ..
            } => {
                assert_eq!(results, &[acctee_interp::Value::I32(arg + 1)]);
                *session_id
            }
            other => panic!("expected InvokeOk for {arg}, got {other:?}"),
        }
    }

    #[test]
    fn pump_frames_commits_a_pipelined_window_once() {
        let dir = tmpdir("window");
        let server = durable_server(&dir);
        let shared = &server.shared;
        let deploy_id = deploy(shared);
        let before = shared.wal_commits();
        let mut rx = Vec::new();
        for arg in 0..8 {
            rx.extend_from_slice(&encode_request(&invoke_req(deploy_id, arg)));
        }
        let mut tx = Vec::new();
        assert!(!pump_frames(shared, &mut rx, &mut tx, Instant::now()));
        let resps = responses(tx);
        assert_eq!(resps.len(), 8);
        let sessions: Vec<u64> = (0..8).map(|arg| invoked(&resps[arg], arg as i32)).collect();
        assert!(sessions.windows(2).all(|w| w[0] < w[1]), "{sessions:?}");
        let after = shared.wal_commits();
        assert_eq!(
            after.commits,
            before.commits + 1,
            "one fsync for the window"
        );
        assert_eq!(after.records, before.records + 8);
        let snap = shared.stats.snapshot(
            &shared.inflight.fold(),
            shared.cache_stats(),
            shared.wal_commits(),
        );
        for stage in ["wal_append", "commit"] {
            let (_, l) = snap.stages.iter().find(|(s, _)| s == stage).unwrap();
            assert_eq!(l.count, 8, "{stage}: every invoke waited for it");
        }
        drop(server);
        let reopened = durable_server(&dir);
        let durable = reopened.shared.durable.as_ref().unwrap();
        for (resp, session) in resps.iter().zip(&sessions) {
            let Response::InvokeOk { log, .. } = resp else {
                unreachable!()
            };
            assert_eq!(durable.lookup(*session).unwrap().as_ref(), Some(log));
        }
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invokes_before_a_bad_frame_are_committed_and_answered_first() {
        let dir = tmpdir("bad-tail");
        let server = durable_server(&dir);
        let shared = &server.shared;
        let deploy_id = deploy(shared);
        let before = shared.wal_commits();
        let mut rx = Vec::new();
        for arg in 0..3 {
            rx.extend_from_slice(&encode_request(&invoke_req(deploy_id, arg)));
        }
        rx.extend_from_slice(b"NOPE definitely not a frame");
        let mut tx = Vec::new();
        assert!(pump_frames(shared, &mut rx, &mut tx, Instant::now()));
        let resps = responses(tx);
        assert_eq!(resps.len(), 4);
        for (arg, resp) in resps[..3].iter().enumerate() {
            invoked(resp, arg as i32);
        }
        assert!(
            matches!(&resps[3], Response::Error { message } if message.starts_with("bad frame")),
            "{:?}",
            resps[3]
        );
        let after = shared.wal_commits();
        assert_eq!(
            (after.commits, after.records),
            (before.commits + 1, before.records + 3)
        );
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_commit_turns_only_invoke_ok_into_an_error() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let deploy_id = deploy(shared);
        let serve = |req: Request| {
            let mut trace = ReqTrace::new(&req, 0);
            let resp = handle_request(shared, req, &mut trace);
            (trace, resp)
        };
        let (trace, ok) = serve(invoke_req(deploy_id, 4));
        let session = invoked(&ok, 4);
        let failed: Result<(), String> = Err("disk full".into());
        assert_eq!(fail_closed(ok.clone(), &Ok(())), ok);
        assert_eq!(
            fail_closed(ok.clone(), &failed),
            Response::Error {
                message: "usage record not persisted: disk full".into()
            }
        );
        for other in [
            Response::Busy,
            Response::ShutdownOk,
            Response::Error {
                message: "unknown deploy id 9".into(),
            },
        ] {
            assert_eq!(fail_closed(other.clone(), &failed), other);
        }

        // Served from memory only once committed: a failed commit
        // leaves neither the log ring nor the tenant's totals holding
        // the session.
        let ring_has = |id: u64| {
            lock_or_recover(shared.log_shard(id))
                .by_session
                .contains_key(&id)
        };
        let served = |tenant: &str| {
            let snap = shared.stats.snapshot(
                &HashMap::new(),
                CacheStats::default(),
                WalCommits::default(),
            );
            snap.tenants
                .iter()
                .find(|t| t.tenant == tenant)
                .map_or(0, |t| t.requests_total)
        };
        let health = serve(Request::Health);
        let mut tx = Vec::new();
        deliver(
            shared,
            vec![(trace, ok), health],
            &failed,
            &mut tx,
            Instant::now(),
        );
        let resps = responses(tx);
        assert!(
            matches!(&resps[0], Response::Error { .. }),
            "{:?}",
            resps[0]
        );
        assert!(
            matches!(&resps[1], Response::HealthOk { .. }),
            "{:?}",
            resps[1]
        );
        assert!(!ring_has(session));
        assert_eq!(served("tenant-0"), 0);

        let (trace, ok) = serve(invoke_req(deploy_id, 6));
        let session = invoked(&ok, 6);
        deliver(
            shared,
            vec![(trace, ok)],
            &Ok(()),
            &mut Vec::new(),
            Instant::now(),
        );
        assert!(ring_has(session));
        assert_eq!(served("tenant-0"), 1);
    }

    #[test]
    fn log_store_retention_is_bounded_per_shard() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        assert_eq!(server.shared.logs.len(), SHARDS);
        assert_eq!(
            server.shared.log_retention_per_shard,
            LOG_RETENTION / SHARDS
        );
    }
}
