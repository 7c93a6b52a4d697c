//! The service: listener, connection threads, worker pool, dynamic batcher.
//!
//! Threading model (pure `std::thread` / `std::net`):
//!
//! * one **listener** loop accepting connections (non-blocking + poll, so
//!   it notices the shutdown flag);
//! * one **connection thread** per client, which parses frames, answers
//!   metadata requests inline, serves cache hits directly, and admits
//!   cache misses to the worker queue with a non-blocking `try_push` —
//!   a full queue is answered with a typed `Overloaded` frame
//!   immediately (load shedding, never a silent drop);
//! * a fixed **worker pool** draining the queue. Each worker takes one
//!   job, then greedily drains up to `batch_max − 1` more, groups them
//!   by `(container, fidelity)`, and decodes each group's coefficient
//!   tensors **concatenated along dim 0 in one `Codec::decompress`
//!   pass** — bit-identical to per-chunk decodes because the inverse
//!   transform is per-sample matmuls (Eq. 5/7), so batching changes the
//!   FLOP *schedule*, not the results. Decoded chunks land in the shared
//!   cache and fan out to every waiter.
//!
//! Graceful shutdown is a strict ordering: the `Shutdown` frame (or
//! [`ServerHandle::shutdown`]) sets the flag → the listener stops
//! accepting → connection threads finish their in-flight request and
//! exit at the next frame boundary → the listener joins them → the queue
//! is closed → workers drain what was admitted and exit → the listener
//! thread returns. Every admitted request is answered; nothing is
//! dropped on the floor.
//!
//! Connections are **supervised**: a peer must finish the `Hello`
//! exchange within `handshake_timeout`, deliver each started frame
//! within `frame_deadline` (the slow-loris guard — a byte per tick no
//! longer pins a thread forever), and — when `idle_timeout` is set —
//! keep the connection non-idle between frames. Each limit closes the
//! connection with a typed error and a dedicated counter in the stats
//! frame, and `max_conns` bounds the thread count with a typed
//! `Overloaded` rejection at accept time.
//!
//! Admission is **multi-tenant**: each connection's `Hello` names a
//! tenant and weight class, fetches land in that tenant's lane of a
//! weighted-fair [`Wfq`] drained by deficit-round-robin (so one
//! aggressive tenant fills *its* lane, not the shared pipe), and
//! per-tenant in-flight/byte quotas shed the offender with a typed
//! `Overloaded` while everyone else keeps flowing. Under sustained
//! pressure the [`Brownout`] governor steps served fidelity down —
//! coarse chop factors are cheap ring-*prefix* reads (paper §3.2) — and
//! replies carry their `served_cf` so degradation is explicit, never
//! silent. Shedding is the last resort, not the first.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use aicomp_core::Codec;
use aicomp_store::{SharedReader, StoreError};
use aicomp_tensor::Tensor;

use crate::cache::ChunkCache;
use crate::chaos::{FaultyStream, Wire, WireFaultPlan};
use crate::proto::{Action, CloseReason, DeadlineKind, ResponseSlab, ServerConn};
use crate::protocol::{self, ContainerInfo, ErrorCode, Request, Response};
use crate::queue::{PushError, TenantQuota, Wfq};
use crate::shard::{MapInstall, ShardMap, ShardMember};
use crate::stats::{Endpoint, ServeStats};

/// Tunables for [`Server::bind`]. `Default` is sized for tests and small
/// deployments; the `dcz serve` CLI exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decompression worker threads.
    pub workers: usize,
    /// Admission queue bound — beyond this, fetches are shed.
    pub queue_depth: usize,
    /// Most chunks one worker coalesces into a single decompress pass.
    pub batch_max: usize,
    /// Decoded-chunk cache capacity, in chunks (0 disables caching).
    pub cache_entries: usize,
    /// Lock shards the cache is spread over.
    pub cache_shards: usize,
    /// Test/bench knob: sleep this long at the start of every worker
    /// pass, so saturation (and thus shedding) is reproducible.
    pub worker_delay: Option<Duration>,
    /// A fresh connection must complete `Hello` within this.
    pub handshake_timeout: Duration,
    /// Close connections that idle this long between frames (`None`
    /// keeps them open indefinitely, the pre-v2 behavior).
    pub idle_timeout: Option<Duration>,
    /// A started frame must arrive in full within this (slow-loris guard).
    pub frame_deadline: Duration,
    /// Most concurrently-open connections; excess accepts are answered
    /// with a typed `Overloaded` and closed.
    pub max_conns: usize,
    /// Test/CI knob: wrap every accepted connection in a [`FaultyStream`]
    /// seeded per connection (`plan.derive(i)`) — server-side wire chaos.
    pub chaos: Option<WireFaultPlan>,
    /// Deficit-round-robin quantum: pops a weight-1 tenant may take per
    /// scheduling round (a weight-`w` tenant gets `w × quantum`).
    pub quantum: u64,
    /// Per-tenant cap on requests in flight (queued + decoding but not
    /// yet answered); `0` is unlimited. Excess is shed with a typed
    /// `Overloaded` naming the tenant — the offender pays, not the pool.
    pub tenant_inflight: usize,
    /// Per-tenant cap on estimated in-flight reply bytes; `0` is
    /// unlimited.
    pub tenant_bytes: u64,
    /// Brownout governor: degrade served fidelity under pressure instead
    /// of shedding. `None` (the default) disables it — fetches are served
    /// at exactly the fidelity they asked for.
    pub brownout: Option<BrownoutConfig>,
    /// This server's place in a cluster: the shared [`ShardMap`] plus
    /// which member it is. `None` (the default) runs solo — the server
    /// serves every key under the implicit epoch-0 map and never
    /// redirects.
    pub shard: Option<ShardRole>,
    /// Stable member identity for a server started *outside* any map
    /// (`shard: None`) that expects to be adopted by a later `MapPush` —
    /// the join flow: the newcomer boots solo under this name, and the
    /// first pushed map naming it makes it a serving member. Ignored when
    /// `shard` is set (the role's member name wins); `None` boots as the
    /// anonymous `"solo"`.
    pub shard_name: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            batch_max: 16,
            cache_entries: 256,
            cache_shards: 8,
            worker_delay: None,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: None,
            frame_deadline: Duration::from_secs(30),
            max_conns: 256,
            chaos: None,
            quantum: 4,
            tenant_inflight: 0,
            tenant_bytes: 0,
            brownout: None,
            shard: None,
            shard_name: None,
        }
    }
}

/// One cluster member's identity: the map every member shares plus this
/// server's index into it. Fetches for keys outside `map.replicas(..)`
/// of `index` are answered with a typed `WrongShard` redirect *before*
/// any container lookup or read — a shard touches only the chunk ranges
/// it owns, so its cache and batcher concentrate on ~1/N of the keyspace
/// (the Eq. 5/7 batch-amortization argument, DESIGN.md §8.3).
#[derive(Debug, Clone)]
pub struct ShardRole {
    /// The cluster-wide map (identical on every member).
    pub map: ShardMap,
    /// This server's shard index into `map.members`.
    pub index: usize,
}

/// Hysteresis controller for fidelity brownout. Each *step* lowers the
/// served chop factor by one — a cheaper ring-prefix read (§3.2) — so
/// under overload the server trades resolution for throughput before it
/// trades availability. Watermarks are queue-fill fractions; the gap
/// between them (plus `dwell`) is the hysteresis that prevents level
/// flapping at the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Step fidelity *down* when the queue fill fraction reaches this.
    pub high_watermark: f64,
    /// Step fidelity back *up* when the fill fraction drops to this.
    pub low_watermark: f64,
    /// A worker pass slower than this also counts as pressure (queue
    /// depth alone misses a slow disk or huge batches).
    pub slow_batch: Duration,
    /// Minimum time between level changes in either direction.
    pub dwell: Duration,
    /// Most fidelity steps the governor may take (served cf never drops
    /// below 1 regardless).
    pub max_steps: u8,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            slow_batch: Duration::from_millis(200),
            dwell: Duration::from_millis(250),
            max_steps: 2,
        }
    }
}

/// Runtime state of the brownout governor: the current level (fidelity
/// steps currently shaved off every fetch) plus the dwell clock. Inert
/// when the config is `None` — `level()` is pinned at 0 and observations
/// are no-ops, so brownout-off servers behave exactly as before.
struct Brownout {
    config: Option<BrownoutConfig>,
    level: AtomicU32,
    last_change: Mutex<Instant>,
}

impl Brownout {
    fn new(config: Option<BrownoutConfig>) -> Brownout {
        Brownout { config, level: AtomicU32::new(0), last_change: Mutex::new(Instant::now()) }
    }

    /// Fidelity steps currently applied to every admitted fetch.
    fn level(&self) -> u8 {
        if self.config.is_none() {
            return 0;
        }
        self.level.load(Ordering::Relaxed).min(u32::from(u8::MAX)) as u8
    }

    /// Feed one observation (queue depth at admission, or a finished
    /// worker pass with its wall time) and maybe step the level. Steps
    /// serialize on the dwell clock's mutex so concurrent observations
    /// can't double-step.
    fn observe(&self, depth: usize, capacity: usize, batch: Option<Duration>, stats: &ServeStats) {
        let Some(cfg) = &self.config else { return };
        let fill = depth as f64 / capacity.max(1) as f64;
        let slow = batch.is_some_and(|d| d >= cfg.slow_batch);
        let pressure = slow || fill >= cfg.high_watermark;
        let relieved = !slow && fill <= cfg.low_watermark;
        let mut last = self.last_change.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if now.duration_since(*last) < cfg.dwell {
            return;
        }
        let lvl = self.level.load(Ordering::Relaxed);
        if pressure && lvl < u32::from(cfg.max_steps) {
            self.level.store(lvl + 1, Ordering::Relaxed);
            *last = now;
            stats.brownout_steps_down.fetch_add(1, Ordering::Relaxed);
        } else if relieved && lvl > 0 {
            self.level.store(lvl - 1, Ordering::Relaxed);
            *last = now;
            stats.brownout_steps_up.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What a worker sends back for one admitted fetch: the encoded,
/// shareable reply slab, or a typed error.
type JobResult = std::result::Result<Arc<ResponseSlab>, (ErrorCode, String)>;

/// One request waiting on a chunk: its reply slot plus the tenant
/// accounting needed to release the quota the moment it is answered.
struct Waiter {
    reply: mpsc::SyncSender<JobResult>,
    tenant: u32,
    cost: u64,
}

impl Waiter {
    /// Deliver the result and release this request's slice of its
    /// tenant's in-flight quota — the single place both happen, so the
    /// conservation invariant (answered exactly once, released exactly
    /// once) holds on every exit path out of the batcher.
    ///
    /// The quota is released *before* the reply leaves: the instant a
    /// client holds the answer, the in-flight accounting has already let
    /// go, so a quiesced observer (a stats poll, a map push counting its
    /// drains) can never see a request that was in fact answered. Sent
    /// first, the reply could reach the connection thread, its client and
    /// that observer before this worker thread gets back to the
    /// accounting, and an answered request would still count as in
    /// flight.
    fn finish(&self, shared: &Shared, result: JobResult) {
        shared.queue.complete(self.tenant, self.cost);
        // A dropped receiver means the connection died while waiting;
        // its request needs no answer.
        let _ = self.reply.send(result);
    }
}

/// Reply slots of every request waiting on one chunk.
type Waiters = Vec<Waiter>;

/// One admitted cache miss: decode `chunk` of `container` at `read_cf`
/// (already resolved — never 0) and send the result to `reply`. A job
/// that sits in the queue past `expires` is shed with
/// `DeadlineExceeded` instead of decoded — by then the client has (or
/// should have) moved on, so decoding would burn a worker pass on an
/// answer nobody reads.
struct Job {
    container: u32,
    chunk: u32,
    read_cf: u8,
    expires: Option<Instant>,
    reply: mpsc::SyncSender<JobResult>,
    /// Admitting tenant — `Wfq::complete` releases its quota when the
    /// reply is sent.
    tenant: u32,
    /// Estimated reply bytes charged against the tenant's byte quota.
    cost: u64,
}

/// One served container: the shared reader plus its per-fidelity codecs
/// (built lazily through the registry, shared by all workers).
struct Container {
    reader: SharedReader,
    codecs: Mutex<HashMap<u8, Arc<dyn Codec>>>,
}

impl Container {
    fn codec(&self, cf: u8) -> std::result::Result<Arc<dyn Codec>, StoreError> {
        let mut map = self.codecs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = map.get(&cf) {
            return Ok(Arc::clone(c));
        }
        let built = self.reader.header().codec.with_chop_factor(cf as usize).build()?;
        let arc: Arc<dyn Codec> = Arc::from(built);
        map.insert(cf, Arc::clone(&arc));
        Ok(arc)
    }
}

/// The server's *live* cluster identity: the map it routes by right now
/// plus where it sits in that map. Unlike the boot-time [`ShardRole`],
/// the slot is mutable — a `MapPush` swaps the map (and possibly the
/// index) on a running server under the `Shared::shard` write lock.
struct ShardSlot {
    /// Stable member name — survives every push; the index is re-derived
    /// from it against each installed map (`usize::MAX` when the new map
    /// no longer names this server: it then serves nothing and answers
    /// every fetch with `WrongShard`, the post-handoff state of a member
    /// that left).
    name: String,
    /// The map this server currently routes by.
    map: ShardMap,
    /// This server's index into `map.members` (out of range = not a
    /// member).
    index: usize,
    /// `(container, chunk)` keys served under `map` (0 at epoch 0) —
    /// the stats figure, recomputed at every install.
    owned: u64,
}

/// State shared by the listener, connection threads, and workers. The
/// cache stores *encoded* reply slabs, so a hit skips both the decode
/// and the re-encode, and fan-out is an `Arc` bump.
struct Shared {
    containers: Vec<Container>,
    queue: Wfq<Job>,
    cache: ChunkCache<Arc<ResponseSlab>>,
    stats: ServeStats,
    shutdown: AtomicBool,
    config: ServeConfig,
    brownout: Brownout,
    /// This server's live cluster identity. A read lock guards every
    /// admission-path ownership check; the write lock is taken only by
    /// the (rare) `MapPush` install, so steady-state contention is nil.
    shard: RwLock<ShardSlot>,
    /// Chunk count per served container, frozen at bind — the key-space
    /// geometry the owned/handoff figures are computed over.
    chunk_counts: Vec<u32>,
}

/// A bound (but not yet accepting) server. [`Server::run`] blocks the
/// calling thread; [`Server::spawn`] runs it on a background thread and
/// returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Control handle for a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<()>,
}

impl Server {
    /// Open every container in `stores`, bind `addr`, and start the
    /// worker pool. Accepting begins when `run`/`spawn` is called.
    pub fn bind(
        addr: impl ToSocketAddrs,
        stores: &[impl AsRef<Path>],
        config: ServeConfig,
    ) -> crate::Result<Server> {
        let mut containers = Vec::with_capacity(stores.len());
        for p in stores {
            containers.push(Container {
                reader: SharedReader::open(p)?,
                codecs: Mutex::new(HashMap::new()),
            });
        }
        let quota =
            TenantQuota { max_inflight: config.tenant_inflight, max_bytes: config.tenant_bytes };
        // Bind before building the shared state: a solo server's implicit
        // shard map names the *bound* address (port 0 resolves here).
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let chunk_counts: Vec<u32> =
            containers.iter().map(|c| c.reader.chunk_count() as u32).collect();
        let slot = match &config.shard {
            Some(role) => {
                if role.index >= role.map.len() {
                    return Err(crate::ServeError::Protocol(format!(
                        "shard index {} outside the {}-member map",
                        role.index,
                        role.map.len()
                    )));
                }
                ShardSlot {
                    name: role.map.members[role.index].name.clone(),
                    map: role.map.clone(),
                    index: role.index,
                    owned: 0,
                }
            }
            None => {
                // Boot solo under the configured member name (or the
                // anonymous "solo"): a one-member map owns every key
                // whatever the name, and a later MapPush naming this
                // server adopts it into the cluster by that name.
                let name = config.shard_name.clone().unwrap_or_else(|| "solo".into());
                let map = ShardMap::new(
                    0,
                    0,
                    1,
                    1,
                    vec![ShardMember { name: name.clone(), addr: addr.to_string() }],
                );
                ShardSlot { name, map, index: 0, owned: 0 }
            }
        };
        // Precompute the owned-key count for the stats frame. A solo map
        // owns everything trivially; report 0 there so the figure only
        // carries signal in a real cluster.
        let slot = ShardSlot {
            owned: if slot.map.epoch == 0 {
                0
            } else {
                slot.map.owned_keys(slot.index, &chunk_counts)
            },
            ..slot
        };
        let shared = Arc::new(Shared {
            containers,
            queue: Wfq::new(config.queue_depth, config.quantum, quota),
            cache: ChunkCache::new(config.cache_entries, config.cache_shards),
            stats: ServeStats::new(),
            shutdown: AtomicBool::new(false),
            brownout: Brownout::new(config.brownout),
            config: config.clone(),
            shard: RwLock::new(slot),
            chunk_counts,
        });
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            // A failed spawn is a typed bind error, not a process abort;
            // closing the queue lets any workers that did start exit.
            let handle = thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| {
                    shared.queue.close();
                    crate::ServeError::Io(e)
                })?;
            workers.push(handle);
        }
        Ok(Server { listener, addr, shared, workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept and serve until a `Shutdown` frame (or a handle) sets the
    /// flag, then tear down in order: drain connections, close the
    /// queue, join workers.
    pub fn run(self) {
        let Server { listener, shared, workers, .. } = self;
        accept_loop(&listener, &shared);
        // Every job a connection admitted has been replied to by now, so
        // closing the queue lets workers drain the (empty) backlog and exit.
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
    }

    /// Run on a background thread; the returned handle can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = thread::Builder::new()
            .name("serve-listener".into())
            .spawn(move || self.run())
            .expect("spawn listener thread");
        ServerHandle { addr, shared, thread }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Set the shutdown flag (equivalent to a `Shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Wait for the full teardown ordering to finish.
    pub fn join(self) {
        let _ = self.thread.join();
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// The accept loop: nonblocking listener polled at 5 ms, one blocking
/// thread per accepted connection driving a [`ServerConn`] machine.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Failing to unblock the listener would turn the shutdown poll into a
    // hang — refuse to serve instead of aborting the process.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("serve: cannot set listener non-blocking, refusing to serve: {e}");
        return;
    }
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut conn_index: u64 = 0;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|h| !h.is_finished());
                if conns.len() >= shared.config.max_conns.max(1) {
                    reject_at_accept(shared, stream);
                    continue;
                }
                shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                shared.stats.conns_active.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let index = conn_index;
                conn_index += 1;
                conns.push(thread::spawn(move || {
                    match shared.config.chaos {
                        Some(plan) if plan.is_active() => {
                            handle_conn(&shared, FaultyStream::new(stream, plan.derive(index)))
                        }
                        _ => handle_conn(&shared, stream),
                    }
                    shared.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    // Connections answer their in-flight request, then exit at the
    // next frame boundary (they poll the same flag).
    for c in conns {
        let _ = c.join();
    }
}

/// Typed, v1-framed `Overloaded` rejection any client version can parse,
/// sent without reading the Hello first.
fn reject_at_accept(shared: &Shared, stream: std::net::TcpStream) {
    shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
    let mut s = stream;
    let _ = protocol::write_response(
        &mut s,
        &err(ErrorCode::Overloaded, "connection limit reached"),
        false,
    );
}

fn classify(e: &StoreError) -> ErrorCode {
    match e {
        StoreError::InvalidArg(_) | StoreError::Unsupported(_) => ErrorCode::BadRequest,
        StoreError::Format(_) | StoreError::Core(_) | StoreError::Codec(_) => ErrorCode::Corrupt,
        StoreError::Io(_) | StoreError::Panic(_) => ErrorCode::Internal,
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

// ---------------------------------------------------------------- workers

fn worker_loop(shared: &Shared) {
    while let Some(first) = shared.queue.pop() {
        // Dynamic batching: greedily drain everything already waiting, up
        // to the pass bound — under load one pass serves many clients.
        // The weighted-fair pop order means the drain takes each tenant's
        // deficit-round-robin share, not whoever arrived first.
        let mut jobs = vec![first];
        while jobs.len() < shared.config.batch_max.max(1) {
            match shared.queue.try_pop() {
                Some(j) => jobs.push(j),
                None => break,
            }
        }
        if let Some(d) = shared.config.worker_delay {
            thread::sleep(d);
        }
        let t0 = Instant::now();
        let mut groups: HashMap<(u32, u8), Vec<Job>> = HashMap::new();
        for j in jobs {
            groups.entry((j.container, j.read_cf)).or_default().push(j);
        }
        for ((container, cf), group) in groups {
            process_group(shared, container, cf, group);
        }
        // Pass wall time feeds the brownout governor: a slow pass is
        // pressure even when the queue looks shallow.
        shared.brownout.observe(
            shared.queue.len(),
            shared.queue.capacity(),
            Some(t0.elapsed()),
            &shared.stats,
        );
    }
}

/// Decode one `(container, fidelity)` group in a single codec pass and
/// encode each decoded chunk into **one** shared [`ResponseSlab`] — the
/// only per-chunk memcpy on the reply path. Every waiter (including
/// deduped duplicates) receives an `Arc` of the same slab.
fn process_group(shared: &Shared, container: u32, cf: u8, group: Vec<Job>) {
    // Containers/chunks/fidelities were validated at admission.
    let cont = &shared.containers[container as usize];

    // Shed jobs whose deadline expired while they queued — before any
    // read or decode work, the same pre-worker edge as `Overloaded`.
    // Then coalesce duplicate chunks: every live waiter shares one decode.
    let now = Instant::now();
    let mut waiters: HashMap<u32, Waiters> = HashMap::new();
    for j in group {
        let w = Waiter { reply: j.reply, tenant: j.tenant, cost: j.cost };
        if j.expires.is_some_and(|e| e <= now) {
            shared.stats.deadline_rejected.fetch_add(1, Ordering::Relaxed);
            w.finish(
                shared,
                Err((
                    ErrorCode::DeadlineExceeded,
                    format!("chunk {}: deadline expired before decode", j.chunk),
                )),
            );
            continue;
        }
        waiters.entry(j.chunk).or_default().push(w);
    }

    // Re-check the cache under the key a sibling worker may have filled
    // between admission and now.
    let stored_cf = cont.reader.header().cf();
    let mut batch: Vec<(u32, Waiters, Tensor)> = Vec::new();
    for (chunk, senders) in waiters {
        let key = (container, chunk, cf);
        if let Some(hit) = shared.cache.get(&key) {
            for s in &senders {
                s.finish(shared, Ok(Arc::clone(&hit)));
            }
            continue;
        }
        let read = if cf as usize == stored_cf {
            cont.reader.read_chunk(chunk as usize)
        } else {
            cont.reader.read_chunk_at(chunk as usize, cf as usize)
        };
        match read {
            Ok(coeffs) => batch.push((chunk, senders, coeffs)),
            Err(e) => {
                let err = (classify(&e), format!("chunk {chunk}: {e}"));
                for s in &senders {
                    s.finish(shared, Err(err.clone()));
                }
            }
        }
    }
    if batch.is_empty() {
        return;
    }

    let fail_all = |batch: &[(u32, Waiters, Tensor)], code: ErrorCode, message: String| {
        for (_, senders, _) in batch {
            for s in senders {
                s.finish(shared, Err((code, message.clone())));
            }
        }
    };
    let codec = match cont.codec(cf) {
        Ok(c) => c,
        Err(e) => {
            fail_all(&batch, classify(&e), format!("building codec at cf {cf}: {e}"));
            return;
        }
    };

    // One pass: concat coefficient tensors along dim 0, decompress once,
    // split back. Per-sample matmuls make this bit-identical to decoding
    // each chunk alone (pinned by the root `serving` integration test).
    let parts: Vec<&Tensor> = batch.iter().map(|(_, _, t)| t).collect();
    let joined = match Tensor::concat0(&parts) {
        Ok(j) => j,
        Err(e) => {
            fail_all(&batch, ErrorCode::Internal, format!("batch concat: {e}"));
            return;
        }
    };
    let decoded = match codec.decompress(&joined) {
        Ok(d) => d,
        Err(e) => {
            fail_all(&batch, ErrorCode::Corrupt, format!("batched decompress: {e}"));
            return;
        }
    };
    shared.stats.record_batch(batch.len());

    let mut at = 0usize;
    for (chunk, senders, coeffs) in &batch {
        let n_samples = coeffs.dims()[0];
        match decoded.slice0(at, at + n_samples) {
            Ok(part) => match encode_chunk_slab(shared, cont, container, *chunk, cf, &part) {
                Ok(slab) => {
                    shared.cache.insert((container, *chunk, cf), Arc::clone(&slab));
                    for s in senders {
                        s.finish(shared, Ok(Arc::clone(&slab)));
                    }
                }
                Err(err) => {
                    for s in senders {
                        s.finish(shared, Err(err.clone()));
                    }
                }
            },
            Err(e) => {
                let err = (ErrorCode::Internal, format!("batch split: {e}"));
                for s in senders {
                    s.finish(shared, Err(err.clone()));
                }
            }
        }
        at += n_samples;
    }
}

/// Encode one decoded chunk into its shared reply slab (the single
/// encode; `slab_bytes_copied` counts it).
fn encode_chunk_slab(
    shared: &Shared,
    cont: &Container,
    container: u32,
    chunk: u32,
    cf: u8,
    part: &Tensor,
) -> std::result::Result<Arc<ResponseSlab>, (ErrorCode, String)> {
    let d = part.dims();
    if d.len() != 4 {
        return Err((
            ErrorCode::Internal,
            format!("decoded chunk {chunk} of container {container} has {} dims", d.len()),
        ));
    }
    let first_sample = cont.reader.index()[chunk as usize].first_sample;
    let slab = ResponseSlab::chunk(
        first_sample,
        [d[0] as u32, d[1] as u32, d[2] as u32, d[3] as u32],
        cf,
        part.data(),
    );
    shared.stats.slab_bytes_copied.fetch_add(slab.body().len() as u64, Ordering::Relaxed);
    Ok(Arc::new(slab))
}

// ------------------------------------------------------------ connections

/// One blocking connection thread driving a [`ServerConn`] machine:
/// 50 ms read timeouts keep the deadline clocks ticking, the machine
/// decides *what* every event means, and this loop only moves bytes and
/// time.
fn handle_conn<S: Wire>(shared: &Shared, mut stream: S) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let epoch = shared.shard.read().unwrap_or_else(|e| e.into_inner()).map.epoch;
    let mut conn = ServerConn::with_shard_epoch(epoch);
    // Handshake clock runs from accept; the idle clock restarts at each
    // completed frame; the slow-loris clock runs while a frame is
    // started but unfinished.
    let opened = Instant::now();
    let mut last_frame = opened;
    let mut partial_since: Option<Instant> = None;
    loop {
        if drain_actions(shared, &mut conn, &mut stream) {
            return;
        }
        // Shutdown is honored at frame boundaries: every parsed request
        // was answered by the drain above.
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if let Some(t0) = partial_since {
            if now.duration_since(t0) >= shared.config.frame_deadline {
                conn.expire(DeadlineKind::Frame);
                drain_actions(shared, &mut conn, &mut stream);
                return;
            }
        } else if conn.version().is_none() {
            if now.duration_since(opened) >= shared.config.handshake_timeout {
                conn.expire(DeadlineKind::Handshake);
                drain_actions(shared, &mut conn, &mut stream);
                return;
            }
        } else if let Some(idle) = shared.config.idle_timeout {
            if now.duration_since(last_frame) >= idle {
                conn.expire(DeadlineKind::Idle);
                drain_actions(shared, &mut conn, &mut stream);
                return;
            }
        }
        let mut tmp = [0u8; 64 * 1024];
        match stream.read(&mut tmp) {
            Ok(0) => {
                conn.on_eof();
                drain_actions(shared, &mut conn, &mut stream);
                return;
            }
            Ok(n) => {
                let before = conn.frames_parsed();
                conn.on_bytes(&tmp[..n]);
                if conn.frames_parsed() > before {
                    last_frame = Instant::now();
                }
                partial_since = if conn.has_partial_frame() {
                    partial_since.or_else(|| Some(Instant::now()))
                } else {
                    None
                };
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return, // I/O failure: nothing to say it to.
        }
    }
}

/// Flush every queued [`Action`] to the stream, answering delivered
/// requests inline (Fetch blocks on the worker rendezvous). Returns
/// `true` when the connection is done (a `Close` action or a write
/// failure).
fn drain_actions<S: Wire>(shared: &Shared, conn: &mut ServerConn, stream: &mut S) -> bool {
    while let Some(action) = conn.next_action() {
        match action {
            Action::Send(bytes) => {
                if stream.write_all(&bytes).and_then(|_| stream.flush()).is_err() {
                    return true;
                }
            }
            Action::SendSlab { slab, checksum } => {
                shared
                    .stats
                    .slab_bytes_shared
                    .fetch_add(slab.body().len() as u64, Ordering::Relaxed);
                let written = stream
                    .write_all(&slab.header(checksum))
                    .and_then(|_| stream.write_all(slab.body()))
                    .and_then(|_| if checksum { stream.write_all(&slab.trailer()) } else { Ok(()) })
                    .and_then(|_| stream.flush());
                if written.is_err() {
                    return true;
                }
            }
            Action::Deliver(req) => handle_request(shared, conn, req),
            Action::Close(reason) => {
                count_close(shared, reason);
                return true;
            }
        }
    }
    false
}

/// Bump the per-reason supervision counter for a typed close.
fn count_close(shared: &Shared, reason: CloseReason) {
    let counter = match reason {
        CloseReason::BadFrame => &shared.stats.bad_frames,
        CloseReason::HandshakeTimeout => &shared.stats.handshake_timeouts,
        CloseReason::Idle => &shared.stats.idle_closed,
        CloseReason::SlowFrame => &shared.stats.slow_closed,
        CloseReason::PeerClosed | CloseReason::BadHandshake | CloseReason::BadRequest => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Answer one delivered request. Fetch admits through [`admit_fetch`]
/// and parks on the worker rendezvous; replies go back into the machine
/// so framing stays in one place.
fn handle_request(shared: &Shared, conn: &mut ServerConn, req: Request) {
    if let Some(resp) = answer_inline(shared, &req) {
        conn.push_response(&resp);
        return;
    }
    let Request::Fetch { container, chunk, read_cf, deadline_ms } = req else {
        // `ServerConn` answers duplicate Hellos itself and never
        // delivers them.
        return;
    };
    let t0 = Instant::now();
    let expires = (deadline_ms > 0).then(|| t0 + Duration::from_millis(deadline_ms as u64));
    let (tenant, weight) = (conn.tenant(), conn.weight());
    let (tx, rx) = mpsc::sync_channel(1);
    match admit_fetch(shared, tenant, weight, container, chunk, read_cf, expires, tx) {
        Admission::Ready(slab) => conn.push_slab(slab),
        Admission::Rejected(resp) => conn.push_response(&resp),
        Admission::Queued => match rx.recv() {
            Ok(Ok(slab)) => conn.push_slab(slab),
            Ok(Err((code, message))) => conn.push_response(&Response::Error { code, message }),
            // A worker died mid-job; its reply sender was dropped.
            Err(_) => conn.push_response(&err(ErrorCode::Internal, "worker abandoned the request")),
        },
    }
    shared.stats.record_request(Endpoint::Fetch, t0.elapsed());
}

/// Answer the requests that never touch the worker pool, inline on the
/// connection's thread. `None` means Fetch, which [`admit_fetch`] takes.
fn answer_inline(shared: &Shared, req: &Request) -> Option<Response> {
    Some(match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            Response::ShuttingDown
        }
        Request::Info { container } => {
            let t0 = Instant::now();
            let resp = info(shared, *container);
            shared.stats.record_request(Endpoint::Info, t0.elapsed());
            resp
        }
        Request::Stats => {
            let t0 = Instant::now();
            let (shard_owned, shard_epoch) = {
                let slot = shared.shard.read().unwrap_or_else(|e| e.into_inner());
                (slot.owned, slot.map.epoch)
            };
            let resp = Response::Stats(Box::new(shared.stats.snapshot(
                shared.queue.len() as u32,
                shared.queue.capacity() as u32,
                shared.cache.snapshot(),
                shared.brownout.level(),
                &shared.queue.depths(),
                shard_owned,
                shard_epoch,
            )));
            shared.stats.record_request(Endpoint::Stats, t0.elapsed());
            resp
        }
        Request::ShardMap => {
            shared.stats.shard_map_fetches.fetch_add(1, Ordering::Relaxed);
            Response::ShardMap(shared.shard.read().unwrap_or_else(|e| e.into_inner()).map.clone())
        }
        Request::MapPush(map) => push_map(shared, map),
        Request::Hello { .. } | Request::Fetch { .. } => return None,
    })
}

/// Install a pushed [`ShardMap`] on this running server — the live-
/// reconfiguration entry point (it runs inline on the pushing
/// connection's thread, under the shard write lock).
///
/// Epoch-ordered: only a strictly higher epoch installs; a re-push of
/// the exact current map is an idempotent ack; stale and same-epoch-
/// conflicting pushes are typed `BadRequest` rejections (and counted).
///
/// Drain-and-handoff: work admitted before the install was validated
/// against the *old* map and carries its reply slot with it, so it
/// completes and is answered normally — at the old epoch — no matter
/// what the new map says (`drained` counts those jobs). Keys this server
/// serves under the old map but not the new one answer `WrongShard`
/// from the very next admission on (`handoffs` counts them). Together:
/// every admitted request is answered exactly once across the epoch
/// boundary, and no key is ever served by a map that does not own it.
fn push_map(shared: &Shared, map: &ShardMap) -> Response {
    let mut slot = shared.shard.write().unwrap_or_else(|e| e.into_inner());
    match ShardMap::plan_install(&slot.map, map) {
        MapInstall::Idempotent => Response::MapPushed { epoch: slot.map.epoch, installed: false },
        MapInstall::Stale => {
            shared.stats.map_push_rejected.fetch_add(1, Ordering::Relaxed);
            err(
                ErrorCode::BadRequest,
                format!(
                    "stale map push: epoch {} is not above current {}",
                    map.epoch, slot.map.epoch
                ),
            )
        }
        MapInstall::Conflict => {
            shared.stats.map_push_rejected.fetch_add(1, Ordering::Relaxed);
            err(
                ErrorCode::BadRequest,
                format!(
                    "conflicting map push: epoch {} already installed with different contents",
                    map.epoch
                ),
            )
        }
        MapInstall::Install => {
            // Everything admitted so far finishes at the old epoch: the
            // jobs carry their own reply slots and never re-consult the
            // map, so the install only has to *count* them.
            let draining: u64 =
                shared.queue.depths().iter().map(|&(_, _, _, inflight)| inflight as u64).sum();
            shared.stats.drained.fetch_add(draining, Ordering::Relaxed);
            let index = map.members.iter().position(|m| m.name == slot.name).unwrap_or(usize::MAX);
            let mut handoffs = 0u64;
            for (container, &n) in shared.chunk_counts.iter().enumerate() {
                for chunk in 0..n {
                    if slot.map.serves(slot.index, container as u32, chunk)
                        && !map.serves(index, container as u32, chunk)
                    {
                        handoffs += 1;
                    }
                }
            }
            shared.stats.handoffs.fetch_add(handoffs, Ordering::Relaxed);
            slot.owned =
                if index >= map.len() { 0 } else { map.owned_keys(index, &shared.chunk_counts) };
            slot.index = index;
            slot.map = map.clone();
            shared.stats.map_pushes.fetch_add(1, Ordering::Relaxed);
            Response::MapPushed { epoch: slot.map.epoch, installed: true }
        }
    }
}

/// How [`admit_fetch`] disposed of one fetch.
enum Admission {
    /// Cache hit — the shared slab, ready to send.
    Ready(Arc<ResponseSlab>),
    /// Admitted to the worker queue; the result arrives on the job's
    /// reply channel.
    Queued,
    /// Validation failure or load shed — answer with this and move on
    /// (boxed: `Response` dwarfs the other variants).
    Rejected(Box<Response>),
}

/// Validate and admit one fetch for `tenant`: resolve `read_cf = 0` to
/// the stored fidelity, apply the brownout fidelity cap, serve cache
/// hits immediately, and shed with a typed `Overloaded` only when the
/// global queue is full or the tenant is over quota. `reply` travels
/// with the job when it queues and is dropped otherwise.
///
/// Brownout applies *before* the cache lookup, so the cache key, the
/// batcher's `(container, cf)` grouping, and the reply's `served_cf`
/// all see the same effective fidelity — a degraded reply is
/// indistinguishable from an honest coarse fetch at that level, which
/// is exactly the §3.2 prefix property.
#[allow(clippy::too_many_arguments)]
fn admit_fetch(
    shared: &Shared,
    tenant: u32,
    weight: u8,
    container: u32,
    chunk: u32,
    read_cf: u8,
    expires: Option<Instant>,
    reply: mpsc::SyncSender<JobResult>,
) -> Admission {
    // Shard ownership is checked before anything else — a misdirected key
    // is rejected without touching the container, so a cluster member
    // only ever reads (and caches) the chunk ranges it serves. The solo
    // map serves every key, so standalone servers never take this branch.
    // The read lock scopes to this check: once admitted, a job never
    // re-consults the map — that is what lets a concurrent MapPush drain
    // old-epoch work instead of orphaning it.
    {
        let slot = shared.shard.read().unwrap_or_else(|e| e.into_inner());
        if !slot.map.serves(slot.index, container, chunk) {
            shared.stats.misdirected.fetch_add(1, Ordering::Relaxed);
            return match slot.map.owner(container, chunk) {
                Ok(owner) => Admission::Rejected(Box::new(Response::WrongShard {
                    epoch: slot.map.epoch,
                    owner: owner as u32,
                })),
                // An empty map has no owner to point at — unroutable,
                // but still a typed answer rather than a panic.
                Err(e) => Admission::Rejected(Box::new(err(ErrorCode::Internal, e.to_string()))),
            };
        }
    }
    let Some(cont) = shared.containers.get(container as usize) else {
        return Admission::Rejected(Box::new(err(
            ErrorCode::NotFound,
            format!("container {container} (server has {})", shared.containers.len()),
        )));
    };
    if chunk as usize >= cont.reader.chunk_count() {
        return Admission::Rejected(Box::new(err(
            ErrorCode::NotFound,
            format!("chunk {chunk} (container has {})", cont.reader.chunk_count()),
        )));
    }
    let h = cont.reader.header();
    let stored = h.cf() as u8;
    let resolved = if read_cf == 0 { stored } else { read_cf };
    if resolved > stored {
        return Admission::Rejected(Box::new(err(
            ErrorCode::BadRequest,
            format!("read chop factor {read_cf} outside 1..={stored}"),
        )));
    }
    shared.brownout.observe(shared.queue.len(), shared.queue.capacity(), None, &shared.stats);
    let cf = resolved.saturating_sub(shared.brownout.level()).max(1);
    // Counted only on accepted fetches: a degraded request that is then
    // shed produced no degraded *reply*.
    let count_degraded = || {
        if cf < resolved {
            shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant_degraded(tenant, weight);
        }
    };
    if let Some(hit) = shared.cache.get(&(container, chunk, cf)) {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shared.stats.tenant_accepted(tenant, weight);
        count_degraded();
        return Admission::Ready(hit);
    }
    // Quota charge: the decoded reply payload, estimated from container
    // geometry (an upper bound — the tail chunk may be shorter).
    let cost = (h.chunk_size as u64 * h.channels as u64 * (h.n() * h.n()) as u64) * 4;
    // Coarser-than-stored fetches are cheap ring-prefix reads — they ride
    // the priority lane so brownout relief is not stuck behind the very
    // backlog it is trying to drain.
    let priority = cf < stored;
    let job = Job { container, chunk, read_cf: cf, expires, reply, tenant, cost };
    match shared.queue.try_push(tenant, weight, cost, priority, job) {
        Ok(()) => {
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant_accepted(tenant, weight);
            count_degraded();
            Admission::Queued
        }
        Err(PushError::Full(_)) => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant_shed(tenant, weight);
            Admission::Rejected(Box::new(err(
                ErrorCode::Overloaded,
                format!("admission queue full ({})", shared.queue.capacity()),
            )))
        }
        Err(PushError::Quota(_)) => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant_shed(tenant, weight);
            Admission::Rejected(Box::new(err(
                ErrorCode::Overloaded,
                format!("tenant {tenant} over its in-flight quota"),
            )))
        }
        Err(PushError::Closed(_)) => {
            Admission::Rejected(Box::new(err(ErrorCode::ShuttingDown, "server is draining")))
        }
    }
}

fn info(shared: &Shared, container: u32) -> Response {
    let Some(cont) = shared.containers.get(container as usize) else {
        return err(
            ErrorCode::NotFound,
            format!("container {container} (server has {})", shared.containers.len()),
        );
    };
    let h = cont.reader.header();
    Response::Info(ContainerInfo {
        samples: h.sample_count,
        chunks: h.chunk_count,
        chunk_size: h.chunk_size,
        channels: h.channels,
        n: h.n() as u32,
        cf: h.cf() as u8,
        codec: h.codec.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use aicomp_store::writer::pack_file;
    use aicomp_store::StoreOptions;
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn sample(i: usize, channels: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..channels * n * n).map(|k| ((k * 17 + i * 29) % 37) as f32 / 5.0 - 3.0).collect(),
            [channels, n, n],
        )
        .unwrap()
    }

    fn temp_container(tag: &str, samples: usize) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("aicomp_serve_{tag}_{}.dcz", std::process::id()));
        let opts = StoreOptions::dct(16, 4, 2, 3);
        pack_file(&path, &opts, (0..samples).map(|i| sample(i, 2, 16))).unwrap();
        path
    }

    fn start(tag: &str, config: ServeConfig) -> (PathBuf, ServerHandle) {
        let path = temp_container(tag, 10);
        let server = Server::bind("127.0.0.1:0", &[&path], config).unwrap();
        (path, server.spawn())
    }

    #[test]
    fn hello_info_ping_shutdown_lifecycle() {
        let (path, handle) = start("lifecycle", ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        c.ping().unwrap();
        let info = c.info(0).unwrap();
        assert_eq!(info.samples, 10);
        assert_eq!(info.chunks, 4);
        assert_eq!(info.chunk_size, 3);
        assert_eq!(info.channels, 2);
        assert_eq!(info.n, 16);
        assert_eq!(info.cf, 4);
        assert_eq!(info.codec, "dct2d-n16-cf4");
        assert!(matches!(
            c.info(7),
            Err(crate::ServeError::Server { code: ErrorCode::NotFound, .. })
        ));
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fetch_is_bit_identical_to_direct_reads_and_caches() {
        let (path, handle) = start("fetch", ServeConfig::default());
        let mut direct = aicomp_store::DczReader::open(&path).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for chunk in 0..direct.chunk_count() as u32 {
            for cf in [0u8, 4, 2, 1] {
                let got = c.fetch(0, chunk, cf).unwrap();
                let eff = if cf == 0 { 4 } else { cf };
                assert_eq!(got.read_cf, eff);
                let want = direct.decompress_chunk_at(chunk as usize, eff as usize).unwrap();
                assert_eq!(got.first_sample, direct.index()[chunk as usize].first_sample);
                let a: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "chunk {chunk} cf {cf}");
            }
        }
        // cf 0 and cf 4 share a cache key; repeat the sweep warm and the
        // bytes must not change.
        for chunk in 0..direct.chunk_count() as u32 {
            let cold = direct.decompress_chunk(chunk as usize).unwrap();
            let warm = c.fetch(0, chunk, 0).unwrap();
            let a: Vec<u32> = warm.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = cold.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
        let stats = c.stats().unwrap();
        assert!(stats.cache_hits > 0, "warm sweep must hit the cache: {stats:?}");
        assert_eq!(stats.shed, 0);
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_requests_get_typed_errors_not_hangs() {
        let (path, handle) = start("badreq", ServeConfig::default());
        let mut c = Client::connect(handle.addr()).unwrap();
        for (container, chunk, cf, want) in [
            (9u32, 0u32, 0u8, ErrorCode::NotFound),
            (0, 99, 0, ErrorCode::NotFound),
            (0, 0, 9, ErrorCode::BadRequest),
        ] {
            match c.fetch(container, chunk, cf) {
                Err(crate::ServeError::Server { code, .. }) => assert_eq!(code, want),
                other => panic!("expected {want}, got {other:?}"),
            }
        }
        // The connection survives typed errors.
        c.ping().unwrap();
        c.shutdown().unwrap();
        handle.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_and_missing_hello_are_rejected() {
        let (path, handle) = start("hello", ServeConfig::default());
        // Wrong version (0 and 99 are both outside the served range).
        for bad in [0u16, 99] {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            protocol::write_request(&mut s, &Request::hello(bad), 1).unwrap();
            match protocol::read_response(&mut s, false).unwrap().unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("expected error, got {other:?}"),
            }
        }
        // No hello at all.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        protocol::write_request(&mut s, &Request::Ping, 1).unwrap();
        match protocol::read_response(&mut s, false).unwrap().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error, got {other:?}"),
        }
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saturation_sheds_with_typed_overloaded() {
        // One slow worker, a queue of 1: concurrent fetches of distinct
        // chunks (no cache help) must split into served and shed — and
        // every client gets *some* typed answer.
        let config = ServeConfig {
            workers: 1,
            queue_depth: 1,
            batch_max: 1,
            cache_entries: 0,
            worker_delay: Some(Duration::from_millis(40)),
            ..ServeConfig::default()
        };
        let (path, handle) = start("overload", config);
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    match c.fetch(0, t % 4, 0) {
                        Ok(_) => "ok",
                        Err(e) if e.is_overloaded() => "shed",
                        Err(e) => panic!("expected Ok or Overloaded, got {e}"),
                    }
                })
            })
            .collect();
        let outcomes: Vec<&str> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let shed = outcomes.iter().filter(|o| **o == "shed").count();
        assert!(shed >= 1, "8 clients into a depth-1 queue must shed: {outcomes:?}");
        assert!(outcomes.len() - shed >= 1, "someone must be served: {outcomes:?}");
        let mut c = Client::connect(addr).unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats.shed, shed as u64);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn brownout_degrades_fidelity_and_flags_served_cf() {
        // Watermarks that always read as pressure and a zero dwell force
        // the governor to its max level immediately — every fetch is
        // served 2 fidelity steps down, flagged, and bit-identical to a
        // direct ring-prefix read at that level.
        let config = ServeConfig {
            brownout: Some(BrownoutConfig {
                high_watermark: 0.0,
                low_watermark: -1.0,
                slow_batch: Duration::from_secs(3600),
                dwell: Duration::ZERO,
                max_steps: 2,
            }),
            ..ServeConfig::default()
        };
        let (path, handle) = start("brownout", config);
        let mut direct = aicomp_store::DczReader::open(&path).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        // Two admissions ratchet the level 0 → 1 → 2 (one step per
        // observation); from the third fetch on the level is pinned.
        c.fetch(0, 0, 4).unwrap();
        c.fetch(0, 0, 4).unwrap();
        for chunk in 0..direct.chunk_count() as u32 {
            let got = c.fetch(0, chunk, 4).unwrap();
            assert_eq!(got.served_cf, 2, "stored cf 4 minus 2 brownout steps");
            assert_eq!(got.read_cf, 2);
            assert!(got.degraded(), "served below the requested fidelity must be flagged");
            let want = direct.decompress_chunk_at(chunk as usize, 2).unwrap();
            let a: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "degraded chunk {chunk} must bit-match a direct cf-2 read");
        }
        let stats = c.stats().unwrap();
        assert_eq!(stats.brownout_level, 2);
        assert_eq!(stats.brownout_steps_down, 2);
        assert_eq!(stats.brownout_steps_up, 0);
        assert_eq!(stats.shed, 0, "brownout degrades instead of shedding");
        assert!(stats.degraded >= direct.chunk_count() as u64);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tenant_quota_sheds_the_offender_only() {
        // A tenant may hold at most one request in flight. A slow worker
        // keeps the first fetch in flight while a second connection of
        // the *same* tenant tries to queue another distinct chunk — that
        // one sheds with a typed Overloaded; a different tenant admits
        // fine through the same (deep) global queue.
        let config = ServeConfig {
            workers: 1,
            batch_max: 1,
            cache_entries: 0,
            worker_delay: Some(Duration::from_millis(150)),
            tenant_inflight: 1,
            ..ServeConfig::default()
        };
        let (path, handle) = start("quota", config);
        let addr = handle.addr();
        let hog = std::thread::spawn(move || {
            let mut c = Client::connect_tenant(addr, 7, 1).unwrap();
            c.fetch(0, 0, 0).unwrap()
        });
        thread::sleep(Duration::from_millis(50));
        let mut same = Client::connect_tenant(addr, 7, 1).unwrap();
        match same.fetch(0, 1, 0) {
            Err(e) if e.is_overloaded() => {}
            other => panic!("expected a tenant-quota shed, got {other:?}"),
        }
        let mut other = Client::connect_tenant(addr, 8, 1).unwrap();
        other.fetch(0, 2, 0).unwrap();
        hog.join().unwrap();
        // With the hog answered its quota is released and the same
        // tenant admits again.
        same.fetch(0, 1, 0).unwrap();
        let stats = same.stats().unwrap();
        assert_eq!(stats.shed, 1);
        let t7 = stats.tenants.iter().find(|t| t.tenant == 7).unwrap();
        assert_eq!(t7.shed, 1);
        assert_eq!(t7.accepted, 2);
        let t8 = stats.tenants.iter().find(|t| t.tenant == 8).unwrap();
        assert_eq!(t8.shed, 0);
        handle.shutdown_and_join();
        std::fs::remove_file(&path).ok();
    }
}
