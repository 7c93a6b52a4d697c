//! # aicomp-serve — a concurrent compression service over `.dcz` containers
//!
//! The paper's pitch (§3.1, Eq. 5/7) is that DCT+Chop is *two matmuls* —
//! cheap enough to sit on the data path between storage and consumers.
//! After the store layer (PR 1–3) every consumer of a container was still
//! a single in-process training loop; this crate is the first subsystem
//! that multiplexes **many concurrent readers over one store**: a
//! multi-threaded TCP service (pure `std::net`, matching the workspace's
//! offline dependency policy) speaking a length-prefixed binary protocol
//! ([`protocol`], documented in `PROTOCOL.md`).
//!
//! Three serving ideas from the related literature shape the internals:
//!
//! * **Per-request fidelity** — Progressive Compressed Records (Kuchnik
//!   et al., arXiv:1911.00472): one container serves every client at the
//!   fidelity it asks for. A fetch carries a chop factor; coarse requests
//!   ride the store's frequency-ring layout, so they are *prefix reads*
//!   bit-identical to a direct coarse compression.
//! * **Request batching** — the two-matmul structure means decompression
//!   throughput scales with batch size (Fig. 13). The [`server`]'s worker
//!   pool drains the admission queue greedily and coalesces same-
//!   `(container, fidelity)` requests into **one** `Codec::decompress`
//!   pass — one matmul pair serves many clients, and the per-pass batch
//!   sizes are histogrammed in the [`stats`] frame.
//! * **Stay compressed until the last moment** — EBPC (Cavigelli et al.,
//!   arXiv:1908.11645): bytes cross the disk and the queue compressed;
//!   decompression happens once per chunk and fans out through a sharded
//!   LRU [`cache`] of decoded chunks keyed `(container, chunk, fidelity)`.
//!
//! Overload is a typed answer, not a hang — and shedding is the *last*
//! resort, not the first. Admission runs through a weighted-fair
//! per-tenant [`queue`] ([`Wfq`]): each connection's `Hello` names a
//! tenant and weight class, lanes drain by deficit-round-robin, and
//! per-tenant quotas shed only the offender with a typed
//! [`ErrorCode::Overloaded`] (never a silent drop). Before shedding at
//! all, the [`server`]'s brownout governor steps served fidelity down —
//! coarse chop factors are cheap ring-prefix reads (§3.2), so the server
//! degrades resolution before availability, and every reply carries its
//! `served_cf` so degradation is explicit. Shed and brownout counts are
//! visible in the stats frame.
//!
//! Module map:
//!
//! * [`proto`] — the sans-I/O protocol core: incremental
//!   [`FrameDecoder`], per-role connection state machines
//!   ([`ServerConn`], [`ClientConn`]), and zero-copy [`ResponseSlab`]s —
//!   the *one* implementation of framing, CRC, and version negotiation,
//!   which the server's connection threads and the client both drive.
//! * [`protocol`] — wire frames, opcodes, error codes (`PROTOCOL.md`);
//!   its blocking read/write helpers are thin adapters over [`proto`].
//! * [`queue`] — admission queues: the original bounded MPMC and the
//!   weighted-fair [`Wfq`] (per-tenant lanes, deficit-round-robin drain,
//!   quotas, a priority lane for cheap ring-prefix fetches); `try_push`
//!   is the load-shedding edge, `try_pop` feeds the batcher.
//! * [`cache`] — sharded LRU over decoded chunks, hit/miss/eviction
//!   counters.
//! * [`stats`] — latency/batch histograms and the serializable
//!   [`StatsReport`].
//! * [`server`] — listener, one blocking thread per connection, worker
//!   pool, dynamic batcher, connection supervision, graceful shutdown.
//! * [`client`] — blocking client used by the `dcz` subcommands, the
//!   `loadgen` benchmark, and the tests.
//! * [`chaos`] — seeded, deterministic wire-fault injection
//!   ([`FaultyStream`]): the network analogue of the store's `FaultPlan`.
//! * [`robust`] — [`RobustClient`]: bounded retry with backoff,
//!   reconnect, per-endpoint circuit breakers, replica failover over the
//!   idempotent read path, shard-aware ring routing, and hedged reads
//!   for tail tolerance.
//! * [`shard`] — consistent-hash cluster layout: the seeded [`ShardMap`]
//!   ring (virtual nodes, ordered replica sets) every cluster member
//!   serves as a typed frame and every ring client routes by, the
//!   [`MapInstall`] epoch-ordering rule for live map pushes, and the
//!   clock-injected [`FailureDetector`] behind `dcz cluster suspect`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod proto;
pub mod protocol;
pub mod queue;
pub mod robust;
pub mod server;
pub mod shard;
pub mod stats;

pub use cache::{CacheKey, CacheSnapshot, ChunkCache};
pub use chaos::{FaultyStream, Wire, WireCounters, WireFaultPlan};
pub use client::{Client, FetchedChunk};
pub use proto::{
    Action, ClientConn, ClientEvent, CloseReason, DeadlineKind, FrameDecoder, ResponseSlab,
    ServerConn,
};
pub use protocol::{
    ContainerInfo, ErrorCode, Request, Response, MAX_FRAME, MIN_PROTO_VERSION, PROTO_VERSION,
};
pub use queue::{Mpmc, PushError, TenantQuota, Wfq};
pub use robust::{BreakerState, RobustClient, RobustConfig, RobustCounters};
pub use server::{BrownoutConfig, ServeConfig, Server, ServerHandle, ShardRole};
pub use shard::{FailureDetector, MapInstall, ShardMap, ShardMember};
pub use stats::{EndpointStats, StatsReport, TenantStats};

/// Errors from the service and its client.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or protocol-violating frame.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Container-layer failure while starting the server.
    Store(aicomp_store::StoreError),
    /// The server answered a fetch with a typed shard redirect: it does
    /// not serve that key under the map at `epoch`. Not a failure of the
    /// request — the ring-aware [`RobustClient`] consumes this
    /// internally (refresh map, re-route); it only surfaces to callers
    /// that fetched from a cluster member without ring routing.
    WrongShard {
        /// Epoch of the map the server routed by.
        epoch: u64,
        /// Shard index of the key's primary owner under that map.
        owner: u32,
    },
}

impl ServeError {
    /// True when the server shed this request under load — the one error
    /// a client is expected to retry (with backoff).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServeError::Server { code: ErrorCode::Overloaded, .. })
    }

    /// Is this failure transient for an *idempotent* request — worth a
    /// bounded, backed-off retry (possibly on a fresh connection or a
    /// different replica)? I/O and protocol failures qualify because
    /// Fetch/Info/Stats are read-only: re-asking cannot double-apply
    /// anything. Typed server errors qualify per
    /// [`ErrorCode::is_retryable`]; store errors never do.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Io(_) | ServeError::Protocol(_) => true,
            ServeError::Server { code, .. } => code.is_retryable(),
            ServeError::Store(_) => false,
            // Blind retry against the same server gets the same redirect
            // — only the routing layer (refresh + re-route) can help.
            ServeError::WrongShard { .. } => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::WrongShard { epoch, owner } => {
                write!(f, "wrong shard: key is owned by shard {owner} under map epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<aicomp_store::StoreError> for ServeError {
    fn from(e: aicomp_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
