//! Sans-I/O protocol core: bytes in, typed actions out — no sockets.
//!
//! This module is the *one* implementation of framing, CRC verification,
//! version negotiation, and connection discipline for the serve protocol.
//! It deliberately imports nothing from `std::net` or `std::io`: a
//! [`FrameDecoder`] is fed raw bytes (however the transport chopped
//! them) and yields complete frames; a [`ServerConn`] / [`ClientConn`]
//! consumes frames and emits [`Action`]s (`Send` these bytes, `Deliver`
//! this request, `Close` for this reason). The server's connection
//! threads drive [`ServerConn`] and the client's handshake drives
//! [`ClientConn`], so the socket code around them only moves bytes and
//! time (the shape IronRDP's sans-I/O session crates use).
//!
//! Clocks stay outside: the state machines never read time. The
//! connection thread owns the deadlines (checked between 50 ms read
//! timeouts) and calls [`ServerConn::expire`] when one fires; the machine
//! answers with the typed close.
//!
//! The response hot path is zero-copy: a [`ResponseSlab`] is one encoded
//! response body in an `Arc<[u8]>`, built once per decoded chunk. Every
//! connection that needs it — including deduped in-flight duplicates —
//! writes `header ++ shared body ++ trailer`, so fan-out costs refcount
//! bumps, not memcpys.

use std::sync::Arc;

use aicomp_store::crc::crc32;

use crate::protocol::{
    decode_request, encode_request, encode_response, frames_checksummed, ErrorCode, Request,
    Response, MAX_FRAME, MIN_PROTO_VERSION, PROTO_VERSION,
};
use crate::{Result, ServeError};

/// CRC-32 of a frame's `opcode ++ body` (the v2 trailing checksum).
pub fn frame_crc(op: u8, body: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(1 + body.len());
    buf.push(op);
    buf.extend_from_slice(body);
    crc32(&buf)
}

/// Encode one `(opcode, body)` frame to bytes; `checksum` appends the v2
/// trailing CRC-32 (and counts it in `len`).
pub fn encode_frame(op: u8, body: &[u8], checksum: bool) -> Result<Vec<u8>> {
    let len = 1u32 + body.len() as u32 + if checksum { 4 } else { 0 };
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(op);
    out.extend_from_slice(body);
    if checksum {
        out.extend_from_slice(&frame_crc(op, body).to_le_bytes());
    }
    Ok(out)
}

// ------------------------------------------------------------ FrameDecoder

/// Incremental frame parser: push transport bytes in (in any
/// segmentation), pop complete `(opcode, body)` frames out.
///
/// The checksum mode is a *pop-time* parameter because the v1→v2 switch
/// happens at a frame boundary mid-stream (the `Hello` exchange is always
/// v1-framed): bytes buffered across the transition parse correctly
/// because each `pop` applies the mode negotiated *by then*.
///
/// Length sanity (`len` in `min..=MAX_FRAME`) is checked as soon as the
/// 4-byte prefix is buffered, so an attacker announcing a 4 GiB frame is
/// rejected before any payload accumulates.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed transport bytes (any segmentation, including 0 bytes).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Is a frame *started* but not yet complete? (The slow-loris clock
    /// runs exactly while this is true.)
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pop one complete frame, verifying the trailing CRC-32 when
    /// `checksum`. `Ok(None)` means more bytes are needed; `Err` means
    /// the stream is desynchronized (bad length or CRC mismatch) and the
    /// connection must close.
    pub fn pop(&mut self, checksum: bool) -> Result<Option<(u8, Vec<u8>)>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        let min = if checksum { 5 } else { 1 };
        if len < min || len > MAX_FRAME {
            return Err(ServeError::Protocol(format!("bad frame length {len}")));
        }
        if self.buf.len() < 4 + len as usize {
            return Ok(None);
        }
        let mut frame: Vec<u8> = self.buf.drain(..4 + len as usize).collect();
        frame.drain(..4);
        let op = frame.remove(0);
        if checksum {
            let tail = frame.split_off(frame.len() - 4);
            let want = u32::from_le_bytes(tail.try_into().unwrap());
            let got = frame_crc(op, &frame);
            if got != want {
                return Err(ServeError::Protocol(format!(
                    "frame checksum mismatch (got {got:#010x}, want {want:#010x})"
                )));
            }
        }
        Ok(Some((op, frame)))
    }
}

// ------------------------------------------------------------ ResponseSlab

/// One encoded response body shared zero-copy across connections.
///
/// Workers build a slab once per decoded chunk (straight from the tensor
/// data — no intermediate `Vec<f32>`); each connection serving it writes
/// `header(checksum) ++ body ++ trailer(checksum)`. The body `Arc` is the
/// only large allocation and it is never copied per connection. The CRC
/// is computed once at build time, so a slab served to a v2 client costs
/// no hashing either.
#[derive(Debug)]
pub struct ResponseSlab {
    op: u8,
    body: Arc<[u8]>,
    crc: u32,
}

impl ResponseSlab {
    /// Build a slab from an already-encoded `(opcode, body)` pair.
    pub fn new(op: u8, body: Vec<u8>) -> ResponseSlab {
        let crc = frame_crc(op, &body);
        ResponseSlab { op, body: body.into(), crc }
    }

    /// Encode a `Response::Chunk` body directly from tensor data. The
    /// trailing `served_cf` always equals the decoded fidelity — a slab
    /// is cached and shared across requests, so it can only describe what
    /// it *contains*; degradation is judged against what each client
    /// *asked* for.
    pub fn chunk(first_sample: u64, dims: [u32; 4], read_cf: u8, data: &[f32]) -> ResponseSlab {
        let mut b = Vec::with_capacity(8 + 16 + 1 + data.len() * 4 + 1);
        b.extend_from_slice(&first_sample.to_le_bytes());
        for d in dims {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b.push(read_cf);
        for v in data {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.push(read_cf); // served_cf (see `Response::Chunk`)
        ResponseSlab::new(crate::protocol::OP_R_CHUNK, b)
    }

    /// Encode any [`Response`] into a slab (used for non-chunk replies
    /// that still flow through the shared write path).
    pub fn from_response(resp: &Response) -> ResponseSlab {
        let (op, body) = encode_response(resp);
        ResponseSlab::new(op, body)
    }

    /// Frame header for this slab at the given checksum mode:
    /// `[len u32 LE][opcode]`.
    pub fn header(&self, checksum: bool) -> [u8; 5] {
        let len = 1u32 + self.body.len() as u32 + if checksum { 4 } else { 0 };
        let l = len.to_le_bytes();
        [l[0], l[1], l[2], l[3], self.op]
    }

    /// The shared encoded body.
    pub fn body(&self) -> &Arc<[u8]> {
        &self.body
    }

    /// The v2 trailing CRC-32 (over `opcode ++ body`), little-endian.
    pub fn trailer(&self) -> [u8; 4] {
        self.crc.to_le_bytes()
    }
}

// ----------------------------------------------------------------- actions

/// Why a connection machine decided to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed cleanly at a frame boundary.
    PeerClosed,
    /// The `Hello` exchange did not finish before its deadline.
    HandshakeTimeout,
    /// No frame started before the idle deadline.
    Idle,
    /// A started frame did not finish before the frame deadline
    /// (slow-loris).
    SlowFrame,
    /// Framing-integrity failure: bad length, CRC mismatch, EOF
    /// mid-frame — the byte stream can no longer be trusted.
    BadFrame,
    /// The first frame was not a usable `Hello` (wrong request, or a
    /// version outside the served range).
    BadHandshake,
    /// A request body failed to decode; the stream may be misaligned.
    BadRequest,
}

/// Which supervision deadline fired (transport clocks → typed closes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// `handshake_timeout` elapsed before the `Hello` exchange finished.
    Handshake,
    /// `idle_timeout` elapsed with no frame started.
    Idle,
    /// `frame_deadline` elapsed with a frame started but unfinished.
    Frame,
}

/// What a connection machine wants its transport to do next.
#[derive(Debug)]
pub enum Action {
    /// Write these bytes to the peer.
    Send(Vec<u8>),
    /// Write `slab.header(checksum) ++ slab.body ++ [trailer]` — the
    /// zero-copy reply path (the transport may reference the shared
    /// body instead of copying it).
    SendSlab {
        /// The shared encoded response.
        slab: Arc<ResponseSlab>,
        /// Frame with the v2 trailing CRC?
        checksum: bool,
    },
    /// A complete, integrity-checked request for the application.
    Deliver(Request),
    /// Close the connection (after flushing prior `Send`s).
    Close(CloseReason),
}

// -------------------------------------------------------------- ServerConn

/// Handshake / steady-state phases of a server-side connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Version negotiated; serving requests.
    Steady,
    /// A fatal close was emitted; all further input is ignored.
    Closed,
}

/// Server-side connection state machine: handshake → steady → closed.
///
/// Feed it transport bytes with [`ServerConn::on_bytes`], EOF with
/// [`ServerConn::on_eof`], fired deadlines with [`ServerConn::expire`];
/// drain [`Action`]s with [`ServerConn::next_action`]. Application
/// replies go back in through [`ServerConn::push_response`] /
/// [`ServerConn::push_slab`], which frame at the negotiated version.
#[derive(Debug)]
pub struct ServerConn {
    decoder: FrameDecoder,
    phase: Phase,
    version: Option<u16>,
    tenant: u32,
    weight: u8,
    shard_epoch: u64,
    actions: std::collections::VecDeque<Action>,
    frames: u64,
}

impl Default for ServerConn {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConn {
    /// Fresh connection in the handshake phase (solo server: the Hello
    /// ack advertises no shard epoch).
    pub fn new() -> ServerConn {
        ServerConn::with_shard_epoch(0)
    }

    /// Fresh connection whose Hello ack advertises `shard_epoch` — how a
    /// cluster member tells every client, at handshake time, that a
    /// shard map exists and which version it routes by. Epoch 0 (solo)
    /// keeps the ack byte-identical to the pre-shard protocol.
    pub fn with_shard_epoch(shard_epoch: u64) -> ServerConn {
        ServerConn {
            decoder: FrameDecoder::new(),
            phase: Phase::Handshake,
            version: None,
            tenant: 0,
            weight: 1,
            shard_epoch,
            actions: std::collections::VecDeque::new(),
            frames: 0,
        }
    }

    /// Tenant id the `Hello` declared (`0` — the default tenant — until
    /// the handshake lands, or when the client never declared one).
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Admission weight class the `Hello` declared (a declared `0` is
    /// normalized to `1` — zero-weight tenants would starve themselves).
    pub fn weight(&self) -> u8 {
        self.weight
    }

    /// Total complete frames parsed so far. The connection thread diffs
    /// this across reads to reset its idle clock.
    pub fn frames_parsed(&self) -> u64 {
        self.frames
    }

    /// The negotiated protocol version (`None` until `Hello` lands).
    pub fn version(&self) -> Option<u16> {
        self.version
    }

    /// Do outgoing post-handshake frames carry the v2 CRC?
    pub fn checksummed(&self) -> bool {
        self.version.map(frames_checksummed).unwrap_or(false)
    }

    /// Is a frame started but unfinished? (Drives the slow-loris clock.)
    pub fn has_partial_frame(&self) -> bool {
        self.decoder.has_partial()
    }

    /// Has a fatal close been emitted?
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Next queued [`Action`], if any.
    pub fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    fn send_error(&mut self, code: ErrorCode, message: impl Into<String>, checksum: bool) {
        let resp = Response::Error { code, message: message.into() };
        let (op, body) = encode_response(&resp);
        if let Ok(bytes) = encode_frame(op, &body, checksum) {
            self.actions.push_back(Action::Send(bytes));
        }
    }

    fn close(&mut self, reason: CloseReason) {
        self.phase = Phase::Closed;
        self.actions.push_back(Action::Close(reason));
    }

    /// Feed transport bytes; parses as many complete frames as arrived.
    pub fn on_bytes(&mut self, bytes: &[u8]) {
        if self.phase == Phase::Closed {
            return;
        }
        self.decoder.push(bytes);
        self.pump();
    }

    fn pump(&mut self) {
        loop {
            if self.phase == Phase::Closed {
                return;
            }
            let checksum = self.checksummed();
            match self.decoder.pop(checksum) {
                Ok(Some((op, body))) => {
                    self.frames += 1;
                    self.on_frame(op, &body);
                }
                Ok(None) => return,
                Err(e) => {
                    // Bad length or CRC mismatch: answer typed
                    // (best-effort) and close — the stream is
                    // desynchronized.
                    let msg = match e {
                        ServeError::Protocol(m) => m,
                        other => other.to_string(),
                    };
                    self.send_error(ErrorCode::BadFrame, msg, checksum);
                    self.close(CloseReason::BadFrame);
                    return;
                }
            }
        }
    }

    fn on_frame(&mut self, op: u8, body: &[u8]) {
        let version = self.version.unwrap_or(1);
        let req = match decode_request(op, body, version) {
            Ok(r) => r,
            Err(e) => {
                self.send_error(ErrorCode::BadRequest, e.to_string(), self.checksummed());
                self.close(CloseReason::BadRequest);
                return;
            }
        };
        match self.phase {
            Phase::Handshake => match req {
                Request::Hello { version: v, tenant, weight }
                    if (MIN_PROTO_VERSION..=PROTO_VERSION).contains(&v) =>
                {
                    // Serve the client at *its* version — v1 clients keep
                    // working against a v2 server. Hello replies are
                    // always v1-framed: no version exists yet.
                    self.version = Some(v);
                    self.tenant = tenant;
                    self.weight = weight.max(1);
                    self.phase = Phase::Steady;
                    let (rop, rbody) = encode_response(&Response::Hello {
                        version: v,
                        shard_epoch: self.shard_epoch,
                    });
                    if let Ok(bytes) = encode_frame(rop, &rbody, false) {
                        self.actions.push_back(Action::Send(bytes));
                    }
                }
                Request::Hello { version: v, .. } => {
                    self.send_error(
                        ErrorCode::BadRequest,
                        format!(
                            "client speaks version {v}, server speaks \
                             {MIN_PROTO_VERSION}..={PROTO_VERSION}"
                        ),
                        false,
                    );
                    self.close(CloseReason::BadHandshake);
                }
                _ => {
                    self.send_error(ErrorCode::BadRequest, "first frame must be Hello", false);
                    self.close(CloseReason::BadHandshake);
                }
            },
            Phase::Steady => match req {
                // A duplicate Hello is a typed error but NOT fatal — the
                // stream is still aligned (pre-refactor behavior).
                Request::Hello { .. } => {
                    self.send_error(ErrorCode::BadRequest, "duplicate Hello", self.checksummed());
                }
                other => self.actions.push_back(Action::Deliver(other)),
            },
            Phase::Closed => {}
        }
    }

    /// Peer closed its write side. Clean at a frame boundary; a typed
    /// `BadFrame` close mid-frame.
    pub fn on_eof(&mut self) {
        if self.phase == Phase::Closed {
            return;
        }
        if self.decoder.has_partial() {
            self.send_error(ErrorCode::BadFrame, "EOF mid-frame", self.checksummed());
            self.close(CloseReason::BadFrame);
        } else {
            self.close(CloseReason::PeerClosed);
        }
    }

    /// A transport-owned deadline fired: emit the typed
    /// `DeadlineExceeded` reply and close. The machine never reads
    /// clocks — transports decide *when*, it decides *what*.
    pub fn expire(&mut self, kind: DeadlineKind) {
        if self.phase == Phase::Closed {
            return;
        }
        let (what, reason) = match kind {
            DeadlineKind::Handshake => {
                ("handshake deadline exceeded", CloseReason::HandshakeTimeout)
            }
            DeadlineKind::Idle => ("idle timeout exceeded", CloseReason::Idle),
            DeadlineKind::Frame => ("frame read deadline exceeded", CloseReason::SlowFrame),
        };
        self.send_error(ErrorCode::DeadlineExceeded, what, self.checksummed());
        self.close(reason);
    }

    /// Frame an application [`Response`] at the negotiated version.
    pub fn push_response(&mut self, resp: &Response) {
        let (op, body) = encode_response(resp);
        if let Ok(bytes) = encode_frame(op, &body, self.checksummed()) {
            self.actions.push_back(Action::Send(bytes));
        }
    }

    /// Queue a shared [`ResponseSlab`] — the zero-copy reply path.
    pub fn push_slab(&mut self, slab: Arc<ResponseSlab>) {
        let checksum = self.checksummed();
        self.actions.push_back(Action::SendSlab { slab, checksum });
    }

    /// Begin draining: emit a final response (e.g. `ShuttingDown`) and a
    /// clean close.
    pub fn drain_with(&mut self, resp: &Response) {
        self.push_response(resp);
        self.close(CloseReason::PeerClosed);
    }
}

// -------------------------------------------------------------- ClientConn

/// What a [`ClientConn`] surfaced from received bytes.
#[derive(Debug)]
pub enum ClientEvent {
    /// The handshake completed; the connection speaks this version.
    Negotiated(u16),
    /// A complete response frame (boxed: `Response` dwarfs the other
    /// variants).
    Response(Box<Response>),
    /// The server closed cleanly at a frame boundary.
    Closed,
}

/// Client-side connection state machine: offer → granted → steady.
///
/// [`ClientConn::hello_bytes`] is the opening frame; feed replies through
/// [`ClientConn::on_bytes`] and drain [`ClientEvent`]s with
/// [`ClientConn::next_event`]. After negotiation,
/// [`ClientConn::request_bytes`] frames requests at the granted version.
#[derive(Debug)]
pub struct ClientConn {
    decoder: FrameDecoder,
    /// Version offered in the `Hello` (capped at [`PROTO_VERSION`]).
    want: u16,
    /// Tenant id declared in the `Hello` (`0` = the default tenant).
    tenant: u32,
    /// Weight class declared in the `Hello`.
    weight: u8,
    /// Version the server granted; `None` until the ack lands.
    version: Option<u16>,
    /// Shard-map epoch the server's Hello ack advertised (`0` = solo
    /// server or pre-shard peer — no cluster to route across).
    shard_epoch: u64,
    events: std::collections::VecDeque<ClientEvent>,
    eof: bool,
}

impl ClientConn {
    /// Start a handshake offering `want` (capped at this build's
    /// [`PROTO_VERSION`]) as the default tenant at weight 1.
    pub fn new(want: u16) -> ClientConn {
        ClientConn::with_tenant(want, 0, 1)
    }

    /// Start a handshake declaring a tenant id and admission weight.
    pub fn with_tenant(want: u16, tenant: u32, weight: u8) -> ClientConn {
        ClientConn {
            decoder: FrameDecoder::new(),
            want: want.min(PROTO_VERSION),
            tenant,
            weight: weight.max(1),
            version: None,
            shard_epoch: 0,
            events: std::collections::VecDeque::new(),
            eof: false,
        }
    }

    /// The granted protocol version (`None` until negotiated).
    pub fn version(&self) -> Option<u16> {
        self.version
    }

    /// Shard-map epoch the handshake advertised; `0` until negotiated,
    /// and `0` after it when the server is solo (or pre-shard). Nonzero
    /// means "fetch the shard map before routing".
    pub fn shard_epoch(&self) -> u64 {
        self.shard_epoch
    }

    /// The opening `Hello` frame (always v1-framed).
    pub fn hello_bytes(&self) -> Vec<u8> {
        let hello = Request::Hello { version: self.want, tenant: self.tenant, weight: self.weight };
        let (op, body) = encode_request(&hello, 1).expect("hello encodes at any version");
        encode_frame(op, &body, false).expect("hello frame fits")
    }

    /// Frame a request at the negotiated version. Errors before the
    /// handshake completes, or when the request cannot be represented at
    /// the granted version (v1 deadline).
    pub fn request_bytes(&self, req: &Request) -> Result<Vec<u8>> {
        let version = self
            .version
            .ok_or_else(|| ServeError::Protocol("request before handshake completed".into()))?;
        let (op, body) = encode_request(req, version)?;
        encode_frame(op, &body, frames_checksummed(version))
    }

    /// Feed received bytes; surfaces events (including handshake
    /// completion). `Err` preserves the blocking client's exact failure
    /// taxonomy: bad grants and unexpected handshake replies are
    /// `Protocol`, typed rejections are `Server`.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.decoder.push(bytes);
        self.pump()
    }

    /// The server closed its write side.
    pub fn on_eof(&mut self) -> Result<()> {
        self.eof = true;
        if self.decoder.has_partial() {
            return Err(ServeError::Protocol("EOF mid-frame".into()));
        }
        if self.version.is_none() {
            return Err(ServeError::Protocol("connection closed during handshake".into()));
        }
        self.events.push_back(ClientEvent::Closed);
        Ok(())
    }

    /// Next surfaced event, if any.
    pub fn next_event(&mut self) -> Option<ClientEvent> {
        self.events.pop_front()
    }

    fn pump(&mut self) -> Result<()> {
        loop {
            let checksum = self.version.map(frames_checksummed).unwrap_or(false);
            match self.decoder.pop(checksum)? {
                None => return Ok(()),
                Some((op, body)) => {
                    let resp = crate::protocol::decode_response(op, &body)?;
                    if self.version.is_none() {
                        match resp {
                            Response::Hello { version, shard_epoch } => {
                                if version < MIN_PROTO_VERSION || version > self.want {
                                    return Err(ServeError::Protocol(format!(
                                        "server granted unusable protocol version {version}"
                                    )));
                                }
                                self.version = Some(version);
                                self.shard_epoch = shard_epoch;
                                self.events.push_back(ClientEvent::Negotiated(version));
                            }
                            Response::Error { code, message } => {
                                return Err(ServeError::Server { code, message });
                            }
                            other => {
                                return Err(ServeError::Protocol(format!(
                                    "expected hello acknowledgement, got {other:?}"
                                )));
                            }
                        }
                    } else {
                        self.events.push_back(ClientEvent::Response(Box::new(resp)));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(conn: &mut ServerConn) -> Vec<Action> {
        std::iter::from_fn(|| conn.next_action()).collect()
    }

    fn hello_frame(version: u16) -> Vec<u8> {
        ClientConn::new(version).hello_bytes()
    }

    #[test]
    fn decoder_reassembles_any_segmentation() {
        let mut wire = Vec::new();
        for req in [Request::Ping, Request::Stats, Request::Info { container: 7 }] {
            let (op, body) = encode_request(&req, 2).unwrap();
            wire.extend_from_slice(&encode_frame(op, &body, true).unwrap());
        }
        for chunk_size in [1, 2, 3, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk_size) {
                dec.push(piece);
                while let Some(f) = dec.pop(true).unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got.len(), 3, "chunk size {chunk_size}");
            assert!(!dec.has_partial());
        }
    }

    #[test]
    fn decoder_rejects_bad_lengths_immediately() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME + 1).to_le_bytes());
        assert!(dec.pop(false).is_err());
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(dec.pop(false).is_err());
        // len 4 < 5 is impossible at v2 (opcode + CRC alone need 5).
        let mut dec = FrameDecoder::new();
        dec.push(&4u32.to_le_bytes());
        dec.push(&[0x05, 0, 0, 0]);
        assert!(dec.pop(true).is_err());
    }

    #[test]
    fn server_conn_negotiates_and_delivers() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(2));
        assert_eq!(conn.version(), Some(2));
        let actions = drain(&mut conn);
        assert!(matches!(actions[0], Action::Send(_)), "hello ack first");
        // Steady state: a ping is delivered, framed at v2.
        let (op, body) = encode_request(&Request::Ping, 2).unwrap();
        conn.on_bytes(&encode_frame(op, &body, true).unwrap());
        match drain(&mut conn).pop() {
            Some(Action::Deliver(Request::Ping)) => {}
            other => panic!("expected Deliver(Ping), got {other:?}"),
        }
    }

    #[test]
    fn server_conn_grants_the_clients_version_not_its_own() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(1));
        assert_eq!(conn.version(), Some(1));
        assert!(!conn.checksummed(), "v1 frames carry no CRC");
    }

    #[test]
    fn server_conn_captures_tenant_and_weight_from_hello() {
        // Declared tenancy lands on the connection.
        let mut conn = ServerConn::new();
        conn.on_bytes(&ClientConn::with_tenant(2, 42, 5).hello_bytes());
        assert_eq!(conn.version(), Some(2));
        assert_eq!(conn.tenant(), 42);
        assert_eq!(conn.weight(), 5);

        // A bare (pre-QoS) Hello body defaults to tenant 0, weight 1.
        let mut conn = ServerConn::new();
        let mut body = crate::protocol::PROTO_MAGIC.to_vec();
        body.extend_from_slice(&2u16.to_le_bytes());
        conn.on_bytes(&encode_frame(0x01, &body, false).unwrap());
        assert_eq!(conn.version(), Some(2));
        assert_eq!(conn.tenant(), 0);
        assert_eq!(conn.weight(), 1);

        // A declared weight of 0 is normalized to 1.
        let mut conn = ServerConn::new();
        conn.on_bytes(&ClientConn::with_tenant(2, 7, 0).hello_bytes());
        assert_eq!(conn.weight(), 1);
    }

    #[test]
    fn server_conn_rejects_bad_handshakes_fatally() {
        // Version out of range.
        let mut conn = ServerConn::new();
        let (op, body) = encode_request(&Request::hello(99), 1).unwrap();
        conn.on_bytes(&encode_frame(op, &body, false).unwrap());
        let actions = drain(&mut conn);
        assert!(matches!(actions.last(), Some(Action::Close(CloseReason::BadHandshake))));
        assert!(conn.is_closed());
        // Non-Hello first frame.
        let mut conn = ServerConn::new();
        let (op, body) = encode_request(&Request::Ping, 1).unwrap();
        conn.on_bytes(&encode_frame(op, &body, false).unwrap());
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::BadHandshake))));
    }

    #[test]
    fn duplicate_hello_is_typed_but_not_fatal() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(2));
        drain(&mut conn);
        // A second hello, framed at v2 like any steady-state frame.
        let (op, body) = encode_request(&Request::hello(2), 2).unwrap();
        conn.on_bytes(&encode_frame(op, &body, true).unwrap());
        let actions = drain(&mut conn);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Send(_)));
        assert!(!conn.is_closed(), "duplicate Hello must not kill the stream");
    }

    #[test]
    fn crc_mismatch_closes_with_bad_frame() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(2));
        drain(&mut conn);
        let (op, body) = encode_request(&Request::Stats, 2).unwrap();
        let mut frame = encode_frame(op, &body, true).unwrap();
        let n = frame.len();
        frame[n - 1] ^= 1; // corrupt the CRC
        conn.on_bytes(&frame);
        let actions = drain(&mut conn);
        assert!(matches!(actions.last(), Some(Action::Close(CloseReason::BadFrame))));
        assert!(conn.is_closed());
    }

    #[test]
    fn expire_emits_typed_deadline_closes() {
        for (kind, reason) in [
            (DeadlineKind::Handshake, CloseReason::HandshakeTimeout),
            (DeadlineKind::Idle, CloseReason::Idle),
            (DeadlineKind::Frame, CloseReason::SlowFrame),
        ] {
            let mut conn = ServerConn::new();
            if kind != DeadlineKind::Handshake {
                conn.on_bytes(&hello_frame(2));
                drain(&mut conn);
            }
            conn.expire(kind);
            let actions = drain(&mut conn);
            assert!(matches!(actions.first(), Some(Action::Send(_))), "{kind:?} replies first");
            match actions.last() {
                Some(Action::Close(r)) => assert_eq!(*r, reason),
                other => panic!("{kind:?}: expected Close, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_mid_frame_is_bad_frame_at_boundary_is_clean() {
        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(2));
        drain(&mut conn);
        conn.on_eof();
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::PeerClosed))));

        let mut conn = ServerConn::new();
        conn.on_bytes(&hello_frame(2));
        drain(&mut conn);
        conn.on_bytes(&[3, 0, 0]); // half a length prefix
        conn.on_eof();
        assert!(matches!(drain(&mut conn).last(), Some(Action::Close(CloseReason::BadFrame))));
    }

    #[test]
    fn client_conn_round_trips_against_server_conn() {
        let mut server = ServerConn::new();
        let mut client = ClientConn::new(2);
        server.on_bytes(&client.hello_bytes());
        // Relay every server send to the client.
        while let Some(a) = server.next_action() {
            if let Action::Send(bytes) = a {
                client.on_bytes(&bytes).unwrap();
            }
        }
        assert!(matches!(client.next_event(), Some(ClientEvent::Negotiated(2))));
        assert_eq!(client.version(), Some(2));
        // Steady state both ways.
        server.on_bytes(&client.request_bytes(&Request::Ping).unwrap());
        match server.next_action() {
            Some(Action::Deliver(Request::Ping)) => {}
            other => panic!("expected ping delivery, got {other:?}"),
        }
        server.push_response(&Response::Pong);
        while let Some(a) = server.next_action() {
            if let Action::Send(bytes) = a {
                client.on_bytes(&bytes).unwrap();
            }
        }
        assert!(matches!(
            client.next_event(),
            Some(ClientEvent::Response(r)) if matches!(*r, Response::Pong)
        ));
    }

    #[test]
    fn client_conn_rejects_bad_grants() {
        // Grant above the offer.
        let mut client = ClientConn::new(1);
        let (op, body) = encode_response(&Response::Hello { version: 2, shard_epoch: 0 });
        let err = client.on_bytes(&encode_frame(op, &body, false).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unusable protocol version"));
        // Non-hello handshake reply.
        let mut client = ClientConn::new(2);
        let (op, body) = encode_response(&Response::Pong);
        let err = client.on_bytes(&encode_frame(op, &body, false).unwrap()).unwrap_err();
        assert!(err.to_string().contains("expected hello acknowledgement"));
        // EOF before the ack.
        let mut client = ClientConn::new(2);
        let err = client.on_eof().unwrap_err();
        assert!(err.to_string().contains("closed during handshake"));
    }

    /// Relay every `Send` action from the server machine into the client
    /// machine — the no-socket "wire" the shard tests drive.
    fn relay(server: &mut ServerConn, client: &mut ClientConn) {
        while let Some(a) = server.next_action() {
            if let Action::Send(bytes) = a {
                client.on_bytes(&bytes).unwrap();
            }
        }
    }

    #[test]
    fn shard_epoch_rides_the_handshake_through_both_machines() {
        // A cluster member advertises its epoch in the Hello ack.
        let mut server = ServerConn::with_shard_epoch(5);
        let mut client = ClientConn::new(2);
        server.on_bytes(&client.hello_bytes());
        relay(&mut server, &mut client);
        assert!(matches!(client.next_event(), Some(ClientEvent::Negotiated(2))));
        assert_eq!(client.shard_epoch(), 5);

        // A solo server (epoch 0) advertises nothing — including to v1
        // clients, whose ack stays byte-identical to the pre-shard one.
        for want in [1, 2] {
            let mut server = ServerConn::new();
            let mut client = ClientConn::new(want);
            server.on_bytes(&client.hello_bytes());
            relay(&mut server, &mut client);
            assert!(matches!(client.next_event(), Some(ClientEvent::Negotiated(v)) if v == want));
            assert_eq!(client.shard_epoch(), 0);
        }
    }

    #[test]
    fn wrong_shard_redirect_round_trips_machine_to_machine() {
        use crate::shard::{ShardMap, ShardMember};
        // The full redirect conversation, no sockets: a misdirected
        // fetch is answered WrongShard, the client fetches the map and
        // recomputes the owner — which matches the redirect.
        let map = ShardMap::new(
            2,
            77,
            64,
            2,
            vec![
                ShardMember { name: "shard0".into(), addr: "a:1".into() },
                ShardMember { name: "shard1".into(), addr: "b:2".into() },
                ShardMember { name: "shard2".into(), addr: "c:3".into() },
            ],
        );
        // Find a key shard 0 does not serve.
        let (container, chunk) =
            (0..100u32).map(|k| (0, k)).find(|&(c, k)| !map.serves(0, c, k)).unwrap();
        let owner = map.owner(container, chunk).unwrap();

        let mut server = ServerConn::with_shard_epoch(map.epoch);
        let mut client = ClientConn::new(2);
        server.on_bytes(&client.hello_bytes());
        relay(&mut server, &mut client);
        assert!(matches!(client.next_event(), Some(ClientEvent::Negotiated(2))));

        // Misdirected fetch → the application (here: the test, standing
        // in for `admit_fetch`) answers with the typed redirect.
        let fetch = Request::Fetch { container, chunk, read_cf: 0, deadline_ms: 0 };
        server.on_bytes(&client.request_bytes(&fetch).unwrap());
        match server.next_action() {
            Some(Action::Deliver(req)) => assert_eq!(req, fetch),
            other => panic!("expected fetch delivery, got {other:?}"),
        }
        server.push_response(&Response::WrongShard { epoch: map.epoch, owner: owner as u32 });
        relay(&mut server, &mut client);
        let redirected_to = match client.next_event() {
            Some(ClientEvent::Response(r)) => match *r {
                Response::WrongShard { epoch, owner } => {
                    assert_eq!(epoch, map.epoch);
                    owner
                }
                other => panic!("expected WrongShard, got {other:?}"),
            },
            other => panic!("expected a response, got {other:?}"),
        };

        // The client refreshes its map over the same machine pair...
        server.on_bytes(&client.request_bytes(&Request::ShardMap).unwrap());
        match server.next_action() {
            Some(Action::Deliver(Request::ShardMap)) => {}
            other => panic!("expected map request delivery, got {other:?}"),
        }
        server.push_response(&Response::ShardMap(map.clone()));
        relay(&mut server, &mut client);
        let fetched = match client.next_event() {
            Some(ClientEvent::Response(r)) => match *r {
                Response::ShardMap(m) => m,
                other => panic!("expected ShardMap, got {other:?}"),
            },
            other => panic!("expected a response, got {other:?}"),
        };
        // ...and re-routes to exactly the shard the redirect named.
        assert_eq!(fetched.owner(container, chunk).unwrap() as u32, redirected_to);
    }

    #[test]
    fn slabs_frame_identically_to_plain_encoding() {
        let resp = Response::Chunk {
            first_sample: 9,
            dims: [2, 1, 4, 4],
            read_cf: 3,
            data: (0..32).map(|i| i as f32 / 3.0 - 5.0).collect(),
            served_cf: 3,
        };
        let (data, first_sample, dims, read_cf) = match &resp {
            Response::Chunk { first_sample, dims, read_cf, data, .. } => {
                (data.clone(), *first_sample, *dims, *read_cf)
            }
            _ => unreachable!(),
        };
        let slab = ResponseSlab::chunk(first_sample, dims, read_cf, &data);
        for checksum in [false, true] {
            let (op, body) = encode_response(&resp);
            let want = encode_frame(op, &body, checksum).unwrap();
            let mut got = slab.header(checksum).to_vec();
            got.extend_from_slice(slab.body());
            if checksum {
                got.extend_from_slice(&slab.trailer());
            }
            assert_eq!(got, want, "checksum={checksum}");
        }
    }

    #[test]
    fn slab_fanout_shares_one_allocation() {
        let slab = Arc::new(ResponseSlab::chunk(0, [1, 1, 2, 2], 1, &[1.0, 2.0, 3.0, 4.0]));
        let a = Arc::clone(slab.body());
        let b = Arc::clone(slab.body());
        assert!(Arc::ptr_eq(&a, &b), "fan-out must be refcounts, not copies");
    }
}
