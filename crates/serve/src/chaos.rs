//! Deterministic wire-fault injection for network chaos testing.
//!
//! The store layer (PR 3) made disk failures injectable and reproducible;
//! this module does the same for the *wire*. [`FaultyStream`] wraps any
//! `Read + Write` byte stream — either side of a TCP connection — and
//! injects connection resets, received-byte corruption, mid-frame stalls,
//! partial writes, and slow-peer throttling, all described by a seeded
//! [`WireFaultPlan`].
//!
//! Two properties make chaos runs replayable:
//!
//! * **Decisions are keyed on byte positions, not call boundaries.** TCP
//!   segmentation is timing-dependent (`read` may return 1 byte or 64 KiB
//!   for the same traffic), so per-call decisions would not replay. Event
//!   positions (reset at byte `R`, corrupt byte `C`, …) are drawn up front
//!   from SplitMix64 ([`aicomp_store::SplitMix64`], the same generator as
//!   PR 3's `FaultPlan`) and fire when the transferred byte range crosses
//!   them — identical faults for identical seeds, however the kernel
//!   chops the stream.
//! * **Arm-after-open discipline.** A wrapper built with
//!   [`WireFaultPlan::none`] is a pass-through; [`FaultyStream::set_plan`]
//!   (or an [`ArmHandle`] when the stream has been moved into a client)
//!   re-seeds positions *relative to the arming point*, so callers can
//!   handshake cleanly and then target steady-state traffic
//!   deterministically — exactly how PR 3 arms `FaultySource` after the
//!   container header is parsed.
//!
//! Injected counters ([`WireCounters`]) are shared `Arc`s so a test can
//! hold them after the stream moves into a client, and assert that
//! recovery-side counters (retries, breaker opens) match injections.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aicomp_store::SplitMix64;

/// The stream capabilities the serve layer needs from a connection:
/// blocking byte I/O plus the two socket knobs the server and client set.
/// Implemented by [`std::net::TcpStream`] and transparently by
/// [`FaultyStream`] over any `Wire`, so chaos wrapping composes with every
/// connection-handling path.
pub trait Wire: Read + Write + Send {
    /// Set the read timeout on the underlying socket (poll granularity
    /// for the server's supervised frame reads).
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;
    /// Disable/enable Nagle's algorithm.
    fn set_nodelay(&self, on: bool) -> std::io::Result<()>;
}

impl Wire for std::net::TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, dur)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        std::net::TcpStream::set_nodelay(self, on)
    }
}

/// Seeded description of injected wire faults. Event spacings are *mean
/// bytes between events* per direction; `None` disables that fault class.
/// The default plan injects nothing and the wrapper is a pass-through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaultPlan {
    /// Seed for every event-position draw.
    pub seed: u64,
    /// Mean transferred bytes before the connection is reset (each
    /// direction draws its own position; whichever fires first kills the
    /// stream with `ConnectionReset`).
    pub reset_every: Option<u64>,
    /// Mean bytes between single-bit corruptions of transferred data
    /// (both directions — received bytes are flipped after the read,
    /// sent bytes before the write).
    pub corrupt_every: Option<u64>,
    /// Mean bytes between injected stalls of [`WireFaultPlan::stall`]
    /// (models a peer that freezes mid-frame).
    pub stall_every: Option<u64>,
    /// How long each injected stall sleeps.
    pub stall: Duration,
    /// P(a write is split short) — reorders nothing, corrupts nothing,
    /// but exercises every `write_all` loop and frame-accumulation path.
    pub partial_write_rate: f64,
    /// Cap on bytes moved per call (slow-peer shaping); `None` = no cap.
    pub throttle_bytes: Option<usize>,
    /// Arm the plan *before* the version handshake instead of after it,
    /// so faults land in the `Hello`/`MapPush` window that the
    /// arm-after-open discipline normally shields. Position draws and
    /// per-connection derivation are unchanged — only the arming point
    /// moves, so covered runs replay just like steady-state ones.
    pub cover_handshake: bool,
}

impl Default for WireFaultPlan {
    fn default() -> Self {
        WireFaultPlan {
            seed: 0,
            reset_every: None,
            corrupt_every: None,
            stall_every: None,
            stall: Duration::from_millis(5),
            partial_write_rate: 0.0,
            throttle_bytes: None,
            cover_handshake: false,
        }
    }
}

impl WireFaultPlan {
    /// A plan that injects nothing (named for intent).
    pub fn none() -> Self {
        WireFaultPlan::default()
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.reset_every.is_some()
            || self.corrupt_every.is_some()
            || self.stall_every.is_some()
            || self.partial_write_rate > 0.0
            || self.throttle_bytes.is_some()
    }

    /// The standard chaos mix used by `loadgen --chaos` and the CI smoke:
    /// every fault class armed at rates a bounded retry budget survives.
    pub fn standard(seed: u64) -> Self {
        WireFaultPlan {
            seed,
            reset_every: Some(256 * 1024),
            corrupt_every: Some(96 * 1024),
            stall_every: Some(64 * 1024),
            stall: Duration::from_millis(3),
            partial_write_rate: 0.05,
            throttle_bytes: None,
            cover_handshake: false,
        }
    }

    /// This plan, armed before the handshake (see
    /// [`WireFaultPlan::cover_handshake`]).
    pub fn with_handshake_cover(self) -> Self {
        WireFaultPlan { cover_handshake: true, ..self }
    }

    /// Derive the plan for stream number `index` (per-connection seeds for
    /// a client's reconnects or a server's accept loop).
    pub fn derive(&self, index: u64) -> Self {
        let mut mix = SplitMix64(self.seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
        WireFaultPlan { seed: mix.next(), ..*self }
    }
}

/// Counts of injected faults, shared so tests can read them after the
/// stream moves into a client (and summed across a client's connections).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Connections killed with an injected reset.
    pub resets: AtomicU64,
    /// Bits flipped in transferred bytes.
    pub corruptions: AtomicU64,
    /// Injected stalls slept through.
    pub stalls: AtomicU64,
    /// Writes split short.
    pub partial_writes: AtomicU64,
}

impl WireCounters {
    /// Total injected faults that *alter* traffic (resets + corruptions) —
    /// the ones recovery machinery must answer for.
    pub fn disruptions(&self) -> u64 {
        self.resets.load(Ordering::Relaxed) + self.corruptions.load(Ordering::Relaxed)
    }
}

/// Deterministic event-position stream: positions are drawn as cumulative
/// gaps of `1 + draw % (2 × mean)` bytes, so the decision for "is there an
/// event in byte range `[a, b)`" is a pure function of the seed.
#[derive(Debug)]
struct Events {
    rng: SplitMix64,
    mean: u64,
    next_at: u64,
}

impl Events {
    fn new(seed: u64, mean: Option<u64>) -> Option<Events> {
        let mean = mean?.max(1);
        let mut e = Events { rng: SplitMix64(seed), mean, next_at: 0 };
        e.next_at = e.gap();
        Some(e)
    }

    fn gap(&mut self) -> u64 {
        1 + self.rng.next() % (2 * self.mean)
    }

    /// Event positions in `[from, to)`, advancing past them.
    fn fire(&mut self, from: u64, to: u64) -> Vec<u64> {
        let mut hits = Vec::new();
        while self.next_at < to {
            if self.next_at >= from {
                hits.push(self.next_at);
            }
            let g = self.gap();
            self.next_at += g;
        }
        hits
    }

    /// The next event position at or after `pos`, without consuming it.
    fn peek(&self, pos: u64) -> Option<u64> {
        (self.next_at >= pos).then_some(self.next_at)
    }
}

/// Per-direction fault state.
#[derive(Debug)]
struct Side {
    pos: u64,
    reset_at: Option<u64>,
    corrupt: Option<Events>,
    stall: Option<Events>,
}

impl Side {
    fn new(plan: &WireFaultPlan, tag: u64) -> Side {
        let mut mix = SplitMix64(plan.seed ^ tag);
        let reset_at = plan.reset_every.map(|mean| 1 + mix.next() % (2 * mean.max(1)));
        Side {
            pos: 0,
            reset_at,
            corrupt: Events::new(mix.next(), plan.corrupt_every),
            stall: Events::new(mix.next(), plan.stall_every),
        }
    }
}

/// Deferred re-arming control for a [`FaultyStream`] that has been moved
/// (e.g. into a `Client`): [`ArmHandle::arm`] stages a plan the stream
/// applies — with positions reset, per the arm-after-open discipline —
/// before its next operation.
#[derive(Debug, Clone)]
pub struct ArmHandle {
    inner: Arc<ArmState>,
}

#[derive(Debug)]
struct ArmState {
    pending: Mutex<Option<WireFaultPlan>>,
    dirty: AtomicBool,
}

impl ArmHandle {
    /// Stage `plan`; the stream re-arms before its next read/write.
    pub fn arm(&self, plan: WireFaultPlan) {
        *self.inner.pending.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
        self.inner.dirty.store(true, Ordering::Release);
    }
}

/// `Read + Write` wrapper injecting wire faults per a [`WireFaultPlan`].
///
/// With an inactive plan every call forwards untouched, so wrapping is
/// free to leave in place permanently. After an injected reset the stream
/// is dead: every further operation fails with `ConnectionReset`, the
/// same way a real peer's RST surfaces.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: WireFaultPlan,
    read: Side,
    write: Side,
    write_op: u64,
    dead: bool,
    counters: Arc<WireCounters>,
    arm: Arc<ArmState>,
}

const READ_TAG: u64 = 0x5245_4144; // "READ"
const WRITE_TAG: u64 = 0x5752_4954; // "WRIT"

impl<S> FaultyStream<S> {
    /// Wrap `inner` under `plan` with fresh counters.
    pub fn new(inner: S, plan: WireFaultPlan) -> Self {
        Self::with_counters(inner, plan, Arc::new(WireCounters::default()))
    }

    /// Wrap `inner` under `plan`, aggregating into shared `counters`.
    pub fn with_counters(inner: S, plan: WireFaultPlan, counters: Arc<WireCounters>) -> Self {
        FaultyStream {
            read: Side::new(&plan, READ_TAG),
            write: Side::new(&plan, WRITE_TAG),
            inner,
            plan,
            write_op: 0,
            dead: false,
            counters,
            arm: Arc::new(ArmState { pending: Mutex::new(None), dirty: AtomicBool::new(false) }),
        }
    }

    /// Swap the plan and restart every event position from the current
    /// point in the stream — decisions become a pure function of
    /// `(seed, bytes since arming)`, independent of setup traffic.
    pub fn set_plan(&mut self, plan: WireFaultPlan) {
        self.read = Side::new(&plan, READ_TAG);
        self.write = Side::new(&plan, WRITE_TAG);
        self.plan = plan;
        self.write_op = 0;
    }

    /// A handle that can re-arm the plan after the stream is moved.
    pub fn arm_handle(&self) -> ArmHandle {
        ArmHandle { inner: Arc::clone(&self.arm) }
    }

    /// The shared injection counters.
    pub fn counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.counters)
    }

    /// Unwrap the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn apply_pending_arm(&mut self) {
        if self.arm.dirty.swap(false, Ordering::AcqRel) {
            let staged = self.arm.pending.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(plan) = staged {
                self.set_plan(plan);
            }
        }
    }

    fn reset_error(&mut self) -> std::io::Error {
        if !self.dead {
            self.dead = true;
            self.counters.resets.fetch_add(1, Ordering::Relaxed);
        }
        std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

/// Sleep once per stall event the stream position has reached (events in
/// `[0, upto)` not yet consumed), counting each.
fn stall_span(side: &mut Side, counters: &WireCounters, stall: Duration, upto: u64) {
    if let Some(ev) = side.stall.as_mut() {
        let fired = ev.fire(0, upto).len();
        for _ in 0..fired {
            counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(stall);
        }
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.apply_pending_arm();
        if !self.plan.is_active() {
            return self.inner.read(buf);
        }
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "stream already reset by injected fault",
            ));
        }
        let mut limit = buf.len().min(self.plan.throttle_bytes.unwrap_or(usize::MAX)).max(1);
        if let Some(r) = self.read.reset_at {
            if self.read.pos >= r {
                return Err(self.reset_error());
            }
            limit = limit.min((r - self.read.pos) as usize);
        }
        // Stalls due at or before the current position fire before the
        // read — a peer frozen mid-frame, then resuming.
        let upto = self.read.pos + 1;
        stall_span(&mut self.read, &self.counters, self.plan.stall, upto);
        let cap = limit.min(buf.len());
        let n = self.inner.read(&mut buf[..cap])?;
        // Corruption events are consumed strictly by the transferred byte
        // range, so short reads never desynchronize the schedule.
        if let Some(ev) = self.read.corrupt.as_mut() {
            for p in ev.fire(self.read.pos, self.read.pos + n as u64) {
                let mut bit = SplitMix64(self.plan.seed ^ p);
                buf[(p - self.read.pos) as usize] ^= 1 << (bit.next() % 8);
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.read.pos += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.apply_pending_arm();
        if !self.plan.is_active() {
            return self.inner.write(buf);
        }
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "stream already reset by injected fault",
            ));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let op = self.write_op;
        self.write_op += 1;
        let mut limit = buf.len().min(self.plan.throttle_bytes.unwrap_or(usize::MAX)).max(1);
        if let Some(r) = self.write.reset_at {
            if self.write.pos >= r {
                return Err(self.reset_error());
            }
            limit = limit.min((r - self.write.pos) as usize);
        }
        let upto = self.write.pos + 1;
        stall_span(&mut self.write, &self.counters, self.plan.stall, upto);
        if limit > 1 && self.plan.partial_write_rate > 0.0 {
            let mut rng = SplitMix64(self.plan.seed ^ op.wrapping_mul(0x9E6D_62D0_6F6A_9A9B));
            if rng.uniform() < self.plan.partial_write_rate {
                limit = 1 + (rng.next() as usize) % (limit - 1);
                self.counters.partial_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Flip scheduled bytes in a scratch copy; events are consumed only
        // for the range the inner write actually accepted.
        let mut scratch = buf[..limit].to_vec();
        let flips: Vec<u64> = match self.write.corrupt.as_ref() {
            Some(ev) => {
                let mut probe = self.write.pos;
                let mut out = Vec::new();
                while let Some(p) = ev.peek(probe) {
                    if p >= self.write.pos + limit as u64 {
                        break;
                    }
                    out.push(p);
                    probe = p + 1;
                }
                out
            }
            None => Vec::new(),
        };
        for &p in &flips {
            let mut bit = SplitMix64(self.plan.seed ^ p);
            scratch[(p - self.write.pos) as usize] ^= 1 << (bit.next() % 8);
        }
        let n = self.inner.write(&scratch)?;
        if let Some(ev) = self.write.corrupt.as_mut() {
            let consumed = ev.fire(self.write.pos, self.write.pos + n as u64);
            self.counters.corruptions.fetch_add(consumed.len() as u64, Ordering::Relaxed);
        }
        self.write.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Wire> Wire for FaultyStream<S> {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        self.inner.set_nodelay(on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// In-memory `Read + Write` pair: reads drain `rx`, writes fill `tx`.
    struct Pipe {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tx.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn pipe(incoming: Vec<u8>) -> Pipe {
        Pipe { rx: Cursor::new(incoming), tx: Vec::new() }
    }

    #[test]
    fn inactive_plan_is_passthrough() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut s = FaultyStream::new(pipe(data.clone()), WireFaultPlan::none());
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        s.write_all(&data).unwrap();
        assert_eq!(s.into_inner().tx, data);
    }

    #[test]
    fn corruption_is_deterministic_and_segmentation_independent() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let plan = WireFaultPlan { seed: 9, corrupt_every: Some(256), ..WireFaultPlan::none() };
        let run = |chunk: usize| {
            let mut s = FaultyStream::new(pipe(data.clone()), plan);
            let mut out = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                match s.read(&mut buf).unwrap() {
                    0 => break,
                    n => out.extend_from_slice(&buf[..n]),
                }
            }
            (out, s.counters().corruptions.load(Ordering::Relaxed))
        };
        let (a, ca) = run(7);
        let (b, cb) = run(1024);
        assert_eq!(a, b, "corrupted stream must not depend on read sizes");
        assert_eq!(ca, cb);
        assert!(ca > 0, "a 4 KiB stream at corrupt_every=256 must corrupt");
        assert_ne!(a, data, "corruption must actually alter bytes");
    }

    #[test]
    fn reset_fires_at_a_fixed_byte_position_and_kills_the_stream() {
        let plan = WireFaultPlan { seed: 4, reset_every: Some(64), ..WireFaultPlan::none() };
        let run = |chunk: usize| {
            let mut s = FaultyStream::new(pipe(vec![7u8; 4096]), plan);
            let mut got = 0usize;
            let mut buf = vec![0u8; chunk];
            let err = loop {
                match s.read(&mut buf) {
                    Ok(0) => panic!("reset must fire before EOF"),
                    Ok(n) => got += n,
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
            // Dead for good, writes included.
            assert!(s.read(&mut buf).is_err());
            assert!(s.write(&[1]).is_err());
            assert_eq!(s.counters().resets.load(Ordering::Relaxed), 1);
            got
        };
        assert_eq!(run(3), run(333), "reset position must not depend on segmentation");
    }

    #[test]
    fn partial_writes_segment_but_never_alter_content() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 254) as u8).collect();
        let plan = WireFaultPlan { seed: 2, partial_write_rate: 0.8, ..WireFaultPlan::none() };
        let mut s = FaultyStream::new(pipe(Vec::new()), plan);
        for part in data.chunks(100) {
            s.write_all(part).unwrap();
        }
        assert!(s.counters().partial_writes.load(Ordering::Relaxed) > 0);
        assert_eq!(s.into_inner().tx, data);
    }

    #[test]
    fn arming_resets_positions_relative_to_the_arm_point() {
        let armed = WireFaultPlan { seed: 5, corrupt_every: Some(32), ..WireFaultPlan::none() };
        // Stream A: 100 clean setup bytes, then armed. Stream B: armed from
        // byte 0. Post-arm corruption pattern must be identical.
        let tail: Vec<u8> = (0..512u32).map(|i| (i % 91) as u8).collect();
        let mut a_in = vec![0u8; 100];
        a_in.extend_from_slice(&tail);
        let mut a = FaultyStream::new(pipe(a_in), WireFaultPlan::none());
        let mut setup = vec![0u8; 100];
        a.read_exact(&mut setup).unwrap();
        a.set_plan(armed);
        let mut got_a = Vec::new();
        a.read_to_end(&mut got_a).unwrap();

        let mut b = FaultyStream::new(pipe(tail.clone()), armed);
        let mut got_b = Vec::new();
        b.read_to_end(&mut got_b).unwrap();
        assert_eq!(got_a, got_b);
        assert_ne!(got_a, tail, "armed plan at corrupt_every=32 must corrupt 512 bytes");
    }

    #[test]
    fn arm_handle_applies_before_the_next_operation() {
        let data = vec![3u8; 256];
        let mut s = FaultyStream::new(pipe(data.clone()), WireFaultPlan::none());
        let handle = s.arm_handle();
        let mut buf = [0u8; 64];
        s.read_exact(&mut buf).unwrap();
        handle.arm(WireFaultPlan { seed: 1, reset_every: Some(8), ..WireFaultPlan::none() });
        let mut rest = Vec::new();
        let err = s.read_to_end(&mut rest).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(rest.len() < 192, "reset_every=8 must kill the stream quickly");
    }

    #[test]
    fn derive_decorrelates_connections() {
        let base = WireFaultPlan::standard(11);
        assert_ne!(base.derive(0).seed, base.derive(1).seed);
        assert_eq!(base.derive(3), base.derive(3));
        assert_eq!(base.derive(2).reset_every, base.reset_every);
    }

    #[test]
    fn handshake_cover_survives_derivation() {
        let base = WireFaultPlan::standard(11).with_handshake_cover();
        assert!(base.cover_handshake);
        assert!(base.derive(5).cover_handshake, "derive must keep the arming point");
        assert!(!WireFaultPlan::none().cover_handshake);
        assert!(!WireFaultPlan::standard(11).cover_handshake);
    }
}
