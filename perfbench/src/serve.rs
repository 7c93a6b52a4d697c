//! `serve_hot` and `serve_cold`: a closed loop of `nproc` client
//! connections, each waiting for its reply before the next fetch, against
//! an in-process solo server with `nproc` workers.
//!
//! `serve_hot` draws from a working set of at most half the cache, warmed
//! at set-up, so decode does almost nothing and framing, sockets, slabs
//! and the cache carry the load. `serve_cold` draws from 8× the cache in
//! distinct chunks, half at the stored cf and half at prefix cf 2, so
//! nearly every fetch misses and the batcher, queue and decode-in-server
//! carry it.

use std::collections::HashMap;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aicomp_core::{Codec, CodecSpec};
use aicomp_serve::stats::Endpoint;
use aicomp_serve::{
    Client, FrameDecoder, ServeConfig, ServeError, Server, ServerHandle, StatsReport, Wire,
    PROTO_VERSION,
};
use aicomp_store::chunk::decode_chunk;
use aicomp_store::crc::crc32;
use aicomp_store::{DczReader, StoreOptions};
use aicomp_tensor::Tensor;

use crate::clock;
use crate::fixture::{cloud_tiles, same_bits, Packed};
use crate::keys::{Key, KeyStream, ServePlan};
use crate::report::Outcome;
use crate::stats::{hist_quantile, median, mode_mean, quantile, sorted, Psnr};
use crate::trace::Trace;
use crate::{note_latency, peak_rss_mb, repeated_setup, Run, WARMUP_S};

const N: usize = 64;
const CHANNELS: usize = 3;
const CHUNK: usize = 2;
const CHUNKS: u32 = 128;
const STORED_CF: u8 = 4;
const COARSE_CF: u8 = 2;
const HOT_CACHE: usize = 64;
const HOT_WINDOW: u32 = 32;
const COLD_CACHE: usize = 16;
/// Length of one throughput slice.
const SLICE: Duration = Duration::from_millis(250);
/// Replies captured for the frame-decode measurement.
const CAPTURED: usize = 16;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temp {
    /// Cache-resident working set.
    Hot,
    /// Cache-busting working set.
    Cold,
}

struct State {
    packed: Packed,
    plan: ServePlan,
    /// Reference decode of every planned key, by `(chunk, served cf)`.
    refs: HashMap<(u32, u8), Tensor>,
    server: Option<ServerHandle>,
    addr: SocketAddr,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown_and_join();
        }
    }
}

/// The fidelity a reply to `key` must declare.
fn served_cf(key: Key) -> u8 {
    if key.1 == 0 {
        STORED_CF
    } else {
        key.1
    }
}

fn setup(run: &Run, temp: Temp) -> Result<(State, f64, f64), String> {
    let plan = match temp {
        Temp::Hot => ServePlan::hot(run.seed, CHUNKS, HOT_WINDOW, HOT_CACHE),
        Temp::Cold => ServePlan::cold(CHUNKS, COARSE_CF, COLD_CACHE),
    };
    if (temp == Temp::Hot && !plan.fits_half_cache()) || (temp == Temp::Cold && !plan.busts_cache())
    {
        return Err(format!("{temp:?} working set does not match its cache: {plan:?}"));
    }
    let tiles = cloud_tiles(run.seed, CHUNKS as usize * CHUNK);
    let packed = Packed::new(tiles, StoreOptions::dct(N, STORED_CF as usize, CHANNELS, CHUNK))?;
    let path = run.dir.join("serve.dcz");
    std::fs::write(&path, &packed.bytes).map_err(|e| format!("write container: {e}"))?;
    let mut r = DczReader::open(&path).map_err(|e| format!("reopen: {e}"))?;
    r.verify().map_err(|e| format!("container fails verify: {e}"))?;
    let mut refs = HashMap::new();
    let mut psnr = Psnr::default();
    for &k in &plan.keys {
        let cf = served_cf(k);
        let t = r
            .decompress_chunk_at(k.0 as usize, cf as usize)
            .map_err(|e| format!("reference decode: {e}"))?;
        psnr.add(&packed.chunk_raw(k.0 as usize), t.data());
        refs.insert((k.0, cf), t);
    }
    let config = ServeConfig {
        workers: run.nproc,
        cache_entries: plan.cache_entries,
        ..ServeConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", &[&path], config).map_err(|e| format!("bind: {e}"))?.spawn();
    let addr = server.addr();
    let ratio = packed.stored_ratio();
    let st = State { packed, plan, refs, server: Some(server), addr };
    if temp == Temp::Hot {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for &k in &st.plan.keys {
            let reply = c.fetch(0, k.0, k.1).map_err(|e| format!("warm fetch: {e}"))?;
            if !st.check(k, &reply) {
                return Err(format!("warm fetch of {k:?} returned wrong bits"));
            }
        }
    }
    Ok((st, ratio, psnr.db()))
}

impl State {
    /// Does `reply` carry exactly the reference bits for `key`?
    fn check(&self, key: Key, reply: &aicomp_serve::FetchedChunk) -> bool {
        let cf = served_cf(key);
        reply.served_cf == cf
            && reply.first_sample == key.0 as u64 * CHUNK as u64
            && self.refs.get(&(key.0, cf)).is_some_and(|t| same_bits(&reply.data, t.data()))
    }
}

/// Counters the clients share with the thread that slices the phase.
#[derive(Default)]
struct Progress {
    /// Fetches answered with the right bits.
    verified: AtomicU64,
    /// CPU nanoseconds the clients spent on the benchmark's own bit checks.
    check_ns: AtomicU64,
}

impl Progress {
    /// `(process CPU ns, verified fetches, check CPU ns)` now.
    fn sample(&self) -> (u64, u64, u64) {
        let cpu = clock::process_ns();
        (cpu, self.verified.load(Ordering::Relaxed), self.check_ns.load(Ordering::Relaxed))
    }
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    /// Wall-clock fetch latency (ms), stored-cf requests then coarse ones.
    lat_ms: [Vec<f64>; 2],
    /// `(client, start, ms, requested cf)` of every fetch, kept in traced
    /// phases only.
    spans: Vec<(u64, Instant, f64, u8)>,
    attempted: u64,
    failed: u64,
}

/// One measured phase: merged client logs, the throughput of each
/// [`SLICE`], and the server's counters around it.
struct Phase {
    log: ClientLog,
    /// Delivered raw MB over the CPU seconds of every thread (clients and
    /// server, less the clients' bit checks), per slice.
    rates: Vec<f64>,
    before: StatsReport,
    after: StatsReport,
}

impl Phase {
    /// Delivered raw MB per CPU second: the median slice rate.
    fn mb_s(&self) -> f64 {
        median(self.rates.clone()).unwrap_or(0.0)
    }

    fn hit_ratio(&self) -> f64 {
        let hits = self.after.cache_hits - self.before.cache_hits;
        let misses = self.after.cache_misses - self.before.cache_misses;
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// The server's counters over this phase alone.
    fn delta(&self) -> StatsReport {
        let (a, b) = (&self.after, &self.before);
        let mut d = a.clone();
        d.cache_hits -= b.cache_hits;
        d.cache_misses -= b.cache_misses;
        d.decompress_passes -= b.decompress_passes;
        d.chunks_decoded -= b.chunks_decoded;
        d.shed -= b.shed;
        d.deadline_rejected -= b.deadline_rejected;
        for (ea, eb) in d.endpoints.iter_mut().zip(&b.endpoints) {
            ea.requests -= eb.requests;
            for (x, y) in ea.latency_us.iter_mut().zip(&eb.latency_us) {
                *x -= y;
            }
        }
        d
    }
}

/// Raw MB of one chunk.
const CHUNK_RAW_MB: f64 = (CHUNK * CHANNELS * N * N * 4) as f64 / 1e6;

fn client_loop(
    st: &State,
    progress: &Progress,
    seed: u64,
    client: usize,
    start: Instant,
    seconds: f64,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut keys = KeyStream::new(seed, client, &st.plan.keys);
    let mut conn: Option<Client> = None;
    while start.elapsed().as_secs_f64() < seconds {
        let k = keys.next_key();
        log.attempted += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Client::connect(st.addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    log.failed += 1;
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let reply = c.fetch(0, k.0, k.1);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let check0 = clock::thread_ns();
        let ok = reply.as_ref().is_ok_and(|r| st.check(k, r));
        progress.check_ns.fetch_add(clock::thread_ns() - check0, Ordering::Relaxed);
        match reply {
            Ok(_) if ok => {
                progress.verified.fetch_add(1, Ordering::Relaxed);
                log.lat_ms[usize::from(k.1 != 0)].push(ms);
                if traced {
                    log.spans.push((client as u64, t0, ms, k.1));
                }
            }
            Ok(_) | Err(ServeError::Server { .. }) => log.failed += 1,
            Err(_) => {
                // The connection is unusable; the next fetch reconnects.
                log.failed += 1;
                conn = None;
            }
        }
    }
    log
}

/// Run the closed loop for `seconds` with key streams seeded by `seed`.
/// With a trace, every `Client::fetch` becomes a span (op = connection,
/// mode = requested cf) under one span for the whole loop.
fn phase(
    st: &State,
    run: &Run,
    seed: u64,
    seconds: f64,
    trace: Option<&mut Trace>,
) -> Result<Phase, String> {
    let traced = trace.is_some();
    let mut control = Client::connect(st.addr).map_err(|e| format!("connect: {e}"))?;
    let before = control.stats().map_err(|e| format!("stats: {e}"))?;
    let progress = Progress::default();
    let start = Instant::now();
    let mut rates = Vec::new();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let p = &progress;
        let handles: Vec<_> = (0..run.nproc)
            .map(|c| s.spawn(move || client_loop(st, p, seed, c, start, seconds, traced)))
            .collect();
        // Whole slices inside the phase only, so no slice holds the
        // clients' ramp-down.
        let mut prev = progress.sample();
        let mut end = start + SLICE;
        while (end - start).as_secs_f64() <= seconds {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let now = progress.sample();
            let cpu_s = (now.0 - prev.0).saturating_sub(now.2 - prev.2) as f64 / 1e9;
            rates.push((now.1 - prev.1) as f64 * CHUNK_RAW_MB / cpu_s);
            prev = now;
            end += SLICE;
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    rates.retain(|r| r.is_finite());
    let after = control.stats().map_err(|e| format!("stats: {e}"))?;
    if let Some(t) = trace {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        t.record("serve.closed_loop", 0, None, 0, start, ms);
        let parent = Some(t.len() - 1);
        for l in &logs {
            for &(client, t0, ms, cf) in &l.spans {
                t.record("serve.fetch", client, parent, cf, t0, ms);
            }
        }
    }
    let mut log = ClientLog::default();
    for l in logs {
        for m in 0..2 {
            log.lat_ms[m].extend(&l.lat_ms[m]);
        }
        log.attempted += l.attempted;
        log.failed += l.failed;
    }
    Ok(Phase { log, rates, before, after })
}

/// A stream that keeps a copy of every byte read from the socket.
struct Tee {
    inner: TcpStream,
    seen: Arc<Mutex<Vec<u8>>>,
}

impl Read for Tee {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.lock().expect("capture lock").extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for Tee {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Wire for Tee {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(dur)
    }
    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        self.inner.set_nodelay(on)
    }
}

/// Capture the reply bytes of [`CAPTURED`] fetches off the socket, then
/// time `FrameDecoder` (framing and CRC check) over them; MB/s of reply
/// bytes per CPU second at the median of repeated decodes.
fn frame_decode_mb_s(st: &State, trace: &mut Trace) -> Result<f64, String> {
    let stream = TcpStream::connect(st.addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let tee = Tee { inner: stream, seen: Arc::clone(&seen) };
    let mut client =
        Client::from_stream(Box::new(tee), PROTO_VERSION).map_err(|e| format!("handshake: {e}"))?;
    if client.version() < 2 {
        return Err("capture connection did not negotiate checksummed frames".into());
    }
    seen.lock().expect("capture lock").clear();
    let keys = &st.plan.keys[..CAPTURED.min(st.plan.keys.len())];
    for &k in keys {
        let r = client.fetch(0, k.0, k.1).map_err(|e| format!("capture fetch: {e}"))?;
        if !st.check(k, &r) {
            return Err(format!("capture fetch of {k:?} returned wrong bits"));
        }
    }
    drop(client);
    let bytes = std::mem::take(&mut *seen.lock().expect("capture lock"));
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 20 || (start.elapsed() < Duration::from_millis(300) && times.len() < 500) {
        let span = trace.begin("serve.frame_decode", times.len() as u64, None, 0);
        let mut dec = FrameDecoder::new();
        dec.push(std::hint::black_box(&bytes));
        let mut frames = 0;
        while let Some(f) = dec.pop(true).map_err(|e| format!("frame decode: {e}"))? {
            std::hint::black_box(f);
            frames += 1;
        }
        times.push(trace.end(span) / 1e3);
        if frames != keys.len() {
            return Err(format!("decoded {frames} frames from {} replies", keys.len()));
        }
    }
    Ok(bytes.len() as f64 / 1e6 / quantile(&sorted(times), 0.5))
}

/// Run the workload.
pub fn run(run: &Run, temp: Temp) -> Result<(Outcome, Option<Trace>), String> {
    let ((st, stored_ratio, psnr_db), setup_s) = repeated_setup(|| setup(run, temp))?;
    let mut out = Outcome::default();
    // Each phase draws its own replayable streams from the workload seed.
    let seed = |phase: u64| run.seed.wrapping_add(phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let warm = phase(&st, run, seed(0), WARMUP_S, None)?;
    out.check(warm.log.failed == 0, || format!("{} warm-up fetches failed", warm.log.failed));

    let untraced = phase(&st, run, seed(1), run.phase_seconds(), None)?;
    out.attempted += untraced.log.attempted;
    out.failed += untraced.log.failed;
    shape_check(&mut out, temp, &untraced);
    if !run.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("mb_s", untraced.mb_s(), "MB/s");
        note_latency(&mut out, &untraced.log.lat_ms);
        out.metric("stored_ratio", stored_ratio, "ratio");
        out.metric("psnr_db", psnr_db, "dB");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.note("serve.cache_hit_ratio", untraced.hit_ratio());
        return Ok((out, None));
    }

    let mut trace = Trace::default();
    let traced = phase(&st, run, seed(2), run.phase_seconds(), Some(&mut trace))?;
    out.attempted += traced.log.attempted;
    out.failed += traced.log.failed;
    shape_check(&mut out, temp, &traced);
    let d = traced.delta();
    // The wire share subtracts an interpolated server median: the
    // histogram's bucket bound alone is off by up to 2×.
    let fetch_hist = &d.endpoints[Endpoint::Fetch as usize].latency_us;
    let server_p50_ms = hist_quantile(fetch_hist, 0.5).unwrap_or(0.0) / 1e3;
    let client_p50 = quantile(&sorted(traced.log.lat_ms.concat()), 0.5);
    out.metric("serve.cache_hit_ratio", traced.hit_ratio(), "ratio");
    out.metric("serve.mean_batch", d.mean_batch(), "chunks");
    out.metric("serve.decompress_passes", d.decompress_passes as f64, "count");
    out.metric(
        "serve.server_fetch_p50_us",
        d.quantile_us(Endpoint::Fetch, 0.5).unwrap_or(0) as f64,
        "us",
    );
    out.metric(
        "serve.server_fetch_p99_us",
        d.quantile_us(Endpoint::Fetch, 0.99).unwrap_or(0) as f64,
        "us",
    );
    out.metric("serve.wire_ms_p50", client_p50 - server_p50_ms, "ms");
    // Over the server's life, not the phase: a hot phase builds no slabs,
    // it only shares the ones set-up built.
    out.metric("serve.slab_shared_ratio", traced.after.slab_share_ratio(), "ratio");
    out.metric("serve.frame_decode_mb_s", frame_decode_mb_s(&st, &mut trace)?, "MB/s");
    out.metric("serve.shed", d.shed as f64, "count");
    out.metric("serve.deadline_rejected", d.deadline_rejected as f64, "count");
    if temp == Temp::Cold {
        // Replay the server's miss path (read, CRC at the stored cf,
        // entropy decode, decompress) over every chunk at both fidelities.
        for cf in [STORED_CF, COARSE_CF] {
            let codec =
                CodecSpec::Dct2d { n: N, cf: cf as usize }.build().map_err(|e| e.to_string())?;
            let refs: Vec<&Tensor> = (0..CHUNKS).map(|c| &st.refs[&(c, cf)]).collect();
            replay_reads(&st.packed, cf as usize, codec.as_ref(), &refs, 3, &mut trace, &mut out);
        }
        read_layer_metrics(&trace, &st.packed, &mut out)?;
        let share = mode_share(&trace, "store.decode_chunk");
        out.check(share > 0.5, || {
            format!(
                "serve_cold's miss path no longer stresses entropy decode: decode is {:.0}% of a chunk read",
                100.0 * share
            )
        });
        out.metric(
            "store.prefix_bytes_ratio",
            prefix_bytes_ratio(&st.packed.bytes, COARSE_CF as usize)?,
            "ratio",
        );
    }
    out.trace_overhead(untraced.mb_s(), traced.mb_s());
    Ok((out, Some(trace)))
}

/// Fail the run when the workload stops stressing what it claims to.
fn shape_check(out: &mut Outcome, temp: Temp, ph: &Phase) {
    let h = ph.hit_ratio();
    match temp {
        Temp::Hot => {
            out.check(h >= 0.95, || format!("serve_hot cache hit ratio {h:.3} is not near 1"))
        }
        Temp::Cold => out.check(h <= 0.25, || {
            format!("serve_cold cache hit ratio {h:.3}: the cache is not mostly missing")
        }),
    }
}

/// Replay the read path of every chunk of `packed` at chop factor `cf`
/// through the public `crc32` (full reads only, as the reader does) →
/// `decode_chunk` → `Codec::decompress` calls; each result must equal
/// `refs[chunk]` bit for bit.
fn replay_reads(
    packed: &Packed,
    cf: usize,
    codec: &dyn Codec,
    refs: &[&Tensor],
    op: u64,
    t: &mut Trace,
    out: &mut Outcome,
) {
    let r = match packed.reader() {
        Ok(r) => r,
        Err(e) => return out.check(false, || e),
    };
    let header = *r.header();
    let mode = cf as u8;
    for (c, e) in r.index().iter().enumerate() {
        let bytes = &packed.bytes[e.offset as usize..e.offset as usize + e.len as usize];
        let parent = t.begin("store.read_chunk", op, None, mode);
        let crc_ok = cf != header.cf()
            || t.time("store.crc32", op, Some(parent), mode, || crc32(bytes)) == e.crc;
        let coeffs = t.time("store.decode_chunk", op, Some(parent), mode, || {
            decode_chunk(bytes, &header, e.samples as usize, cf)
        });
        let data = coeffs.ok().and_then(|y| {
            t.time("core.decompress", op, Some(parent), mode, || codec.decompress(&y)).ok()
        });
        t.end(parent);
        let ok = crc_ok && data.is_some_and(|d| same_bits(d.data(), refs[c].data()));
        out.check(ok, || format!("read replay of chunk {c} at cf {cf} differs from the reference"));
    }
}

/// `DczReader::bytes_read` over every chunk at the prefix fidelity,
/// divided by the same at the stored fidelity.
fn prefix_bytes_ratio(bytes: &[u8], coarse_cf: usize) -> Result<f64, String> {
    let read_all = |cf: usize| -> Result<u64, String> {
        let mut r = DczReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?;
        for c in 0..r.chunk_count() {
            r.read_chunk_at(c, cf).map_err(|e| e.to_string())?;
        }
        Ok(r.bytes_read())
    };
    let stored_cf = DczReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?.header().cf();
    Ok(read_all(coarse_cf)? as f64 / read_all(stored_cf)? as f64)
}

/// Mean over fidelities of `name`'s median over the median replayed
/// chunk read at the same fidelity.
fn mode_share(t: &Trace, name: &str) -> f64 {
    let modes = t.modes(name);
    let share = |m: u8| {
        let part = median(t.durations(name, m)).unwrap_or(0.0);
        part / median(t.durations("store.read_chunk", m)).unwrap_or(f64::NAN)
    };
    modes.iter().map(|&m| share(m)).sum::<f64>() / modes.len() as f64
}

/// Per-layer metrics of the replayed read path: decode, decompress and
/// CRC rates, and the decode share of a chunk read.
fn read_layer_metrics(t: &Trace, packed: &Packed, out: &mut Outcome) -> Result<(), String> {
    let (chunk_raw_mb, chunk_bytes_mb) = packed.chunk_mb()?;
    let p50 = |name: &str| mode_mean(&t.by_mode(name), 0.5) * 1e-3;
    out.metric("core.decompress_mb_s", chunk_raw_mb / p50("core.decompress"), "MB/s");
    out.metric("store.decode_chunk_mb_s", chunk_raw_mb / p50("store.decode_chunk"), "MB/s");
    out.metric("store.decode_share", mode_share(t, "store.decode_chunk"), "ratio");
    out.metric("store.crc_mb_s", chunk_bytes_mb / p50("store.crc32"), "MB/s");
    Ok(())
}
