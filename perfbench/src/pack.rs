//! `pack_hires`: pack smooth 3×512×512 fields with `dct2d-n512-cf4`
//! into in-memory `DczWriter` sinks.
//!
//! `Codec::compress` is most of each chunk's time, so this is the
//! workload where kernel work (structured operators, SIMD) shows.

use std::io::Cursor;
use std::time::Instant;

use aicomp_core::{Codec, CodecSpec};
use aicomp_store::chunk::encode_chunk;
use aicomp_store::crc::crc32;
use aicomp_store::{DczReader, DczWriter, StoreOptions};

use crate::clock;
use crate::fixture::{smooth_fields, Packed};
use crate::report::Outcome;
use crate::stats::{block_rates, median, Psnr};
use crate::trace::Trace;
use crate::{note_latency, peak_rss_mb, repeated_setup, Run, WARMUP_S};

const N: usize = 512;
const CF: usize = 4;
const CHANNELS: usize = 3;
/// Distinct fields; each pack op takes the next [`PER_OP`] of them.
const FIELDS: usize = 4;
/// Chunks per packed container (one field per chunk). Two chunks fill
/// the writer's two-wide parallel encode exactly once per container.
const PER_OP: usize = 2;
/// Pack ops per throughput block.
const BLOCK: usize = 2;

struct State {
    /// Reference containers, one per group of [`PER_OP`] fields, each
    /// verified at set-up.
    refs: Vec<Packed>,
    codec: Box<dyn Codec>,
}

fn opts() -> StoreOptions {
    StoreOptions::dct(N, CF, CHANNELS, 1)
}

fn setup(seed: u64) -> Result<(State, f64, f64), String> {
    let fields = smooth_fields(seed, FIELDS, CHANNELS, N);
    let mut refs = Vec::new();
    let mut psnr = Psnr::default();
    for group in fields.chunks(PER_OP) {
        let p = Packed::new(group.to_vec(), opts())?;
        let mut r = p.reader()?;
        r.verify().map_err(|e| format!("reference container fails verify: {e}"))?;
        for c in 0..r.chunk_count() {
            let out = r.decompress_chunk(c).map_err(|e| format!("reference decode: {e}"))?;
            psnr.add(&p.chunk_raw(c), out.data());
        }
        refs.push(p);
    }
    let raw: usize = refs.iter().map(Packed::raw_bytes).sum();
    let stored: usize = refs.iter().map(|p| p.bytes.len()).sum();
    let codec = CodecSpec::Dct2d { n: N, cf: CF }.build().map_err(|e| e.to_string())?;
    Ok((State { refs, codec }, raw as f64 / stored as f64, psnr.db()))
}

/// One measured phase's samples.
#[derive(Default)]
struct Phase {
    /// Per-chunk wall-clock pack time (ms): container pack time over
    /// [`PER_OP`].
    chunk_ms: Vec<f64>,
    /// Per-chunk pack CPU time (ms) of every thread, the writer's parallel
    /// encoders included.
    chunk_cpu_ms: Vec<f64>,
    /// `(pack CPU s, raw MB)` per op.
    busy: Vec<(f64, f64)>,
    ops: u64,
    failed: u64,
}

impl Phase {
    fn mb_s(&self) -> f64 {
        median(block_rates(&self.busy, BLOCK)).unwrap_or(0.0)
    }
}

/// Pack containers for `seconds`, checking each against its reference.
/// With a trace, every op is followed by a replay of the writer's stages.
fn phase(st: &State, seconds: f64, mut trace: Option<&mut Trace>, out: &mut Outcome) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let reference = &st.refs[ph.ops as usize % st.refs.len()];
        let samples = reference.samples.clone();
        let span = trace.as_deref_mut().map(|t| t.begin("store.pack", ph.ops, None, 0));
        let (t0, cpu0) = (Instant::now(), clock::process_ns());
        let packed = DczWriter::pack(Cursor::new(Vec::new()), &opts(), samples);
        let cpu_ms = (clock::process_ns() - cpu0) as f64 / 1e6;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
            t.end(id);
        }
        ph.ops += 1;
        // Byte identity with a reference container that passed
        // `DczReader::verify` at set-up carries that verdict to this one
        // (verify is a pure function of the bytes) at the cost of a
        // compare instead of a full decode, which would take longer than
        // the pack itself; the reopen checks header, footer and index.
        let ok = packed.is_ok_and(|(sink, _)| {
            let bytes = sink.into_inner();
            bytes == reference.bytes
                && DczReader::new(Cursor::new(bytes.as_slice()))
                    .is_ok_and(|r| r.chunk_count() == PER_OP)
        });
        if !ok {
            ph.failed += 1;
            continue;
        }
        ph.chunk_ms.push(ms / PER_OP as f64);
        ph.chunk_cpu_ms.push(cpu_ms / PER_OP as f64);
        ph.busy.push((cpu_ms / 1e3, reference.raw_bytes() as f64 / 1e6));
        if let Some(t) = trace.as_deref_mut() {
            replay_writer(st, reference, ph.ops, t, out);
        }
    }
    ph
}

/// Replay the writer's stages for every chunk of `reference` through the
/// public `Codec::compress` → `encode_chunk` → `crc32` calls; the bytes
/// must equal the container's at each index offset.
fn replay_writer(st: &State, reference: &Packed, op: u64, t: &mut Trace, out: &mut Outcome) {
    let r = match reference.reader() {
        Ok(r) => r,
        Err(e) => return out.check(false, || e),
    };
    for (c, e) in r.index().iter().enumerate() {
        let batch = reference.chunk_batch(c);
        let coeffs = t.time("core.compress", op, None, 0, || st.codec.compress(&batch));
        let bytes = coeffs.map_err(|e| e.to_string()).and_then(|y| {
            t.time("store.encode_chunk", op, None, 0, || encode_chunk(&y, CF))
                .map_err(|e| e.to_string())
        });
        let at = e.offset as usize..e.offset as usize + e.len as usize;
        let ok = bytes.is_ok_and(|b| {
            let crc = t.time("store.crc32", op, None, 0, || crc32(&b));
            crc == e.crc && b == reference.bytes[at]
        });
        out.check(ok, || format!("writer replay of chunk {c} differs from the container"));
    }
}

/// Run the workload.
pub fn run(run: &Run) -> Result<(Outcome, Option<Trace>), String> {
    let ((st, stored_ratio, psnr_db), setup_s) = repeated_setup(|| setup(run.seed))?;
    let mut out = Outcome::default();
    phase(&st, WARMUP_S, None, &mut out);

    let untraced = phase(&st, run.phase_seconds(), None, &mut out);
    out.attempted += untraced.ops;
    out.failed += untraced.failed;
    if !run.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("mb_s", untraced.mb_s(), "MB/s");
        note_latency(&mut out, std::slice::from_ref(&untraced.chunk_ms));
        out.metric("stored_ratio", stored_ratio, "ratio");
        out.metric("psnr_db", psnr_db, "dB");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok((out, None));
    }

    let mut trace = Trace::default();
    let traced = phase(&st, run.phase_seconds(), Some(&mut trace), &mut out);
    out.attempted += traced.ops;
    out.failed += traced.failed;
    let p50 = |name: &str| median(trace.durations(name, 0)).unwrap_or(f64::NAN);
    let (compress, encode, crc) =
        (p50("core.compress"), p50("store.encode_chunk"), p50("store.crc32"));
    let op = median(traced.chunk_cpu_ms.clone()).unwrap_or(f64::NAN);
    let (chunk_raw_mb, chunk_bytes_mb) = st.refs[0].chunk_mb()?;
    let flops = (CHANNELS as u64 * st.codec.compress_flops()) as f64;
    out.metric("tensor.gemm_gflop_s", flops / (compress * 1e-3) / 1e9, "GFLOP/s");
    out.metric("core.compress_mb_s", chunk_raw_mb / (compress * 1e-3), "MB/s");
    out.metric("core.compress_share", compress / op, "ratio");
    out.metric("store.encode_chunk_mb_s", chunk_raw_mb / (encode * 1e-3), "MB/s");
    out.metric("store.crc_mb_s", chunk_bytes_mb / (crc * 1e-3), "MB/s");
    out.metric("store.write_other_ms", op - compress - encode - crc, "ms");
    out.trace_overhead(untraced.mb_s(), traced.mb_s());
    out.check(compress / op > 0.5, || {
        format!(
            "pack_hires no longer stresses the kernel: compress is {:.0}% of a chunk",
            100.0 * compress / op
        )
    });
    Ok((out, Some(trace)))
}
