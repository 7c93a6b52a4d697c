//! Steady end-to-end and per-layer benchmark of the `.dcz` stack.
//!
//! Three workloads split the layers most likely to be optimised: the
//! `tensor`/`core` kernel (`pack_hires`), and the `serve` transport and
//! cache (`serve_hot`) against the batcher and the `store` entropy decode
//! behind a cache miss (`serve_cold`). Every gated timing is CPU time
//! (see [`clock`]), so the hypervisor's steal on a shared host does not
//! move it. See `README.md` for the metric map and the host noise these
//! figures were designed against.

pub mod clock;
pub mod fixture;
pub mod keys;
pub mod pack;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use report::Outcome;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Seconds of untimed warm-up before any measured phase.
pub const WARMUP_S: f64 = 1.0;

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: the same seed builds the same inputs and traffic.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Cores available; client and worker counts never exceed it.
    pub nproc: usize,
    /// Scratch directory for containers, removed when the run ends.
    pub dir: PathBuf,
}

impl Run {
    /// Seconds of each measured phase: a traced run splits its time
    /// between an untraced reference phase and the traced phase, so the
    /// tracing overhead is measured on the same set-up.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run `setup` [`SETUPS`] times, dropping each state before building the
/// next, and return the last state with the median set-up CPU time in
/// seconds (every thread of the process, the server's included).
pub fn repeated_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = clock::process_ns();
        state = Some(setup()?);
        times.push((clock::process_ns() - t0) as f64 / 1e9);
    }
    let state = state.expect("at least one set-up ran");
    Ok((state, stats::quantile(&stats::sorted(times), 0.5)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// CPU time the hypervisor has stolen from this machine so far, in
/// seconds (`steal` of `/proc/stat`, 0 where it is not reported). The run
/// record carries the steal during the run, which explains most of the
/// run-to-run drift on a shared host.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        })
        .map_or(0.0, |jiffies| jiffies / 100.0)
}

/// Note the wall-clock latencies (ms) of a measured phase's operations in
/// the run record. They are what a caller waits, steal included, so they
/// are reported but not gated: `op_p50_ms` and `op_p90_ms` weight each
/// fidelity group equally, and `op_p99_ms` is the pooled p99 when at least
/// ten samples lie beyond it.
pub fn note_latency(out: &mut Outcome, groups: &[Vec<f64>]) {
    out.note("op_p50_ms", stats::mode_mean(groups, 0.5));
    out.note("op_p90_ms", stats::mode_mean(groups, 0.9));
    let pooled = stats::sorted(groups.concat());
    out.note("op_samples", pooled.len() as f64);
    match stats::tail_quantile(&pooled, 0.99, 10) {
        Some(p99) => out.note("op_p99_ms", p99),
        None => out.note_str("op_p99_ms", "fewer than 10 samples beyond p99"),
    }
}

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mb_s", "MB/s"),
    ("stored_ratio", "ratio"),
    ("psnr_db", "dB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("tensor.gemm_gflop_s", "GFLOP/s"),
    ("core.compress_mb_s", "MB/s"),
    ("core.compress_share", "ratio"),
    ("core.decompress_mb_s", "MB/s"),
    ("store.encode_chunk_mb_s", "MB/s"),
    ("store.crc_mb_s", "MB/s"),
    ("store.decode_chunk_mb_s", "MB/s"),
    ("store.decode_share", "ratio"),
    ("store.prefix_bytes_ratio", "ratio"),
    ("store.write_other_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.mean_batch", "chunks"),
    ("serve.decompress_passes", "count"),
    ("serve.server_fetch_p50_us", "us"),
    ("serve.server_fetch_p99_us", "us"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.slab_shared_ratio", "ratio"),
    ("serve.frame_decode_mb_s", "MB/s"),
    ("serve.shed", "count"),
    ("serve.deadline_rejected", "count"),
    ("trace.mb_s", "MB/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 3] = ["pack_hires", "serve_hot", "serve_cold"];

/// Run workload `name`.
pub fn run_workload(name: &str, run: &Run) -> Result<(Outcome, Option<trace::Trace>), String> {
    let steal0 = host_steal_s();
    let (mut out, trace) = match name {
        "pack_hires" => pack::run(run)?,
        "serve_hot" => serve::run(run, serve::Temp::Hot)?,
        "serve_cold" => serve::run(run, serve::Temp::Cold)?,
        other => return Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    };
    out.note("host_steal_s", ((host_steal_s() - steal0) * 100.0).round() / 100.0);
    out.complete(if run.trace { &PER_LAYER } else { &END_TO_END });
    Ok((out, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn metric_tables_match_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK.contains(&entry), "{name} [{unit}] is not listed");
        }
        for w in WORKLOADS {
            assert!(BENCHMARK.contains(&format!("{{\"name\": \"{w}\", \"why\"")), "{w}");
        }
        assert_eq!(
            BENCHMARK.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
