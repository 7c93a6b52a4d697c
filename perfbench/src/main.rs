//! `perfbench` — run one workload and print its result.
//!
//! ```text
//! perfbench --workload <pack_hires|serve_hot|serve_cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run record (environment, every metric, notes) as one JSON
//! line, then the result line `{"correct", "attempted", "failed",
//! "metrics"}` last. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` the per-layer ones, and the spans are written
//! to `.perfbench/trace-<workload>-seed<n>.jsonl`. Exits 1 when any
//! operation, correctness gate or workload-shape check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::environment;
use perfbench::{run_workload, Run};

fn parse() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let run = Run { seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false), nproc, dir };
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let (workload, run) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let result = run_workload(&workload, &run);
    let _ = std::fs::remove_dir_all(&run.dir);
    let (out, trace) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = trace {
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{workload}-seed{}.jsonl", run.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: {workload}: {p}");
    }
    println!("{}", out.record_line(&environment(&workload, run.seed, run.trace)));
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
