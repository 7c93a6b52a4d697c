#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload serve_cold --seeds 1-10 \
        [--trace 1] [--save a.json] [--against a.json]

Runs `BENCHMARK.json`'s command once per seed, from the repository root,
and prints for every metric the median, the quartiles and the spread
(interquartile distance over median, as `statistics.quantiles(n=4)` gives
the quartiles) next to the metric's bound. `--save` keeps the values;
`--against` an earlier saved set adds how far each median moved from it,
in the metric's worse direction. A metric is flagged `!` when its spread
or its move exceeds its bound; `setup_s` is judged on its move only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(1)
    record = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result["metrics"], record.get("host_steal_s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    ap.add_argument("--save", help="write the values of this set to a JSON file")
    ap.add_argument("--against", help="a set saved earlier with --save")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        metrics, steal = run(bench, args.workload, seed, seconds, args.trace)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} (steal {steal} s): "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values))
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'move':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        m = spec.get(name, {})
        bound = m.get("bound")
        move = None
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = before - med if m.get("better") == "higher" else med - before
            move = worse / before if before else 0.0
        flag = ""
        if bound is not None:
            spread_bad = name != "setup_s" and spread > bound
            if spread_bad or (move is not None and move > bound):
                flag = " !"
        shown = f"{move:8.4f}" if move is not None else f"{'':8}"
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {shown} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
