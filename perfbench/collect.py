"""Run the benchmark over several seeds and summarise the runs.

    python3 perfbench/collect.py --seeds 1-10 --out summary.json
    python3 perfbench/collect.py --workloads p13_trials --seeds 1-5 --trace 0

Runs `run.py` once per (workload, seed, trace) pair, one run at a time,
from the current directory.  For every metric it reports the median, the
quartiles (as `statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median; end-to-end spreads are compared with the bounds in
BENCHMARK.json.  `baseline.json` in this directory was written by this
script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], wall


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", help="0, 1 or 0,1")
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    if args.out and Path(args.out).is_file():     # add to an earlier summary
        out = json.loads(Path(args.out).read_text())
    seeds = seed_list(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        rec = out["workloads"].setdefault(workload, {})
        for trace in (int(t) for t in args.trace.split(",")):
            runs = [one_run(workload, s, spec["run_seconds"], trace) for s in seeds]
            key = "per_layer" if trace else "end_to_end"
            rec[f"seeds_trace{trace}"] = seeds
            metrics = {name: summary([r[0]["metrics"][name]["value"] for r in runs])
                       for name in runs[0][0]["metrics"]}
            rec[key] = metrics
            rec[f"failed_trace{trace}"] = sum(r[0]["failed"] for r in runs)
            rec[f"wall_s_trace{trace}"] = summary([r[2] for r in runs])
            if not trace:
                timings = {}
                for r in runs:
                    for name, t in r[1]["timings"].items():
                        timings.setdefault(name, []).append(t.get("median", t.get("value")))
                rec["timings_median_of_runs"] = {k: summary(v) for k, v in timings.items()}
                rec["provenance"] = runs[0][1]["provenance"]
            print(f"{workload} trace={trace} failed={rec[f'failed_trace{trace}']} "
                  f"wall={rec[f'wall_s_trace{trace}']['median']:.1f}s")
            for name, m in metrics.items():
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None:
                    flag = "ok" if m["spread"] < bound / 3 else "WIDE"
                    ok &= flag == "ok" or name == "setup_s"
                print(f"  {name:40s} median {m['median']:<14.6g} spread {m['spread']:.4f}"
                      f" {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
