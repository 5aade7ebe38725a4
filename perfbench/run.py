"""The cayleyltc benchmark: one command, three workloads.

    python3 perfbench/run.py --workload p13_cli --seed 1 --seconds 15 --trace 0

Run it from the root of a source tree; it imports `cayleyltc` from `src/`
there and writes only under `.perfbench_work/`.  The last line of standard
output is the result: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  The line before it is the full report: provenance, every
timing with its median, quartiles, tail and sample count, counters and
failures.

    python3 perfbench/run.py --selftest            # smoke + negative check
    python3 perfbench/run.py --record-references   # rewrite references.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
REFERENCE_SEEDS = range(100)

# workload -> (runner in bench.py, instance, set-ups per untraced run; a
# traced run sets up once)
WORKLOADS = {
    "p13_cli": ("cli_workload", "p13", 15),
    "p13_trials": ("trials_workload", "p13", 3),
    "x41_lps": ("lps_workload", "x41", 3),
}

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}

# per-layer counts: (metric, source) with source a span name (its calls)
CALL_COUNTS = [
    ("codes.square_code_calls", "codes.square_code"),
    ("f2core.matvec_calls", "f2core.matvec"),
    ("ltc.nearest_local_codeword_calls", "ltc.nearest_local_codeword"),
    ("ltc.reject_vector_calls", "ltc.reject_vector"),
    ("ltc.decode_calls", "ltc.decode"),
]
HOOK_COUNTS = ["analysis.sigma_pairs", "spectral.lanczos_iterations",
               "spectral.lanczos_residual", "complexes.bytes_written"]


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _quantiles(xs: list[float]) -> dict:
    xs = sorted(xs)
    n = len(xs)
    q1, q3 = (statistics.quantiles(xs, n=4)[::2] if n >= 2 else (xs[0], xs[0]))
    # the highest percentile with at least ten samples beyond it
    tail_p = next((p for p in (99.9, 99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10),
                  None)
    tail = (xs[min(n - 1, int(n * tail_p / 100))] if tail_p is not None else xs[-1])
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": n,
            "tail": {"p": tail_p if tail_p is not None else "max", "value": tail}}


def _program_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "cayleyltc").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git(root: Path, *argv: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", *argv], cwd=root, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "program_hash": _program_hash(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(run) -> dict:
    setup = run.samples["setup"]
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "workload_s": run.workload_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named_timings(run) -> dict:
    """The per-command and per-trial timings, under the names users know."""
    names = {"setup": ("setup_s", "s", 1), "build": ("build_s", "s", 1),
             "analyze_rate": ("analyze_rate_s", "s", 1),
             "analyze_spectral": ("analyze_spectral_s", "s", 1),
             "decode_trial": ("decode_ms", "ms", 1000),
             "decode_word": ("decode_ms", "ms", 1000),
             "reject": ("reject_ms", "ms", 1000),
             "kappa_batch": ("kappa_batch_s", "s", 1)}
    out = {}
    for kind, xs in run.samples.items():
        if xs and kind in names:
            name, unit, scale = names[kind]
            q = _quantiles([x * scale for x in xs])
            out[name] = {"unit": unit, **q}
    for name, count, kind in (("decode_trials_per_s", "decode_trials", "decode_trial"),
                              ("kappa_trials_per_s", "kappa_trials", "kappa_batch")):
        if run.samples.get(kind):
            out[name] = {"unit": "1/s",
                         "value": run.counts[count] / sum(run.samples[kind])}
    return out


def per_layer(run, tracer, spans_mod, root: Path, key: str) -> tuple[dict, list]:
    metrics = {}
    for _, _, span, _ in spans_mod.TARGETS:
        metrics[span + "_s"] = tracer.self_time.get(span, 0.0)
    for name, span in CALL_COUNTS:
        metrics[name] = tracer.calls.get(span, 0)
    for name in HOOK_COUNTS:
        metrics[name] = tracer.counters.get(name, 0)
    trials = run.counts["decode_trials"] + run.counts["decode_words"]
    metrics["ltc.decode_iterations"] = run.counts["decode_iterations"]
    metrics["ltc.far_outcomes"] = run.counts["far_outcomes"]
    metrics["ltc.far_ratio"] = run.counts["far_outcomes"] / trials if trials else 0.0
    kt = run.counts["kappa_trials"]
    metrics["ltc.kappa_certified_ratio"] = run.counts["kappa_certified"] / kt if kt else 0.0
    metrics["bench.self_s"] = sum(v for k, v in tracer.self_time.items()
                                  if k.startswith("bench."))
    metrics["trace.spans"] = tracer.spans
    metrics["trace.overhead_s"] = tracer.spans * spans_mod.per_span_overhead_s()
    metrics["trace.workload_s"] = run.workload_s

    # work counters must repeat exactly for one program, workload and seed
    counters = {k: v for k, v in metrics.items()
                if k.endswith(("_calls", "_pairs", "_iterations", "_outcomes",
                               "_written")) or k == "trace.spans"}
    record = (root / ".perfbench_work" / "counters"
              / f"{key}-seed{run.seed}-{_program_hash(root)}.json")
    mismatches = []
    if record.is_file():
        before = json.loads(record.read_text())
        mismatches = [f"{k}: {before.get(k)} then {v}" for k, v in counters.items()
                      if before.get(k) != v]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counters, sort_keys=True))
    metrics["bench.counter_mismatches"] = len(mismatches)
    return metrics, mismatches


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 refs: dict, instance: str | None = None) -> tuple[dict, dict]:
    """One run; returns (result, report)."""
    import bench
    import spans

    runner, default_instance, setups = WORKLOADS[workload]
    instance = instance or default_instance
    workdir = root / ".perfbench_work" / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    run = bench.Run(seed, seconds, workdir, tracer)
    prov = provenance(root)
    try:
        if tracer:
            tracer.install()
        try:
            getattr(bench, runner)(run, bench.INSTANCES[instance], refs[instance],
                                   1 if trace else setups)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()

    e2e = end_to_end(run)
    mismatches = []
    if trace:
        metrics, mismatches = per_layer(run, tracer, spans, root,
                                        f"{workload}-{instance}")
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith(("_ratio",
                 "_residual")) else "count") for k in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS
    failures = [f"op {op}: {'; '.join(rs)}" for op, rs in sorted(run.failures.items())]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload, "instance": instance, "seed": seed, "seconds": seconds,
        "trace": int(trace), "provenance": prov,
        "end_to_end": e2e,
        "timings": named_timings(run),
        "failed_ratio": len(run.failures) / max(run.attempted, 1),
        "counts": dict(run.counts),
        "reference_seed_recorded": str(seed) in refs[instance].get("seeds", {}),
        "reference_checks": run.checked,
        "counter_mismatches": mismatches,
        "failures": failures[:20],
    }
    return result, report


def selftest(root: Path, refs: dict) -> int:
    """Every workload on the toy instance, traced and untraced, then the
    same with a corrupted reference, which must be counted as a failure."""
    import copy

    problems = []
    for workload in WORKLOADS:
        for trace in (False, True, True):
            result, report = run_workload(root, workload, 1, 0.5, trace, refs, "toy")
            values = [m["value"] for m in result["metrics"].values()]
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {report['failures']}")
            if not trace and not all(isinstance(v, (int, float)) and v > 0
                                     for v in values):
                problems.append(f"{workload}: end-to-end metric missing or zero")
            if report["counter_mismatches"]:
                problems.append(f"{workload}: counters differ between traced runs: "
                                f"{report['counter_mismatches']}")
            if not report["reference_checks"]:
                problems.append(f"{workload}: no reference comparison made")
        bad = copy.deepcopy(refs)
        bad["toy"]["counts"]["n_squares"] += 1
        for seed_ref in bad["toy"]["seeds"].values():
            for key in seed_ref:
                seed_ref[key] = "0" * 16
        result, _ = run_workload(root, workload, 1, 0.5, False, bad, "toy")
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a corrupted reference went unnoticed")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def record_references(root: Path, seeds=REFERENCE_SEEDS) -> dict:
    import bench

    workdir = root / ".perfbench_work" / f"references-{os.getpid()}"
    try:
        return {name: bench.record_references(inst, workdir / name, seeds)
                for name, inst in bench.INSTANCES.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cayleyltc" / "__init__.py").is_file():
        return _die(f"no src/cayleyltc under {root}: run from the root of a source tree")
    # one client, one core for BLAS too: steadier numbers on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import cayleyltc

    if Path(cayleyltc.__file__).resolve().parent != (root / "src" / "cayleyltc").resolve():
        return _die(f"imported cayleyltc from {cayleyltc.__file__}, not from {root}/src")

    if args.record_references:
        REFERENCES.write_text(json.dumps(record_references(root), indent=1,
                                         sort_keys=True) + "\n")
        return 0
    refs = json.loads(REFERENCES.read_text())
    if args.selftest:
        return selftest(root, refs)
    if args.workload is None:
        return _die("--workload is required")
    result, report = run_workload(root, args.workload, args.seed, args.seconds,
                                  bool(args.trace), refs)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
