"""Workloads of the cayleyltc benchmark.

Every workload is a closed loop: one client in one process runs one CLI
command, trial or decode after another, each starting when the previous one
has finished.  The workload seed only chooses inputs (codewords, error
positions, corrupted vertices); the library receives the generated words.

A run has three parts:

* set-up, repeated `setups` times and reported as its median;
* the reference pass, a fixed seeded set of operations whose outputs are
  checked against contracts under any seed and against recorded references
  where the seed has them;
* more passes over the same operations, until the timed operations have
  taken `seconds` (untraced runs only), each checked to give the outputs of
  the reference pass.  `workload_s` is the sum, over the operations of one
  pass, of each operation's fastest time.

Every operation, and every comparison with a reference, counts as
attempted; it fails on an exception, an unexpected exit code, a broken
contract or an output that differs from the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from cayleyltc import cli, codes, complexes, groups, ltc

clock = time.perf_counter

# The instances.  p13 is PSL2(F_13) with the transvection generators and the
# parity[4,3,2] base code; x41 is PSL2(F_41) with the LPS(5,41) generators,
# whose square code is beyond the coordinate budget, decoded with a rep:6
# tester; toy is the Z12 complex of the README, used by the self-test.
INSTANCES = {
    "p13": {
        "build": ["--group", "psl2:13", "--gens", "79,90,91,234", "--base", "parity:4"],
        "analyze": [("rate", 0, "pass")],
        "decode_weights": tuple(range(2, 65, 2)),   # one trial per weight
        "kappa_weights": (1, 64),
        "kappa_per_pass": 126,
    },
    "x41": {
        "build": ["--group", "psl2:41", "--lps", "5", "--base", "parity:6"],
        "analyze": [("spectral", 0, "pass"), ("rate", 2, "na")],
        "tester_base": "rep:6",
        "words_per_pass": 2,
        "word_weights": (1, 64),       # sparse errors, plus a flipped view on odd words
        "flip_views": True,
    },
    "toy": {
        "build": ["--group", "cyclic:12", "--gens", "1,11", "--gens-b", "5,7",
                  "--base", "rep:2"],
        "analyze": [("rate", 0, "pass"), ("spectral", 2, "na")],
        "decode_weights": (1, 2, 3, 4) * 10,
        "kappa_weights": (1, 4),
        "kappa_per_pass": 40,
        "tester_base": "rep:2",
        "words_per_pass": 4,
        "word_weights": (1, 1),
        "flip_views": False,
    },
}

FLOAT_TOL = 1e-8       # eigenvalues: the Lanczos tolerance is 1e-10 on Ritz values


def base_code(spec: str) -> codes.LinearCode:
    kind, _, arg = spec.partition(":")
    return {"rep": codes.repetition_code, "parity": codes.parity_code}[kind](int(arg))


def build_arg(inst: dict, flag: str) -> str:
    args = inst["build"]
    return args[args.index(flag) + 1]


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


class Run:
    """Samples, failures and counters of one benchmark run."""

    def __init__(self, seed: int, seconds: float, workdir: Path, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.timed_s = 0.0             # time of all timed operations
        self.best: dict[str, float] = {}   # operation -> its fastest time
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.checked: list[str] = []   # reference comparisons made

    def extend(self, share: float = 1.0) -> bool:
        """Whether to run another pass: untraced, until the timed operations
        have taken `share` of the run's seconds."""
        return self.tracer is None and self.timed_s < share * self.seconds

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    def record(self, kind: str, item: str, dt: float) -> None:
        self.samples[kind].append(dt)
        self.timed_s += dt
        self.best[item] = min(self.best.get(item, math.inf), dt)

    @property
    def workload_s(self) -> float | None:
        """The time to every verdict of one pass: the sum of each
        operation's fastest time over the passes.  Every pass repeats the
        same operations on the same inputs, and interference from other
        processes on the machine only ever adds time; slow phases last
        seconds, so taking each operation's best sample, from passes spread
        over the whole run, removes most of it."""
        return sum(self.best.values()) if self.best else None

    def setup(self, fn, *args):
        """One set-up, timed as a sample of setup_s; None if it raised."""
        op = self.attempt()
        t0 = clock()
        try:
            with self.span("bench.setup"):
                result = fn(*args)
        except Exception as exc:
            self.fail(op, f"setup: {type(exc).__name__}: {exc}")
            return None
        self.samples["setup"].append(clock() - t0)
        return result

    def compare(self, what: str, actual, expected) -> None:
        """One reference comparison: floats within FLOAT_TOL, the rest exactly."""
        op = self.attempt()
        self.checked.append(what)
        if not _same(actual, expected):
            self.fail(op, f"{what}: got {actual!r}, reference {expected!r}")


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= FLOAT_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def timed(run: Run, kind: str, op: int, fn, *args, item: str | None = None):
    """Call fn, timing it as one sample of `kind` and of operation `item`
    (default: kind); an exception fails op."""
    t0 = clock()
    try:
        with run.span("bench." + kind):
            result = fn(*args)
    except (Exception, SystemExit) as exc:
        run.fail(op, f"{kind}: {type(exc).__name__}: {exc}")
        return None
    run.record(kind, item or kind, clock() - t0)
    return result


# ---------------------------------------------------------------------------
# CLI pass: build, then analyze commands with expected exit codes
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def manifest_facts(manifest: dict) -> dict:
    """The parts of a build manifest that the references pin down."""
    X = manifest["derived"]
    return {
        "counts": {k: X[k] for k in ("r", "n_vertices", "n_edges", "n_squares",
                                     "query_count", "tnc", "n2c")},
        "delta1_sigma1": [X["delta1"], X["sigma1"]],
        "lambda": X["lambda"],
        "square_code_k": manifest["square_code"].get("k", "skipped"),
    }


def cli_pass(run: Run, inst: dict, refs: dict, out: Path) -> dict | None:
    """`cayleyltc build` then `analyze`; returns the facts checked."""
    op = run.attempt()
    code = timed(run, "build", op, _cli, ["build", *inst["build"], "--out", str(out)])
    if code != 0:
        run.fail(op, f"build: exit {code}, expected 0")
        return None
    manifest = json.loads((out / "manifest.json").read_text())
    facts = manifest_facts(manifest)
    for which, want_exit, want_verdict in inst["analyze"]:
        op = run.attempt()
        report_path = out / f"analyze_{which}.json"
        code = timed(run, f"analyze_{which}", op, _cli,
                     ["analyze", str(out / "manifest.json"), "--which", which,
                      "--out", str(report_path)])
        if code is None:
            continue
        report = json.loads(report_path.read_text())
        if (code, report.get("verdict")) != (want_exit, want_verdict):
            run.fail(op, f"analyze {which}: exit {code} verdict "
                         f"{report.get('verdict')}, expected {want_exit} {want_verdict}")
        if which == "spectral" and want_verdict == "pass":
            p = manifest["generators"]["lps"]
            if not report["lambda"] <= 2 * math.sqrt(p) / (p + 1):
                run.fail(op, f"lambda {report['lambda']} above the Ramanujan bound")
            run.compare("spectral lambda", report["lambda"], refs["lambda"])
        if which == "rate" and want_verdict == "pass":
            facts["rate"] = {k: report[k] for k in ("k", "n", "verdict")}
    for key, value in facts.items():
        run.compare(key, value, refs.get(key))
    return facts


def cli_workload(run: Run, inst: dict, refs: dict, setups: int) -> None:
    """Passes of `build` + `analyze`, run in-process.  The library keeps no
    cache between commands, so every pass does the whole work again.  Half
    the start-up probes run before the passes and half after, so that their
    median spans the run."""
    for _ in range(setups // 2):
        run.setup(cli_startup)
    if cli_pass(run, inst, refs, run.workdir / "instance") is not None:
        while run.extend():
            cli_pass(run, inst, refs, run.workdir / "instance")
    for _ in range(setups - setups // 2):
        run.setup(cli_startup)


def cli_startup() -> None:
    """A fresh interpreter running `cayleyltc --version`: the imports every
    CLI command pays before it starts working."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "cayleyltc.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cayleyltc --version exited {proc.returncode}: {proc.stderr}")


def compare_digests(run: Run, refs: dict, digests: dict) -> None:
    """Compare a reference pass's output digests, if this seed has them."""
    seed_ref = refs.get("seeds", {}).get(str(run.seed))
    if seed_ref is not None:
        for key, value in digests.items():
            run.compare(f"{key} digest", value, seed_ref[key])


def repeat_passes(run: Run, one_pass, first: dict, share: float = 1.0) -> None:
    """Further passes until the timed operations have taken `share` of the
    run's seconds; each must repeat the outputs of the reference pass
    exactly."""
    while run.extend(share):
        for key, value in one_pass().items():
            run.compare(f"{key} digest, repeated pass", value, first[key])


# ---------------------------------------------------------------------------
# Decode and kappa trials on a library-built instance with its square code
# ---------------------------------------------------------------------------


def instance_complex(inst: dict):
    """The complex `build` constructs, built through the library."""
    kind, _, size = build_arg(inst, "--group").partition(":")
    G = groups.psl2(int(size)) if kind == "psl2" else groups.cyclic_group(int(size))
    a = tuple(int(x) for x in build_arg(inst, "--gens").split(","))
    b = (tuple(int(x) for x in build_arg(inst, "--gens-b").split(","))
         if "--gens-b" in inst["build"] else a)
    return complexes.build_complex(G, groups.GeneratorSet(G, a, side="left"),
                                   groups.GeneratorSet(G, b, side="right"))


class TrialSetup:
    """Instance, square code, tester and decoder tables."""

    def __init__(self, inst: dict):
        self.X = instance_complex(inst)
        self.C1 = base_code(build_arg(inst, "--base"))
        self.code = codes.square_code(self.X, self.C1)
        self.tester = ltc.SquareCodeTester(self.X, self.C1, self.code)
        # the first nearest-codeword search builds the decoder tables
        self.tester.nearest_local_codeword(np.zeros(self.X.n_squares, np.uint8), 0)


def decode_trial(s: TrialSetup, seed: int, index: int, w: int, sigma1) -> tuple:
    """One seeded decode trial with w errors and its contract; returns
    (row, broken)."""
    X, code, tester = s.X, s.code, s.tester
    rng = np.random.default_rng([seed, index])
    f = code.random_codeword(rng).to_bits() ^ ltc.random_error(rng, code.n, w)
    D = tester.reject_probability(f)
    out = tester.decode(f)
    rejects = round(D * X.n_vertices)
    broken = []
    if out.delta_initial * X.n_vertices > 2 * rejects * X.n_edges:
        broken.append("Delta_0 > 2 D |E|")
    if out.iterations > out.delta_initial:
        broken.append("iterations > Delta_0")
    if out.kind == "codeword":
        dist = int((out.word.to_bits() != f).sum())
        if dist * X.n_vertices > (4 + 8 * X.nA) * rejects * X.n_squares:
            broken.append("dist > (4 + 8r) D |S|")
        if not code.contains(out.word):
            broken.append("output not in the code")
    else:
        diag = ltc.check_far_diagnostics(X, out, s.C1.distance_exact(), s.C1.n,
                                         sigma1.numerator, sigma1.denominator)
        if not diag["dispute_edge_bound_holds"]:
            broken.append("dispute-edge bound")
        if not diag["link_bound_holds"]:
            broken.append("link bound")
    return (w, out.kind, out.iterations, out.delta_initial, D), broken


def kappa_batch(s: TrialSetup, seed: int, trials: int, weights, refs: dict) -> tuple:
    """One `kappa_experiment`; returns (rows and summary, broken)."""
    d1 = Fraction(s.C1.distance_exact(), s.C1.n)
    sigma1 = Fraction(*refs["delta1_sigma1"][1])
    params = ltc.TesterParams(r=s.X.nA, delta1=float(d1), sigma1=float(sigma1),
                              lam=refs["lambda"])
    report = ltc.kappa_experiment(s.tester, s.code, params, trials=trials,
                                  weights=weights, seed=seed)
    rows = [[r["weight"], r["D"], r["certified"], r["in_code"]] for r in report["rows"]]
    broken = [f"kappa trial {r['trial']}: D = 0 iff in code"
              for r in report["rows"] if (r["D"] == 0) != r["in_code"]]
    summary = [report["kappa_hat"], report["n_certified"], report["radius_kind"]]
    return (rows, summary), broken


def trials_pass(run: Run, s: TrialSetup, inst: dict, refs: dict) -> dict:
    """The run's decode trials, then its kappa batch.  Returns the digests
    of their outputs."""
    sigma1 = Fraction(*refs["delta1_sigma1"][1])
    rows = []
    for index, w in enumerate(inst["decode_weights"]):
        op = run.attempt()
        res = timed(run, "decode_trial", op, decode_trial, s, run.seed, index, w,
                    sigma1, item=f"decode_trial {index}")
        if res is None:
            continue
        row, broken = res
        rows.append(row)
        run.counts["decode_trials"] += 1
        run.counts["decode_iterations"] += row[2]
        run.counts["far_outcomes"] += row[1] == "far"
        for b in broken:
            run.fail(op, f"decode trial {index}: {b}")
    op = run.attempt()
    res = timed(run, "kappa_batch", op, kappa_batch, s, run.seed * 1000,
                inst["kappa_per_pass"], inst["kappa_weights"], refs)
    kappa = None
    if res is not None:
        kappa, broken = res
        run.counts["kappa_trials"] += len(kappa[0])
        run.counts["kappa_certified"] += kappa[1][1]
        for b in broken:
            run.fail(op, b)
    return {"decode": digest(rows), "kappa": digest(kappa)}


def trials_workload(run: Run, inst: dict, refs: dict, setups: int) -> None:
    """Set-ups alternate with passes, so that both spread over the whole
    run and each operation's best time comes from a longer span of the
    host's load."""
    s = run.setup(TrialSetup, inst)
    if s is None:
        return
    run.compare("square code k", s.code.k, refs["square_code_k"])
    first = trials_pass(run, s, inst, refs)
    compare_digests(run, refs, first)
    for i in range(1, setups):
        repeat_passes(run, lambda: trials_pass(run, s, inst, refs), first, i / setups)
        s = run.setup(TrialSetup, inst) or s
    repeat_passes(run, lambda: trials_pass(run, s, inst, refs), first)


# ---------------------------------------------------------------------------
# Decoding corrupted words on a complex loaded from the build artifacts
# ---------------------------------------------------------------------------


class WordSetup:
    """Complex from the artifacts, tester without a square code, tables."""

    def __init__(self, inst: dict, manifest_dir: Path):
        self.X = complexes.deserialize_complex(
            (manifest_dir / "complex.cay2.npz").read_bytes())
        self.tester = ltc.SquareCodeTester(self.X, base_code(inst["tester_base"]), None)
        self.tester.nearest_local_codeword(np.zeros(self.X.n_squares, np.uint8), 0)


def corrupted_word(X, seed: int, index: int, inst: dict) -> np.ndarray:
    """The zero codeword with sparse errors and, on odd words, one flipped
    local view (its vertex then disagrees with every neighbour)."""
    rng = np.random.default_rng([seed, index])
    f = np.zeros(X.n_squares, dtype=np.uint8)
    if inst["flip_views"] and index % 2:
        f[np.unique(X.squares_of_vertex(int(rng.integers(X.n_vertices))))] = 1
    lo, hi = inst["word_weights"]
    f ^= ltc.random_error(rng, X.n_squares, int(rng.integers(lo, hi + 1)))
    return f


def decode_word(run: Run, s: WordSetup, f: np.ndarray) -> tuple:
    """reject_probability + decode of one word and its contract."""
    X, tester = s.X, s.tester
    t0 = clock()
    D = tester.reject_probability(f)
    run.samples["reject"].append(clock() - t0)
    out = tester.decode(f)
    rejects = round(D * X.n_vertices)
    broken = []
    if out.kind != "codeword" or out.word.weight() != 0:
        broken.append("not decoded to the sent word")
    elif int(f.sum()) * X.n_vertices > (4 + 8 * X.nA) * rejects * X.n_squares:
        broken.append("dist > (4 + 8r) D |S|")
    if out.delta_initial * X.n_vertices > 2 * rejects * X.n_edges:
        broken.append("Delta_0 > 2 D |E|")
    if out.iterations > out.delta_initial:
        broken.append("iterations > Delta_0")
    return (out.kind, out.iterations, out.delta_initial, D), broken


def words_pass(run: Run, s: WordSetup, inst: dict) -> dict:
    """The run's corrupted words; returns the digest of outcomes."""
    rows = []
    for index in range(inst["words_per_pass"]):
        op = run.attempt()
        res = timed(run, "decode_word", op, decode_word, run, s,
                    corrupted_word(s.X, run.seed, index, inst),
                    item=f"decode_word {index}")
        if res is None:
            continue
        row, broken = res
        rows.append(row)
        run.counts["decode_words"] += 1
        run.counts["decode_iterations"] += row[1]
        for b in broken:
            run.fail(op, f"word {index}: {b}")
    return {"words": digest(rows)}


def lps_workload(run: Run, inst: dict, refs: dict, setups: int) -> None:
    """Passes of `build` + `analyze` for half the run, then passes over
    corrupted words decoded on the complex loaded from the artifacts that
    build wrote.  The loaded complex is not held while build runs, so the
    peak memory is that of one or the other."""
    out = run.workdir / "instance"
    if cli_pass(run, inst, refs, out) is None:
        return
    while run.extend(0.5):
        cli_pass(run, inst, refs, out)
    s = None
    for _ in range(setups):
        s = run.setup(WordSetup, inst, out)
    if s is None:
        return
    first = words_pass(run, s, inst)
    compare_digests(run, refs, first)
    repeat_passes(run, lambda: words_pass(run, s, inst), first)


# ---------------------------------------------------------------------------
# Recording the references from the current program
# ---------------------------------------------------------------------------


def record_references(inst: dict, out: Path, seeds) -> dict:
    """What the workloads compare, as this program computes it."""
    assert _cli(["build", *inst["build"], "--out", str(out)]) == 0
    ref = manifest_facts(json.loads((out / "manifest.json").read_text()))
    if ("rate", 0, "pass") in inst["analyze"]:
        path = out / "rate.json"
        _cli(["analyze", str(out / "manifest.json"), "--which", "rate",
              "--out", str(path)])
        ref["rate"] = {k: v for k, v in json.loads(path.read_text()).items()
                       if k in ("k", "n", "verdict")}
    ref["seeds"] = {str(seed): {} for seed in seeds}
    if "decode_weights" in inst:
        s = TrialSetup(inst)
        for seed in seeds:
            ref["seeds"][str(seed)].update(trials_pass(Run(seed, 0, out), s, inst, ref))
    if "tester_base" in inst:
        s = WordSetup(inst, out)
        for seed in seeds:
            ref["seeds"][str(seed)].update(words_pass(Run(seed, 0, out), s, inst))
    return ref
