"""Span tracing of cayleyltc from outside the library.

The tracer replaces chosen functions and methods of the already imported
`cayleyltc` modules with timing wrappers, both in the module or class that
defines them and in every `cayleyltc` module that imported the same object
by name.  Nothing under `src/` changes; `uninstall` restores the originals.

Each wrapped call is a span.  Spans nest through a stack, so every span
knows the span that caused it.  Per span name the tracer keeps the number
of calls and the self time (span time minus the time its child spans
cover).  Spans are aggregated in memory as they close rather
than stored one by one, which keeps the traced run's memory close to the
untraced one.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

_clock = time.perf_counter


def _count_bytes(blob, counters):
    counters["complexes.bytes_written"] += len(blob)


def _count_lanczos(report, counters):
    counters["spectral.lanczos_iterations"] += report.iterations
    counters["spectral.lanczos_residual"] = max(
        counters["spectral.lanczos_residual"], report.residual)


def _count_sigma(result, counters):
    counters["analysis.sigma_pairs"] += result.pairs_scanned


# (module, qualified name, span name, result hook).  Span names are
# "<layer>.<function>", the layer being the cayleyltc module whose function
# is called; a hook reads a work counter off the call's return value.
TARGETS = [
    ("groups", "psl2", "groups.psl2", None),
    ("groups", "lps_generators", "groups.lps_generators", None),
    ("groups", "cayley_graph", "groups.cayley_graph", None),
    ("complexes", "build_complex", "complexes.build_complex", None),
    ("complexes", "CayleyComplex.check_conditions", "complexes.check_conditions", None),
    ("complexes", "serialize_complex", "complexes.serialize_complex", _count_bytes),
    ("complexes", "deserialize_complex", "complexes.deserialize_complex", None),
    ("spectral", "second_eigenvalue", "spectral.second_eigenvalue", None),
    ("spectral", "_dense_second", "spectral.dense", None),
    ("spectral", "_lanczos_second", "spectral.lanczos", _count_lanczos),
    ("spectral", "parallel_neighbor_table", "spectral.parallel_neighbor_table", None),
    ("f2core", "row_basis", "f2core.row_basis", None),
    ("f2core", "kernel_basis", "f2core.kernel_basis", None),
    ("f2core", "rank", "f2core.rank", None),
    ("f2core", "BitMatrix.matvec", "f2core.matvec", None),
    ("f2core", "dump_matrix", "f2core.dump_matrix", None),
    ("codes", "square_code", "codes.square_code", None),
    ("codes", "tensor_code", "codes.tensor_code", None),
    ("codes", "LinearCode.random_codeword", "codes.random_codeword", None),
    ("codes", "LinearCode.contains", "codes.contains", None),
    ("analysis", "sigma_exact", "analysis.sigma_exact", _count_sigma),
    ("ltc", "SquareCodeTester._ensure_tables", "ltc.tables", None),
    ("ltc", "SquareCodeTester.nearest_local_codeword", "ltc.nearest_local_codeword", None),
    ("ltc", "SquareCodeTester.decode", "ltc.decode", None),
    ("ltc", "SquareCodeTester.reject_vector", "ltc.reject_vector", None),
    ("ltc", "check_far_diagnostics", "ltc.check_far_diagnostics", None),
    ("ltc", "dispute_counts", "ltc.dispute_counts", None),
    ("ltc", "kappa_experiment", "ltc.kappa_experiment", None),
    ("ltc", "kappa_trial", "ltc.kappa_trial", None),
    ("cli", "cmd_build", "cli.cmd_build", None),
    ("cli", "cmd_analyze", "cli.cmd_analyze", None),
]

LIBRARY_MODULES = ["groups", "complexes", "spectral", "f2core", "codes",
                   "analysis", "ltc", "cli"]


class Tracer:
    """Nested span timer with per-name aggregation."""

    def __init__(self):
        self._stack: list[list[float]] = []      # per open span: [child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, frame: list[float], dt: float) -> None:
        self.spans += 1
        self.calls[name] += 1
        self.self_time[name] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one trial."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            dt = _clock() - t0
            self._stack.pop()
            self._close(name, frame, dt)

    def wrap(self, fn, name: str, hook=None):
        stack, close, counters = self._stack, self._close, self.counters

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                close(name, frame, dt)
            if hook is not None:
                hook(result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers into cayleyltc ------------------------------------

    def install(self, package: str = "cayleyltc", targets=TARGETS) -> None:
        modules = [importlib.import_module(f"{package}.{m}") for m in LIBRARY_MODULES]
        by_name = dict(zip(LIBRARY_MODULES, modules))
        for mod_name, qualname, span_name, hook in targets:
            owner = by_name[mod_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, span_name, hook)
            self._patch(owner, attr, original, wrapped)
            if path:
                continue     # a method is looked up through its class everywhere
            for other in modules:
                if other is not owner and other.__dict__.get(attr) is original:
                    self._patch(other, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def per_span_overhead_s(n: int = 20000) -> float:
    """Measured extra cost of one wrapped call over a plain call."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "probe")
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        for _ in range(n):
            noop()
        plain = _clock() - t0
        t0 = _clock()
        for _ in range(n):
            traced()
        best = min(best, (_clock() - t0 - plain) / n)
    return max(best, 0.0)
